"""Every row of the committed benchmark claims, `BENCH_<workload>.json` at
the repository root, holds what a claim needs: the commits, the seeds and
pairs, the run length, the parent's and the change's medians and quartiles
per end-to-end metric with the pairs won, the job counts and the machine.
A measured row (written by `tools/bench_pairs.py`) has every end-to-end
metric of BENCHMARK.json and every quartile; a row backfilled from
CHANGES.md has what CHANGES.md gave, and says so.  The script's own parts,
the export of a commit and the row it builds from runs, are checked too."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
END_TO_END = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
ROW_KEYS = {"commit", "parent", "workload", "seeds", "pairs", "seconds", "metrics", "attempted",
            "failed", "fingerprint", "backfilled"}
METRIC_KEYS = {"unit", "better", "won", "parent", "change"}
SUMMARY_KEYS = {"median", "q1", "q3"}


def test_claims_are_committed():
    assert {"fibers", "invariants", "toric"} <= {p.stem[len("BENCH_"):] for p in FILES}


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_every_row_holds_a_claim(path):
    rows = json.loads(path.read_text())
    assert isinstance(rows, list) and rows
    workload = path.stem[len("BENCH_"):]
    assert workload in WORKLOADS
    for row in rows:
        check_row(row, workload)


def check_row(row: dict, workload: str) -> None:
    assert ROW_KEYS <= row.keys()
    assert row["workload"] == workload
    assert all(len(row[k]) == 40 for k in ("commit", "parent"))
    assert row["pairs"] == len(row["seeds"]) > 0 and row["seconds"] > 0
    measured = not row["backfilled"]
    if measured:
        assert set(row["metrics"]) == set(END_TO_END)
        assert {"nproc", "machine", "python"} <= row["fingerprint"].keys()
    for side in ("parent", "change"):
        assert len(row["attempted"][side]) == len(row["failed"][side]) == row["pairs"]
    for name, metric in row["metrics"].items():
        assert METRIC_KEYS <= metric.keys()
        assert (metric["unit"], metric["better"]) == (END_TO_END[name]["unit"], END_TO_END[name]["better"])
        for side in ("parent", "change"):
            summary = metric[side]
            assert SUMMARY_KEYS <= summary.keys() and summary["median"] is not None
            if measured or summary["q1"] is not None:
                assert summary["q1"] <= summary["median"] <= summary["q3"]
        if measured:
            assert 0 <= metric["won"] <= row["pairs"]


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_export_is_the_committed_tree(tmp_path):
    tool = load_tool()
    try:
        head = tool.git("rev-parse", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    dest = tool.export(head, tmp_path / "head")
    assert (dest / "perfbench" / "run.py").is_file()
    assert json.loads((dest / "BENCHMARK.json").read_text()) == json.loads(tool.git("show", f"{head}:BENCHMARK.json"))


def test_built_row_holds_a_claim():
    # three pairs in which the change lowers every metric in the first two
    def run(value: float) -> dict:
        return {"metrics": {name: {"value": value} for name in END_TO_END}, "attempted": 92, "failed": 0,
                "fingerprint": {"nproc": 4, "machine": "x86_64", "python": "3.11.7", "seed": 1}}

    runs = {"parent": [run(2.0), run(2.0), run(1.0)], "change": [run(1.0), run(1.5), run(1.0)]}
    row = load_tool().build_row("a" * 40, "b" * 40, "fibers", [1, 2, 3], 25, runs)
    check_row(row, "fibers")
    assert not row["backfilled"] and "seed" not in row["fingerprint"]
    for name, metric in row["metrics"].items():
        assert metric["won"] == (2 if END_TO_END[name]["better"] == "lower" else 0)
        assert (metric["parent"]["median"], metric["change"]["median"]) == (2.0, 1.0)
