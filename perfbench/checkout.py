"""Paths of the checkout the benchmark runs in; it imports the package
from the checkout's own `src`, never from an installed copy."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
RESULTS = BENCH / "results"
TMP = BENCH / "tmp"


def use_checkout_source() -> None:
    """Put the checkout's `src` first on the import path, or exit with
    status 1 when the checkout has no package source."""
    if not (SRC / "diagonal_effect" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'diagonal_effect'}")
    sys.path.insert(0, str(SRC))
    TMP.mkdir(exist_ok=True)
