"""The package namespace, which submodules each CLI command loads, that
every module of the package reads each name it imports, that only
`polynomials` calls the checked polynomial constructor, and that some file
of the project reads each private name the package defines.

Import scope is checked in a fresh interpreter: the other tests run the CLI
in-process, with every submodule already loaded.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diagonal_effect

SRC = str(Path(diagonal_effect.__file__).resolve().parents[1])
PACKAGE = Path(diagonal_effect.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
TABLE3 = str(ROOT / "demos" / "table3.csv")

EXPORTS = [
    "BoundaryReport", "BoundaryVerdict", "BudgetExceededError", "CellPolynomial",
    "ConnectivityReport", "ConvergenceError", "CountTable", "DesignMatrix",
    "DiagonalEffectError", "Fiber", "InputError", "Invariant",
    "InvariantViolationError", "MembershipVerdict", "MixtureParams", "ModelFamily",
    "ModelForm", "ModelSpec", "Move", "Normalizers", "ProbTable", "SizeMismatchError",
    "Stationary", "SufficientStat", "SweepReport", "TermOrder", "TestResult",
    "ToricOnlyCase", "ToricParams", "VanishingReport", "VerdictKind", "WalkConfig",
    "apply_move", "boundary_membership_check", "check_vanishing",
    "classify_toric_point", "common_diagonal_fit", "design_matrix", "enumerate_fiber",
    "errors", "exact_test", "exact_test_chains", "expected_counts", "fiber_walk", "fibers",
    "gens_common_mixture_families", "gens_common_mixture_listed3",
    "gens_common_toric_listed3", "gens_diag_effect", "gens_independence", "groebner",
    "ideal_equal", "integer_kernel", "invariants", "is_connected", "lattice_binomials",
    "likelihood", "markov", "membership", "mixture_point", "mixture_to_toric",
    "moves", "moves_common_diag", "moves_diag_effect", "moves_for_model", "moves_to_binomials",
    "nonvanishing_variants_report", "normalize", "normalizers", "params",
    "pearson_statistic", "polynomials", "quasi_independence_fit",
    "random_rational_point", "sufficient_statistic", "tables", "toric_ideal",
    "toric_point", "toricideal", "transpose_apply", "verify_connectivity", "walk",
]
SUBMODULES = {"errors", "tables", "params", "polynomials", "invariants", "moves", "fibers",
              "walk", "markov", "membership", "toricideal", "groebner"}
# what `markov` loads: its exact tests and sweep call the fit, the
# enumeration, the move factory and the walk
MARKOV = {"errors", "tables", "params", "moves", "fibers", "walk", "markov"}


def loaded_after(code: str) -> set:
    """The package's submodules loaded once `code` has run in a fresh
    interpreter, by their short names."""
    probe = (f"{code}\nimport json, sys\nprint(json.dumps([m for m in sys.modules"
             " if m.startswith('diagonal_effect.')]), file=sys.stderr)")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    return {m.split(".", 1)[1] for m in json.loads(out.stderr.splitlines()[-1])}


def after_command(*argv: str) -> set:
    return loaded_after(f"from diagonal_effect.cli import main\nassert main({list(argv)!r}) == 0")


class TestNamespace:
    def test_all_is_pinned(self):
        assert diagonal_effect.__all__ == EXPORTS
        assert SUBMODULES <= set(EXPORTS)

    def test_each_name_is_its_submodules_object(self):
        for module in SUBMODULES:
            assert getattr(diagonal_effect, module) is importlib.import_module(f"diagonal_effect.{module}")
        for name in set(EXPORTS) - SUBMODULES:
            value = getattr(diagonal_effect, name)
            # every other export is a class or a function of the package
            assert value is getattr(sys.modules[value.__module__], name), name

    def test_dir_lists_every_export(self):
        assert set(EXPORTS) <= set(dir(diagonal_effect))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            diagonal_effect.no_such_name
        assert not hasattr(diagonal_effect, "DEFAULT_NODE_BUDGET")

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from diagonal_effect import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(EXPORTS)
        assert namespace["exact_test"] is diagonal_effect.markov.exact_test
        assert namespace["fiber_walk"] is diagonal_effect.walk.fiber_walk


class TestImportScope:
    def test_package_import_loads_no_submodule(self):
        assert loaded_after("import diagonal_effect") == set()

    def test_a_name_loads_its_submodule_only(self):
        assert loaded_after("from diagonal_effect import ProbTable") == {"errors", "tables"}

    @pytest.mark.parametrize("extra", [["--samples", "200"], ["--enumerate"]], ids=["mcmc", "enumerate"])
    def test_exact_test(self, extra):
        loaded = after_command("exact-test", "--model", "common", "--table", TABLE3,
                               "--seed", "1", *extra)
        assert loaded == {"cli"} | MARKOV

    def test_check_connectivity(self):
        loaded = after_command("check-connectivity", "--model", "diag", "--size", "3", "--max-n", "2")
        assert loaded == {"cli"} | MARKOV

    # the commands that neither test nor sweep load neither `markov` nor the fit
    @pytest.mark.parametrize("argv, expected", [
        (["sample", "--model", "common", "--table", TABLE3, "--steps", "5", "--seed", "1"],
         {"cli", "errors", "tables", "moves", "walk"}),
        (["enumerate-fiber", "--model", "diag", "--table", TABLE3],
         {"cli", "errors", "tables", "moves", "fibers"}),
        (["markov-moves", "--model", "common", "--size", "3"], {"cli", "errors", "tables", "moves"}),
        (["invariants", "--model", "common", "--form", "toric", "--size", "3"],
         {"cli", "errors", "tables", "polynomials", "invariants", "moves"}),
    ], ids=["sample", "enumerate-fiber", "markov-moves", "invariants-common-toric"])
    def test_command_without_markov(self, argv, expected):
        loaded = after_command(*argv)
        assert loaded == expected
        assert loaded.isdisjoint({"markov", "params"})

    def test_toric_ideal(self):
        loaded = after_command("toric-ideal", "--model", "diag", "--size", "3",
                               "--verify-against", "listed")
        assert loaded.isdisjoint({"markov", "membership", "params"})
        assert {"toricideal", "groebner", "invariants"} <= loaded


def unused_imports(source: str) -> set:
    """The names that `source` imports and never reads; `from __future__`
    imports bind no name.  A name read only inside a quoted annotation
    counts as unread: under `from __future__ import annotations` no
    imported name needs quoting."""
    tree = ast.parse(source)
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return imported - read


class TestImports:
    @pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
    def test_module_reads_every_name_it_imports(self, module):
        assert unused_imports((PACKAGE / module).read_text()) == set()

    def test_an_unused_import_is_found(self):
        source = "from collections import Counter\nfrom typing import Optional\nx: Optional[int] = None\n"
        assert unused_imports(source) == {"Counter"}
        assert unused_imports("from m import A\ndef f() -> 'A':\n    pass\n") == {"A"}


def constructor_calls(source: str) -> list:
    """The lines on which `source` calls the checked `CellPolynomial(...)`
    constructor, by its name or as a module attribute."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CellPolynomial"]


class TestOneBuild:
    @pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "polynomials.py"))
    def test_only_polynomials_calls_the_checked_constructor(self, module):
        # the checked constructor is for outside input, which `polynomials`
        # reads; a polynomial the package makes is built through
        # `CellPolynomial._nonzero_ints`
        assert constructor_calls((PACKAGE / module).read_text()) == []

    def test_a_constructor_call_is_found(self):
        source = ("p = CellPolynomial(2, {})\nq = CellPolynomial._nonzero_ints(2, {})\n"
                  "r = polynomials.CellPolynomial(2, None)\ns = CellPolynomial.from_cell_terms(2, [])\n")
        assert constructor_calls(source) == [1, 3]


def private_definitions(source: str) -> set:
    """The private (single-underscore) functions, classes and constants
    that `source` defines at module level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def names_read(source: str) -> set:
    """Every name `source` reads: loaded names, attributes, names imported
    from a module, and string constants (as `monkeypatch.setattr` takes)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


class TestPrivateNames:
    def test_every_private_name_is_read(self):
        files = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                 *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
        read = set().union(*(names_read(f.read_text()) for f in files))
        defined = set().union(*(private_definitions(f.read_text()) for f in PACKAGE.glob("*.py")))
        assert defined - read == set()

    def test_an_unread_private_name_is_found(self):
        source = ("_A = 1\n_B: int = 2\n__all__ = []\nPUBLIC = _A\n"
                  "def _f():\n    _C = 3\n    return _C\nclass _K:\n    pass\n")
        assert private_definitions(source) == {"_A", "_B", "_f", "_K"}
        assert private_definitions(source) - names_read(source) == {"_B", "_f", "_K"}
        assert {"_f", "_K", "_B"} <= names_read("from m import _f\nm._K\nsetattr(m, '_B', 0)\n")
