"""The public namespace, and the modules a fresh process loads per command."""

import importlib
import subprocess
import sys

import pytest

import pipedream

PUBLIC_NAMES = [
    "Asm", "BetaPolynomial", "BoundaryLeak", "BpdGrid", "BrokenStrand",
    "CHECK_IDS", "CheckFailed", "CheckReport", "DEFAULT_GUARD", "GridError",
    "GuardExceeded", "InconsistentAsm", "MaximaRow", "MultivariatePolynomial",
    "NegativeExponent", "NonreducedWitness", "NotAPermutation", "NotBijective",
    "NotMinimal", "Permutation", "PipeTrace", "PipedreamError",
    "RemovablePipeReport", "SetQuery", "SkewReport",
    "SubwordMismatch", "SubwordSelection", "Tile", "UnknownCheck",
    "WitnessNotFound", "all_perms", "beta_weight", "coefficient",
    "coefficient_table", "count_asms_bruteforce", "count_asms_literal",
    "enumerate_asm", "flatten", "from_asm", "from_json", "grothendieck",
    "insert", "is_valid", "is_vexillary", "layered", "maxima_table",
    "nonreduced_witness", "nu", "nu_table", "pattern_count", "query",
    "removable_pipes", "remove", "render", "resolve", "run_check", "schubert",
    "size_guard", "skew_identities", "skew_sum", "subwords", "to_asm", "trace",
    "validate",
]


class TestNamespace:
    def test_all_is_pinned(self):
        assert pipedream.__all__ == PUBLIC_NAMES

    def test_every_name_is_its_home_modules(self):
        for name in PUBLIC_NAMES:
            home = importlib.import_module(f"pipedream.{pipedream._HOME[name]}")
            value = getattr(pipedream, name)
            assert value is getattr(home, name), name
            if callable(value):
                # defined there, not re-exported from another module
                assert value.__module__ == home.__name__, name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from pipedream import *", namespace)
        for name in PUBLIC_NAMES:
            assert namespace[name] is getattr(pipedream, name), name

    def test_unknown_name(self):
        with pytest.raises(AttributeError):
            pipedream.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            exec("from pipedream import no_such_name", {})

    def test_dir_lists_every_name(self):
        assert set(dir(pipedream)) >= set(PUBLIC_NAMES)


_LOADED = """
import contextlib, io, sys
import pipedream
if sys.argv[1:]:
    from pipedream import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
print(" ".join(m.split(".", 1)[1] for m in sys.modules if m.startswith("pipedream.")))
"""

# the layers a table command (nu, coeff, poly) and a grid command
# (enumerate, render) have no use for
UNUSED_BY_TABLES = {"checks", "removal", "enumeration", "grid", "ktheory", "cache"}
UNUSED_BY_GRIDS = {"checks", "removal", "specialization", "cache"}


def _loaded(argv, tmp_path, monkeypatch):
    """The pipedream submodules a fresh process holds after ``argv``."""
    monkeypatch.setenv("PIPEDREAM_CACHE", str(tmp_path / "nu.jsonl"))
    done = subprocess.run([sys.executable, "-c", _LOADED, *argv],
                          capture_output=True, text=True, check=True)
    return set(done.stdout.split())


class TestLoads:
    def test_import_loads_no_submodule(self, tmp_path, monkeypatch):
        assert _loaded([], tmp_path, monkeypatch) == set()

    def test_home_modules_load_on_access(self):
        code = ("import pipedream; print(pipedream.grid.trace is pipedream.trace,"
                " pipedream.checks.CHECK_IDS is pipedream.CHECK_IDS)")
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["True", "True"]

    @pytest.mark.parametrize("argv", [["nu", "--perm", "1243"],
                                      ["coeff", "--perm", "1243"],
                                      ["coeff", "--perm", "1243", "--mode", "ie"],
                                      ["poly", "--perm", "2143"]])
    def test_table_commands_load_no_grid_layer(self, argv, tmp_path, monkeypatch):
        loaded = _loaded(argv, tmp_path, monkeypatch)
        assert "specialization" in loaded
        assert not loaded & UNUSED_BY_TABLES

    @pytest.mark.parametrize("argv", [["enumerate", "--perm", "1243", "--kind", "BPD_K"],
                                      ["render", "--perm", "1243", "--index", "0"]])
    def test_grid_commands_load_no_table_layer(self, argv, tmp_path, monkeypatch):
        loaded = _loaded(argv, tmp_path, monkeypatch)
        assert "enumeration" in loaded
        assert not loaded & UNUSED_BY_GRIDS
