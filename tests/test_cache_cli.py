import hashlib
import json
import os
import subprocess
import sys

import pytest

from pipedream import BetaPolynomial, Permutation, enumeration, nu, query, render
from pipedream.cache import SCHEMA_VERSION, default_cache_path, load_cache, store_cache
from pipedream.cli import main
from pipedream.store import _TABLES


def P(text):
    return Permutation.from_text(text)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    path = tmp_path / "nu.jsonl"
    monkeypatch.setenv("PIPEDREAM_CACHE", str(path))
    return path


HELP = """\
usage: pipedream [-h] [--guard GUARD]
                 {enumerate,nu,coeff,poly,render,verify,maxima} ...

Exact combinatorics of bumpless pipe dreams.

positional arguments:
  {enumerate,nu,coeff,poly,render,verify,maxima}
    enumerate           list the grids of a family
    nu                  principal specialization of a permutation
    coeff               pattern coefficient of a permutation
    poly                full weight generating polynomial
    render              draw one grid of a permutation
    verify              run a named machine check
    maxima              extremes of the evaluated specializations

options:
  -h, --help            show this help message and exit
  --guard GUARD         largest permutation size allowed (default 9)
"""

VERIFY_HELP = """\
usage: pipedream verify [-h] --n N [--format {text,json}]
                        {bijection-roundtrip,bk-order,conj-gao,conj-groth,groth-1243-2143,nonreduced-pattern,pattern-sum,reduced-restriction,skew,stanley,thm-1243,upper-bound,vexillary-K,weight-preservation}

positional arguments:
  {bijection-roundtrip,bk-order,conj-gao,conj-groth,groth-1243-2143,nonreduced-pattern,pattern-sum,reduced-restriction,skew,stanley,thm-1243,upper-bound,vexillary-K,weight-preservation}

options:
  -h, --help            show this help message and exit
  --n N
  --format {text,json}
"""

VERIFY_NOPE = """\
usage: pipedream verify [-h] --n N [--format {text,json}]
                        {bijection-roundtrip,bk-order,conj-gao,conj-groth,groth-1243-2143,nonreduced-pattern,pattern-sum,reduced-restriction,skew,stanley,thm-1243,upper-bound,vexillary-K,weight-preservation}
pipedream verify: error: argument check_id: invalid choice: 'nope' (choose from 'bijection-roundtrip', 'bk-order', 'conj-gao', 'conj-groth', 'groth-1243-2143', 'nonreduced-pattern', 'pattern-sum', 'reduced-restriction', 'skew', 'stanley', 'thm-1243', 'upper-bound', 'vexillary-K', 'weight-preservation')
"""


class TestCache:
    def test_round_trip(self, isolated_cache):
        values = {P("1243"): BetaPolynomial.from_coeffs([3, 3, 1]),
                  P("132"): BetaPolynomial.from_coeffs([2, 1]),
                  Permutation(): BetaPolynomial.one()}
        store_cache(values)
        loaded, skipped = load_cache()
        assert skipped == 0
        assert loaded == values

    def test_missing_file_is_empty(self, isolated_cache):
        loaded, skipped = load_cache()
        assert loaded == {}
        assert skipped == 0

    def test_corrupt_lines_skipped(self, isolated_cache):
        isolated_cache.write_text("\n".join([
            json.dumps({"word": "1243", "nu_coeffs": [3, 3, 1],
                        "schema_version": SCHEMA_VERSION}),
            "this is not json",
            json.dumps({"word": "99", "nu_coeffs": [1],
                        "schema_version": SCHEMA_VERSION}),
            json.dumps({"nu_coeffs": [1], "schema_version": SCHEMA_VERSION}),
        ]) + "\n")
        loaded, skipped = load_cache()
        assert list(loaded) == [P("1243")]
        assert skipped == 3

    def test_schema_version_mismatch_skipped(self, isolated_cache):
        isolated_cache.write_text(json.dumps(
            {"word": "12", "nu_coeffs": [1], "schema_version": SCHEMA_VERSION + 1}) + "\n")
        loaded, skipped = load_cache()
        assert loaded == {}
        assert skipped == 1

    def test_env_var_controls_path(self, isolated_cache):
        assert default_cache_path() == isolated_cache

    def test_cached_values_agree_with_fresh(self, isolated_cache):
        import random

        rng = random.Random(7)
        words = []
        for _ in range(100):
            n = rng.randint(0, 6)
            words.append(Permutation(rng.sample(range(1, n + 1), n)))
        fresh = {w: nu(w) for w in words}
        store_cache(fresh)
        loaded, _ = load_cache()
        for w in words:
            assert loaded[w] == fresh[w]


class TestCliCommands:
    def test_nu_output(self, capsys):
        assert main(["nu", "--perm", "1243"]) == 0
        assert capsys.readouterr().out.strip() == "b^2+3b+3"

    def test_nu_evaluated(self, capsys):
        assert main(["nu", "--perm", "1243", "--at", "1"]) == 0
        assert capsys.readouterr().out.strip() == "7"

    def test_coeff_output(self, capsys):
        assert main(["coeff", "--perm", "1243"]) == 0
        assert capsys.readouterr().out.strip() == "b^2+b"

    def test_coeff_ie_mode(self, capsys):
        assert main(["coeff", "--perm", "1243", "--mode", "ie"]) == 0
        assert capsys.readouterr().out.strip() == "b^2+b"

    def test_poly_output(self, capsys):
        assert main(["poly", "--perm", "132"]) == 0
        assert capsys.readouterr().out.strip() == "x1+x2+b*x1*x2"

    def test_enumerate_counts(self, capsys):
        assert main(["enumerate", "--perm", "1243", "--kind", "bpd"]) == 0
        out = capsys.readouterr().out
        assert "# 3 grid(s)" in out

    def test_enumerate_json(self, capsys):
        assert main(["enumerate", "--perm", "1243", "--format", "json"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 4
        for line in lines:
            assert json.loads(line)["perm"] == [1, 2, 4, 3]

    @pytest.mark.parametrize("perm, kind", [("1243", "bpd"), ("1234", "mbpd")])
    @pytest.mark.parametrize("fmt", ["ascii", "json"])
    def test_enumerate_output_of_a_family(self, perm, kind, fmt, capsys):
        # 1234 has no minimal reduced grid: the empty family
        grids = query(kind, P(perm))
        assert len(grids) == (3 if kind == "bpd" else 0)
        assert main(["enumerate", "--perm", perm, "--kind", kind, "--format", fmt]) == 0
        if fmt == "ascii":
            # blocks split by one blank line, and an empty family prints one
            # empty line, then the count
            want = "\n\n".join(render(g, "ascii") for g in grids) + "\n"
            want += f"# {len(grids)} grid(s)\n"
        else:
            want = "".join(render(g, "json") + "\n" for g in grids)
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("fmt", ["ascii", "json"])
    def test_enumerate_prints_each_grid_as_found(self, fmt, capsys, monkeypatch):
        grids = query("BPD", P("1243"))
        real = enumeration.iter_query
        printed = []

        def watched(*args):
            for grid in real(*args):
                yield grid
                # the grid is out before the next one is read
                printed.append(capsys.readouterr().out)

        monkeypatch.setattr(enumeration, "iter_query", watched)
        assert main(["enumerate", "--perm", "1243", "--format", fmt]) == 0
        assert len(printed) == len(grids) == 4
        for got, grid in zip(printed, grids):
            assert render(grid, fmt) in got

    def test_enumerate_subword_stratum(self, capsys):
        assert main(["enumerate", "--perm", "1243", "--kind", "bpd",
                     "--subword", "2,3,4"]) == 0
        assert "# 1 grid(s)" in capsys.readouterr().out

    def test_render(self, capsys):
        assert main(["render", "--perm", "21", "--index", "0",
                     "--format", "ascii"]) == 0
        assert capsys.readouterr().out == ".r\nr+\n"

    def test_render_svg(self, capsys):
        assert main(["render", "--perm", "21", "--index", "0",
                     "--format", "svg"]) == 0
        assert capsys.readouterr().out.startswith("<svg")

    def test_render_index_out_of_range(self, capsys):
        assert main(["render", "--perm", "21", "--index", "5"]) == 2
        assert capsys.readouterr().err == "index 5 out of range; 21 has 1 grids\n"

    def test_render_stops_at_its_grid(self, capsys):
        # the first grid of a size-10 word, whose full list takes minutes
        assert main(["--guard", "10", "render", "--perm", "1,2,5,4,3,10,9,8,7,6",
                     "--index", "0", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["perm"] == [1, 2, 5, 4, 3, 10, 9, 8, 7, 6]

    def test_verify_pass(self, capsys):
        assert main(["verify", "thm-1243", "--n", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_json(self, capsys):
        assert main(["verify", "stanley", "--n", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_verify_guard_exceeded(self, capsys):
        assert main(["verify", "stanley", "--n", "6", "--guard", "5"]) == 2

    def test_maxima(self, capsys):
        assert main(["maxima", "--n", "4", "--beta", "1"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "n=4 beta=1 max_nu=11 max_c=4 argmax_nu=1432 argmax_c=1432"

    def test_usage_error(self):
        assert main([]) == 2
        assert main(["verify", "no-such-check", "--n", "2"]) == 2

    def test_parser_text(self, monkeypatch, capsys):
        # the help and usage errors at 80 columns, as Python 3.10 and 3.11 print them
        monkeypatch.setenv("COLUMNS", "80")
        assert main(["--help"]) == 0
        assert capsys.readouterr().out == HELP
        assert main(["verify", "--help"]) == 0
        assert capsys.readouterr().out == VERIFY_HELP
        assert main(["verify", "nope", "--n", "3"]) == 2
        assert capsys.readouterr().err == VERIFY_NOPE

    def test_bad_permutation(self, capsys):
        for text in ("1123", ",", "1,,2", "1,a"):
            assert main(["nu", "--perm", text]) == 2
            assert capsys.readouterr().err.startswith("error:")
        for text in ("a", "1,9", "1,1"):
            assert main(["enumerate", "--perm", "1243", "--subword", text]) == 2
            assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [["verify", "stanley", "--n", "-1"],
                                      ["verify", "bk-order", "--n", "-2"],
                                      ["verify", "conj-gao", "--n", "-1"]])
    def test_negative_size_rejected(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_subword_with_wrong_kind(self, capsys):
        assert main(["enumerate", "--perm", "1243", "--kind", "mBPD",
                     "--subword", "1,2"]) == 2

    def test_poly_and_maxima_leave_cache_alone(self, isolated_cache, capsys):
        # no command reads or writes the json-lines file any more
        for argv in (["nu", "--perm", "1243"], ["nu", "--perm", "1243", "--at", "1"],
                     ["coeff", "--perm", "1243"], ["coeff", "--perm", "1243", "--mode", "ie"],
                     ["poly", "--perm", "132"], ["maxima", "--n", "5"],
                     ["enumerate", "--perm", "132"], ["render", "--perm", "21", "--index", "0"],
                     ["verify", "skew", "--n", "3"]):
            assert main(argv) == 0
        assert not isolated_cache.exists()

    def test_nu_ignores_a_stale_cache_line(self, isolated_cache, capsys):
        isolated_cache.write_text('{"word":"1243","nu_coeffs":[1],"schema_version":1}\n')
        before = isolated_cache.read_bytes()
        assert main(["nu", "--perm", "1243"]) == 0
        assert capsys.readouterr().out == "b^2+3b+3\n"
        assert main(["nu", "--perm", "1243", "--at", "1"]) == 0
        assert capsys.readouterr().out == "7\n"
        assert isolated_cache.read_bytes() == before

    def test_nu_of_a_size_9_word_builds_no_table(self, cold_caches, capsys):
        assert main(["nu", "--perm", "143298765", "--at", "1"]) == 0
        assert capsys.readouterr().out == "190013835\n"
        assert ("perms", 9) not in _TABLES
        assert ("nu", 9) not in _TABLES

    def test_nu_of_a_size_10_word_needs_the_guard(self, capsys):
        assert main(["nu", "--perm", "10,1,2,3,4,5,6,7,8,9"]) == 2
        assert capsys.readouterr().err.startswith("error: size 10 outside 0..9")

    def test_poly_of_a_size_7_word(self, capsys):
        # the digest of the table route's output, before poly walked its word
        assert main(["poly", "--perm", "2164753"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "6402a25b41b011c133bb9cf5976f0d0d004c1ece75d8d51a9a0cad30ecbbe0b2"

    def test_poly_of_a_size_10_word_needs_the_guard(self, capsys):
        word = ",".join(map(str, range(1, 11)))
        assert main(["poly", "--perm", word]) == 2
        assert capsys.readouterr().err == "error: size 10 outside 0..9\n"
        assert main(["--guard", "10", "poly", "--perm", word]) == 0
        assert capsys.readouterr().out == "1\n"


class TestDeterminism:
    def test_byte_identical_across_processes(self, tmp_path):
        env = dict(os.environ, PIPEDREAM_CACHE=str(tmp_path / "c.jsonl"))
        cmd = [sys.executable, "-m", "pipedream.cli", "nu", "--perm", "1243"]
        first = subprocess.run(cmd, capture_output=True, env=env, check=True)
        second = subprocess.run(cmd, capture_output=True, env=env, check=True)
        assert first.stdout == second.stdout

        cmd = [sys.executable, "-m", "pipedream.cli", "enumerate",
               "--perm", "1243", "--format", "json"]
        first = subprocess.run(cmd, capture_output=True, env=env, check=True)
        second = subprocess.run(cmd, capture_output=True, env=env, check=True)
        assert first.stdout == second.stdout

        cmd = [sys.executable, "-m", "pipedream.cli", "verify", "skew", "--n", "3"]
        first = subprocess.run(cmd, capture_output=True, env=env, check=True)
        second = subprocess.run(cmd, capture_output=True, env=env, check=True)
        assert first.stdout == second.stdout
