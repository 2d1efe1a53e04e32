import argparse
import dataclasses
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coversat.bench
import coversat.cli
import coversat.codes
import coversat.csp
import coversat.errors
from coversat.cli import _build_parser, _read_solve, main
from coversat.codes import boolean_cover, random_code
from coversat.cnf import evaluate
from coversat.csp import csp_evaluate, restrict_to_box, solve_csp
from coversat.errors import UsageError
from coversat.formats import parse_csp, parse_dimacs, write_code

from helpers import ref_restrict_to_box


UNSAT_CNF = "p cnf 1 2\n1 0\n-1 0\n"
SAT_3CNF = "p cnf 4 3\n1 2 3 0\n-1 -2 4 0\n-3 -4 2 0\n"
SAT_CSP = "p csp 3 3 2\n1 1 2 2 0\n2 1 3 3 0\n"
UNSAT_CSP = (
    "p csp 3 3 27\n"
    + "".join(f"1 {a} 2 {b} 3 {c} 0\n" for a in (1, 2, 3) for b in (1, 2, 3) for c in (1, 2, 3))
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSolveCommand:
    def test_brute_unit_clause(self, tmp_path, capsys):
        path = write(tmp_path, "t.cnf", "p cnf 1 1\n1 0\n")
        assert main(["solve", "--input", path, "--mode", "brute"]) == 10
        out = capsys.readouterr().out
        assert "s SATISFIABLE" in out
        assert "v 1 0" in out

    def test_det_unsat_exit_20(self, tmp_path):
        path = write(tmp_path, "u.cnf", UNSAT_CNF)
        assert main(["solve", "--input", path, "--mode", "det"]) == 20

    def test_rand_unknown_exit_30(self, tmp_path):
        path = write(tmp_path, "u3.cnf", "p cnf 3 8\n" + "".join(
            f"{s1} {s2} {s3} 0\n"
            for s1 in (1, -1) for s2 in (2, -2) for s3 in (3, -3)
        ))
        code = main(["solve", "--input", path, "--mode", "rand", "--trial-cap", "20"])
        assert code == 30

    def test_trial_cap_below_one_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "s.cnf", SAT_3CNF)
        for cap in ("0", "-3"):
            assert main(["solve", "--input", path, "--mode", "rand", "--trial-cap", cap]) == 1
            assert "trial_cap" in capsys.readouterr().err

    def test_rand_empty_clause_unsat_exit_20(self, tmp_path, capsys):
        path = write(tmp_path, "e.cnf", "p cnf 3 2\n1 2 3 0\n0\n")
        assert main(["solve", "--input", path, "--mode", "rand"]) == 20
        captured = capsys.readouterr()
        assert "s UNSATISFIABLE" in captured.out
        assert captured.err == ""

    def test_witness_verifies_against_input(self, tmp_path, capsys):
        path = write(tmp_path, "s.cnf", SAT_3CNF)
        assert main(["solve", "--input", path, "--mode", "det"]) == 10
        out = capsys.readouterr().out
        vline = next(line for line in out.splitlines() if line.startswith("v "))
        lits = [int(x) for x in vline[2:].split()]
        assert lits[-1] == 0
        alpha = tuple(1 if u > 0 else 0 for u in lits[:-1])
        assert evaluate(parse_dimacs(SAT_3CNF), alpha)

    def test_det_status_independent_of_seed(self, tmp_path, capsys):
        path = write(tmp_path, "s.cnf", SAT_3CNF)
        outs = set()
        for seed in ("0", "7", "123"):
            assert main(["solve", "--input", path, "--mode", "det", "--seed", seed]) == 10
            outs.add(capsys.readouterr().out)
        assert len(outs) == 1

    def test_csp_solve_and_witness_lines(self, tmp_path, capsys):
        path = write(tmp_path, "t.csp", SAT_CSP)
        assert main(["solve", "--input", path, "--mode", "det"]) == 10
        out = capsys.readouterr().out
        values = {}
        for line in out.splitlines():
            if line.startswith("v x"):
                name, value = line[2:].split("=")
                values[int(name[1:])] = int(value)
        witness = tuple(values[i] for i in sorted(values))
        assert csp_evaluate(parse_csp(SAT_CSP), witness)

    def test_csp_unsat(self, tmp_path):
        path = write(tmp_path, "u.csp", UNSAT_CSP)
        assert main(["solve", "--input", path, "--mode", "det"]) == 20
        assert main(["solve", "--input", path, "--mode", "brute"]) == 20

    def test_csp_rand_rejected(self, tmp_path):
        path = write(tmp_path, "t.csp", SAT_CSP)
        assert main(["solve", "--input", path, "--mode", "rand"]) == 1

    def test_format_sniffed_from_header(self, tmp_path):
        path = write(tmp_path, "odd.txt", SAT_CSP)
        assert main(["solve", "--input", path]) == 10

    def test_stats_json_schema(self, tmp_path):
        cnf = write(tmp_path, "s.cnf", SAT_3CNF)
        stats = tmp_path / "stats.json"
        assert main(["solve", "--input", cnf, "--mode", "det", "--stats", str(stats)]) == 10
        report = json.loads(stats.read_text())
        assert report["schema"] == 1
        assert report["status"] == "sat"
        assert report["k"] == 3
        assert isinstance(report["witness"], list)
        assert report["codewords_tried"] >= 1

    def test_stats_report_holds_the_solve_record(self, tmp_path):
        stats = tmp_path / "stats.json"
        csp = write(tmp_path, "u.csp", UNSAT_CSP)
        assert main(["solve", "--input", csp, "--stats", str(stats)]) == 20
        report = json.loads(stats.read_text())
        record = solve_csp(parse_csp(UNSAT_CSP)).stats
        fields = [field.name for field in dataclasses.fields(record)]
        assert list(report)[-len(fields):] == fields
        assert {name: report[name] for name in fields if name != "wall_time"} == {
            name: getattr(record, name) for name in fields if name != "wall_time"
        }

    def test_cache_dir_outer_blocks_reload(self, tmp_path, monkeypatch):
        # the first solve writes the outer block; with the codes and the
        # plans forgotten, the second loads it and builds no code. n = 10
        # runs one block of radius 4, a shape with no searched code, which
        # never touches the cache dir
        import coversat.codes as codes
        import coversat.solver as solver

        cache = tmp_path / "codes"
        cnf = write(tmp_path, "u.cnf", "p cnf 10 8\n" + "".join(
            f"{s1} {s2} {s3} 0\n" for s1 in (1, -1) for s2 in (2, -2) for s3 in (3, -3)
        ))
        def no_build(*args):
            raise AssertionError("a cached code was built again")

        # codes are memoized per cache dir: the cover without one is built
        # here, before greedy_code is patched
        cover_size = len(boolean_cover(10, 1 / 3.1))
        codes._load_code.cache_clear()
        solver._plan.cache_clear()
        reports = []
        try:
            for run in range(2):
                if run:
                    codes._load_code.cache_clear()
                    solver._plan.cache_clear()
                    monkeypatch.setattr(codes, "greedy_code", no_build)
                stats = tmp_path / f"stats{run}.json"
                argv = ["solve", "--input", cnf, "--cache-dir", str(cache), "--stats", str(stats)]
                assert main(argv) == 20
                reports.append({**json.loads(stats.read_text()), "wall_time": 0})
                # 10 variables at radius fraction 1/3.1: one block of radius 4
                assert os.listdir(cache) == ["greedy_q2_t10_r4.code"]
        finally:
            solver._plan.cache_clear()
        assert reports[0] == reports[1]
        assert reports[0]["codewords_tried"] == cover_size

    def test_stats_file_is_canonical_json(self, tmp_path):
        # one write of the compact one-line report and a newline
        for name, text in (("s.cnf", SAT_3CNF), ("u.csp", UNSAT_CSP)):
            stats = tmp_path / f"{name}.json"
            main(["solve", "--input", write(tmp_path, name, text), "--stats", str(stats)])
            body = stats.read_text()
            assert body == json.dumps(json.loads(body)) + "\n"

    def test_non_ascii_byte_exit_1(self, tmp_path, capsys):
        # the input is decoded once, with the parser's error
        path = tmp_path / "late.cnf"
        path.write_bytes(b"p cnf 1 1\n1 0\nc \xff\n")
        assert main(["solve", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        with pytest.raises(coversat.errors.ParseError) as exc:
            parse_dimacs(path.read_bytes())
        assert err == f"error: {exc.value}\n"
        assert "input is not ASCII" in err

    def test_missing_file_exit_1(self):
        assert main(["solve", "--input", "/nonexistent.cnf"]) == 1

    @pytest.mark.parametrize("argv", [
        lambda d, cnf: ["solve", "--input", d],
        lambda d, cnf: ["solve", "--input", cnf, "--stats", d],
        lambda d, cnf: ["verifycode", d],
        lambda d, cnf: ["gencode", "--q", "2", "--t", "3", "--radius", "1", "--out", d],
    ], ids=["solve-input", "solve-stats", "verifycode", "gencode-out"])
    def test_directory_as_file_exit_1(self, tmp_path, capsys, argv):
        # IsADirectoryError, like any OSError, is an error line, not a traceback
        cnf = write(tmp_path, "s.cnf", SAT_3CNF)
        assert main(argv(str(tmp_path), cnf)) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv, module, work", [
        (["solve", "--input", "s.cnf", "--stats"], coversat.cli, "solve_deterministic"),
        (["gencode", "--q", "2", "--t", "3", "--radius", "1", "--out"], coversat.cli,
         "greedy_code"),
        (["bench", "--r", "1:3", "--trials", "1", "--csv"], coversat.bench, "gen_planted"),
    ], ids=["solve-stats", "gencode-out", "bench-csv"])
    def test_unwritable_output_exit_1_before_any_work(
        self, tmp_path, monkeypatch, capsys, argv, module, work
    ):
        # a missing directory is refused before the solve, build or draw, not
        # when the result is written
        calls = []
        monkeypatch.setattr(module, work, lambda *a, **kw: calls.append(a))
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "s.cnf", SAT_3CNF)
        out = tmp_path / "missing" / "out"
        assert main([*argv, str(out)]) == 1
        captured = capsys.readouterr()
        assert calls == [] and captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}")
        assert os.listdir(tmp_path) == ["s.cnf"]

    @pytest.mark.parametrize("argv, module, work", [
        (["solve", "--input", "s.cnf", "--stats"], coversat.cli, "solve_deterministic"),
        (["gencode", "--q", "2", "--t", "3", "--radius", "1", "--out"], coversat.cli,
         "greedy_code"),
        (["bench", "--r", "1:3", "--trials", "1", "--csv"], coversat.bench, "gen_planted"),
    ], ids=["solve-stats", "gencode-out", "bench-csv"])
    def test_directory_output_exit_1_before_any_work(
        self, tmp_path, monkeypatch, capsys, argv, module, work
    ):
        # an output path that is an existing directory passes the directory
        # check; it is refused before any work, not when the result is written
        calls = []
        monkeypatch.setattr(module, work, lambda *a, **kw: calls.append(a))
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "s.cnf", SAT_3CNF)
        out = tmp_path / "adir"
        out.mkdir()
        assert main([*argv, str(out)]) == 1
        captured = capsys.readouterr()
        assert calls == [] and captured.out == ""
        assert captured.err == f"error: cannot write {out}: it is a directory\n"
        assert sorted(os.listdir(tmp_path)) == ["adir", "s.cnf"] and os.listdir(out) == []

    def test_parse_error_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "bad.cnf", "p cnf 1 1\n2 0\n")
        assert main(["solve", "--input", path]) == 1
        assert "error" in capsys.readouterr().err

    def test_resource_cap_exit_2(self, tmp_path):
        path = write(tmp_path, "big.cnf", "p cnf 30 1\n1 2 0\n")
        assert main(["solve", "--input", path, "--mode", "brute"]) == 2

    def test_width_two_csp_beyond_oracle_cap_exit_2(self, tmp_path):
        # det mode sends width <= 2 to the oracle, whose cap n*d*d^n <= 2^30
        # refuses these, though d^n <= 10^7
        for d in (3162, 1000):
            path = write(tmp_path, f"w{d}.csp", f"p csp {d} 2 1\n1 1 2 1 0\n")
            start = time.perf_counter()
            assert main(["solve", "--input", path]) == 2
            assert time.perf_counter() - start < 1.0

    def test_restriction_table_beyond_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        # d = 600, n = 7, m = 30,000: a 584 KB input inside every other cap,
        # whose table would hold m*n*d = 1.26e8 characters; csp-d3's shape,
        # d = 3, n = 9, m = 315, holds 8,505 and solves. With --jobs 2 the
        # cap refuses before any pool starts
        import coversat.solver as solver

        rng = random.Random("restriction-cap")
        lines = ["p csp 600 7 30000"]
        for _ in range(30000):
            lines.append(" ".join(f"{v} {rng.randint(1, 600)}" for v in rng.sample(range(1, 8), 3))
                         + " 0")
        path = write(tmp_path, "wide.csp", "\n".join(lines) + "\n")
        start = time.perf_counter()
        assert main(["solve", "--input", path]) == 2
        assert time.perf_counter() - start < 1.0
        assert "126000000" in capsys.readouterr().err

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(solver, "Pool", no_pool)
        monkeypatch.setattr(solver, "_usable_cpus", lambda: 2)
        assert main(["solve", "--input", path, "--jobs", "2"]) == 2
        assert "126000000" in capsys.readouterr().err
        lines = ["p csp 3 9 315"]
        for _ in range(315):
            lines.append(" ".join(f"{v} {rng.randint(1, 3)}" for v in rng.sample(range(1, 10), 3))
                         + " 0")
        path = write(tmp_path, "d3.csp", "\n".join(lines) + "\n")
        assert main(["solve", "--input", path]) in (10, 20)

    def test_inner_code_beyond_greedy_cap_exit_2(self, tmp_path, capsys):
        # t=12 asks for the (3,12,4) inner code: 5.3e9 gain updates; at
        # t=2000 the cost estimate no longer fits in a float
        path = write(tmp_path, "s.cnf", SAT_3CNF)
        for t in ("12", "2000"):
            start = time.perf_counter()
            assert main(["solve", "--input", path, "--t", t]) == 2
            assert time.perf_counter() - start < 1.0
            assert "smaller --t" in capsys.readouterr().err

    def test_non_finite_epsilon_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "s.cnf", SAT_3CNF)
        for epsilon in ("nan", "inf"):
            assert main(["solve", "--input", path, "--epsilon", epsilon]) == 1
            assert "epsilon" in capsys.readouterr().err

    def test_empty_cache_dir_exit_1_before_any_build(self, tmp_path, monkeypatch, capsys):
        import coversat.codes as codes

        builds = []
        monkeypatch.setattr(codes, "greedy_code", lambda *a: builds.append(a))
        monkeypatch.chdir(tmp_path)
        path = write(tmp_path, "s.cnf", SAT_3CNF)
        assert main(["solve", "--input", path, "--cache-dir", ""]) == 1
        assert "cache_dir" in capsys.readouterr().err
        assert builds == [] and os.listdir(tmp_path) == ["s.cnf"]

    def test_underscore_in_header_exit_1(self, tmp_path, capsys):
        # int() reads "1_0" as 10; DIMACS has no digit separators
        path = write(tmp_path, "u.cnf", "p cnf 1_0 1\n1 0\n")
        assert main(["solve", "--input", path]) == 1
        assert "line 1: expected integer variable count, got '1_0'" in capsys.readouterr().err


class TestGencodeVerifycode:
    def test_generate_then_verify(self, tmp_path, capsys):
        out = str(tmp_path / "c.code")
        assert main(["gencode", "--q", "3", "--t", "6", "--radius", "2",
                     "--method", "greedy", "--out", out]) == 0
        assert main(["verifycode", out]) == 0
        assert "OK" in capsys.readouterr().out

    def test_random_method(self, tmp_path):
        out = str(tmp_path / "r.code")
        assert main(["gencode", "--q", "2", "--t", "4", "--radius", "2",
                     "--method", "random", "--size", "4", "--seed", "3", "--out", out]) == 0
        assert main(["verifycode", out]) == 0

    def test_greedy_refuses_random_options(self, capsys):
        # --size and --seed mean nothing to the greedy code: refused, not ignored
        base = ["gencode", "--q", "2", "--t", "3", "--radius", "1"]
        for extra in (["--size", "3"], ["--seed", "4"], ["--method", "greedy", "--size", "3"]):
            assert main(base + extra) == 1
            assert "--method random" in capsys.readouterr().err
        assert main(base) == 0

    def test_random_seed_defaults_to_zero(self, capsys):
        base = ["gencode", "--q", "2", "--t", "4", "--radius", "1", "--method", "random"]
        outs = []
        for extra in ([], ["--seed", "0"]):
            assert main(base + extra) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == write_code(random_code(2, 4, 1))

    def test_stdout_output(self, capsys):
        assert main(["gencode", "--q", "2", "--t", "1", "--radius", "0"]) == 0
        assert capsys.readouterr().out == "2 1 0 2\n1\n2\n"

    def test_non_covering_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.code"
        bad.write_text("2 3 0 1\n1 1 1\n")
        assert main(["verifycode", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bad_params_exit_1(self):
        assert main(["gencode", "--q", "1", "--t", "3", "--radius", "1"]) == 1

    def test_greedy_beyond_cap_exit_2(self, capsys):
        assert main(["gencode", "--q", "3", "--t", "2000", "--radius", "667"]) == 2
        assert "smaller --t" in capsys.readouterr().err

    def test_random_beyond_cap_exit_2(self, capsys):
        # no --size: the default size is not computed past the q^t cap
        start = time.perf_counter()
        assert main(["gencode", "--q", "3", "--t", "2000", "--radius", "667",
                     "--method", "random"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "too large to verify" in capsys.readouterr().err

    def test_random_draws_beyond_cap_exit_2(self, capsys, monkeypatch):
        # an attempt draws size * t symbols: past 10^7 the code is refused
        # before its first draw, at the default size and at a given one
        def no_draws(*args):
            raise AssertionError("random code sampled past the draw cap")

        monkeypatch.setattr(coversat.codes.random, "Random", no_draws)
        for args, draws in (
            (["--q", "2", "--t", "23", "--radius", "1"], 5814540 * 23),
            (["--q", "2", "--t", "4", "--radius", "1", "--size", "100000000"], 4 * 10**8),
        ):
            assert main(["gencode", *args, "--method", "random"]) == 2
            assert f"{draws} symbols to draw exceed 10000000" in capsys.readouterr().err

    def test_random_below_sphere_bound_exit_1(self, capsys, monkeypatch):
        # 10 radius-1 balls hold at most 110 of the 2^10 words: no code that small covers
        def no_draws(*args):
            raise AssertionError("random code sampled below the sphere bound")

        monkeypatch.setattr(coversat.codes.random, "Random", no_draws)
        assert main(["gencode", "--q", "2", "--t", "10", "--radius", "1",
                     "--method", "random", "--size", "10"]) == 1
        assert "at most 110 of the 1024 words" in capsys.readouterr().err


class TestReduce:
    def test_emits_boxes_and_manifest(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "u.csp", UNSAT_CSP)
        outdir = tmp_path / "red"
        assert main(["reduce", "--input", path, "--outdir", str(outdir)]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["schema"] == 1
        g = parse_csp(UNSAT_CSP)
        boxes = [tuple(tuple(p) for p in entry["box"]) for entry in manifest["boxes"]]
        for entry, box in zip(manifest["boxes"], boxes):
            reduced = parse_dimacs((outdir / entry["file"]).read_text())
            assert reduced == ref_restrict_to_box(g, box)
        visited = []

        def recording_restrict(f, box):
            visited.append(box)
            return restrict_to_box(f, box)

        monkeypatch.setattr(coversat.csp, "restrict_to_box", recording_restrict)
        assert solve_csp(g).status == "unsat"
        assert visited == boxes

    def test_cnf_input_is_refused(self, tmp_path, capsys):
        path = write(tmp_path, "s.cnf", SAT_3CNF)
        outdir = tmp_path / "red"
        assert main(["reduce", "--input", path, "--outdir", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: reduce takes a 'p csp' file")
        assert not outdir.exists()


class TestBenchCommand:
    def test_csv_and_summary(self, tmp_path, capsys):
        csv_path = tmp_path / "b.csv"
        rc = main(["bench", "--k", "3", "--t", "6", "--r", "1:3", "--trials", "2",
                   "--n", "9", "--m", "27", "--csv", str(csv_path)])
        assert rc == 0
        assert csv_path.exists()
        out = capsys.readouterr().out
        assert "searchball:" in out and "searchball_fast:" in out

    def test_walk_engine_summary(self, capsys):
        rc = main(["bench", "--k", "3", "--t", "6", "--r", "1:2", "--trials", "2",
                   "--n", "9", "--m", "18", "--engine", "schoening_walk"])
        assert rc == 0
        assert "found a witness" in capsys.readouterr().out

    def test_bad_range_exit_1(self):
        assert main(["bench", "--r", "5"]) == 1
        assert main(["bench", "--r", "9:2"]) == 1

    @pytest.mark.parametrize("spelling", [["--r", "-1:3"], ["--r=-1:3"]], ids=["space", "equals"])
    def test_negative_range_exit_1_before_any_draw(self, monkeypatch, capsys, spelling):
        # argparse would take "-1:3" after a space for an option
        runs = []
        monkeypatch.setattr(coversat.bench, "gen_planted", lambda *a, **kw: runs.append(a))
        assert main(["bench", *spelling, "--trials", "1"]) == 1
        assert runs == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad radius range: radius -1 is negative\n"

    @pytest.mark.parametrize("flags, named", [
        (["--trials", "0"], "--trials"),
        (["--trials", "0", "--engine", "schoening_walk"], "--trials"),
        (["--trials", "-1"], "--trials"),
        (["--m", "-3"], "--m"),
    ], ids=["trials-0", "trials-0-walk", "trials-negative", "m-negative"])
    def test_bad_counts_exit_1_before_any_run(self, monkeypatch, capsys, flags, named):
        runs = []
        monkeypatch.setattr(coversat.bench, "gen_planted", lambda *a, **kw: runs.append(a))
        assert main(["bench", "--r", "0:3", *flags]) == 1
        assert runs == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} must be >= ")

    @pytest.mark.parametrize("flags, named", [
        (["--r", "3:6", "--n", "5", "--m", "10", "--trials", "2"], "radius 6 exceeds n=5"),
        (["--k", "2", "--r", "0:2", "--trials", "1"], "k must be >= 3"),
        (["--k", "3", "--t", "2", "--r", "0:2", "--trials", "1"], "t=2 too small"),
    ], ids=["radius-above-n", "k-2", "t-2"])
    def test_bad_inputs_exit_1_before_any_trial(self, monkeypatch, capsys, flags, named):
        runs = []
        real = coversat.bench._run_one
        monkeypatch.setattr(
            coversat.bench, "_run_one", lambda *a, **kw: runs.append(a) or real(*a, **kw)
        )
        assert main(["bench", *flags]) == 1
        assert runs == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err

    def test_repeated_engine_runs_once(self, tmp_path, capsys):
        csv_path = tmp_path / "b.csv"
        rc = main(["bench", "--r", "1:2", "--trials", "2", "--n", "9", "--m", "27",
                   "--engine", "searchball", "--engine", "searchball", "--csv", str(csv_path)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            "searchball: 4/4 runs found a witness",
            f"wrote 4 records to {csv_path}",
        ]
        assert len(csv_path.read_text().splitlines()) == 5

    def test_formula_without_clauses(self, capsys):
        # one leaf at every radius: the searchball envelope is 1, not 0 ** r
        assert main(["bench", "--r", "0:3", "--trials", "1", "--m", "0"]) == 0
        out = capsys.readouterr().out
        assert "searchball: fitted base 1.000" in out

    def test_constant_series_prints_no_interval(self, capsys):
        # every run below t is one leaf: the summary says so instead of
        # printing a nan interval
        assert main(["bench", "--r", "2:6", "--trials", "5", "--engine", "searchball_fast"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "searchball_fast: fitted base 1.000, no interval: mean leaves equal at every r=2..6",
        ]


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


class TestParserReuse:
    def test_built_once(self):
        assert _build_parser() is _build_parser()

    def test_one_subparser_per_command(self):
        for command in ("solve", "gencode", "verifycode", "reduce", "bench"):
            parser = _build_parser(command)
            assert parser is _build_parser(command)
            assert list(_subparsers(parser).choices) == [command]
        assert list(_subparsers(_build_parser()).choices) == [
            "solve", "gencode", "verifycode", "reduce", "bench"
        ]

    def test_usage_error_then_valid_solve(self, tmp_path, capsys):
        path = write(tmp_path, "t.cnf", "p cnf 1 1\n1 0\n")
        assert main(["solve", "--frobnicate"]) == 1
        assert main(["solve", "--input", path, "--mode", "brute"]) == 10
        assert "v 1 0" in capsys.readouterr().out

    def test_engine_lists_do_not_accumulate(self, monkeypatch):
        seen = []

        def recording_run(engines, *args, **kwargs):
            seen.append(engines)
            return []

        monkeypatch.setattr(coversat.bench, "run_scaling", recording_run)
        assert main(["bench", "--r", "1:1", "--engine", "searchball"]) == 0
        assert seen == [["searchball"]]
        seen.clear()
        assert main(["bench", "--r", "1:1", "--engine", "schoening_walk",
                     "--engine", "searchball_fast"]) == 0
        assert seen == [["schoening_walk", "searchball_fast"]]
        seen.clear()
        assert main(["bench", "--r", "1:1"]) == 0
        assert seen == [["searchball", "searchball_fast"]]


_SOLVE_PARSER = _build_parser("solve").commands["solve"]
_SOLVE_FLAGS = sorted(
    o for a in _SOLVE_PARSER._actions for o in a.option_strings if o not in ("-h", "--help")
)
_SOLVE_VALUES = ["6", "-1", "1.5", "nan", "x", "", "det", "bogus", "dir/in.cnf"]
# flags, their prefixes ("-", "--", "--i", ...), values and joined forms, anywhere
_SOLVE_TOKENS = sorted(
    {f[:i] for f in _SOLVE_FLAGS for i in range(1, len(f) + 1)} | set(_SOLVE_VALUES)
) + ["--mode=det"]

# values each flag accepts; a flag left out accepts every value not starting with "-"
_SOLVE_GOOD = {"--mode": ["det", "rand", "brute"], "--epsilon": ["1.5", "nan"],
               **dict.fromkeys(["--t", "--seed", "--trial-cap", "--jobs"], ["6"])}
# half the pairs take a value their flag accepts, so that many lines parse
_SOLVE_PAIR = st.sampled_from(_SOLVE_FLAGS).flatmap(lambda flag: st.tuples(
    st.just(flag),
    st.sampled_from(_SOLVE_VALUES) | st.sampled_from(_SOLVE_GOOD.get(flag, _SOLVE_VALUES)),
))
_SOLVE_ARGV = st.tuples(
    st.booleans(),
    st.lists(_SOLVE_PAIR | _SOLVE_PAIR | st.tuples(st.sampled_from(_SOLVE_TOKENS)), max_size=5),
).map(lambda drawn: ["--input", "in.cnf"] * drawn[0] + [t for part in drawn[1] for t in part])


def _plain(namespace):
    """The namespace's attributes, with values by repr, so that nan equals nan."""
    return sorted((name, repr(value)) for name, value in vars(namespace).items())


class TestSolveReader:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(_SOLVE_ARGV)
    def test_agrees_with_the_sub_parser(self, argv):
        # the reader gives the sub-parser's namespace or nothing, and
        # nothing wherever the sub-parser refuses argv
        read = _read_solve(argv)
        try:
            parsed = _SOLVE_PARSER.parse_args(argv)
        except UsageError:
            assert read is None, argv
            return
        assert read is None or _plain(read) == _plain(parsed), argv

    def test_reads_plain_lines(self):
        for argv in (
            ["--input", "in.cnf"],
            ["--mode", "brute", "--input", "a", "--t", "4", "--epsilon", "nan", "--seed", "3",
             "--trial-cap", "9", "--jobs", "2", "--cache-dir", "c", "--stats", "s.json"],
            ["--input", "a", "--mode", "rand", "--input", "b", "--mode", "det"],
        ):
            assert _plain(_read_solve(argv)) == _plain(_SOLVE_PARSER.parse_args(argv))

    def test_leaves_every_other_line_to_argparse(self):
        for argv in (
            [], ["--input"], ["-h"], ["--in", "a"], ["--input=a"], ["--input", "a", "--t", "-1"],
            ["--input", "a", "--t", "x"], ["--input", "a", "--mode", "bogus"],
            ["--input", "a", "--frobnicate", "1"], ["--mode", "det"], ["--input", "-"],
        ):
            assert _read_solve(argv) is None, argv


class TestUsage:
    def test_unknown_flag(self):
        assert main(["solve", "--frobnicate"]) == 1

    def test_no_command(self):
        assert main([]) == 1

    def test_messages_name_every_command(self, tmp_path, capsys):
        path = write(tmp_path, "t.cnf", "p cnf 1 1\n1 0\n")
        choices = "'solve', 'gencode', 'verifycode', 'reduce', 'bench'"
        cases = [
            ([], "the following arguments are required: command"),
            (["bogus"], f"argument command: invalid choice: 'bogus' (choose from {choices})"),
            (["solve", "--bogus"], "the following arguments are required: --input"),
            (["solve", "--input", path, "--bogus"], "unrecognized arguments: --bogus"),
        ]
        for argv, message in cases:
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        listed = re.search(r"\{([a-z,]+)\}", capsys.readouterr().out).group(1)
        assert listed == "solve,gencode,verifycode,reduce,bench"

    def test_readme_synopsis_lists_every_flag(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        synopsis = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
        documented = {}
        for line in synopsis.splitlines():
            if line.startswith("coversat "):
                command = line.split()[1]
                documented[command] = set()
            documented[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
        actual = {
            name: {o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help")}
            for name, sub in _subparsers(_build_parser()).choices.items()
        }
        assert documented == actual


_CONSOLE_PROBE = """
import argparse, json, sys
import coversat.cli, coversat.search

built, requests = [], []
add_parser, get_code = argparse._SubParsersAction.add_parser, coversat.search.get_code
argparse._SubParsersAction.add_parser = lambda self, name, **kw: (
    built.append(name) or add_parser(self, name, **kw)
)
coversat.search.get_code = lambda *a, **kw: requests.append(a) or get_code(*a, **kw)
sys.argv = ["coversat", "solve", "--input", sys.argv[1]]
try:
    coversat.cli.console_main()
except SystemExit as exc:
    loaded = [name for name in ("locale", "multiprocessing") if name in sys.modules]
    print(json.dumps({"exit": exc.code, "built": built, "requests": requests, "loaded": loaded}))
"""


class TestColdStart:
    def test_console_solve_builds_only_what_it_reads(self, tmp_path):
        # the installed entry point passes argv=None: a fresh interpreter
        # solving an n = 9 CSP reads the plain solve line without building a
        # sub-parser, never asks for the (3,6,2) inner code, which needs
        # n >= 18, and never imports locale (argparse's gettext would) or
        # multiprocessing (only a pool does)
        path = write(tmp_path, "t.csp", "p csp 3 9 2\n1 1 2 1 3 1 0\n4 2 5 2 6 2 0\n")
        package_root = str(Path(coversat.csp.__file__).parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _CONSOLE_PROBE, path],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        lines = out.stdout.splitlines()
        assert lines[0] == "s SATISFIABLE"
        assert json.loads(lines[-1]) == {"exit": 10, "built": [], "requests": [], "loaded": []}
