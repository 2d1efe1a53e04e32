"""Self-tests of the benchmark on a smoke-sized corpus.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import random
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Instance, random_csp, random_kcnf  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = [w["name"] for w in BENCH["workloads"]]


def _bench(workload: str, trace: int, seconds: float = 0.05) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_workloads():
    assert GATED == run.gated_workloads()
    for entry in BENCH["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    # a workload left out of BENCHMARK.json says why, and only those do
    assert all(bool(w.steady_note) == (name not in GATED) for name, w in WORKLOADS.items())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corpus_is_fixed_by_seed_and_seconds(name, tmp_path):
    workload = WORKLOADS[name]
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        workloads.write_corpus(workload, 5, 2, tmp_path / sub)
    for sub_file in sorted((tmp_path / "a").iterdir()):
        assert sub_file.read_text() == (tmp_path / "b" / sub_file.name).read_text()
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert [m["index"] for m in manifest] == [0, 1]
    for m in manifest:
        text = (tmp_path / "a" / m["file"]).read_text()
        assert Instance.parse(text).text() == text
        assert Instance.parse(text).clauses == workload.instance(5, m["index"]).clauses


@pytest.mark.parametrize("workload", GATED)
def test_end_to_end_metrics_emitted_and_correct(workload):
    result = _bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["csp-d3", "cnf-brute"])
def test_per_layer_metrics_emitted(workload):
    result = _bench(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trivial_setup_instance_decided_first(name, tmp_path):
    from coversat import cli

    workload = WORKLOADS[name]
    trivial = workload.trivial()
    path = tmp_path / f"trivial.{trivial.kind}"
    stats = tmp_path / "stats.json"
    path.write_text(trivial.text())
    with redirect_stdout(io.StringIO()) as out:
        code = cli.main(["solve", "--input", str(path), "--mode", workload.mode,
                         "--stats", str(stats)])
    assert oracle.check_result(trivial, "sat", code, out.getvalue()) is None
    report = json.loads(stats.read_text())
    assert report["k"] == 3
    if workload.mode == "det":
        if trivial.kind == "csp":
            assert report["boxes_tried"] == 1
            assert report["codewords_tried"] == 1  # summed over boxes
        else:
            assert report["codewords_tried"] == 1


def _reference_cnf_sat(n, clauses):
    return any(oracle.cnf_satisfies(clauses, bits) for bits in product((0, 1), repeat=n))


def _reference_csp_sat(d, n, cons):
    return any(oracle.csp_satisfies(cons, vals) for vals in product(range(1, d + 1), repeat=n))


def test_exhaustive_oracles_match_enumeration():
    rng = random.Random(7)
    for n in (3, 4, 7, 9):
        for m in (2, 4 * n, 6 * n):
            clauses = random_kcnf(rng, n, m)
            assert oracle.cnf_satisfiable(n, clauses) == _reference_cnf_sat(n, clauses)
    for n in (3, 5):
        for m in (3, 10, 25):
            cons = random_csp(rng, 3, n, m)
            assert oracle.csp_satisfiable(3, n, cons) == _reference_csp_sat(3, n, cons)


def test_corrupted_verdicts_and_witnesses_are_rejected():
    cnf = Instance("cnf", 3, ((1, 2, 3), (-1, 2, 3)))
    assert oracle.check_result(cnf, "sat", 10, "s SATISFIABLE\nv -1 2 -3 0\n") is None
    assert oracle.check_result(cnf, "sat", 10, "s SATISFIABLE\nv -1 -2 -3 0\n")
    assert oracle.check_result(cnf, "sat", 10, "s SATISFIABLE\nv -1 2 0\n")
    assert oracle.check_result(cnf, "sat", 20, "s UNSATISFIABLE\n")
    assert oracle.check_result(cnf, "sat", 10, "s UNSATISFIABLE\n")
    assert oracle.check_result(cnf, "sat", 1, "")
    assert oracle.check_result(cnf, "sat", None, "")
    csp = Instance("csp", 2, (((1, 1), (2, 1)),), domain=3)
    assert oracle.check_result(csp, "sat", 10, "s SATISFIABLE\nv x1=1\nv x2=2\n") is None
    assert oracle.check_result(csp, "sat", 10, "s SATISFIABLE\nv x1=1\nv x2=1\n")
    assert oracle.check_result(csp, "sat", 10, "s SATISFIABLE\nv x1=1\nv x2=4\n")
    assert oracle.check_result(csp, "unsat", 10, "s SATISFIABLE\nv x1=1\nv x2=2\n")


def _corrupt(stdout: str, code: int) -> tuple[str, int]:
    """Flip the first witness literal of a sat answer; turn unsat into sat."""
    if code == 10:
        lines = stdout.splitlines()
        v = next(i for i, line in enumerate(lines) if line.startswith("v "))
        toks = lines[v].split()
        toks[1] = str(-int(toks[1]))
        lines[v] = " ".join(toks)
        return "\n".join(lines) + "\n", code
    return stdout.replace("UNSATISFIABLE", "SATISFIABLE"), 10


def test_corrupted_runs_are_counted(monkeypatch, tmp_path):
    from coversat import cli

    real_main = cli.main

    def corrupting_main(argv):
        with redirect_stdout(io.StringIO()) as buf:
            code = real_main(argv)
        text = buf.getvalue()
        if Path(argv[argv.index("--input") + 1]).stem != "setup":
            text, code = _corrupt(text, code)
        sys.stdout.write(text)
        return code

    monkeypatch.setattr(cli, "main", corrupting_main)
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = SimpleNamespace(workload="cnf-brute", seed=3, seconds=0.4, trace=0)
    result, report = run.run(args)
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert report["fail_rate"] == 1.0


def test_times_are_scaled_by_the_reference(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = SimpleNamespace(workload="cnf-brute", seed=4, seconds=0.2, trace=0)
    result, report = run.run(args)
    assert result["correct"] is True
    for inst in report["instances"]:
        assert len(inst["repeat_ref_s"]) == len(inst["repeat_wall_s"]) == run.REPEATS
        scaled = [run.at_ref_speed(t, r)
                  for t, r in zip(inst["repeat_wall_s"], inst["repeat_ref_s"])]
        assert inst["time_s"] == pytest.approx(statistics.median(scaled))
        assert inst["wall_s"] == pytest.approx(statistics.median(inst["repeat_wall_s"]))
    setup = report["setup"]
    assert len(setup["probes_s"]) == len(setup["probes_ref_s"]) == run.PROBES
    for scaled, wall, ref in zip(setup["probes_s"], setup["probes_wall_s"],
                                 setup["probes_ref_s"]):
        assert scaled == pytest.approx(run.at_ref_speed(wall, ref))
    setup_s = result["metrics"]["setup_s"]["value"]
    assert setup_s == pytest.approx(statistics.median(setup["probes_s"]))
    assert run.at_ref_speed(3.0, 2 * run.REF_S) == pytest.approx(1.5)


def test_determinism_guard_flags_count_drift():
    counts = {k: 1 for k in run.COUNT_KEYS}
    solved = {"exit": 20, "counts": counts, "digest": "d1"}
    drifted = dict(solved, counts=dict(counts, recursion_nodes=2))
    rec = {"index": 0, "runs": [solved, dict(solved)]}
    assert run.check_counts([rec], solved, [dict(solved)]) == []
    assert run.check_counts([rec], solved, [drifted])
    assert run.check_counts([{"index": 0, "runs": [solved, drifted]}], solved, [])
    assert run.check_counts([dict(rec, traced=drifted)], solved, [])
    reworded = dict(solved, digest="d2")
    assert run.check_counts([{"index": 0, "runs": [solved, reworded]}], solved, [])
    other_exit = dict(solved, exit=10)
    assert run.check_counts([{"index": 0, "runs": [solved, other_exit]}], solved, [])


def test_spans_nest_and_self_times_add_up(tmp_path):
    from coversat import cli

    inst = WORKLOADS["csp-d3"].instance(0, 3)
    path = tmp_path / "x.csp"
    path.write_text(inst.text())
    tracer = Tracer()
    tracer.instance = 0
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            cli.main(["solve", "--input", str(path)])
    finally:
        tracer.uninstall()
    cols = tracer.columns()
    assert (cols["parent"] < range(len(cols["parent"]))).all()
    roots = cols["parent"] == -1
    assert [tracer.names[i] for i in cols["name"][roots]] == ["cli.main"]
    totals = tracer.layer_totals()
    self_sum = sum(v["self_s"] for v in totals.values())
    root_total = float((cols["end"] - cols["start"])[roots].sum())
    assert self_sum == pytest.approx(root_total, rel=1e-9)
    metrics = layer_metrics(tracer, 1)
    assert metrics["csp.boxes_tried"][0] >= 1
    assert metrics["search.searchball_calls"][0] >= 1
