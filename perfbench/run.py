"""Seeded end-to-end and per-layer benchmark of ``coversat solve``.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each instance is one in-process call of ``coversat.cli.main(["solve", ...])``
on a file this script wrote, with stdout captured: read, parse, dispatch,
solve, witness re-check and print, as the CLI does, without interpreter
start-up. The loop is closed: one client, one instance at a time. The corpus
is a fixed number of instances of the workload's seeded sequence, sized so
that REPEATS passes over it take about S seconds on the reference host; it is
generated in a child interpreter before timing starts. Each instance counts
with the median of its REPEATS solves. Cold set-up is timed in PROBES fresh
interpreters spread over the run. Solve and set-up times are reported at
the reference host speed: each is scaled by REF_S over a host-speed
reference timed next to it (see hostspeed.py); the wall times are in the
report.

--trace 0 prints the end-to-end metrics; --trace 1 instead solves every
instance of the same corpus twice, untraced and then with span wrappers
installed (see tracing.py), and prints the per-layer metrics. Verdicts and
witnesses are checked against the benchmark's own oracle after the timed
region. A full report, and for traced runs the spans, are written under
perfbench/out/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Exit codes: 0 result printed, 2 the coversat sources are
missing, 3 work counts were not reproducible or set-up failed (no result).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from hostspeed import REF_S, calibrate, reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Untraced runs make REPEATS passes over the same instances and time a cold
# set-up probe before every (REPEATS // PROBES)-th pass. An instance's time is
# the median of its REPEATS scaled solve times: scaling takes out the host's
# slow swings, and spreading the repeats over the run and taking their median
# keeps one busy stretch that the reference missed from moving the result.
REPEATS = 8
PROBES = 4
PROBE_TIMEOUT_S = 150
GENERATE_TIMEOUT_S = 150
COUNT_KEYS = ("recursion_nodes", "leaves", "max_depth", "codewords_tried", "boxes_tried")


class BenchError(Exception):
    """The run cannot produce trustworthy numbers."""


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git only."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info() -> dict:
    # the CPU model is what platform reports: no file outside the checkout is read
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu": platform.processor() or "unknown",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
    }


def solve(cli, path: Path, mode: str, stats_path: Path) -> dict:
    """One timed ``coversat solve`` call; only the cli.main call is timed.
    Keeps the exit code, the --stats counts and a digest of stdout; the
    text itself is returned under "stdout" for the caller to keep or drop."""
    stats_path.unlink(missing_ok=True)
    argv = ["solve", "--input", str(path), "--mode", mode, "--stats", str(stats_path)]
    out = io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed instance, not a benchmark error
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
    counts = None
    if stats_path.exists():
        stats = json.loads(stats_path.read_text())
        counts = {k: stats.get(k) for k in COUNT_KEYS}
    text = out.getvalue()
    return {"time_s": elapsed, "exit": code, "digest": hashlib.sha1(text.encode()).hexdigest(),
            "error": error, "counts": counts, "stdout": text}


def at_ref_speed(seconds: float, ref_s: float) -> float:
    """`seconds` measured while the host-speed reference took `ref_s`,
    scaled to the speed at which it takes REF_S."""
    return seconds * REF_S / ref_s


def probe(workload, trivial_path: Path, work: Path, i: int) -> dict:
    """Cold set-up of one fresh interpreter (see probe.py)."""
    stats = work / f"probe{i}.json"
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), workload.mode, str(trivial_path),
           str(stats)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"set-up probe exceeded {PROBE_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-800:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["counts"] = {k: res["stats"].get(k) for k in COUNT_KEYS}
    res["digest"] = hashlib.sha1(res["stdout"].encode()).hexdigest()
    return res


def generate_corpus(workload, seed: int, count: int, work: Path) -> list[dict]:
    """Generate the corpus in a child interpreter (numpy stays out of this
    process, whose peak RSS is reported) and return its manifest."""
    cmd = [sys.executable, str(HERE / "workloads.py"), workload.name, str(seed), str(count),
           str(work)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=GENERATE_TIMEOUT_S,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"corpus generation exceeded {GENERATE_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"corpus generation failed: {proc.stderr.strip()[-800:]}")
    return json.loads((work / "manifest.json").read_text())


def check_counts(records, warm, probes) -> list[str]:
    """Determinism guard: identical exit codes, output and work counts
    wherever the same input was solved more than once by the same code."""
    def key(res):
        return res["exit"], res["digest"], res["counts"]

    bad = []
    for p in probes:
        if key(p) != key(warm):
            bad.append(f"set-up probe counts {p['counts']} != in-process {warm['counts']} "
                       "(or output differs)")
    for rec in records:
        first = rec["runs"][0]
        for other in rec["runs"][1:] + ([rec["traced"]] if "traced" in rec else []):
            if key(other) != key(first):
                bad.append(f"instance {rec['index']}: counts {other['counts']} "
                           f"!= {first['counts']} (or output differs)")
    return bad


def gated_workloads() -> list[str]:
    """Workload names listed in BENCHMARK.json, when it is present."""
    try:
        return [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    except OSError:
        return []


def run(args) -> tuple[dict, dict]:
    from coversat import cli
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    passes = 1 if trace else REPEATS
    count = workload.corpus_size(args.seconds, REPEATS)
    calib_before = calibrate()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        work = Path(tmp)
        stats_path = work / "stats.json"
        manifest = generate_corpus(workload, args.seed, count, work)
        trivial = workload.trivial()
        trivial_path = work / f"setup.{trivial.kind}"
        trivial_path.write_text(trivial.text())
        if trace:
            from tracing import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install()  # the warm-up is traced as the set-up phase
            try:
                warm = solve(cli, trivial_path, workload.mode, stats_path)
            finally:
                tracer.uninstall()
            probes = []
        else:
            tracer = None
            probes = [probe(workload, trivial_path, work, 0)]  # before the first pass
            warm = solve(cli, trivial_path, workload.mode, stats_path)

        # timed region: `passes` passes over the corpus, with the remaining
        # cold set-up probes in between; a solve's reference time is the
        # mean of the reference samples just before and just after it
        records = [{"index": m["index"], "file": work / m["file"], "expect": m["expect"],
                    "runs": []} for m in manifest]
        for p in range(passes):
            if p and p % (REPEATS // PROBES) == 0:
                probes.append(probe(workload, trivial_path, work, p))
            ref_before = reference()
            for rec in records:
                res = solve(cli, rec["file"], workload.mode, stats_path)
                ref_after = reference()
                res["ref_s"] = (ref_before + ref_after) / 2
                ref_before = ref_after
                if p == 0:
                    rec["stdout"] = res["stdout"]  # kept once, for the witness check
                del res["stdout"]
                rec["runs"].append(res)
                if tracer is not None:
                    tracer.instance = rec["index"]
                    tracer.install()
                    try:
                        rec["traced"] = solve(cli, rec["file"], workload.mode, stats_path)
                    finally:
                        tracer.uninstall()
                    del rec["traced"]["stdout"]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # everything below is outside the timed region
        from oracle import check_result
        from workloads import Instance

        for res in [warm] + probes:
            reason = check_result(trivial, "sat", res["exit"], res["stdout"])
            if reason is not None:
                raise BenchError(f"trivial set-up instance: {reason}")
        failures = []
        for rec in records:
            inst = Instance.parse(rec["file"].read_text())
            errors = [r["error"] for r in rec["runs"] + [rec.get("traced")] if r and r["error"]]
            reason = errors[0] if errors else check_result(inst, rec["expect"],
                                                           rec["runs"][0]["exit"], rec["stdout"])
            if reason is not None:
                failures.append({"index": rec["index"], "reason": reason})
        mismatches = check_counts(records, warm, probes)
        if mismatches:
            raise BenchError("work counts differ between runs of the same code: "
                             + "; ".join(mismatches[:5]))

    for rec in records:
        rec["time_s"] = statistics.median(at_ref_speed(r["time_s"], r["ref_s"])
                                          for r in rec["runs"])
        rec["wall_s"] = statistics.median(r["time_s"] for r in rec["runs"])
    failed_idx = {f["index"] for f in failures}
    times = [r["time_s"] for r in records]
    walls = [r["wall_s"] for r in records]
    decided = sum(r["runs"][0]["exit"] in (10, 20) for r in records)
    setups = [at_ref_speed(p["setup_s"], p["ref_s"]) for p in probes]
    if trace:
        metrics = layer_metrics(tracer, len(records))
        traced = sum(r["traced"]["time_s"] for r in records)
        metrics["trace.overhead_frac"] = (sum(walls) / traced - 1.0, "ratio")
    else:
        metrics = {
            "instances_per_s": (decided / sum(times), "1/s"),
            "solve_s_p50": (statistics.median(times), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not failed_idx,
        "attempted": len(records),
        "failed": len(failed_idx),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": {
            "name": workload.name, "why": workload.why, "kind": workload.kind,
            "mode": workload.mode, "stresses": workload.stresses, "bypasses": workload.bypasses,
            "params": workload.params, "in_benchmark_json": workload.name in gated_workloads(),
            "steady_note": workload.steady_note,
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "loop": "closed, one client, one instance at a time, in-process cli.main",
        "corpus": {"instances": count, "passes": passes},
        "machine": machine_info(),
        "calibration_s": {"before": calib_before, "after": calibrate(), "ref_s": REF_S},
        "wall": {
            "instances_per_s": decided / sum(walls),
            "solve_s_p50": statistics.median(walls),
            **({"setup_s": statistics.median(p["setup_s"] for p in probes)} if probes else {}),
        },
        "samples": len(records),
        "fail_rate": len(failed_idx) / len(records),
        "failures": failures,
        "setup": {
            "probes_wall_s": [p["setup_s"] for p in probes],
            "probes_ref_s": [p["ref_s"] for p in probes],
            "probes_s": setups,
            "warm_s": warm["time_s"],
            "counts": warm["counts"],
        },
        "instances": [
            {"index": r["index"], "expect": r["expect"], "exit": r["runs"][0]["exit"],
             "time_s": r["time_s"], "wall_s": r["wall_s"],
             "repeat_wall_s": [x["time_s"] for x in r["runs"]],
             "repeat_ref_s": [x["ref_s"] for x in r["runs"]],
             "counts": r["runs"][0]["counts"],
             **({"traced_time_s": r["traced"]["time_s"]} if trace else {})}
            for r in records
        ],
        "result": result,
    }
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.save(f"{stem}-spans.npz")
        report["spans"] = {"file": f"{stem.name}-spans.npz", "count": len(tracer.start)}
    Path(f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"report: {stem}.json", file=sys.stderr)
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coversat" / "cli.py").is_file():
        print(f"error: coversat sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        result, _ = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
