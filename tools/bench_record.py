"""Record before-and-after benchmark numbers of two commits in one JSON file.

    python3 tools/bench_record.py --base REV --out BENCH_<N>.json

REV and HEAD are exported with `git archive` into a temporary directory,
and perfbench/run.py runs in each export, unchanged, as a subprocess, on
every workload of BENCHMARK.json at seed SEED for SECONDS: PAIRS pairs,
one run of each side per pair, the base first in even pairs and HEAD
first in odd ones, so that both sides see the same stretches of host load.
Then each side runs each workload once more with `--trace 1`. The script
reads the reports run.py writes under each export's perfbench/out/.

The output keeps every untraced run (end-to-end metrics, `correct`,
`attempted`, `failed`, host calibration), each side's traced per-layer
metrics and, per workload and end-to-end metric, each side's median and
quartiles, the median of the per-pair head/base ratios, the pairs HEAD won
(ties count for neither side) and `gain`: whether HEAD won at least nine
tenths of the pairs and its median beats the base median by more than the
distance between the base quartiles. `counts_identical` says whether every
untraced run of both sides read the same per-instance work counts (nodes,
leaves, depth, codewords, boxes): a change that keeps its behaviour keeps
it true.

The workloads that perfbench defines but BENCHMARK.json does not gate,
UNGATED, run apart: each side runs each once untraced and once traced, and
the record keeps those runs under `ungated` with their own
`counts_identical` (all four runs agree) and no pairs and no gain rule.
Ten pairs of the two BENCHMARK.json workloads take about 30 minutes, the
ungated runs some minutes more. Not part of the tier-1 suite.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SECONDS = 30
# ten pairs, the fewest that the nine-tenths gain rule below can judge
PAIRS = 10
# perfbench/workloads.py's workloads that BENCHMARK.json leaves out
UNGATED = ("cnf-unsat", "cnf-sat-deep")
# the direction of each end-to-end metric, as BENCHMARK.json states it
BETTER = {"instances_per_s": "higher", "solve_s_p50": "lower", "setup_s": "lower",
          "peak_rss_mb": "lower"}


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> str:
    """Write the files of rev into dest; return its full commit hash."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=_git("archive", commit), check=True)
    return commit


def run_once(tree: Path, workload: str, trace: bool) -> dict:
    """One perfbench/run.py run in tree; the fields kept from its report."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    report = json.loads(
        (tree / "perfbench" / "out" / f"{workload}-seed{SEED}-trace{int(trace)}.json").read_text()
    )
    result = report["result"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "calibration_s": report["calibration_s"],
        "counts": [inst["counts"] for inst in report["instances"]],
    }


def _quartiles(values: list[float]) -> list[float]:
    """[first quartile, third quartile]."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summarize(pairs: list[tuple[dict, dict]]) -> dict:
    """Per end-to-end metric, the figures of the module docstring."""
    summary = {}
    for name, better in BETTER.items():
        base = [b["metrics"][name] for b, _ in pairs]
        head = [h["metrics"][name] for _, h in pairs]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        q1, q3 = _quartiles(base)
        summary[name] = {
            "better": better,
            "base_median": statistics.median(base),
            "base_quartiles": [q1, q3],
            "head_median": statistics.median(head),
            "head_quartiles": _quartiles(head),
            "ratio_median": statistics.median(h / b for b, h in zip(base, head)),
            "head_better_pairs": wins,
            "gain": 10 * wins >= 9 * len(pairs)
            and sign * (statistics.median(head) - statistics.median(base)) > q3 - q1,
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the commit HEAD is compared against")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    record = {"script": "tools/bench_record.py", "seed": SEED, "seconds": SECONDS,
              "pairs": PAIRS, "workloads": {}, "ungated": {}}
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "head")}
        for side, rev in (("base", args.base), ("head", "HEAD")):
            record[side] = {"rev": rev, "commit": export(rev, trees[side])}
        for workload in workloads:
            pairs = []
            for i in range(PAIRS):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                runs = {side: run_once(trees[side], workload, False) for side in order}
                pairs.append((runs["base"], runs["head"]))
                print(f"{workload} pair {i + 1}/{PAIRS}: instances_per_s "
                      f"{runs['base']['metrics']['instances_per_s']:.3f} -> "
                      f"{runs['head']['metrics']['instances_per_s']:.3f}", file=sys.stderr)
            runs = [run for pair in pairs for run in pair]
            record["workloads"][workload] = {
                "summary": summarize(pairs),
                "counts_identical": all(run["counts"] == runs[0]["counts"] for run in runs),
                "runs": [
                    {"side": side, "pair": i, "first": (side == "base") == (i % 2 == 0),
                     **{k: v for k, v in run.items() if k != "counts"}}
                    for i, pair in enumerate(pairs)
                    for side, run in zip(("base", "head"), pair)
                ],
                "traced": {side: run_once(trees[side], workload, True)["metrics"]
                           for side in ("base", "head")},
            }
        for workload in UNGATED:
            runs = {(side, trace): run_once(trees[side], workload, trace)
                    for side in ("base", "head") for trace in (False, True)}
            first = runs["base", False]["counts"]
            record["ungated"][workload] = {
                "counts_identical": all(run["counts"] == first for run in runs.values()),
                **{side: {**{k: v for k, v in runs[side, False].items() if k != "counts"},
                          "traced": runs[side, True]["metrics"]}
                   for side in ("base", "head")},
            }
            print(f"{workload}: instances_per_s "
                  f"{runs['base', False]['metrics']['instances_per_s']:.3f} -> "
                  f"{runs['head', False]['metrics']['instances_per_s']:.3f}", file=sys.stderr)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
