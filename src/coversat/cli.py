"""Command-line surface.

Exit codes follow SAT-solver convention: 10 sat, 20 unsat, 30 unknown,
0 other success, 1 usage/parse error, 2 resource-cap error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import bench as bench_mod
from .codes import greedy_code, random_code, verify_cover
from .csp import brute_force_csp, csp_evaluate, restrict_to_box, solve_csp, two_box_cover
from .errors import CoversatError, ResourceCapError, UsageError
from .formats import _decode, input_kind, parse_csp, parse_dimacs, read_code, write_code, write_dimacs
from .cnf import evaluate
from .solver import SolveResult, SolverConfig, brute_force, solve_deterministic, solve_schoening

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNKNOWN = 30
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2

_STATUS_EXIT = {"sat": EXIT_SAT, "unsat": EXIT_UNSAT, "unknown": EXIT_UNKNOWN}
_STATUS_LINE = {"sat": "SATISFIABLE", "unsat": "UNSATISFIABLE", "unknown": "UNKNOWN"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise UsageError(message)


# The solve options, declared once: they feed the solve sub-parser and
# _read_solve.
_SOLVE_OPTIONS = {
    "--input": {"required": True},
    "--mode": {"choices": ["det", "rand", "brute"], "default": "det"},
    "--t": {"type": int, "default": SolverConfig.t, "help": "inner code block size"},
    "--epsilon": {"type": float, "default": SolverConfig.epsilon},
    "--seed": {"type": int, "default": SolverConfig.seed},
    "--trial-cap": {"type": int, "default": SolverConfig.trial_cap},
    "--jobs": {"type": int, "default": SolverConfig.jobs},
    "--cache-dir": {"default": SolverConfig.cache_dir},
    "--stats": {"default": None, "help": "write a JSON stats report here"},
}


def _read_solve(argv: list[str]) -> argparse.Namespace | None:
    """The namespace of the solve sub-parser for argv, read without building
    it, when argv is only exact `--flag value` pairs of _SOLVE_OPTIONS with
    --input among them, each value not starting with '-' and accepted by
    its flag's type and choices; a repeated flag keeps its last value. None
    for any other argv (help, abbreviations, --flag=value, negative numbers,
    bad values, a missing --input), which the sub-parser then reads, so
    argparse alone prints help and every usage error."""
    if len(argv) % 2:
        return None
    values = {}
    for flag, value in zip(argv[::2], argv[1::2]):
        options = _SOLVE_OPTIONS.get(flag)
        if options is None or value.startswith("-"):
            return None
        try:
            value = options.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in options and value not in options["choices"]:
            return None
        values[flag] = value
    if "--input" not in values:
        return None
    return argparse.Namespace(**{
        flag[2:].replace("-", "_"): values.get(flag, options.get("default"))
        for flag, options in _SOLVE_OPTIONS.items()
    })


@functools.lru_cache(maxsize=6)
def _build_parser(command: str | None = None) -> _Parser:
    """The argument parser, built once per process and command: parse_args
    leaves it unchanged and gives every call a fresh namespace. A command
    of _COMMANDS gets only its own sub-parser; None gets all five, for the
    top-level help and the messages of a missing or unknown command. The
    parser keeps its sub-parsers by name in `commands`."""
    p = _Parser(prog="coversat", description="Covering-code k-SAT and CSP solver")
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices

    if command in (None, "solve"):
        solve = sub.add_parser("solve", help="solve a CNF or CSP file")
        for flag, options in _SOLVE_OPTIONS.items():
            solve.add_argument(flag, **options)

    if command in (None, "gencode"):
        gencode = sub.add_parser("gencode", help="construct a covering code")
        gencode.add_argument("--q", type=int, required=True)
        gencode.add_argument("--t", type=int, required=True)
        gencode.add_argument("--radius", type=int, required=True)
        gencode.add_argument("--method", choices=["greedy", "random"], default="greedy")
        gencode.add_argument(
            "--size", type=int, default=None, help="random method: words to sample"
        )
        gencode.add_argument(
            "--seed", type=int, default=None, help="random method: sampling seed (default 0)"
        )
        gencode.add_argument("--out", default=None, help="output file (default: stdout)")

    if command in (None, "verifycode"):
        verify = sub.add_parser("verifycode", help="exhaustively verify a code file")
        verify.add_argument("file")

    if command in (None, "reduce"):
        reduce_p = sub.add_parser("reduce", help="emit the per-box CNFs of a CSP")
        reduce_p.add_argument("--input", required=True)
        reduce_p.add_argument("--outdir", required=True)

    if command in (None, "bench"):
        bench = sub.add_parser("bench", help="scaling experiments on planted instances")
        bench.add_argument("--k", type=int, default=3)
        bench.add_argument("--t", type=int, default=SolverConfig.t)
        bench.add_argument("--r", required=True, help="radius range LO:HI (inclusive)")
        # argparse reads "-1:3" as an option; let it pass as a value, as "-1" does
        bench._negative_number_matcher = re.compile(r"^-\d+(:-?\d+)?$")
        bench.add_argument("--trials", type=int, default=50)
        bench.add_argument("--seed", type=int, default=0)
        bench.add_argument("--n", type=int, default=None)
        bench.add_argument("--m", type=int, default=None)
        bench.add_argument(
            "--engine",
            action="append",
            choices=list(bench_mod.ENGINES),
            default=None,
            help="repeatable; default: searchball and searchball_fast",
        )
        bench.add_argument("--csv", default=None)
    return p


def _config_from(args) -> SolverConfig:
    return SolverConfig(
        t=args.t,
        epsilon=args.epsilon,
        seed=args.seed,
        trial_cap=args.trial_cap,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )


def _check_writable(path: str | None) -> None:
    """Refuse, before any work, an output path that is a directory or whose
    directory cannot take a new file: one stat and one access call. The file
    is written only once the work is done, so a failed solve leaves no stats
    file."""
    if not path:
        return
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path}: it is a directory")
    if not os.access(os.path.dirname(path) or ".", os.W_OK | os.X_OK):
        raise UsageError(f"cannot write {path}: its directory is missing or not writable")


def _emit_result(
    result: SolveResult, kind: str, args, num_clauses: int, k: int, n: int
) -> int:
    print(f"s {_STATUS_LINE[result.status]}")
    if result.status == "sat":
        if kind == "cnf":
            lits = " ".join(
                str(v if bit else -v) for v, bit in enumerate(result.witness, start=1)
            )
            print(f"v {lits} 0" if lits else "v 0")
        else:
            for v, value in enumerate(result.witness, start=1):
                print(f"v x{v}={value}")
    if args.stats:
        report = {
            "schema": 1,
            "input": args.input,
            "kind": kind,
            "mode": args.mode,
            "status": result.status,
            "num_vars": n,
            "num_clauses": num_clauses,
            "k": k,
            "seed": args.seed,
            "witness": list(result.witness) if result.witness is not None else None,
            **vars(result.stats),
        }
        with open(args.stats, "w") as fh:
            fh.write(json.dumps(report) + "\n")  # indent would force the pure-Python encoder
    return _STATUS_EXIT[result.status]


def _cmd_solve(args) -> int:
    _check_writable(args.stats)
    with open(args.input, "rb") as fh:
        text = _decode(fh.read())  # once: input_kind and the parser read the same str
    kind = input_kind(text)
    cfg = _config_from(args)
    if kind == "cnf":
        f = parse_dimacs(text)
        if args.mode == "det":
            result = solve_deterministic(f, cfg)
        elif args.mode == "rand":
            result = solve_schoening(f, cfg)
        else:
            result = brute_force(f)
        if result.status == "sat" and not evaluate(f, result.witness):
            raise AssertionError("internal error: witness failed re-verification")
        return _emit_result(result, kind, args, len(f.clauses), f.max_width, f.num_vars)
    g = parse_csp(text)
    if args.mode == "rand":
        raise UsageError("--mode rand supports CNF inputs only")
    result = brute_force_csp(g) if args.mode == "brute" else solve_csp(g, cfg)
    if result.status == "sat" and not csp_evaluate(g, result.witness):
        raise AssertionError("internal error: witness failed re-verification")
    return _emit_result(result, kind, args, len(g.constraints), g.max_width, g.num_vars)


def _cmd_gencode(args) -> int:
    _check_writable(args.out)
    if args.method == "random":
        code = random_code(args.q, args.t, args.radius, args.size, args.seed or 0)
    elif args.size is not None or args.seed is not None:
        raise UsageError("--size and --seed apply to --method random only")
    else:
        code = greedy_code(args.q, args.t, args.radius)
    text = write_code(code)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {len(code.words)} words to {args.out} (verified={code.verified})")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verifycode(args) -> int:
    with open(args.file, "rb") as fh:
        code = read_code(fh.read())
    if verify_cover(code):
        print(f"OK: {len(code.words)} words cover ({code.q},{code.t}) at radius {code.r}")
        return EXIT_OK
    print(f"FAIL: code does not cover ({code.q},{code.t}) at radius {code.r}")
    return EXIT_USAGE


def _cmd_reduce(args) -> int:
    with open(args.input, "rb") as fh:
        text = _decode(fh.read())
    if input_kind(text) != "csp":
        raise UsageError("reduce takes a 'p csp' file; this input has no 'p csp' header")
    g = parse_csp(text)
    boxes = two_box_cover(g.domain_size, g.num_vars)
    os.makedirs(args.outdir, exist_ok=True)
    manifest = {"schema": 1, "input": args.input, "domain_size": g.domain_size,
                "num_vars": g.num_vars, "boxes": []}
    for i, box in enumerate(boxes):
        name = f"box_{i:05d}.cnf"
        with open(os.path.join(args.outdir, name), "w", encoding="ascii") as fh:
            fh.write(write_dimacs(restrict_to_box(g, box)))
        manifest["boxes"].append({"file": name, "box": [list(p) for p in box]})
    with open(os.path.join(args.outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(boxes)} reduced formulas to {args.outdir}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    _check_writable(args.csv)
    try:
        lo, hi = (int(x) for x in args.r.split(":"))
    except ValueError:
        raise UsageError(f"--r expects LO:HI, got {args.r!r}") from None
    if hi < lo:
        raise UsageError(f"bad radius range {args.r!r}")
    engines = list(dict.fromkeys(args.engine or ["searchball", "searchball_fast"]))
    records = bench_mod.run_scaling(
        engines, args.k, args.t, range(lo, hi + 1), args.trials,
        seed=args.seed, n=args.n, m=args.m,
    )
    for engine in engines:
        mine = [rec for rec in records if rec.engine == engine]
        if hi - lo >= 2 and engine != "schoening_walk":
            try:
                fit = bench_mod.fit_scaling(mine)
            except bench_mod.ConstantSeriesError:
                print(f"{engine}: fitted base 1.000, no interval: mean leaves equal at "
                      f"every r={lo}..{hi}")
                continue
            print(
                f"{engine}: fitted base {fit.base:.3f} "
                f"[95% CI {fit.base_low:.3f}, {fit.base_high:.3f}] over r={lo}..{hi}"
            )
        else:
            succ = sum(rec.outcome == "sat" for rec in mine)
            print(f"{engine}: {succ}/{len(mine)} runs found a witness")
    if args.csv:
        bench_mod.write_records_csv(records, args.csv)
        print(f"wrote {len(records)} records to {args.csv}")
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "gencode": _cmd_gencode,
    "verifycode": _cmd_verifycode,
    "reduce": _cmd_reduce,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        if command is None:  # top-level help, or the message of a missing or unknown command
            args = _build_parser().parse_args(argv)
            command = args.command
        else:  # a plain solve line read as it is, else one pass of the command's sub-parser
            args = _read_solve(argv[1:]) if command == "solve" else None
            if args is None:
                args = _build_parser(command).commands[command].parse_args(argv[1:])
        return _COMMANDS[command](args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (CoversatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
