"""The benchmark's own verdict checks, independent of coversat.

* Exhaustive numpy evaluation over all 2^n CNF assignments (bit-packed) and
  all d^n CSP assignments.
* Plain clause / constraint evaluators for printed witnesses.
* A reader for the CLI's ``s`` and ``v`` output lines.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

EXHAUSTIVE_MAX_CNF_VARS = 22
EXHAUSTIVE_MAX_CSP_SPACE = 10**6


@lru_cache(maxsize=4)
def _cnf_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Packed truth tables: row v-1 has bit i set iff assignment i (variable 1
    most significant) gives variable v the value 1; `valid` masks padding."""
    idx = np.arange(1 << n, dtype=np.uint32)
    rows = [np.packbits(((idx >> (n - v)) & 1).astype(bool)) for v in range(1, n + 1)]
    valid = np.packbits(np.ones(1 << n, dtype=bool))
    return np.stack(rows), valid


def cnf_solution_table(n: int, clauses) -> np.ndarray:
    """Packed bitmap of the assignments that satisfy every clause."""
    if n > EXHAUSTIVE_MAX_CNF_VARS:
        raise ValueError(f"exhaustive CNF check limited to n <= {EXHAUSTIVE_MAX_CNF_VARS}")
    table, valid = _cnf_tables(n)
    sat = valid.copy()
    for i, clause in enumerate(clauses):
        cmask = np.zeros_like(valid)
        for u in clause:
            cmask |= table[u - 1] if u > 0 else ~table[-u - 1]
        sat &= cmask
        if i % 16 == 15 and not sat.any():
            break
    return sat


def cnf_satisfiable(n: int, clauses) -> bool:
    return bool(cnf_solution_table(n, clauses).any())


def csp_satisfiable(d: int, n: int, constraints) -> bool:
    """Exhaustive check over all d^n assignments (variable 1 most significant)."""
    if d**n > EXHAUSTIVE_MAX_CSP_SPACE:
        raise ValueError(f"exhaustive CSP check limited to d^n <= {EXHAUSTIVE_MAX_CSP_SPACE}")
    idx = np.arange(d**n)
    values = [(idx // d ** (n - v)) % d + 1 for v in range(1, n + 1)]
    sat = np.ones(d**n, dtype=bool)
    for con in constraints:
        violated = np.ones(d**n, dtype=bool)
        for v, c in con:
            violated &= values[v - 1] == c
        sat &= ~violated
    return bool(sat.any())


def cnf_satisfies(clauses, bits) -> bool:
    """True iff the 0/1 assignment `bits` (index v-1) satisfies every clause."""
    return all(any((bits[u - 1] == 1) if u > 0 else (bits[-u - 1] == 0) for u in c) for c in clauses)


def csp_satisfies(constraints, values) -> bool:
    """True iff no constraint has all of its (variable, value) pairs taken."""
    return all(any(values[v - 1] != c for v, c in con) for con in constraints)


def read_output(text: str, kind: str, n: int):
    """Parse the CLI's stdout into (status, witness). status is "sat",
    "unsat" or None when no status line is present; witness is a tuple or
    None. Raises ValueError on a malformed witness."""
    status = None
    lits: list[int] = []
    values: dict[int, int] = {}
    for line in text.splitlines():
        if line.startswith("s "):
            status = {"SATISFIABLE": "sat", "UNSATISFIABLE": "unsat"}.get(line[2:].strip(), line[2:])
        elif line.startswith("v "):
            body = line[2:].split()
            if kind == "cnf":
                lits += [int(tok) for tok in body if tok != "0"]
            else:
                for tok in body:
                    name, _, value = tok.partition("=")
                    values[int(name.lstrip("x"))] = int(value)
    if status != "sat":
        return status, None
    if kind == "cnf":
        bits = [None] * n
        for u in lits:
            bits[abs(u) - 1] = 1 if u > 0 else 0
        if len(lits) != n or None in bits:
            raise ValueError("CNF witness does not assign every variable exactly once")
        return status, tuple(bits)
    if sorted(values) != list(range(1, n + 1)):
        raise ValueError("CSP witness does not assign every variable exactly once")
    return status, tuple(values[v] for v in range(1, n + 1))


EXIT_STATUS = {10: "sat", 20: "unsat"}


def check_result(inst, expect: str, exit_code, stdout: str) -> str | None:
    """None when the run is correct, else a one-line reason. `expect` is the
    verdict the benchmark established independently."""
    if exit_code not in EXIT_STATUS:
        return f"unexpected exit code {exit_code!r}"
    try:
        status, witness = read_output(stdout, inst.kind, inst.num_vars)
    except ValueError as exc:
        return str(exc)
    if status != EXIT_STATUS[exit_code]:
        return f"status line {status!r} disagrees with exit code {exit_code}"
    if status != expect:
        return f"verdict {status} but the oracle says {expect}"
    if status == "sat":
        if inst.kind == "cnf":
            ok = cnf_satisfies(inst.clauses, witness)
        else:
            ok = all(1 <= x <= inst.domain for x in witness) and csp_satisfies(inst.clauses, witness)
        if not ok:
            return "printed witness fails the benchmark's evaluator"
    return None


def expected_verdict(inst) -> str:
    """The verdict known at generation, else the planted certificate's or
    the exhaustive oracle's."""
    if inst.expect is not None:
        return inst.expect
    if inst.certificate is not None:
        if not cnf_satisfies(inst.clauses, inst.certificate):
            raise ValueError("planted certificate does not satisfy its formula")
        return "sat"
    if inst.kind == "cnf":
        return "sat" if cnf_satisfiable(inst.num_vars, inst.clauses) else "unsat"
    return "sat" if csp_satisfiable(inst.domain, inst.num_vars, inst.clauses) else "unsat"
