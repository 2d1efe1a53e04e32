"""Immutable CNF data model: formulas, assignments, evaluation, overrides.

Literals use the DIMACS convention: the integer ``v`` (v >= 1) is the positive
literal of variable ``v`` and ``-v`` its negation. A clause is a tuple of
literals over pairwise distinct variables, in input order. An assignment is a
tuple of 0/1 values indexed by ``variable - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, repeat
from operator import or_
from typing import Iterable, Mapping

Literal = int
Clause = tuple[Literal, ...]
Assignment = tuple[int, ...]
PartialAssignment = Mapping[int, int]


def make_clause(literals: Iterable[int]) -> Clause:
    """Validate and freeze a clause. Literal order is preserved."""
    clause = tuple(map(int, literals))
    variables = set(map(abs, clause))
    if len(variables) < len(clause) or 0 in variables:
        # find the first fault in literal order, for the message
        seen: set[int] = set()
        for u in clause:
            if u == 0:
                raise ValueError("literal 0 is not allowed in a clause")
            v = abs(u)
            if v in seen:
                raise ValueError(f"variable {v} occurs twice in clause {clause}")
            seen.add(v)
    return clause


@dataclass(frozen=True)
class Formula:
    """A CNF formula: ordered clauses over variables 1..num_vars.

    The empty clause is representable and makes the formula unsatisfiable.
    ``num_vars`` comes from the input header and is never shrunk when
    variables vanish under restriction.

    The derived tables (``max_width``, ``literal_masks``) are computed on
    first use and stored on the instance; they take no part in equality or
    hashing.
    """

    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        clauses = tuple(map(make_clause, self.clauses))
        object.__setattr__(self, "clauses", clauses)
        if max(map(abs, chain.from_iterable(clauses)), default=0) > self.num_vars:
            u = next(u for u in chain.from_iterable(clauses) if abs(u) > self.num_vars)
            raise ValueError(f"literal {u} exceeds num_vars={self.num_vars}")

    @classmethod
    def _unchecked(
        cls,
        num_vars: int,
        clauses: tuple[Clause, ...],
        literal_masks: tuple[tuple[int, int], ...] | None = None,
    ) -> Formula:
        """A formula whose clauses the caller has already validated: int
        literals over pairwise distinct variables in 1..num_vars. Skips
        ``__post_init__``; equal to ``Formula(num_vars, clauses)``. A caller
        that holds the clauses' ``literal_masks`` may pass them, and they
        are stored as if computed."""
        f = object.__new__(cls)
        object.__setattr__(f, "num_vars", num_vars)
        object.__setattr__(f, "clauses", clauses)
        if literal_masks is not None:
            object.__setattr__(f, "literal_masks", literal_masks)
        return f

    @cached_property
    def max_width(self) -> int:
        """Maximum clause length (the k of a (<=k)-CNF); 0 for no clauses."""
        return max(map(len, self.clauses), default=0)

    @cached_property
    def literal_masks(self) -> tuple[tuple[int, int], ...]:
        """Per variable v, the pair (clauses holding -v, clauses holding +v)
        at index v-1, each a bitmask in which bit i stands for clause i.

        ``literal_masks[v - 1][alpha[v - 1]]`` is thus the set of clauses
        that alpha satisfies through variable v.
        """
        neg = [0] * self.num_vars
        pos = [0] * self.num_vars
        for i, clause in enumerate(self.clauses):
            bit = 1 << i
            for u in clause:
                if u > 0:
                    pos[u - 1] |= bit
                else:
                    neg[-u - 1] |= bit
        return tuple(zip(neg, pos))

    def unsat_mask(self, alpha: Assignment) -> int:
        """Bitmask of the clauses alpha leaves unsatisfied (bit i for clause
        i): all clauses minus the OR of one literal mask per variable. It is
        0 iff alpha satisfies F, and its lowest set bit is the lowest-index
        unsatisfied clause."""
        if len(alpha) != self.num_vars:
            raise ValueError(
                f"assignment has {len(alpha)} values, formula has {self.num_vars} variables"
            )
        satisfied = reduce(or_, map(tuple.__getitem__, self.literal_masks, alpha), 0)
        return ((1 << len(self.clauses)) - 1) ^ satisfied


def clause_satisfied(clause: Clause, alpha: Assignment) -> bool:
    for u in clause:
        if u > 0:
            if alpha[u - 1] == 1:
                return True
        elif alpha[-u - 1] == 0:
            return True
    return False


def evaluate(f: Formula, alpha: Assignment) -> bool:
    """True iff every clause contains a literal satisfied by alpha."""
    if len(alpha) != f.num_vars:
        raise ValueError(f"assignment has {len(alpha)} values, formula has {f.num_vars} variables")
    return all(map(clause_satisfied, f.clauses, repeat(alpha)))


def override(alpha: Assignment, beta: PartialAssignment) -> Assignment:
    """Total assignment agreeing with beta on its domain and alpha elsewhere."""
    values = list(alpha)
    for v, bit in beta.items():
        values[v - 1] = bit
    return tuple(values)
