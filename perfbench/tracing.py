"""Span tracing of coversat's layers from outside the package.

Each public function on the solve path is replaced, at the module attribute
its caller looks it up through, by a wrapper that records one span: name,
start, end, parent span and instance id. Spans live in flat arrays and are
written out once, at the end of the run. A span's self time is its duration
minus the time covered by its child spans.

Work counts come from what the wrapped calls return: ``SearchStats`` before
and after differences where the caller passes an accumulating stats object,
and the ``SolveResult`` / ``CoveringCode`` fields otherwise.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

SETUP = -1  # instance id of spans recorded while the warm-up solve runs


def _searchball_fast_count(tracer, res, kwargs, pre):
    stats = res[1]
    tracer.add("search.nodes", stats.recursion_nodes - pre[0])
    tracer.add("search.fast_leaves", stats.leaves - pre[1])
    tracer.top("search.max_depth", stats.max_depth)


def _searchball_count(tracer, res, kwargs, pre):
    stats = res[1]
    tracer.add("search.searchball_nodes", stats.recursion_nodes - pre[0])
    tracer.add("search.searchball_leaves", stats.leaves - pre[1])
    tracer.add("search.searchball_hits", res[0] is not None)


def _stats_before(kwargs):
    stats = kwargs.get("stats")
    return (stats.recursion_nodes, stats.leaves) if stats is not None else (0, 0)


# (module, attribute, span name, count hook, pre-call snapshot)
PATCHES = (
    ("coversat.cli", "main", "cli.main", None, None),
    ("coversat.cli", "parse_dimacs", "formats.parse", None, None),
    ("coversat.cli", "parse_csp", "formats.parse", None, None),
    ("coversat.cli", "solve_deterministic", "solver.solve_deterministic",
     lambda t, res, kw, pre: t.add("solver.codewords_tried", res.stats.codewords_tried), None),
    ("coversat.cli", "brute_force", "solver.brute_force", None, None),
    ("coversat.cli", "solve_csp", "csp.solve_csp",
     lambda t, res, kw, pre: t.add("csp.boxes_tried", res.stats.boxes_tried), None),
    ("coversat.csp", "solve_deterministic", "solver.solve_deterministic",
     lambda t, res, kw, pre: t.add("solver.codewords_tried", res.stats.codewords_tried), None),
    ("coversat.csp", "two_box_cover", "csp.two_box_cover", None, None),
    ("coversat.csp", "verify_box_cover", "csp.verify_box_cover", None, None),
    ("coversat.csp", "restrict_to_box", "csp.restrict_to_box", None, None),
    ("coversat.solver", "brute_force", "solver.brute_force", None, None),
    ("coversat.solver", "boolean_cover", "codes.boolean_cover",
     lambda t, res, kw, pre: t.add("codes.cover_words", len(res.words)), None),
    ("coversat.solver", "searchball_fast", "search.searchball_fast",
     _searchball_fast_count, _stats_before),
    ("coversat.codes", "verify_cover", "codes.verify_cover", None, None),
    ("coversat.codes", "greedy_code", "codes.greedy_code", None, None),
    ("coversat.search", "maximal_disjoint_unsat", "search.maximal_disjoint_unsat", None, None),
    ("coversat.search", "apply_codeword", "search.apply_codeword", None, None),
    ("coversat.search", "searchball", "search.searchball", _searchball_count, _stats_before),
)


class Tracer:
    """Install with ``install()``, remove with ``uninstall()``; set
    ``instance`` before each solve so spans carry the instance id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.instance = SETUP
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._next = 0
        self.span_id = array("l")
        self.name = array("H")
        self.parent = array("l")
        self.inst = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[tuple[bool, str], float] = defaultdict(float)
        self._wrappers = []
        for modname, attr, span, hook, before in PATCHES:
            module = __import__(modname, fromlist=[attr])
            orig = getattr(module, attr)
            self._wrappers.append((module, attr, orig, self._wrap(orig, span, hook, before)))

    def _name_id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def _wrap(self, orig, span, hook, before):
        nid = self._name_id(span)
        stack = self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            pre = before(kwargs) if before is not None else None
            t0 = perf_counter()
            try:
                res = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.span_id.append(sid)
                self.name.append(nid)
                self.parent.append(parent)
                self.inst.append(self.instance)
                self.start.append(t0)
                self.end.append(t1)
            if hook is not None:
                hook(self, res, kwargs, pre)
            return res

        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._wrappers:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, orig, _ in self._wrappers:
            setattr(module, attr, orig)

    def add(self, key: str, value) -> None:
        self.counts[(self.instance == SETUP, key)] += value

    def top(self, key: str, value) -> None:
        slot = (self.instance == SETUP, key)
        self.counts[slot] = max(self.counts[slot], value)

    def columns(self) -> dict[str, np.ndarray]:
        """Span columns ordered by span id (ids are dense from 0)."""
        ids = np.asarray(self.span_id, dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        cols = {
            "name": np.asarray(self.name, dtype=np.int16),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "instance": np.asarray(self.inst, dtype=np.int64),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
        }
        return {k: v[order] for k, v in cols.items()}

    def save(self, path) -> None:
        cols = self.columns()
        base = cols["start"].min() if len(cols["start"]) else 0.0
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=cols["name"],
            parent=cols["parent"].astype(np.int32),
            instance=cols["instance"].astype(np.int32),
            start_ns=np.round((cols["start"] - base) * 1e9).astype(np.int64),
            end_ns=np.round((cols["end"] - base) * 1e9).astype(np.int64),
        )

    def layer_totals(self) -> dict[tuple[bool, str], dict[str, float]]:
        """Per (is_setup, span name): call count, inclusive and self seconds."""
        cols = self.columns()
        dur = cols["end"] - cols["start"]
        child = np.zeros_like(dur)
        has_parent = cols["parent"] >= 0
        np.add.at(child, cols["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        setup = cols["instance"] == SETUP
        out = {}
        for nid, span in enumerate(self.names):
            for phase in (True, False):
                sel = (cols["name"] == nid) & (setup == phase)
                out[(phase, span)] = {
                    "calls": int(sel.sum()),
                    "total_s": float(dur[sel].sum()),
                    "self_s": float(self_time[sel].sum()),
                }
        return out


def layer_metrics(tracer: Tracer, instances: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: per-instance means over the timed instances, except
    the set-up-only layers (greedy codes, the 2-box cover and its
    verification), which are totals of the warm-up solve."""
    tot = tracer.layer_totals()
    per = max(instances, 1)

    def run(span, field):
        return tot.get((False, span), {}).get(field, 0.0)

    def setup(span, field):
        return tot.get((True, span), {}).get(field, 0.0)

    def count(key):
        return tracer.counts.get((False, key), 0.0)

    sb_calls = run("search.searchball", "calls")
    cover_calls = run("codes.boolean_cover", "calls")
    fast_total = run("search.searchball_fast", "total_s")
    m = {
        "formats.parse_s": (run("formats.parse", "self_s") / per, "s"),
        "cli.self_s": (run("cli.main", "self_s") / per, "s"),
        "codes.greedy_code_s": (setup("codes.greedy_code", "total_s"), "s"),
        "codes.greedy_code_calls": (setup("codes.greedy_code", "calls"), "count"),
        "codes.verify_cover_s": (run("codes.verify_cover", "self_s") / per, "s"),
        "codes.verify_cover_calls": (run("codes.verify_cover", "calls") / per, "count"),
        "codes.boolean_cover_s": (run("codes.boolean_cover", "self_s") / per, "s"),
        "codes.boolean_cover_calls": (cover_calls / per, "count"),
        "codes.cover_words": (count("codes.cover_words") / cover_calls if cover_calls else 0.0,
                              "count"),
        "solver.outer_s": (run("solver.solve_deterministic", "self_s") / per, "s"),
        "solver.codewords_tried": (count("solver.codewords_tried") / per, "count"),
        "solver.brute_s": (run("solver.brute_force", "total_s") / per, "s"),
        "solver.brute_calls": (run("solver.brute_force", "calls") / per, "count"),
        "search.fast_s": (run("search.searchball_fast", "self_s") / per, "s"),
        "search.fast_calls": (run("search.searchball_fast", "calls") / per, "count"),
        "search.nodes": (count("search.nodes") / per, "count"),
        "search.fast_leaves": (count("search.fast_leaves") / per, "count"),
        "search.max_depth": (count("search.max_depth"), "count"),
        "search.nodes_per_s": (count("search.nodes") / fast_total if fast_total else 0.0, "1/s"),
        "search.disjoint_s": (run("search.maximal_disjoint_unsat", "self_s") / per, "s"),
        "search.disjoint_calls": (run("search.maximal_disjoint_unsat", "calls") / per, "count"),
        "search.apply_codeword_s": (run("search.apply_codeword", "self_s") / per, "s"),
        "search.apply_codeword_calls": (run("search.apply_codeword", "calls") / per, "count"),
        "search.searchball_s": (run("search.searchball", "self_s") / per, "s"),
        "search.searchball_calls": (sb_calls / per, "count"),
        "search.searchball_nodes": (count("search.searchball_nodes") / per, "count"),
        "search.searchball_leaves": (count("search.searchball_leaves") / per, "count"),
        "search.searchball_hit_ratio": (
            count("search.searchball_hits") / sb_calls if sb_calls else 0.0, "ratio"),
        "csp.box_cover_s": (setup("csp.two_box_cover", "total_s"), "s"),
        "csp.verify_box_cover_s": (setup("csp.verify_box_cover", "total_s"), "s"),
        "csp.restrict_s": (run("csp.restrict_to_box", "self_s") / per, "s"),
        "csp.self_s": (run("csp.solve_csp", "self_s") / per, "s"),
        "csp.boxes_tried": (count("csp.boxes_tried") / per, "count"),
    }
    return {k: (float(v), unit) for k, (v, unit) in m.items()}
