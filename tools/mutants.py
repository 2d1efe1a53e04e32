"""Mutation check: each mutant is one small, deliberate fault in the package.
The script applies it to a temporary copy of src/, tests/ and tools/, runs
the tests that claim to catch it, and reports whether they fail, as they
should.

    python3 tools/mutants.py              # every mutant
    python3 tools/mutants.py NAME ...     # the named ones
    python3 tools/mutants.py --list       # names and the tests that catch them

Exit status 0 when every mutant is caught; 1 when one survives (its tests
all pass) or no longer applies (its text is gone from the source, so the
mutant must be rewritten). A mutant's tests also run on the unmutated copy
first: a test that fails there proves nothing, and counts as a failure of
the script. An unknown name exits 2. The check takes about a minute
(two pytest runs per mutant) and is not part of the tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    path: str  # relative to the repo root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repo root


# the det-vs-oracle CSP case with d^n > 2^16, so that _chunks groups by top variables
_CSP_ORACLE_TWO_TOP = (
    "tests/test_csp_oracle.py::test_verdicts_and_witnesses_match_oracle"
    "[3-12-widths8-6-0.1-counts8]"
)

MUTANTS = {
    "restrict-keeps-dropped": Mutant(
        "src/coversat/csp.py",
        "bin(((1 << len(getters)) - 1) ^ dropped)",
        "bin(((1 << len(getters)) - 1) ^ (dropped & (dropped - 1)))",
        (
            "tests/test_csp.py::TestRestrictToBox::test_matches_constraint_by_constraint_reference",
            "tests/test_csp.py::TestRestrictToBox::test_built_tables_survive_pickle",
            "tests/test_cli.py::TestReduce::test_emits_boxes_and_manifest",
        ),
    ),
    "width-one-gather-scalar": Mutant(
        "src/coversat/csp.py",
        "itemgetter(slice(lits[0], lits[0] + 1))",
        "itemgetter(lits[0])",
        ("tests/test_csp.py::TestRestrictToBox::test_width_one_constraints_are_one_tuples",),
    ),
    "table-masks-joined-first-to-last": Mutant(
        "src/coversat/csp.py",
        'joined = "".join(reversed(rows))',
        'joined = "".join(rows)',
        ("tests/test_csp.py::TestRestrictToBox::test_matches_constraint_by_constraint_reference",),
    ),
    "box-masks-lo-hi-swapped": Mutant(
        "src/coversat/csp.py",
        '(int(rows[base + hi :: width] or "0", 2), int(rows[base + lo :: width] or "0", 2))',
        '(int(rows[base + lo :: width] or "0", 2), int(rows[base + hi :: width] or "0", 2))',
        ("tests/test_csp.py::TestRestrictToBox::test_box_masks_match_masks_from_scratch",),
    ),
    "searched-block-unverified": Mutant(
        "src/coversat/csp.py",
        "    if not verify_box_cover(block, d, length):\n"
        '        raise CodeConstructionError(f"2-box block',
        "    if False:\n"
        '        raise CodeConstructionError(f"2-box block',
        (
            "tests/test_csp.py::TestSearchedBoxBlocks"
            "::test_block_failing_verification_on_load_raises",
            "tests/test_csp.py::TestTwoBoxCover::test_failed_block_verification_raises",
        ),
    ),
    "box-tiles-start-at-one-for-odd-d": Mutant(
        "src/coversat/csp.py",
        "range(4 if d % 2 else 1, d, 2)",
        "range(1, d, 2)",
        (
            "tests/test_csp.py::TestTwoBoxCover::test_blocks_match_reference",
            "tests/test_csp.py::TestTwoBoxCover::test_domains_above_632_are_covered",
        ),
    ),
    "triple-block-one-length-short": Mutant(
        "src/coversat/csp.py",
        "SEARCHED_BOX_BLOCKS[3][k - 1]",
        "SEARCHED_BOX_BLOCKS[3][k - 2]",
        (
            "tests/test_csp.py::TestTwoBoxCover::test_blocks_match_reference",
            "tests/test_csp.py::TestTwoBoxCover::test_no_more_boxes_than_the_greedy_blocks",
        ),
    ),
    "searched-block-drops-a-box": Mutant(
        "src/coversat/csp.py",
        ' 222002",',
        '",',
        (
            "tests/test_csp.py::TestSearchedBoxBlocks::test_cover_sizes_and_no_better_split",
            "tests/test_csp.py::TestSearchedBoxBlocks::test_search_tool_reproduces_shipped_blocks",
        ),
    ),
    # (the low weights in reverse order would be no fault: it reorders the
    # low coordinates of every box alike, which keeps whether they cover)
    "box-low-part-from-first-coordinates": Mutant(
        "src/coversat/csp.py",
        "low_part = itemgetter(slice(high, None))",
        "low_part = itemgetter(slice(0, low))",
        ("tests/test_csp.py::TestVerifyBoxCover::test_matches_point_in_box_reference",),
    ),
    "box-cover-some-entry-full": Mutant(
        "src/coversat/csp.py",
        "return all(map(full.__eq__, acc))",
        "return any(map(full.__eq__, acc))",
        ("tests/test_csp.py::TestVerifyBoxCover::test_matches_point_in_box_reference",),
    ),
    "one-coordinate-box-marks-one-value": Mutant(
        "src/coversat/csp.py",
        "marked[lo] = marked[hi] = 1",
        "marked[hi] = 1",
        ("tests/test_csp.py::TestVerifyBoxCover::test_one_coordinate_boxes_are_checked_like_others",),
    ),
    "input-kind-reads-a-cut-line": Mutant(
        "src/coversat/formats.py",
        "lines.pop()  # may be cut short",
        "pass",
        ("tests/test_formats.py::TestInputKind::test_first_line_found_across_prefixes",),
    ),
    "restriction-table-built-in-workers": Mutant(
        "src/coversat/csp.py",
        "    f._restriction\n",
        "",
        (
            "tests/test_csp.py::TestSolveCsp::test_parallel_jobs_start_one_pool",
            "tests/test_cli.py::TestSolveCommand::test_restriction_table_beyond_cap_exit_2",
        ),
    ),
    "plan-not-memoized": Mutant(
        "src/coversat/solver.py",
        "@lru_cache(maxsize=32)\ndef _plan(",
        "def _plan(",
        ("tests/test_csp.py::TestSolveCsp::test_one_plan_per_box_width",),
    ),
    "plan-drops-epsilon": Mutant(
        "src/coversat/solver.py",
        "_plan(n, k, cfg.t, cfg.epsilon, cfg.cache_dir)",
        "_plan(n, k, cfg.t, SolverConfig.epsilon, cfg.cache_dir)",
        ("tests/test_solver.py::TestSolveDeterministic::test_shared_plans_serve_every_n",),
    ),
    "oracle-cnf-sign-swapped": Mutant(
        "src/coversat/solver.py",
        "            slots[v], slots[-v] = row\n",
        "            slots[-v], slots[v] = row\n",
        (
            "tests/test_solver.py::TestBruteForce::test_bitmap_matches_naive_enumeration",
            "tests/test_solver.py::TestChunkedOracle::test_cnf_matches_full_table",
        ),
    ),
    "oracle-group-key-drops-top-literals": Mutant(
        "src/coversat/solver.py",
        "satisfied |= top_mask",
        "satisfied = top_mask",
        (
            "tests/test_solver.py::TestChunkedOracle::test_cnf_matches_full_table",
            "tests/test_solver.py::TestChunkedOracle::test_csp_matches_full_table",
            _CSP_ORACLE_TWO_TOP,
        ),
    ),
    "oracle-top-key-not-complemented": Mutant(
        "src/coversat/solver.py",
        "key = top_full ^ satisfied",
        "key = satisfied",
        (
            "tests/test_solver.py::TestChunkedOracle::test_cnf_matches_full_table",
            "tests/test_solver.py::TestChunkedOracle::test_csp_matches_full_table",
            _CSP_ORACLE_TWO_TOP,
        ),
    ),
    "codewords-as-symbols": Mutant(
        "src/coversat/solver.py",
        "first_witness(task, cover.bit_words, cfg.jobs, stats)",
        "first_witness(task, cover.words, cfg.jobs, stats)",
        ("tests/test_solver.py::TestSolveDeterministic::test_outer_loop_reads_bit_words",),
    ),
    "pool-skips-merge": Mutant(
        "src/coversat/solver.py",
        "            stats.merge(sub)\n",
        "            pass\n",
        (
            "tests/test_solver.py::TestSolveDeterministic::test_jobs_capped_by_cover_size",
            "tests/test_cnf_oracle.py::test_two_jobs_match_one",
        ),
    ),
    "codeword-not-counted": Mutant(
        "src/coversat/solver.py",
        "    stats.codewords_tried += 1\n",
        "",
        (
            "tests/test_solver.py::TestSolveDeterministic"
            "::test_codewords_count_into_the_solve_record",
            "tests/test_golden.py::test_golden",
        ),
    ),
    "worker-reuses-record": Mutant(
        "src/coversat/solver.py",
        "    stats = SolveStats()\n    return _install_task.task(item, stats), stats\n",
        "    stats = vars(_install_task).setdefault('stats', SolveStats())\n"
        "    return _install_task.task(item, stats), stats\n",
        (
            "tests/test_solver.py::TestSolveDeterministic::test_jobs_capped_by_cover_size",
            "tests/test_cnf_oracle.py::test_two_jobs_match_one",
        ),
    ),
    "fast-no-distance-prune": Mutant(
        "src/coversat/search.py",
        "    if len(g) < params.t or r < params.t:\n",
        "    if len(g) < params.t:\n",
        (
            "tests/test_search.py::TestSearchballFast"
            "::test_many_disjoint_clauses_below_t_is_unreachable",
        ),
    ),
    "beta-prune-off-by-one": Mutant(
        "src/coversat/search.py",
        "    if r < len(g):\n",
        "    if r <= len(g):\n",
        ("tests/test_search.py::TestBetaSearch", "tests/test_golden.py::test_golden"),
    ),
    "pattern-table-skips-row": Mutant(
        "src/coversat/search.py",
        "for i in range(1 << width)",
        "for i in range(1, 1 << width)",
        ("tests/test_search.py::TestSatisfyingPatterns::test_rows_match_reference",),
    ),
    "settle-every-radius-1-beta": Mutant(
        "src/coversat/search.py",
        "                    break  # this child may find a witness\n",
        "                    pass\n",
        ("tests/test_search.py::TestBetaSearch",),
    ),
    "dead-root-settled-only-at-radius-1": Mutant(
        "src/coversat/search.py",
        "if budget == 1 or not free:",
        "if budget == 1:",
        ("tests/test_search.py::TestBetaSearch::test_matches_enumeration_without_prune",),
    ),
    "radius-0-child-always-leaf": Mutant(
        "src/coversat/search.py",
        "if r == 1 and unsat & ~masks[v - 1][new]:",
        "if r == 1:",
        ("tests/test_search.py::TestSearchball::test_matches_textbook_recursion",),
    ),
    "walk-step-budget": Mutant(
        "src/coversat/search.py",
        "range(max(1, 3 * f.num_vars))",
        "range(max(1, 3 * f.num_vars - 1))",
        ("tests/test_search.py::TestSchoeningWalk::test_runs_3n_steps_on_unsatisfiable",),
    ),
    "codeword-flip-not-undone": Mutant(
        "src/coversat/search.py",
        "        for i in flips:\n            cur[i] ^= 1\n        if res is not None:\n",
        "        if res is not None:\n",
        (
            "tests/test_search.py::TestSearchballFast::test_matches_tuple_per_codeword_tree",
            "tests/test_golden.py::test_golden",
        ),
    ),
    "radius-0-product-one-block-short": Mutant(
        "src/coversat/codes.py",
        "BlockProduct([digits] * t)",
        "BlockProduct([digits] * (t - 1))",
        (
            "tests/test_codes.py::TestGreedyCode::test_radius_zero_needs_every_word",
            "tests/test_golden.py::test_golden_radius_zero_file",
        ),
    ),
    "product-indices-loops-swapped": Mutant(
        "src/coversat/codes.py",
        "idxs = [i * q + c for i in idxs for c in choices]",
        "idxs = [i * q + c for c in choices for i in idxs]",
        ("tests/test_codes.py::TestIndexHelpers::test_product_indices_match_product_order",),
    ),
    "periodic-mask-not-truncated": Mutant(
        "src/coversat/codes.py",
        "    if mask.bit_length() > total_bits:\n        mask &= (1 << total_bits) - 1\n",
        "",
        ("tests/test_codes.py::TestIndexHelpers::test_periodic_mask_matches_string_built_mask",),
    ),
    "block-radii-max": Mutant(
        "src/coversat/codes.py",
        "sum(block.r for block in blocks)",
        "max(block.r for block in blocks)",
        ("tests/test_codes.py::TestBooleanCover",),
    ),
    "random-code-below-sphere-bound-drawn": Mutant(
        "src/coversat/codes.py",
        "    if reach < q**t:\n",
        "    if reach < 0:\n",
        (
            "tests/test_codes.py::TestRandomCode::test_size_below_sphere_bound_refused",
            "tests/test_cli.py::TestGencodeVerifycode::test_random_below_sphere_bound_exit_1",
        ),
    ),
    "searched-code-unverified": Mutant(
        "src/coversat/codes.py",
        "        if not verify_cover(code):\n"
        '            raise CodeConstructionError(f"searched code',
        "        if False:\n"
        '            raise CodeConstructionError(f"searched code',
        (
            "tests/test_codes.py::TestSearchedCodes"
            "::test_word_dropped_from_shipped_code_raises_on_load",
        ),
    ),
    "searched-code-drops-a-word": Mutant(
        "src/coversat/codes.py",
        ' 110100100",',
        '",',
        (
            "tests/test_codes.py::TestSearchedCodes"
            "::test_verified_smaller_than_greedy_all_ones_first",
            "tests/test_codes.py::TestSearchedCodes::test_search_tool_reproduces_shipped_codes",
        ),
    ),
    "code-memo-key-unnormalized": Mutant(
        "src/coversat/codes.py",
        "None if cache_dir is None else os.fspath(cache_dir)",
        "cache_dir",
        ("tests/test_codes.py::TestGetCodeCache::test_one_entry_per_dir_whatever_its_type",),
    ),
    "solve-reader-skips-choices": Mutant(
        "src/coversat/cli.py",
        'if "choices" in options and value not in options["choices"]:',
        "if False:",
        ("tests/test_cli.py::TestSolveReader::test_agrees_with_the_sub_parser",),
    ),
}


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for part in ("src", "tests", "tools"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)


def _run_tests(tree: Path, tests: tuple[str, ...]) -> bool:
    """True iff every test passes in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode == 0


def check(name: str, mutant: Mutant) -> str:
    """'caught', 'SURVIVED', 'NOT APPLIED' or 'TESTS FAIL UNMUTATED'."""
    with tempfile.TemporaryDirectory(prefix="coversat-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if not _run_tests(tree, mutant.tests):
            return "TESTS FAIL UNMUTATED"
        target = tree / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "NOT APPLIED"
        target.write_text(text.replace(mutant.old, mutant.new))
        return "SURVIVED" if _run_tests(tree, mutant.tests) else "caught"


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for name, mutant in MUTANTS.items():
            print(name, *mutant.tests, sep="\n  ")
        return 0
    unknown = [name for name in argv if name not in MUTANTS]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for name in argv or list(MUTANTS):
        start = time.perf_counter()
        verdict = check(name, MUTANTS[name])
        print(f"{name}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
        failed += verdict != "caught"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
