import csv
import math

import pytest

import coversat.bench
from coversat.bench import (
    ENGINES,
    BenchRecord,
    CSV_COLUMNS,
    ConstantSeriesError,
    fit_scaling,
    gen_planted,
    run_scaling,
    write_records_csv,
)
from coversat.cnf import evaluate

from helpers import hamming_distance


class TestGenPlanted:
    def test_planted_always_satisfies(self):
        for seed in range(40):
            inst = gen_planted(3, 12, 48, seed=seed, distance=0)
            assert evaluate(inst.formula, inst.planted)
            assert all(len(c) == 3 for c in inst.formula.clauses)
            assert len(inst.formula.clauses) == 48

    def test_distance_pinned(self):
        for r in (0, 3, 10):
            inst = gen_planted(3, 10, 30, seed=1, distance=r)
            assert inst.r == r == hamming_distance(inst.start, inst.planted)

    def test_zero_distance_start_satisfies(self):
        inst = gen_planted(3, 8, 20, seed=2, distance=0)
        assert inst.start == inst.planted
        assert evaluate(inst.formula, inst.start)

    def test_full_flip(self):
        inst = gen_planted(3, 8, 20, seed=3, distance=8)
        assert inst.r == 8

    def test_reproducible(self):
        assert gen_planted(3, 9, 27, seed=7, distance=4) == gen_planted(3, 9, 27, seed=7, distance=4)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_planted(3, 2, 5, distance=0)
        with pytest.raises(ValueError):
            gen_planted(3, 5, 5, distance=9)


class TestRunScaling:
    def test_record_stream_reproducible(self):
        from dataclasses import replace

        a = run_scaling(["searchball"], 3, 6, range(2, 5), 3, seed=5, n=12, m=40)
        b = run_scaling(["searchball"], 3, 6, range(2, 5), 3, seed=5, n=12, m=40)
        strip = [replace(rec, wall_time=0.0) for rec in a]
        assert strip == [replace(rec, wall_time=0.0) for rec in b]

    def test_radius_zero_single_leaf(self):
        records = run_scaling(["searchball", "searchball_fast"], 3, 6, [0], 5, seed=1, n=9, m=18)
        assert len(records) == 10
        assert all(rec.leaves == 1 for rec in records)
        assert all(rec.outcome == "sat" for rec in records)

    def test_walk_engine_records_steps(self):
        records = run_scaling(["schoening_walk"], 3, 6, [2, 3], 4, seed=2, n=10, m=30)
        assert all(rec.leaves == 0 for rec in records)
        assert all(rec.leaves <= rec.nodes for rec in records)

    def test_all_records_tagged(self):
        records = run_scaling(["searchball_fast"], 3, 6, [1, 2], 3, seed=0, n=9, m=36)
        assert {(rec.r, rec.trial) for rec in records} == {
            (r, t) for r in (1, 2) for t in range(3)
        }
        assert all(rec.code_size > 0 for rec in records)

    def test_one_instance_per_trial_for_all_engines(self, monkeypatch):
        from dataclasses import replace

        drawn = []
        real = coversat.bench.gen_planted

        def recording_draw(*args, **kwargs):
            drawn.append(kwargs["seed"])
            return real(*args, **kwargs)

        monkeypatch.setattr(coversat.bench, "gen_planted", recording_draw)
        records = run_scaling(ENGINES, 3, 6, [1, 2], 2, seed=4, n=9, m=27)
        assert drawn == ["4:1:0", "4:1:1", "4:2:0", "4:2:1"]
        assert [rec.engine for rec in records] == list(ENGINES) * 4
        # each engine's records are those of a run of that engine alone
        for engine in ENGINES:
            alone = run_scaling([engine], 3, 6, [1, 2], 2, seed=4, n=9, m=27)
            mine = [rec for rec in records if rec.engine == engine]
            assert [replace(rec, wall_time=0.0) for rec in mine] == [
                replace(rec, wall_time=0.0) for rec in alone
            ]

    @pytest.fixture
    def draws(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(coversat.bench, "gen_planted", lambda *a, **kw: drawn.append(a))
        return drawn

    @pytest.mark.parametrize("k, t, match", [(2, 6, "k must be >= 3"), (3, 2, "t=2 too small")],
                             ids=["k-2", "t-2"])
    def test_fast_params_checked_before_the_first_instance(self, draws, k, t, match):
        with pytest.raises(ValueError, match=match):
            run_scaling(["searchball", "searchball_fast"], k, t, [0, 1, 2], 1, n=6, m=12)
        assert draws == []

    def test_unknown_engine(self, draws):
        with pytest.raises(ValueError, match="'magic'"):
            run_scaling(["searchball", "magic"], 3, 6, [1], 1)
        assert draws == []

    @pytest.mark.parametrize("r_range, trials, m, match", [
        ([0, 1], 0, 12, "--trials must be >= 1, got 0"),
        ([0, 1], 1, -5, "--m must be >= 0, got -5"),
        ([2, -1], 1, 12, "radius -1 is negative"),
    ], ids=["trials-0", "m-negative", "negative-radius-after-valid"])
    def test_counts_and_radii_checked_before_the_first_instance(
        self, draws, r_range, trials, m, match
    ):
        with pytest.raises(ValueError, match=match):
            run_scaling(("searchball",), 3, 6, r_range, trials, n=6, m=m)
        assert draws == []

    def test_radius_above_n(self, draws):
        # refused before the r = 2 instance is drawn
        with pytest.raises(ValueError, match="radius 10 exceeds n=6"):
            run_scaling(("searchball",), 3, 6, [2, 10], 1, n=6, m=12)
        assert draws == []


class TestFitScaling:
    def test_recovers_synthetic_base(self):
        records = [
            BenchRecord("searchball", 3, 20, 80, r, 6, 0, i, round(2.0**r), 0, 0.0, "sat")
            for r in range(2, 10)
            for i in range(3)
        ]
        fit = fit_scaling(records)
        assert math.isclose(fit.base, 2.0, rel_tol=0.02)
        assert fit.base_low <= 2.0 <= fit.base_high

    def test_needs_three_radii(self):
        records = [
            BenchRecord("searchball", 3, 20, 80, r, 6, 0, 0, 4, 8, 0.0, "sat")
            for r in (1, 2)
        ]
        with pytest.raises(ValueError):
            fit_scaling(records)
        with pytest.raises(ValueError, match="no records"):
            fit_scaling([])

    def test_constant_series_refused(self):
        # `bench --r 2:6 --trials 5`: below t = 6 every searchball_fast run is
        # one codeword-tree leaf, so log(mean leaves) is flat and a
        # regression's interval would be nan
        records = run_scaling(["searchball_fast"], 3, 6, range(2, 7), 5)
        assert {rec.leaves for rec in records} == {1}
        with pytest.raises(ConstantSeriesError, match="mean leaves of searchball_fast are 1 "
                           "at every radius 2..6"):
            fit_scaling(records)
        assert issubclass(ConstantSeriesError, ValueError)


class TestCsvOutput:
    def test_schema_and_order(self, tmp_path):
        records = run_scaling(["searchball"], 3, 6, [1, 2], 2, seed=3, n=9, m=27)
        path = tmp_path / "out.csv"
        write_records_csv(reversed(records), str(path))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == len(records) + 1
        keys = [(row[0], int(row[4]), int(row[7])) for row in rows[1:]]
        assert keys == sorted(keys)
