"""Search drives: determinism, monotonicity, null results at small scale."""

import numpy as np
import pytest

from felab.errors import DomainError
from felab.search import SearchConfig, q_sweep, random_probe
from felab.set_model import IntervalSet, StarSet
from oracles import local_ascent


class TestConfig:
    def test_budget_guard(self):
        with pytest.raises(DomainError):
            SearchConfig(4.0, 1, restarts=10, budget=5)

    def test_family_validation(self):
        with pytest.raises(DomainError):
            SearchConfig(4.0, 1, family="blobs:3")
        with pytest.raises(DomainError):
            SearchConfig(4.0, 1, family="intervals:9")


class TestDeterminism:
    def test_identical_results(self):
        cfg = SearchConfig(4.0, 1, "intervals:2", restarts=12, rng_seed=21, budget=30)
        r1 = random_probe(cfg)
        r2 = random_probe(cfg)
        assert r1.best_phi == r2.best_phi
        assert r1.trajectory == r2.trajectory
        assert r1.best_set.intervals == r2.best_set.intervals

    def test_threading_invariance(self):
        for d, family, restarts in ((1, "intervals:2", 10), (2, "star:4", 6)):
            base = SearchConfig(4.0, d, family, restarts=restarts, rng_seed=5, budget=restarts)
            threaded = SearchConfig(4.0, d, family, restarts=restarts, rng_seed=5,
                                    budget=restarts, threads=3)
            assert random_probe(base).best_phi == random_probe(threaded).best_phi


class TestTrajectories:
    def test_monotone_best_so_far(self):
        cfg = SearchConfig(4.0, 1, "intervals:3", restarts=15, rng_seed=2, budget=40)
        res = random_probe(cfg)
        vals = [v for _, v in res.trajectory]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_babenko_respected(self):
        from felab.functional import babenko_bound
        cfg = SearchConfig(4.0, 1, "intervals:3", restarts=15, rng_seed=2, budget=40)
        res = random_probe(cfg)
        assert res.best_phi < babenko_bound(4.0, 1)


class TestAscent:
    def test_ball_start_no_improvement_d1(self):
        res = local_ascent(IntervalSet([(-1, 1)]),
                           SearchConfig(4.0, 1, "intervals:1", restarts=1, budget=40))
        assert res.gap >= -1e-7

    def test_ball_start_no_improvement_d2(self):
        res = local_ascent(StarSet.unit_disc(),
                           SearchConfig(4.0, 2, "star:3", restarts=1, budget=26,
                                        step_initial=0.05))
        assert res.gap >= -1e-7

    def test_two_interval_start_converges_toward_interval(self):
        start = IntervalSet([(-1.2, 0.2), (0.5, 1.1)])
        res = local_ascent(start, SearchConfig(4.0, 1, "intervals:2", restarts=1,
                                               budget=250, step_initial=0.2))
        assert res.best_phi <= res.phi_ball + 1e-7
        assert res.dist_ellipsoids < 0.05
        assert res.evaluations <= 250


class TestProbe:
    def test_null_result_small_scale_d1(self):
        cfg = SearchConfig(4.0, 1, "intervals:3", restarts=60, rng_seed=14, budget=90)
        res = random_probe(cfg)
        assert res.best_phi <= res.phi_ball + 1e-6

    def test_open_exponent_reports(self):
        cfg = SearchConfig(3.5, 1, "intervals:2", restarts=15, rng_seed=1, budget=25)
        res = random_probe(cfg)
        assert np.isfinite(res.best_phi)
        assert res.gap == res.phi_ball - res.best_phi

    def test_low_q_regime_reports_without_contract(self):
        # 2 < q < 3: whether the ball is even a local maximizer is open;
        # the search only reports findings here
        cfg = SearchConfig(2.7, 1, "intervals:2", restarts=4, rng_seed=2, budget=6)
        res = random_probe(cfg)
        print(f"q=2.7 probe: best {res.best_phi:.6f} vs ball {res.phi_ball:.6f} "
              f"(gap {res.gap:+.2e}, no assertion)")
        assert np.isfinite(res.best_phi)


class TestSweep:
    def test_single_q_consistent_with_probe(self):
        cfg = SearchConfig(4.0, 1, "intervals:2", restarts=8, rng_seed=3, budget=16)
        rows = q_sweep([4.0], cfg)
        res = random_probe(cfg)
        assert rows[0]["best_phi"] == res.best_phi
        assert rows[0]["gap"] == res.gap

    def test_multi_q_gaps_nonnegative(self):
        cfg = SearchConfig(4.0, 1, "intervals:2", restarts=10, rng_seed=6, budget=18)
        rows = q_sweep([4.0, 6.0], cfg)
        for row in rows:
            assert row["gap"] >= -1e-6
