"""Phi_q evaluation, the convolution oracle, and the Babenko guard."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from felab.errors import DomainError
from felab.functional import (
    babenko_bound,
    phi_ball,
    phi_even_oracle,
    phi_q,
)
from felab.quadrature import QuadratureConfig
from felab.radial_kernels import ball_hat
from felab.set_model import AffineMap, IntervalSet, StarSet
from oracles import (_radial_factor, centred_endpoints, even_norm_exact, indicator_hat,
                     interval_norm_bands, norm_q_2d_per_panel, panel_circle_means,
                     q_continuity_probe, seeded_star4, shifted_set, translate)


def random_union(rng, max_pieces=3):
    k = int(rng.integers(1, max_pieces + 1))
    pts = np.sort(rng.uniform(-2, 2, 2 * k))
    e = IntervalSet([(pts[2 * i], max(pts[2 * i + 1], pts[2 * i] + 0.05))
                     for i in range(k)])
    # normalize to ball measure: relative tolerances then mean one fixed scale
    return e.dilate(2.0 / e.measure)


class TestIndicatorHat:
    def test_interval_sinc(self):
        e = IntervalSet([(-1.0, 1.0)])
        xi = np.array([0.25, 0.5, 1.8])
        vals = indicator_hat(e, xi)
        assert np.allclose(vals, np.sin(2 * np.pi * xi) / (np.pi * xi), atol=1e-14)

    def test_value_at_zero_is_measure(self):
        e = IntervalSet([(0, 0.3), (1, 1.9)])
        assert indicator_hat(e, 0.0) == pytest.approx(e.measure, abs=1e-14)
        d = StarSet(1.0, a_coeffs=[0, 0.04])
        assert indicator_hat(d, np.array([0.0, 0.0])).real == pytest.approx(d.measure, abs=1e-10)

    def test_disc_matches_ball_hat(self):
        disc = StarSet.unit_disc()
        for r in (0.3, 1.0, 2.7):
            v = indicator_hat(disc, np.array([r * 0.6, r * 0.8]))
            assert abs(v - ball_hat(2, r)) < 1e-10

    def test_affine_identity(self):
        e = StarSet(1.0, a_coeffs=[0, 0.05])
        tm = AffineMap(np.array([[1.3, 0.2], [0.1, 0.9]]), np.array([0.4, -0.7]))
        img = e.apply(tm)
        xi = np.array([0.37, -0.81])
        lhs = indicator_hat(img, xi)
        rhs = (abs(tm.det) * np.exp(-2j * np.pi * (xi @ tm.translation))
               * indicator_hat(e, tm.matrix.T @ xi))
        assert abs(lhs - rhs) < 1e-10


class TestPhi1D:
    def test_interval_q4(self):
        res = phi_q(IntervalSet([(-1, 1)]), 4.0)
        assert res.phi == pytest.approx((2 / 3) ** 0.25, abs=1e-8)
        assert res.norm_q_pow_q == pytest.approx(16 / 3, abs=1e-9)

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        e = random_union(rng)
        base = phi_q(e, 3.5).phi
        for _ in range(10):
            a = math.exp(rng.uniform(-1, 1)) * (-1 if rng.uniform() < 0.3 else 1)
            img = e.apply(AffineMap(np.array([[a]]), np.array([rng.uniform(-1, 1)])))
            assert phi_q(img, 3.5).phi == pytest.approx(base, abs=1e-8)

    def test_dilation_scales_the_norm(self):
        res = phi_q(IntervalSet([(0.0, 4.0)]), 4.0)
        assert res.phi == pytest.approx((2 / 3) ** 0.25, abs=1e-8)
        assert res.norm_q_pow_q == pytest.approx(2.0**3 * 16 / 3, abs=1e-8)

    def test_huge_diameter(self):
        # the mesh sees the set dilated to measure 2: [0, 1e200] costs what [-1, 1] does
        start = time.perf_counter()
        res = phi_q(IntervalSet([(0.0, 1e200)]), 4.0)
        assert time.perf_counter() - start < 1.0
        assert res.phi == pytest.approx(phi_q(IntervalSet([(-1.0, 1.0)]), 4.0).phi, rel=1e-12)
        assert res.norm_q_pow_q == math.inf  # 16/3 (5e199)^3 is beyond the float range

    def test_radial_cut_refused(self):
        with pytest.raises(DomainError, match="radial_cut"):
            phi_q(IntervalSet([(-1.0, 1.0)]), 4.0, radial_cut=45.0)

    def test_node_budget(self):
        # diam/measure = 5e8 would need ~1e15 mesh nodes
        start = time.perf_counter()
        with pytest.raises(DomainError, match="diam/measure is 5e[+]08"):
            phi_q(IntervalSet([(0.0, 1.0), (1e9, 1e9 + 1.0)]), 4.0)
        assert time.perf_counter() - start < 1.0

    def test_babenko_strict(self):
        rng = np.random.default_rng(4)
        for q in (3.0, 4.0, 5.5):
            for _ in range(10):
                res = phi_q(random_union(rng), q)
                assert res.phi < babenko_bound(q, 1)

    def test_ball_maximal_among_suite(self):
        rng = np.random.default_rng(6)
        ball_val = phi_q(IntervalSet([(-1, 1)]), 4.0).phi
        for _ in range(40):
            assert phi_q(random_union(rng), 4.0).phi <= ball_val + 1e-9

    def test_oracle_agreement(self):
        rng = np.random.default_rng(9)
        cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
        for q in (4, 6):
            for _ in range(12):
                e = random_union(rng)
                a = phi_q(e, float(q), cfg).phi
                b = phi_even_oracle(e, q).phi
                assert abs(a - b) / b < 1e-6

    def test_oracle_within_its_error(self):
        # the float convolution oracle against rational arithmetic on 150 seeded
        # intervals:3 search candidates and the wide set, where global monomial
        # coefficients missed the q = 6 norm by up to 2.6e-9 relative
        from fractions import Fraction
        from felab._pwpoly import nfold_indicator_convolution
        from felab.search import SearchConfig, _params_to_set, _random_params
        cfg = SearchConfig(4.0, 1, "intervals:3")
        rng = np.random.default_rng(0)
        sets = [_params_to_set(_random_params(rng, cfg), cfg) for _ in range(150)]
        sets.append(IntervalSet(WIDE_SET))
        for q in (4, 6):
            for e in sets:
                exact = nfold_indicator_convolution(e.intervals, q // 2, exact=True).integrate_square()
                phi = float(exact / Fraction(e.measure) ** (q - 1)) ** (1.0 / q)
                res = phi_even_oracle(e, q)
                assert abs(res.phi - phi) <= res.error_estimate <= 1e-12 * phi, (q, e.intervals)

    def test_oracle_rejects_odd(self):
        with pytest.raises(DomainError):
            phi_even_oracle(IntervalSet([(-1, 1)]), 3)

    def test_oracle_takes_an_integral_float(self):
        e = IntervalSet([(-1, 1), (2, 2.5)])
        assert phi_even_oracle(e, 4.0).phi == phi_even_oracle(e, 4).phi
        for q in (4.4, 4.5):
            with pytest.raises(DomainError, match="even integer"):
                phi_even_oracle(e, q)

    def test_oracle_triangle_value(self):
        res = phi_even_oracle(IntervalSet([(-1, 1)]), 4)
        assert res.norm_q_pow_q == pytest.approx(16 / 3, abs=1e-12)
        assert res.method == "convolution_oracle"


class TestPhi2D:
    def test_disc_against_radial_route(self):
        direct = phi_q(StarSet.unit_disc(), 4.0)
        radial = phi_ball(2, 4.0)
        assert direct.phi == pytest.approx(radial.phi, abs=5e-9)

    def test_affine_invariance(self):
        # evaluator tail bias differs slightly between the set and its image;
        # the acceptance tolerance for d = 2 is 1e-3, this is far inside it
        e = StarSet(1.0, a_coeffs=[0, 0, 0.02]).with_measure(np.pi)
        base = phi_q(e, 4.0).phi
        tm = AffineMap(np.array([[1.15, 0.1], [0.0, 1 / 1.15]]),
                       np.array([0.2, 0.1])).normalized_measure_preserving()
        assert phi_q(e.apply(tm), 4.0).phi == pytest.approx(base, abs=1e-6)

    def test_perturbation_lowers_phi(self):
        disc_val = phi_q(StarSet.unit_disc(), 4.0).phi
        e = StarSet(1.0, a_coeffs=[0, 0, 0.03]).with_measure(np.pi)
        assert phi_q(e, 4.0).phi < disc_val

    def test_grid_fft_oracle(self):
        e = StarSet(1.0, a_coeffs=[0, 0.04]).with_measure(np.pi)
        direct = phi_q(e, 4.0)
        oracle = phi_even_oracle(e, 4, grid_resolution=1024)
        assert oracle.method == "grid_fft"
        assert abs(oracle.phi - direct.phi) / direct.phi < 1e-3

    def test_q_near_4(self):
        for q in (3.8, 4.2):
            direct = phi_q(StarSet.unit_disc(), q)
            radial = phi_ball(2, q)
            assert direct.phi == pytest.approx(radial.phi, abs=1e-7)

    def test_sheared_images_agree(self):
        # criterion 8's sheared images of its planar set: the circle rule
        # follows the stretch |u M| of the frequency, so the images keep Phi_4
        # to 1e-8 (3e-6 when the rule ignored it); criterion 8 gates at 1e-3
        rng = np.random.default_rng(8)
        e = StarSet(1.0, a_coeffs=[0.0, 0.05, 0.03]).with_measure(np.pi)
        base = phi_q(e, 4.0).phi
        for _ in range(10):
            ang = rng.uniform(0, 2 * np.pi)
            shear = rng.uniform(-0.4, 0.4)
            sc = math.exp(rng.uniform(-0.25, 0.25))
            rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
            tm = AffineMap(rot @ np.array([[sc, shear], [0.0, 1.0 / sc]]),
                           rng.uniform(-0.3, 0.3, 2)).normalized_measure_preserving()
            assert phi_q(e.apply(tm), 4.0).phi == pytest.approx(base, abs=1e-8)

    def test_stretched_image_within_its_error(self):
        # the 9th of those images stretches by sigma_max / sigma_min = 1.68; with
        # the 20 directions of the unstretched set its Phi_4 was 3.3e-10 off the
        # base against a reported 3.8e-12; it now takes 34 directions
        rng = np.random.default_rng(8)
        e = StarSet(1.0, a_coeffs=[0.0, 0.05, 0.03]).with_measure(np.pi)
        for _ in range(9):
            ang = rng.uniform(0, 2 * np.pi)
            shear = rng.uniform(-0.4, 0.4)
            sc = math.exp(rng.uniform(-0.25, 0.25))
            rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
            tm = AffineMap(rot @ np.array([[sc, shear], [0.0, 1.0 / sc]]),
                           rng.uniform(-0.3, 0.3, 2)).normalized_measure_preserving()
        res = phi_q(e.apply(tm), 4.0)
        assert abs(res.phi - phi_q(e, 4.0).phi) <= res.error_estimate

    @pytest.mark.parametrize("seed", range(8))
    def test_star4_within_estimate(self, seed):
        # against the cut-45 mesh plus tail at tight tolerance
        from felab.perturbation import _TIGHT
        from felab.quadrature import DEFAULT_CONFIG
        from felab.search import PROBE_QUAD
        e = seeded_star4(seed)
        ref = phi_q(e, 4.0, _TIGHT, radial_cut=45.0).phi
        for cfg in (PROBE_QUAD, DEFAULT_CONFIG):
            res = phi_q(e, 4.0, cfg)
            assert res.method == "polar_stationary_phase_2d" and res.converged
            assert abs(res.phi - ref) <= res.error_estimate

    @pytest.mark.parametrize("seed", range(8))
    def test_star4_probe_cut(self, seed):
        # a search evaluation stops the polar mesh near rho = 4; a cut of 15
        # would double its cost
        from felab.functional import _half_circle, _planar_tail
        from felab.search import PROBE_QUAD
        e = seeded_star4(seed)
        cut, _, _, route = _planar_tail(e, _half_circle(e), 4.0, PROBE_QUAD, None)
        assert route == "polar_stationary_phase_2d"
        assert cut <= 6.0

    @pytest.mark.parametrize("q, cfg_name, expected", [
        (4.0, "probe", 7.25), (6.0, "probe", 7.25), (4.0, "default", 23.75), (6.0, "default", 7.25)])
    def test_flat_side_cut_floor(self, q, cfg_name, expected):
        # a nearly flat side: the model first holds at a cut of 7.25, so no cut
        # below it is chosen, however loose the tolerance
        from felab.functional import _half_circle, _planar_tail
        from felab.quadrature import DEFAULT_CONFIG
        from felab.search import PROBE_QUAD
        e = StarSet(1.0, a_coeffs=[0.0, 0.0, 0.0, 0.03])
        uphi, cfg = _half_circle(e), {"probe": PROBE_QUAD, "default": DEFAULT_CONFIG}[cfg_name]
        cut, _, _, route = _planar_tail(e, uphi, q, cfg, None)
        assert (cut, route) == (expected, "polar_stationary_phase_2d")
        assert _planar_tail(e, uphi, q, cfg, 7.0)[3] == "polar_quadrature_2d"


class TestPinned2D:
    """d = 2 values of the per-node evaluation (one complex exp per radial
    node, angle and circle node) plus the stationary-phase tail, pinned to
    1e-10 relative."""

    @pytest.mark.parametrize("seed, probe, default", [
        pytest.param(3, 0.8232350066726172, 0.8232350068433785, id="seed3"),
        pytest.param(11, 0.8233227147806441, 0.8233227148458603, id="seed11"),
    ])
    def test_star4_candidates(self, seed, probe, default):
        from felab.search import PROBE_QUAD
        e = seeded_star4(seed)
        assert phi_q(e, 4.0, PROBE_QUAD).phi == pytest.approx(probe, rel=1e-10)
        assert phi_q(e, 4.0).phi == pytest.approx(default, rel=1e-10)

    def test_affine_shift_branch(self):
        e = shifted_set()
        assert phi_q(e, 4.0).phi == pytest.approx(0.8232475248449097, rel=1e-10)
        assert phi_q(e, 3.5).phi == pytest.approx(0.8297483778665478, rel=1e-10)

    def test_star_mode_tight_cut(self):
        from felab.perturbation import star_mode_family
        res = phi_q(star_mode_family(0.015, 4), 4.0, QuadratureConfig(1e-12, 1e-11),
                    radial_cut=45.0)
        assert res.phi == pytest.approx(0.8233137053782935, rel=1e-10)
        assert res.norm_q_pow_q == pytest.approx(14.246592364648588, rel=1e-10)

    @pytest.mark.parametrize("q, phi", [(4.0, 0.8191908399274399), (6.0, 0.8214211541402283)])
    def test_non_convex_ring_route(self, q, phi):
        # curvature of both signs: no stationary-phase tail, the probe-ring
        # route as before, bit for bit
        from felab.search import PROBE_QUAD
        res = phi_q(StarSet(1.0, a_coeffs=[0.0, 0.0, 0.0, 0.12]), q, PROBE_QUAD)
        assert res.method == "polar_quadrature_2d"
        assert res.phi == phi

    @pytest.mark.parametrize("a4, q, phi", [
        (0.04, 4.0, 0.822914282129294), (0.04, 6.0, 0.8244281753827651),
        (0.05, 4.0, 0.8226527616578633), (0.05, 6.0, 0.8242125952443428)])
    def test_flat_convex_ring_route(self, a4, q, phi):
        # convex, but the stationary-phase model needs a cut past 15 (23 at
        # a4 = 0.04, past 45 at 0.05): the probe-ring route as before, bit for bit
        from felab.search import PROBE_QUAD
        res = phi_q(StarSet(1.0, a_coeffs=[0.0, 0.0, 0.0, a4]), q, PROBE_QUAD)
        assert res.method == "polar_quadrature_2d"
        assert res.phi == phi

    def test_indicator_hat(self):
        pts = np.array([[0.0, 0.0], [0.37, -0.81], [1.9, 0.4], [-3.1, 2.2], [7.5, -0.3]])
        expected = {
            "shifted": [3.1177966600351774 + 0j,
                        -0.07773197904903263 - 0.3869451336160123j,
                        -0.02411252550225904 + 0.055885826843582606j,
                        -0.006723796546437523 + 0.031532245255951837j,
                        -0.0009853068481745872 + 0.00352949755972263j],
            "star4": [3.141592653589793 + 0j,
                      -0.3309886441975021 + 0.07033534012112194j,
                      -0.092396878245312 + 0.08489031297714116j,
                      0.014866974476479153 - 0.03323593005160813j,
                      -0.0028984532709489205 + 0.00458775780595583j],
        }
        for name, e in (("shifted", shifted_set()), ("star4", seeded_star4(3))):
            vals = indicator_hat(e, pts)
            ref = np.array(expected[name])
            assert np.all(np.abs(vals - ref) <= 1e-10 * np.abs(ref))


class TestPerPanelOracle:
    """The batched circle sum of the planar norm against the per-panel loop
    it replaced (``oracles.norm_q_2d_per_panel``), to 1e-12 relative, at the
    cut and with the tail that production chose."""

    @staticmethod
    def sets():
        from felab.perturbation import star_mode_family
        quarter_turn = AffineMap(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros(2))
        for seed in range(40):
            yield seeded_star4(seed), None
        yield shifted_set(), None
        # phi = 0 meets theta = 0 at a phase rate of exactly zero
        yield seeded_star4(3).apply(quarter_turn), None
        yield star_mode_family(0.015, 4), 45.0
        # the stretched circle band, far out
        yield shifted_set(), 45.0
        # criterion 8's e2 stretched: the first panel's |rho A| reaches 10, the
        # near-pair table's longest series.  At its own cuts its 720 directions
        # keep the loop busy for minutes, so it stops at a probe cut
        e2 = StarSet(1.0, a_coeffs=[0.0, 0.05, 0.03]).with_measure(np.pi)
        yield e2.apply(AffineMap(np.diag([6.0, 1.0 / 6.0]), np.zeros(2))), 4.0
        # non-convex: the ring route
        yield StarSet(1.0, a_coeffs=[0.0, 0.0, 0.0, 0.15]), None
        yield StarSet(1.0), None

    @pytest.mark.parametrize("q", [3.5, 4.0, 6.0])
    def test_matches_per_panel_loop(self, q):
        from felab.functional import _half_circle, _norm_q_2d, _planar_tail
        from felab.quadrature import DEFAULT_CONFIG
        from felab.search import PROBE_QUAD
        for e, cut in self.sets():
            for cfg in (PROBE_QUAD, DEFAULT_CONFIG):
                value, _, _ = _norm_q_2d(e, q, cfg, cut)
                used, tail, _, _ = _planar_tail(e, _half_circle(e), q, cfg, cut)
                head = norm_q_2d_per_panel(e, q, used)
                assert value == pytest.approx(head + tail, rel=1e-12), (e, cfg)


class TestPlanarSweep:
    """``functional._polar_blocks``: one circle rule past block 0, built once,
    in the thread's buffers."""

    def test_sweep_reuses_the_thread_buffers(self):
        # a warm search probe and a warm d = 2 expansion report allocated
        # 2.06 MiB and 11.0 MiB while the sweep built its phases, weights and
        # near-pair tables per block of 16 panels
        import tracemalloc
        from felab.perturbation import expansion_report, star_mode_family
        from felab.search import PROBE_QUAD
        e, star = seeded_star4(3), star_mode_family(0.015, 4)
        for run, limit in ((lambda: phi_q(e, 4.0, PROBE_QUAD), 0.25 * 2.06),
                           (lambda: expansion_report(star, 4.0), 0.25 * 11.0)):
            run()
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= limit * 2**20

    def test_threads_keep_their_own_buffers(self):
        # six threads sweep six sets at once, switching often; each gets the
        # value that it gets alone
        import sys
        import threading
        from felab.search import PROBE_QUAD
        sets = [seeded_star4(seed) for seed in range(6)]
        alone = [phi_q(e, 4.0, PROBE_QUAD).phi for e in sets]
        results = {k: [] for k in range(len(sets))}

        def run(k):
            for _ in range(3):
                results[k].append(phi_q(sets[k], 4.0, PROBE_QUAD).phi)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == {k: [v] * 3 for k, v in enumerate(alone)}

    def test_one_rule_past_block_0(self, monkeypatch):
        from felab import functional
        calls = []
        circle = functional._circle
        monkeypatch.setattr(functional, "_circle",
                            lambda e, dirs, rho_max: calls.append(rho_max) or circle(e, dirs, rho_max))
        e = seeded_star4(3)
        blocks = sum(1 for _ in functional._polar_blocks(e, functional._half_circle(e), 45.0))
        assert blocks == 12 and calls == [pytest.approx(45.0 * 16 / 181), 45.0]

    def test_blocks_meet_a_finer_circle_rule(self):
        # each block's top panel against a rule of three times the cut's nodes,
        # relative to the block's largest |1_E^|.  Past block 0, whose rule is
        # its own as before, no block misses by more than the rule sized at its
        # top, which each block took before (2e-9 to 2e-3 here); the blocks
        # below 0.9 of the cut miss by 6e-10 at most.  The cut's rule misses by
        # up to 2e-3 in the last two blocks (ROADMAP item 17)
        from felab.functional import _circle, _half_circle, _polar_blocks
        from felab.perturbation import star_mode_family
        for e in [seeded_star4(seed) for seed in range(10)] + [star_mode_family(0.015, 4)]:
            uphi = _half_circle(e)
            dirs = uphi @ e.affine.matrix
            n_theta = 3 * len(_circle(e, dirs, 45.0)[0])
            misses = []
            for rho, half, norm, s in _polar_blocks(e, uphi, 45.0):
                ref = panel_circle_means(e, uphi, rho[-1], n_theta)
                own = panel_circle_means(e, uphi, rho[-1], len(_circle(e, dirs, rho[-1, 7] + half)[0]))
                misses.append([np.max(np.abs(v - ref)) / np.max(np.abs(norm * s))
                               for v in (norm * s[:, -1], own)])
            misses = np.array(misses)
            assert np.all(misses[1:, 0] <= misses[1:, 1] * (1.0 + 1e-5)), (e, misses)
            assert np.all(misses[1:-2, 0] <= 1e-9), (e, misses)


class TestNearPairTable:
    """The planar norm's near pairs, (phi, theta) with |A| rho_min < 0.1 on the
    first panel of a group, from one power table per group
    (``functional._near_sums``) against ``_radial_factor``'s node-by-node
    circle sums."""

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended precision")
    def test_matches_radial_factor(self, monkeypatch):
        # phi = 0 meets theta = 0 at a phase rate of exactly zero.  The reference
        # runs in extended precision: in doubles the closed form loses ~eps/a^2,
        # 2.7e-15 of |s| near |rho A| = 0.1.  The near and far parts of s cancel
        # near the zeros of 1_E^, so the scale is the circle sum of the moduli
        from felab import functional
        from felab.search import PROBE_QUAD
        near_sums = functional._near_sums
        groups = []
        monkeypatch.setattr(functional, "_near_sums",
                            lambda *args: groups.append(args) or near_sums(*args))
        quarter_turn = AffineMap(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros(2))
        phi_q(seeded_star4(3).apply(quarter_turn), 4.0, PROBE_QUAD)
        # the first panel, the rest of block 0, and the two panels of block 1
        assert [len(rho) for _, _, _, rho in groups] == [1, 15, 2]
        for rate, rr, near, rho in groups:
            assert np.any(rate[near] == 0.0)
            a = rate.astype(np.longdouble)[:, None, None, :] * rho.astype(np.longdouble)[:, :, None]
            g = _radial_factor(np.exp(-1j * a), a, rr.astype(np.longdouble))
            ref = np.where(near[:, None, None, :], g, 0.0).sum(axis=3)
            err = np.abs(near_sums(rate, rr, near, rho) - ref)
            assert np.all(err <= 1e-15 * np.abs(g).sum(axis=3))


PIECES_1D = {
    "one": [(-0.7, 1.3)],
    "two": [(-1.1, 0.2), (0.5, 1.2)],
    "three": [(-1.3, -0.6), (-0.2, 0.5), (0.9, 1.5)],
}


# the tail tables of seven pieces at 2 < q < 4 exceed _EVEN_PAIRS
SEVEN_PIECES = [(0.5 * i, 0.5 * i + 0.3) for i in range(7)]
# normalised diameter 12.2
WIDE_SET = [(0.0, 0.8), (11.0, 12.2)]


class TestPinned1D:
    """d = 1 values pinned to 1e-12 relative.  The non-even ones were taken from
    a per-node evaluation (two complex exps per node and endpoint on the whole
    mesh, on panels 0.5 / diam wide, at most 0.05); the mesh now takes P from
    phase tables.  The even ones are the pair sum's, the same at every
    tolerance, but for three pieces at q = 6 and _TIGHT, whose pair-sum bound
    misses the tolerance and which the mesh takes."""

    @staticmethod
    def configs():
        from felab.perturbation import _TIGHT
        from felab.quadrature import DEFAULT_CONFIG
        from felab.search import PROBE_QUAD
        return {"default": DEFAULT_CONFIG, "probe": PROBE_QUAD, "tight": _TIGHT}

    @pytest.mark.parametrize("name, q, pinned", [
        ("one", 3.0, {
            "default": (0.9162955470227188, 3.077277910265277),
            "probe": (0.916295521767744, 3.0772776558171113),
            "tight": (0.9162955470223362, 3.0772779102614227),
        }),
        ("one", 3.5, {
            "default": (0.9072579306394012, 4.023765803068987),
            "probe": (0.9072579152733671, 4.02376556454517),
            "tight": (0.9072579306360131, 4.023765803016395),
        }),
        ("one", 4.0, {
            "default": (0.9036020036098449, 5.333333333333333),
            "probe": (0.9036020036098449, 5.333333333333333),
            "tight": (0.9036020036098449, 5.333333333333333),
        }),
        ("one", 6.0, {
            "default": (0.9051636706146827, 17.6),
            "probe": (0.9051636706146827, 17.6),
            "tight": (0.9051636706146827, 17.6),
        }),
        ("two", 3.0, {
            "default": (0.8768196467226871, 2.6964402950639705),
            "probe": (0.8768196449462791, 2.6964402786752704),
            "tight": (0.8768196467226871, 2.6964402950639705),
        }),
        ("two", 3.5, {
            "default": (0.8667586330835527, 3.4294036455501167),
            "probe": (0.8667586274812593, 3.4294035679693065),
            "tight": (0.8667586330813479, 3.4294036455195855),
        }),
        ("two", 4.0, {
            "default": (0.8648361809181828, 4.475333333333328),
            "probe": (0.8648361809181828, 4.475333333333328),
            "tight": (0.8648361809181828, 4.475333333333328),
        }),
        ("two", 6.0, {
            "default": (0.8765178495515443, 14.511575500000374),
            "probe": (0.8765178495515443, 14.511575500000374),
            "tight": (0.8765178495515443, 14.511575500000374),
        }),
        ("three", 3.0, {
            "default": (0.8532404860672506, 2.4847022579627085),
            "probe": (0.853240487201541, 2.4847022678721333),
            "tight": (0.8532404860672506, 2.4847022579627085),
        }),
        ("three", 3.5, {
            "default": (0.8382785038919983, 3.0509433436983966),
            "probe": (0.8382785001493716, 3.0509432960234317),
            "tight": (0.8382785038884789, 3.050943343653564),
        }),
        ("three", 4.0, {
            "default": (0.8337636665492116, 3.866000000000016),
            "probe": (0.8337636665492116, 3.866000000000016),
            "tight": (0.8337636665492116, 3.866000000000016),
        }),
        ("three", 6.0, {
            "default": (0.846183892713608, 11.747311999999976),
            "probe": (0.846183892713608, 11.747311999999976),
            "tight": (0.8461838927136075, 11.747311999999933),
        }),
    ])
    def test_unions(self, name, q, pinned):
        e = IntervalSet(PIECES_1D[name])
        for cfg_name, cfg in self.configs().items():
            res = phi_q(e, q, cfg)
            phi, norm = pinned[cfg_name]
            assert res.phi == pytest.approx(phi, rel=1e-12)
            assert res.norm_q_pow_q == pytest.approx(norm, rel=1e-12)

    def test_wide_set(self):
        # diameter 12.2: the panel width drops to 0.5 / diam
        e = IntervalSet([(0.0, 0.8), (11.0, 12.2)])
        for q, phi, norm in ((3.5, 0.8429731190108645, 3.111164895905647),
                             (4.0, 0.8346608246102533, 3.8826666666633276)):
            res = phi_q(e, q)
            assert res.phi == pytest.approx(phi, rel=1e-12)
            assert res.norm_q_pow_q == pytest.approx(norm, rel=1e-12)

    def test_six_pieces_probe(self):
        # a search evaluation of an intervals:6 candidate: its 3,081-entry
        # pair table is within _EVEN_PAIRS, so the pair sum gives the norm
        from felab.search import PROBE_QUAD
        e = IntervalSet([(-1.6, -1.2), (-0.9, -0.5), (-0.3, 0.1), (0.2, 0.5), (0.8, 1.1),
                         (1.4, 1.9)])
        res = phi_q(e, 4.0, PROBE_QUAD)
        assert res.phi == pytest.approx(0.8126357691282451, rel=1e-12)
        assert res.norm_q_pow_q == pytest.approx(5.306000000000027, rel=1e-12)

    @staticmethod
    def even_sets():
        from felab.perturbation import sliver_family_1d
        sets = {name: IntervalSet(pieces) for name, pieces in PIECES_1D.items()}
        sets["wide"] = IntervalSet([(0.0, 0.8), (11.0, 12.2)])
        for eps in (0.02, 0.005, 0.00125):
            sets[f"sliver {eps}"] = sliver_family_1d(eps)
        return sets

    def test_even_q_against_oracle(self):
        # the q = 4 norm is the frequency side's exact pair sum (the mesh where
        # its bound misses: the wide set at _TIGHT): the convolution oracle (an
        # independent, space-side route) agrees.  The mesh's own check against
        # the rational value is TestEvenMesh's
        configs = self.configs()
        for name, e in self.even_sets().items():
            ref = phi_even_oracle(e, 4)
            for cfg_name in ("default", "tight"):
                res = phi_q(e, 4.0, configs[cfg_name])
                assert res.norm_q_pow_q == pytest.approx(ref.norm_q_pow_q, rel=1e-12, abs=0), \
                    (name, cfg_name)

    def test_error_covers_rounding(self):
        # the exact norm in rational arithmetic: the reported error, floored at
        # the rounding of the mesh sum, covers the actual miss
        from fractions import Fraction
        from felab._pwpoly import nfold_indicator_convolution
        configs = self.configs()
        for name, e in self.even_sets().items():
            exact = nfold_indicator_convolution(e.intervals, 2, exact=True).integrate_square()
            phi = float(exact / Fraction(e.measure) ** 3) ** 0.25
            for cfg_name in ("default", "tight"):
                res = phi_q(e, 4.0, configs[cfg_name])
                assert abs(res.phi - phi) <= res.error_estimate, (name, cfg_name)

    def test_translated_set(self):
        e = translate(IntervalSet(PIECES_1D["three"]), 1e3)
        for q, phi, norm in ((3.0, 0.8532404860672539, 2.4847022579627374),
                             (3.5, 0.8382785038920021, 3.0509433436984446)):
            res = phi_q(e, q)
            assert res.phi == pytest.approx(phi, rel=1e-12)
            assert res.norm_q_pow_q == pytest.approx(norm, rel=1e-12)

    @pytest.mark.parametrize("family, q, ll, lrefl", [
        pytest.param("sliver", 3.0, 0.0028096696749181534, 0.0009369320930086023, id="sliver-3.0"),
        pytest.param("sliver", 2.5, 0.015031777192278592, 0.003006639791179433, id="sliver-2.5"),
        pytest.param("translated", 3.0, 0.013601067106166955, -0.0098544653382402,
                     id="translated-3.0"),
        pytest.param("translated", 2.5, 0.028898765305557447, -0.010860348322099422,
                     id="translated-2.5"),
    ])
    def test_quadratic_terms_pinned(self, family, q, ll, lrefl):
        from felab.perturbation import quadratic_terms, sliver_family_1d, translated_ball
        e = sliver_family_1d(0.05) if family == "sliver" else translated_ball(0.05, 1)
        terms = quadratic_terms(e, q)
        assert terms["LL"] == pytest.approx(ll, rel=1e-12)
        assert terms["Lrefl"] == pytest.approx(lrefl, rel=1e-12)

    def test_mesh_memory_bounded(self):
        # seven pieces at q = 3 and the default tolerance, whose tail tables
        # exceed _EVEN_PAIRS, cut the mesh at 2e4 with panels of 0.05: 6e6
        # nodes, whose node array alone took 48 MB
        import tracemalloc
        e = IntervalSet(SEVEN_PIECES)
        tracemalloc.start()
        try:
            phi_q(e, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_nodes = (int(2.0e4 / 0.05) + 1) * 15
        assert peak < 0.25 * n_nodes * 8

    def test_mesh_chunks_reuse_the_thread_buffers(self):
        # a search evaluation (three pieces, q = 4, probe tolerance) allocated
        # ~0.8 MB of chunk arrays at every call, which glibc could return to
        # the OS at its end, so that the next call faulted them in again; W's
        # temporaries then took 0.24 MB more, and now W is a thread buffer too
        import tracemalloc
        from felab.search import PROBE_QUAD
        e = IntervalSet([(-1.3, -0.6), (-0.2, 0.5), (0.9, 1.4)])
        phi_q(e, 4.0, PROBE_QUAD)
        tracemalloc.start()
        try:
            phi_q(e, 4.0, PROBE_QUAD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.2e6


class TestPairSum:
    """The even-q d = 1 pair sum against the exact integer sum
    (``oracles.even_norm_exact``), and the rule that routes to it."""

    @staticmethod
    def union(seed: int) -> IntervalSet:
        # 1-6 pieces, each at least 0.05 long, dilated to measure 2
        rng = np.random.default_rng(seed)
        k = 1 + seed % 6
        pts = np.sort(rng.uniform(-2, 2, 2 * k))
        e = IntervalSet([(pts[2 * i], max(pts[2 * i + 1], pts[2 * i] + 0.05)) for i in range(k)])
        return e.dilate(2.0 / e.measure)

    def test_calibration(self, monkeypatch):
        # on 300 seeded unions at q = 4, 6 and 8: every pair sum whose table fits
        # _EVEN_PAIRS misses the exact value by at most its bound, and phi_q takes
        # it exactly where that bound meets the tolerance (the mesh, patched out
        # here, takes the rest).  The bound is a worst-case rounding bound, so its
        # ratio to the miss is printed, not held to 10^3
        from felab import functional
        from felab.perturbation import _TIGHT
        from felab.quadrature import DEFAULT_CONFIG
        from felab.search import PROBE_QUAD
        monkeypatch.setattr(functional, "_mesh_head", lambda *args: (0.0, 0.0))
        ratios = []
        for seed in range(300):
            e = self.union(seed)
            ends, signs = centred_endpoints(e)
            for q in (4, 6, 8):
                n = q // 2
                size = math.comb(len(ends) + n - 1, n)
                if size * (size + 1) // 2 > functional._EVEN_PAIRS:
                    continue
                table = functional._exp_sum_table(ends, signs, n)
                value, bound = functional._pair_sum(table, n, float(np.max(np.abs(ends))))
                exact = even_norm_exact(e, q) / Fraction(0.5 * e.measure) ** (q - 1)
                miss = abs(Fraction(value) - exact)
                assert miss <= Fraction(bound), (seed, q, float(miss), bound)
                ratios.append(bound / max(float(miss), 1e-15 * value))
                for cfg in (DEFAULT_CONFIG, PROBE_QUAD, _TIGHT):
                    try:
                        got, err, route = functional._norm_q_1d(e, float(q), cfg)
                    except DomainError:  # the mesh's node budget refuses the set
                        route = None
                    assert (route == "pair_sum_1d") == (bound <= cfg.tolerance(value)), (seed, q)
                    if route == "pair_sum_1d":
                        assert (got, err) == (value, bound)
        print(f"pair sums: {len(ratios)}, bound / max(miss, 1e-15 value): median "
              f"{np.median(ratios):.3g}, largest {np.max(ratios):.3g}")


class TestEvenMesh:
    """The d = 1 mesh: W as a product of two phase tables, and the even-q panels
    one beat period of |P^n|^2 wide at most."""

    @pytest.mark.parametrize("pieces, diam", [(1, 2.0), (3, 7.0), (6, 40.0)])
    def test_w_from_two_tables(self, pieces, diam):
        # W[e, (i, k)] = s_e e^{-2 pi i mid_i e} e^{-2 pi i off_k e} against the
        # phase of each node's loc = mid_i + off_k taken whole; either rounds its
        # angle, so the two meet to a few ulps of (1 + |angle|)
        from felab import functional
        from felab.quadrature import gk15_panels
        rng = np.random.default_rng(pieces)
        ends = np.sort(rng.uniform(-0.5 * diam, 0.5 * diam, 2 * pieces))
        ends[[0, -1]] = -0.5 * diam, 0.5 * diam
        signs = np.resize([1.0, -1.0], 2 * pieces)
        for h in (0.05, 1.0 / diam, 0.5 / diam):
            half, _ = functional._signed_exp_mesh(ends, signs, 60.0, h)
            w = functional._buffer("mesh_w", (2 * pieces, functional._MESH_BLOCK * 15), complex)
            mid = (2 * np.arange(functional._MESH_BLOCK) + 1.0) * half
            loc = (mid[:, None] + gk15_panels(0.0, half)[0]).ravel()
            angle = -2 * np.pi * np.multiply.outer(ends, loc)
            ref = signs[:, None] * np.exp(1j * angle)
            assert np.all(np.abs(w - ref) <= 4 * np.finfo(float).eps * (1 + np.abs(angle))), h

    def test_heads_within_their_rule_error(self, monkeypatch):
        # every even-q head lies within its sum |K - G| of the same head on
        # panels half as wide, on 160 seeded unions at three tolerances, with
        # the pair sum's bound made to miss so that the mesh runs
        from felab import functional
        from felab.perturbation import _TIGHT
        from felab.quadrature import DEFAULT_CONFIG
        from felab.search import PROBE_QUAD
        force_mesh(monkeypatch)
        calls = mesh_calls(monkeypatch)
        for seed in range(160):
            e = random_union(np.random.default_rng(seed), max_pieces=4)
            ends, signs = centred_endpoints(e)
            for q in (4.0, 6.0):
                for cfg in (DEFAULT_CONFIG, PROBE_QUAD, _TIGHT):
                    phi_q(e, q, cfg)
                    cut, h = calls[-1]
                    value, err = functional._mesh_head(ends, signs, q, cut, h)
                    finer, _ = functional._mesh_head(ends, signs, q, cut, 0.5 * h)
                    assert abs(value - finer) <= err, (seed, q, cfg)

    @pytest.mark.parametrize("q", [4, 6])
    def test_wide_set_calibration(self, q, monkeypatch):
        # (0, 0.8) U (11, 12.2) against its rational value, on the mesh: the
        # pair sum's bound is made to miss.  Its 0.5 / diam panels
        # spanned one beat period at q = 4 and 1.5 at q = 6: at _TIGHT, q = 4
        # reported 1.13e-10 against a miss of 3.6e-16, and converged=False.  At
        # the default tolerance and q = 4 the estimate is sum |K - G| on 0.85-
        # period panels, the Gauss-7 rule's error, 1.4e4 times the miss: that case
        # is held to actual <= estimate only (the QUADPACK rescale of the rule
        # error, ROADMAP item 2(b), is what would bring it within 10^3)
        from fractions import Fraction
        from felab._pwpoly import nfold_indicator_convolution
        from felab.perturbation import _TIGHT
        from felab.quadrature import DEFAULT_CONFIG
        force_mesh(monkeypatch)
        e = IntervalSet(WIDE_SET)
        exact = nfold_indicator_convolution(e.intervals, q // 2, exact=True).integrate_square()
        phi = float(exact / Fraction(e.measure) ** (q - 1)) ** (1.0 / q)
        for name, cfg in (("default", DEFAULT_CONFIG), ("tight", _TIGHT)):
            res = phi_q(e, float(q), cfg)
            actual = abs(res.phi - phi)
            assert res.converged and actual <= res.error_estimate, (name, res)
            if (q, name) != (4, "default"):
                assert res.error_estimate <= 1e3 * max(actual, 1e-15 * phi), (name, res)


def force_mesh(monkeypatch):
    """Makes every even-q pair sum's rounding bound miss, so that ``phi_q`` takes
    the mesh routes as it does where the bound misses the tolerance."""
    from felab import functional
    monkeypatch.setattr(functional, "_pair_sum", lambda table, n, reach: (0.0, math.inf))


def mesh_calls(monkeypatch):
    """The (cut, panel width) pairs ``phi_q`` passes to ``functional._signed_exp_mesh``."""
    from felab import functional
    calls, mesh = [], functional._signed_exp_mesh
    monkeypatch.setattr(functional, "_signed_exp_mesh",
                        lambda ends, signs, cut, h: calls.append((cut, h)) or mesh(ends, signs, cut, h))
    return calls


class TestBracketTail:
    """The non-even d = 1 tail: Hoelder's and Lyapunov's bounds from the exact
    tails at the even exponents around q."""

    QS = (2.5, 3.0, 3.2, 3.5, 3.8, 4.5, 5.5)
    XS = (50.0, 400.0, 3000.0)

    @staticmethod
    def tables(e, q):
        from felab.functional import _exp_sum_table
        k = math.ceil(0.5 * q) - 1
        return [_exp_sum_table(*centred_endpoints(e), k + i) for i in range(3)]

    @pytest.mark.parametrize("pieces", [1, 2, 3, 4])
    def test_bracket_holds_the_meshed_tail(self, pieces):
        # lo <= the tail meshed from x to 2e4, and that band plus Hoelder's
        # bound past 2e4 is at most Hoelder's bound past x (the weighted
        # geometric mean is superadditive; the envelope past 2e4 is up to
        # 0.74 of the band at x = 3000, too loose to test against)
        from felab.functional import _tail_bracket
        rng = np.random.default_rng(pieces)
        pts = np.sort(rng.uniform(-2, 2, 2 * pieces))
        e = IntervalSet([(pts[2 * i], max(pts[2 * i + 1], pts[2 * i] + 0.05))
                         for i in range(pieces)])
        bands = interval_norm_bands(e, self.QS, self.XS)
        for q, row in zip(self.QS, bands):
            tables = self.tables(e, q)
            past = _tail_bracket(tables, q, 2.0e4)[1]
            for x, band in zip(self.XS, row):
                lo, hi = _tail_bracket(tables, q, x)
                assert lo <= band and band + past <= hi, (q, x, lo / band, (band + past) / hi)

    @pytest.mark.parametrize("q", [4.0, 6.0])
    def test_collapses_at_even_q(self, q):
        # at q = 2k + 2 both bounds are T_q, widened by its error
        from felab.functional import _exp_sum_tail, _tail_bracket
        e = IntervalSet(PIECES_1D["three"])
        tables = self.tables(e, q)
        for x in self.XS:
            tail, err = _exp_sum_tail(tables[1], q, x)
            assert _tail_bracket(tables, q, x) == (tail - err, tail + err)

    def test_envelope_past_the_table_budget(self, monkeypatch):
        # seven pieces at q = 3.5: the q = 6 table has 157,080 entries, so the
        # envelope route runs as before, to the same cut and value
        calls = mesh_calls(monkeypatch)
        res = phi_q(IntervalSet(SEVEN_PIECES), 3.5)
        assert res.method == "mesh_envelope_1d" and [c for c, _ in calls] == [2.0e4]
        assert (res.phi, res.norm_q_pow_q) == (0.8262628792157611, 3.2768916666632966)

    def test_cut(self, monkeypatch):
        # at the default tolerance the envelope's cuts are 6,498 and 2e4
        calls = mesh_calls(monkeypatch)
        res = phi_q(IntervalSet(PIECES_1D["three"]), 3.5)
        assert res.method == "mesh_bracket_tail_1d" and calls[-1][0] <= 1500.0
        res = phi_q(IntervalSet(PIECES_1D["two"]), 3.0)
        assert res.method == "mesh_bracket_tail_1d" and calls[-1][0] < 1.0e4 and res.converged
        # at even q, where the pair sum's bound misses, the bracket is T_q -+ its
        # error, so the same search stops at the first edge past 50 of the
        # envelope's panels
        from felab.perturbation import _TIGHT
        from felab.quadrature import DEFAULT_CONFIG
        force_mesh(monkeypatch)
        for cfg in (DEFAULT_CONFIG, _TIGHT):
            res = phi_q(IntervalSet(PIECES_1D["three"]), 4.0, cfg)
            cut, h = calls[-1]
            assert res.method == "mesh_even_tail_1d" and 50.0 <= cut < 50.0 + h, cfg

    def test_gate_keeps_search_evaluations(self, monkeypatch):
        # three pieces at PROBE_QUAD and q = 4: the envelope cuts at about 97.
        # At a normalised diameter of 12 the mesh takes 24 panels a unit of xi,
        # so the cost rule alone (four panels an entry) would take the 231-entry
        # table; under _EXP_SUM_GATE the envelope route runs as before.  On
        # PIECES_1D["three"] (5.6 panels a unit) the cost rule keeps it too.
        # The pair sum's bound is made to miss, as it does on wider sets
        from felab.search import PROBE_QUAD
        force_mesh(monkeypatch)
        calls = mesh_calls(monkeypatch)
        res = phi_q(IntervalSet([(-6.0, -5.6), (-0.5, 0.5), (5.4, 6.0)]), 4.0, PROBE_QUAD)
        (cut, h), = calls
        assert res.method == "mesh_envelope_1d" and 4 * 231 < (cut - 50.0) / h
        assert (res.phi, res.norm_q_pow_q) == (0.8211514760421302, 3.6373332990256944)
        res = phi_q(IntervalSet(PIECES_1D["three"]), 4.0, PROBE_QUAD)
        assert res.method == "mesh_envelope_1d"
        assert (res.phi, res.norm_q_pow_q) == (0.8337636643764911, 3.8659999597020867)


class TestContinuityProbe:
    def test_same_exponent_rejected(self):
        with pytest.raises(DomainError):
            q_continuity_probe(IntervalSet([(-1, 1)]), 4.0, 4.0)

    def test_ball_finite(self):
        val = q_continuity_probe(IntervalSet([(-1, 1)]), 3.0, 5.0)
        assert np.isfinite(val) and val > 0

    def test_bounded_over_family(self):
        rng = np.random.default_rng(12)
        sup_small = 0.0
        sup_large = 0.0
        for _ in range(15):
            e = random_union(rng, max_pieces=2)
            sup_small = max(sup_small, q_continuity_probe(e, 3.5, 3.5 + 1e-3))
            sup_large = max(sup_large, q_continuity_probe(e, 3.0, 4.5))
        print(f"continuity probe sup: small-gap {sup_small:.3f}, wide-gap {sup_large:.3f}")
        assert sup_small < 5.0 and sup_large < 5.0


class TestBabenkoBound:
    def test_value_q4(self):
        assert babenko_bound(4.0, 1) == pytest.approx((4 / 3) ** (3 / 8) * 4 ** (-1 / 8), abs=1e-15)
        assert babenko_bound(4.0, 2) == pytest.approx(babenko_bound(4.0, 1) ** 2, abs=1e-15)

    def test_below_one(self):
        for q in (2.5, 3.0, 4.0, 8.0):
            assert babenko_bound(q, 1) < 1.0
