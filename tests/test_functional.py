"""Phi_q evaluation, the convolution oracle, and the Babenko guard."""

import math
import time

import numpy as np
import pytest

from felab.errors import DomainError
from felab.functional import (
    babenko_bound,
    indicator_hat,
    phi_ball,
    phi_even_oracle,
    phi_q,
)
from felab.quadrature import QuadratureConfig
from felab.radial_kernels import ball_hat
from felab.set_model import AffineMap, IntervalSet, StarSet
from oracles import norm_q_2d_per_panel, q_continuity_probe, translate


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

    def test_oracle_rejects_odd(self):
        with pytest.raises(DomainError):
            phi_even_oracle(IntervalSet([(-1, 1)]), 3)

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


def seeded_star4(seed):
    """A star:4 candidate drawn the way the search draws one, at ball measure."""
    rng = np.random.default_rng(seed)
    decay = 1.0 / (1.0 + np.arange(1, 5)) ** 2
    a = rng.normal(0.0, 0.15, 4) * decay
    b = rng.normal(0.0, 0.15, 4) * decay
    return StarSet(1.0, a, b).with_measure(np.pi)


def shifted_set():
    """Non-identity linear part, translation and base center all non-trivial."""
    base = StarSet(1.0, a_coeffs=[0.0, 0.06, 0.02], b_coeffs=[0.0, -0.03], center=(0.1, -0.05))
    return base.apply(AffineMap(np.array([[1.2, 0.3], [-0.1, 0.8]]), np.array([0.4, -0.7])))


class TestPinned2D:
    """d = 2 values of the per-node evaluation (one complex exp per radial
    node, angle and circle node), pinned to 1e-10 relative."""

    @pytest.mark.parametrize("seed, probe, default", [
        (3, 0.8232350065621941, 0.8232350067493605),
        (11, 0.8233227145772756, 0.8233227147563373),
    ])
    def test_star4_candidates(self, seed, probe, default):
        from felab.search import PROBE_QUAD
        e = seeded_star4(seed)
        assert phi_q(e, 4.0, PROBE_QUAD).phi == pytest.approx(probe, rel=1e-10)
        assert phi_q(e, 4.0).phi == pytest.approx(default, rel=1e-10)

    def test_affine_shift_branch(self):
        e = shifted_set()
        assert phi_q(e, 4.0).phi == pytest.approx(0.8232475350473768, rel=1e-10)
        assert phi_q(e, 3.5).phi == pytest.approx(0.8297487836527969, rel=1e-10)

    def test_star_mode_tight_cut(self):
        from felab.perturbation import star_mode_family
        res = phi_q(star_mode_family(0.015, 4), 4.0, QuadratureConfig(1e-12, 1e-11),
                    radial_cut=45.0)
        assert res.phi == pytest.approx(0.8233137053563916, rel=1e-10)
        assert res.norm_q_pow_q == pytest.approx(14.246592363132624, rel=1e-10)

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
    it replaced (``oracles.norm_q_2d_per_panel``), to 1e-12 relative."""

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

    @pytest.mark.parametrize("q", [3.5, 4.0, 6.0])
    def test_matches_per_panel_loop(self, q):
        from felab.functional import _norm_q_2d
        from felab.quadrature import DEFAULT_CONFIG
        from felab.search import PROBE_QUAD
        for e, cut in self.sets():
            for cfg in (PROBE_QUAD, DEFAULT_CONFIG):
                value, _ = _norm_q_2d(e, q, cfg, cut)
                ref, _ = norm_q_2d_per_panel(e, q, cfg, cut)
                assert value == pytest.approx(ref, rel=1e-12), (e, cfg)


PIECES_1D = {
    "one": [(-0.7, 1.3)],
    "two": [(-1.1, 0.2), (0.5, 1.2)],
    "three": [(-1.3, -0.6), (-0.2, 0.5), (0.9, 1.5)],
}


class TestPinned1D:
    """d = 1 values of the per-node evaluation (two complex exps per node and
    endpoint on the whole mesh), pinned to 1e-12 relative."""

    @staticmethod
    def configs():
        from felab.perturbation import _TIGHT
        from felab.quadrature import DEFAULT_CONFIG
        from felab.search import PROBE_QUAD
        return {"default": DEFAULT_CONFIG, "probe": PROBE_QUAD, "tight": _TIGHT}

    @pytest.mark.parametrize("name, q, pinned", [
        ("one", 3.0, {
            "default": (0.9162955470136529, 3.0772779101739376),
            "probe": (0.916295521767744, 3.0772776558171113),
            "tight": (0.9162955470186812, 3.0772779102245997),
        }),
        ("one", 3.5, {
            "default": (0.9072579306308582, 4.023765802936376),
            "probe": (0.9072579152733671, 4.02376556454517),
            "tight": (0.9072579306359275, 4.023765803015066),
        }),
        ("one", 4.0, {
            "default": (0.9036020036066651, 5.33333333325826),
            "probe": (0.903602002740219, 5.333333312802149),
            "tight": (0.903602003609813, 5.333333333332583),
        }),
        ("one", 6.0, {
            "default": (0.9051636706146792, 17.599999999999582),
            "probe": (0.9051636706146792, 17.599999999999582),
            "tight": (0.9051636706146792, 17.599999999999582),
        }),
        ("two", 3.0, {
            "default": (0.8768196467131626, 2.6964402949761004),
            "probe": (0.8768196365092625, 2.6964402008374466),
            "tight": (0.8768196467131626, 2.6964402949761004),
        }),
        ("two", 3.5, {
            "default": (0.8667586330794422, 3.4294036454931955),
            "probe": (0.8667586274812593, 3.4294035679693065),
            "tight": (0.8667586330812881, 3.4294036455187573),
        }),
        ("two", 4.0, {
            "default": (0.8648361809171264, 4.475333333311461),
            "probe": (0.8648361777472219, 4.4753332676972795),
            "tight": (0.8648361809181725, 4.475333333333114),
        }),
        ("two", 6.0, {
            "default": (0.8765178495514847, 14.511575499994462),
            "probe": (0.8765178495514847, 14.511575499994462),
            "tight": (0.8765178495515392, 14.511575499999875),
        }),
        ("three", 3.0, {
            "default": (0.8532404860390087, 2.484702257715981),
            "probe": (0.8532404793074612, 2.4847021989076215),
            "tight": (0.8532404860390087, 2.484702257715981),
        }),
        ("three", 3.5, {
            "default": (0.8382785038869986, 3.050943343634709),
            "probe": (0.8382785001493716, 3.0509432960234317),
            "tight": (0.8382785038881778, 3.050943343649728),
        }),
        ("three", 4.0, {
            "default": (0.8337636665484957, 3.8659999999867374),
            "probe": (0.833763664376491, 3.8659999597020827),
            "tight": (0.8337636665492036, 3.8659999999998678),
        }),
        ("three", 6.0, {
            "default": (0.8461838927135088, 11.74731199999171),
            "probe": (0.8461838927131655, 11.747311999963125),
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
        for q, phi, norm in ((3.5, 0.8429731190063073, 3.1111648958467786),
                             (4.0, 0.834660824609258, 3.8826666666448078)):
            res = phi_q(e, q)
            assert res.phi == pytest.approx(phi, rel=1e-12)
            assert res.norm_q_pow_q == pytest.approx(norm, rel=1e-12)

    def test_translated_set(self):
        e = translate(IntervalSet(PIECES_1D["three"]), 1e3)
        for q, phi, norm in ((3.0, 0.8532404860390121, 2.484702257716011),
                             (3.5, 0.8382785038869937, 3.050943343634644)):
            res = phi_q(e, q)
            assert res.phi == pytest.approx(phi, rel=1e-12)
            assert res.norm_q_pow_q == pytest.approx(norm, rel=1e-12)

    @pytest.mark.parametrize("family, q, ll, lrefl", [
        ("sliver", 3.0, 0.002809669436273198, 0.0009369320485188625),
        ("sliver", 2.5, 0.015031769836694027, 0.0030066101486236965),
        ("translated", 3.0, 0.013601066681909938, -0.009854465550224612),
        ("translated", 2.5, 0.028898740640099233, -0.010860360654781511),
    ])
    def test_quadratic_terms_frequency_route(self, family, q, ll, lrefl):
        from felab.perturbation import _quadratic_terms_freq_1d, sliver_family_1d, translated_ball
        e = sliver_family_1d(0.05) if family == "sliver" else translated_ball(0.05, 1)
        terms = _quadratic_terms_freq_1d(e, q)
        assert terms["LL"] == pytest.approx(ll, rel=1e-12)
        assert terms["Lrefl"] == pytest.approx(lrefl, rel=1e-12)

    def test_mesh_memory_bounded(self):
        # three pieces at q = 3 and the default tolerance cut the mesh at
        # 2e4 with panels of 0.05: 6e6 nodes, whose node array alone took 48 MB
        import tracemalloc
        e = IntervalSet(PIECES_1D["three"])
        tracemalloc.start()
        try:
            phi_q(e, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_nodes = (int(2.0e4 / 0.05) + 1) * 15
        assert peak < 0.25 * n_nodes * 8


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
