"""Set representations, distances, boundary profiles, balancing."""

import json
import math

import numpy as np
import pytest

from felab.errors import DomainError, InvalidSetError
from felab.set_model import (
    AffineMap,
    IntervalSet,
    StarSet,
    balance,
    boundary_profile,
    dist_to_ellipsoids,
    set_from_json,
    set_to_json,
    symdiff_measure,
    vanishing_check,
)
from oracles import deviation_from_identity, integral_f, radius_about_origin_bisection


class TestIntervalSet:
    def test_normalization(self):
        e = IntervalSet([(2, 3), (0, 1), (0.5, 0.8)])
        assert e.intervals == ((0.0, 1.0), (2.0, 3.0))
        assert e.measure == 2.0

    def test_invalid(self):
        with pytest.raises(InvalidSetError):
            IntervalSet([(1.0, 1.0)])

    def test_median(self):
        e = IntervalSet([(0, 1), (2, 3)])
        assert e.median() == pytest.approx(1.0, abs=1e-15)


class TestSymdiff:
    def test_identical(self):
        e = IntervalSet([(0, 1)])
        assert symdiff_measure(e, e) == 0.0

    def test_half_shift(self):
        assert symdiff_measure(IntervalSet([(0, 1)]),
                               IntervalSet([(0.5, 1.5)])) == pytest.approx(1.0, abs=1e-14)

    def test_annulus(self):
        eps = 0.01
        d = symdiff_measure(StarSet.unit_disc(), StarSet(1 + eps))
        assert d == pytest.approx(np.pi * ((1 + eps) ** 2 - 1), abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            symdiff_measure(IntervalSet([(0, 1)]), StarSet.unit_disc())

    def test_metric_properties_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            sets = []
            for _ in range(3):
                pts = np.sort(rng.uniform(-2, 2, 4))
                sets.append(IntervalSet([(pts[0], pts[1]), (pts[2], pts[3] + 0.05)]))
            a, b, c = sets
            dab = symdiff_measure(a, b)
            dba = symdiff_measure(b, a)
            assert dab == pytest.approx(dba, abs=1e-14)
            assert dab + symdiff_measure(b, c) >= symdiff_measure(a, c) - 1e-12

    def test_grid_fallback(self):
        # a set whose star origin is outside the other forces the grid path
        far = StarSet(0.5, affine=AffineMap(np.eye(2), np.array([3.0, 0.0])))
        d = symdiff_measure(StarSet.unit_disc(), far, grid_resolution=512)
        assert d == pytest.approx(np.pi + np.pi * 0.25, rel=2e-2)


class TestDistance:
    def test_interval_is_ellipsoid(self):
        assert dist_to_ellipsoids(IntervalSet([(0, 2)])).distance == 0.0

    def test_two_unit_intervals(self):
        fit = dist_to_ellipsoids(IntervalSet([(0, 1), (2, 3)]))
        assert fit.distance == pytest.approx(1.0, abs=1e-14)
        # best window has the set's length
        assert fit.best.matrix[0, 0] * 2 == pytest.approx(2.0, abs=1e-12)

    def test_affine_invariance_d1(self):
        e = IntervalSet([(-0.3, 0.4), (0.9, 1.6)])
        base = dist_to_ellipsoids(e).distance
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = math.exp(rng.uniform(-1, 1))
            t = rng.uniform(-2, 2)
            img = e.apply(AffineMap(np.array([[a]]), np.array([t])))
            assert dist_to_ellipsoids(img).distance == pytest.approx(base, abs=1e-6)

    def test_affine_disc_is_zero(self):
        tm = AffineMap(np.array([[1.2, 0.3], [0.0, 1 / 1.2]]),
                       np.array([0.4, -0.2])).normalized_measure_preserving()
        fit = dist_to_ellipsoids(StarSet.unit_disc().apply(tm))
        assert fit.distance < 1e-6

    def test_perturbed_disc_positive(self):
        e = StarSet(1.0, a_coeffs=[0, 0, 0.05]).with_measure(np.pi)
        fit = dist_to_ellipsoids(e)
        assert 0.01 < fit.distance < 0.2


def star_candidates(seed: int, count: int):
    """star:4 candidates of measure pi, drawn the way ``search`` draws them."""
    rng = np.random.default_rng(seed)
    decay = 1.0 / (1.0 + np.arange(1, 5)) ** 2
    for _ in range(count):
        a = rng.normal(0.0, 0.15, 4) * decay
        b = rng.normal(0.0, 0.15, 4) * decay
        yield StarSet(1.0, a, b).with_measure(np.pi)


class TestEllipseFit:
    """The moment-ellipse fit is no worse than the six-start Nelder-Mead
    search it replaced; these are that search's distances."""

    SIX_START = [
        0.01593526766308897, 0.008175118377294184, 0.017689105157582062, 0.005102017872171579,
        0.017150322327249407, 0.03361560873372891, 0.018422435668412646, 0.011060099028909968,
        0.013916263895937014, 0.009775164541409379, 0.007118884488441707, 0.01692138932988052,
        0.028736454719279665, 0.03150966313546142, 0.0031168154140654553, 0.023476073281680724,
        0.011261270715229664, 0.02387877781848049, 0.017976450674267463, 0.008961846818672927,
        0.019628010284425308, 0.014500722075210743, 0.026016713316010708, 0.023375297632801585,
        0.015053319165163942, 0.0073126488799154, 0.028394672371980022, 0.015794762639263184,
        0.01126434514683182, 0.014974458134056805, 0.016675801949261902, 0.015402808424555468,
        0.013713013754672293, 0.0023068317237783997, 0.04345075696009294, 0.019413723449249697,
        0.00834461347949685, 0.016096444048777317, 0.008120288946962305, 0.008661052377521461,
    ]

    def test_star_candidates_no_worse(self):
        for e, pinned in zip(star_candidates(2024, 40), self.SIX_START):
            fit = dist_to_ellipsoids(e)
            assert fit.converged
            assert fit.distance <= pinned + 1e-9

    def test_criterion_8_base_set_no_worse(self):
        e2 = StarSet(1.0, a_coeffs=[0.0, 0.05, 0.03]).with_measure(np.pi)
        fit = dist_to_ellipsoids(e2, n_theta=512)
        assert fit.converged
        assert fit.distance <= 0.03790978523946587 + 1e-9

    def test_best_map_is_the_fitted_ellipse(self):
        e = next(star_candidates(7, 1))
        fit = dist_to_ellipsoids(e)
        ell = StarSet.unit_disc().apply(fit.best)
        assert ell.measure == pytest.approx(e.measure, rel=1e-12)
        assert symdiff_measure(e, ell) / e.measure == pytest.approx(fit.distance, abs=1e-6)


class TestRadiusAboutOrigin:
    THETA = np.linspace(0.0, 2 * np.pi, 1024, endpoint=False)

    def assert_matches_bisection(self, e):
        r = e.radius_about_origin(self.THETA)
        ref = radius_about_origin_bisection(e, self.THETA)
        assert np.max(np.abs(r - ref) / ref) <= 1e-14

    def test_star_candidates(self):
        for e in star_candidates(31, 10):
            self.assert_matches_bisection(e)

    def test_balanced_sets(self):
        # balance shears, dilates and translates: the origin leaves the star center
        for e in star_candidates(32, 4):
            self.assert_matches_bisection(balance(e).balanced_set)

    def test_translated_sets(self):
        rng = np.random.default_rng(33)
        for e in star_candidates(34, 10):
            self.assert_matches_bisection(e.apply(AffineMap(np.eye(2), rng.uniform(-0.4, 0.4, 2))))

    def test_origin_outside(self):
        far = StarSet(0.5, affine=AffineMap(np.eye(2), np.array([3.0, 0.0])))
        with pytest.raises(InvalidSetError, match="not interior"):
            far.radius_about_origin(self.THETA)

    def test_peak_between_bracket_samples(self):
        # r = 0.01 + Fejer kernel F_600 peaked at pi/255, midway between two
        # of the 256 samples that bound the bracket: the peak (~601) lies
        # beyond twice the sampled maximum (~45)
        n, peak = 600, np.pi / 255
        k = np.arange(1, n + 1)
        weight = 2.0 * (1.0 - k / (n + 1.0))
        e = StarSet(1.01, weight * np.cos(k * peak), weight * np.sin(k * peak))
        with pytest.raises(InvalidSetError, match="bracket"):
            e.radius_about_origin([peak])


class TestBoundaryProfile:
    def test_ball_itself(self):
        prof = boundary_profile(IntervalSet([(-1.0, 1.0)]))
        assert np.all(prof.a_vals == 0) and np.all(prof.b_vals == 0)
        prof2 = boundary_profile(StarSet.unit_disc(), n_grid=256)
        assert np.max(np.abs(prof2.f_vals)) < 1e-12

    def test_translated_interval(self):
        t = 0.1
        prof = boundary_profile(IntervalSet([(-1 + t, 1 + t)]))
        assert prof.a_vals[0] == pytest.approx(t, abs=1e-14)   # a(+1)
        assert prof.b_vals[1] == pytest.approx(t, abs=1e-14)   # b(-1)
        assert prof.f_vals[0] == pytest.approx(-t, abs=1e-14)
        assert prof.f_vals[1] == pytest.approx(t, abs=1e-14)

    def test_single_mode_coefficient(self):
        eps = 0.01
        e = StarSet(1.0, a_coeffs=[0, 0, eps])
        prof = boundary_profile(e, n_grid=1024, n_modes=8)
        # F(theta) ~ -eps cos(3 theta), so F^(3) ~ -eps/2 + O(eps^2)
        assert prof.fourier_coeff(3).real == pytest.approx(-eps / 2, abs=5 * eps**2)
        assert abs(prof.fourier_coeff(3).imag) < 1e-12
        assert integral_f(prof) == pytest.approx(np.pi - e.measure, abs=1e-10)


class TestBalance:
    def test_recenter_interval(self):
        t = 0.25
        res = balance(IntervalSet([(-1 + t, 1 + t)]))
        assert res.map.translation[0] == pytest.approx(-t, abs=1e-12)
        assert res.residual < 1e-12
        assert res.converged

    def test_disc_identity(self):
        res = balance(StarSet.unit_disc())
        assert deviation_from_identity(res.map) < 1e-9
        assert res.iterations <= 2

    def test_ellipse_to_disc(self):
        e = StarSet(1.0, affine=AffineMap(np.diag([1.05, 1 / 1.05]), np.zeros(2)))
        res = balance(e, tol=1e-10)
        assert res.converged and res.iterations <= 8
        prof = boundary_profile(res.balanced_set, n_grid=512, n_modes=8)
        assert np.max(np.abs(prof.f_vals)) < 1e-6

    def test_map_size_tracks_symdiff(self):
        # ||phi - I|| <= C |E triangle B|, empirical C reported
        ratios = []
        for eps in (0.01, 0.02, 0.05):
            e = StarSet(1.0, a_coeffs=[eps, 0.5 * eps], b_coeffs=[0.0, eps]).with_measure(np.pi)
            delta = symdiff_measure(e, StarSet.unit_disc())
            res = balance(e)
            ratios.append(deviation_from_identity(res.map) / delta)
        print(f"balance map/symdiff ratios: {[f'{r:.2f}' for r in ratios]}")
        assert max(ratios) < 5.0

    def test_low_modes_below_tol_after_balance(self):
        e = StarSet(1.0, a_coeffs=[0.02, 0.03, 0.01], b_coeffs=[0.01, 0.0, 0.02])
        e = e.with_measure(np.pi)
        res = balance(e, tol=1e-10)
        prof = boundary_profile(res.balanced_set, n_grid=1024, n_modes=8)
        for n in (1, 2):
            assert abs(prof.fourier_coeff(n)) < 1e-9


class TestVanishing:
    def test_high_modes_only(self):
        # a single mode >= 3: R^2 carries modes {0, 3, 6} only, so F has no
        # content below mode 3 and the k <= 2 moment integrals vanish
        e = StarSet(1.0, a_coeffs=[0, 0, 0.03]).with_measure(np.pi)
        prof = boundary_profile(e, n_grid=1024, n_modes=12)
        assert abs(vanishing_check(prof, 1)) < 1e-10

    def test_cos_mode_nonzero_vs_quadrature(self):
        e = StarSet(1.0, a_coeffs=[0.05])
        prof = boundary_profile(e, n_grid=2048, n_modes=8)
        val = vanishing_check(prof, 1)
        # direct 2-D quadrature oracle on the theta grid
        th = prof.thetas
        f = prof.f_vals
        da, db = np.meshgrid(th, th, indexing="ij")
        kern = 2.0 - 2.0 * np.cos(da - db)
        oracle = float(np.mean(np.outer(f, f) * kern) * (2 * np.pi) ** 2)
        assert val == pytest.approx(oracle, rel=1e-6)
        assert abs(val) > 1e-4

    def test_zero_profile(self):
        prof = boundary_profile(StarSet.unit_disc(), n_grid=256)
        for k in (0, 1, 2):
            assert abs(vanishing_check(prof, k)) < 1e-20

    def test_rejects_bad_k(self):
        prof = boundary_profile(StarSet.unit_disc(), n_grid=64)
        with pytest.raises(DomainError):
            vanishing_check(prof, 3)


class TestSerialization:
    def test_interval_roundtrip(self):
        e = IntervalSet([(0.1, 0.9), (1.5, 2.25)])
        back = set_from_json(set_to_json(e))
        assert back.intervals == e.intervals

    def test_star_roundtrip(self):
        e = StarSet(1.0, [0.01, 0.0, 0.03], [0.02],
                    affine=AffineMap(np.array([[1.1, 0.1], [0.0, 0.9]]),
                                     np.array([0.2, -0.1])))
        back = set_from_json(set_to_json(e))
        assert back.measure == pytest.approx(e.measure, rel=1e-15)
        th = np.linspace(0, 2 * np.pi, 64)
        assert np.allclose(back.radius(th), e.radius(th), atol=1e-15)

    def test_17_digits(self):
        e = IntervalSet([(1 / 3, 2 / 3)])
        doc = json.loads(set_to_json(e))
        assert doc["intervals"][0][0] == pytest.approx(1 / 3, abs=1e-16)
