"""Set representations, distances, boundary profiles, balancing."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from felab.errors import DomainError, InvalidSetError
from felab.set_model import (
    AffineMap,
    IntervalSet,
    StarSet,
    _ellipse_overlap,
    _moment_ellipse,
    _positive_on_circle,
    _signed_pieces,
    balance,
    boundary_profile,
    dist_to_ellipsoids,
    set_from_json,
    set_to_json,
    symdiff_measure,
    vanishing_check,
)
from oracles import (
    deviation_from_identity,
    ellipse_ray_overlap,
    integral_f,
    radius_about_origin_bisection,
)


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


# unions of up to eight intervals, overlapping ones merged
UNIONS = st.lists(st.tuples(st.floats(-10, 10), st.floats(1e-3, 5)), min_size=1,
                  max_size=8).map(lambda ivs: IntervalSet([(l, l + w) for l, w in ivs]))


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

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(e1=UNIONS, e2=UNIONS)
    def test_signed_pieces_measure(self, e1, e2):
        # the pieces of E1 \ E2 (+1) and E2 \ E1 (-1) against the measures
        left, right, sign = _signed_pieces(e1.endpoints(), e2.endpoints())
        meet = sum(e1.intersect_measure(l, r) for l, r in e2.intervals)
        assert np.all(right > left) and set(sign) <= {-1.0, 1.0}
        assert np.sum(right - left) == pytest.approx(e1.measure + e2.measure - 2 * meet,
                                                     abs=1e-12)
        assert sign @ (right - left) == pytest.approx(e1.measure - e2.measure, abs=1e-12)

    def test_grid_fallback(self):
        # disjoint sets, each star origin outside the other set: no arc of
        # either boundary lies in the other, and the measure is exact
        far = StarSet(0.5, affine=AffineMap(np.eye(2), np.array([3.0, 0.0])))
        assert symdiff_measure(StarSet.unit_disc(), far) == np.pi + np.pi * 0.25

    def test_disc_lens(self):
        # two unit discs s apart: 2 pi minus twice the closed-form lens
        for s in np.linspace(0.05, 1.95, 39):
            lens = 2 * math.acos(s / 2) - s / 2 * math.sqrt(4 - s * s)
            moved = StarSet(1.0, affine=AffineMap(np.eye(2), np.array([s, 0.0])))
            exact = 2 * np.pi - 2 * lens
            assert abs(symdiff_measure(StarSet.unit_disc(), moved) - exact) <= 1e-14

    def test_shared_boundary(self):
        # a set against itself, and the disc against a rotated copy: the
        # boundaries coincide, and each arc counts once
        e = next(star_candidates(5, 1))
        rot = AffineMap(np.array([[0.6, -0.8], [0.8, 0.6]]), np.zeros(2))
        assert symdiff_measure(e, e) <= 1e-14
        assert symdiff_measure(StarSet.unit_disc(), StarSet.unit_disc().apply(rot)) <= 1e-14

    def test_star_pair_against_fine_rays(self):
        # dilated base bodies, star-shaped about the origin: |r1^2 - r2^2| / 2
        # over 65,536 rays, whose kinks at the crossings leave an O(h^2) bias
        theta = np.arange(65536) * (2 * np.pi / 65536)
        sets = list(star_candidates(6, 8))
        for e1, e2 in zip(sets[::2], sets[1::2]):
            r1, r2 = (math.sqrt(e.affine.det) * e.radius(theta) for e in (e1, e2))
            rays = np.pi * np.mean(np.abs(r1**2 - r2**2))
            assert symdiff_measure(e1, e2) == pytest.approx(rays, abs=(2 * np.pi / 65536) ** 2)


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

    def test_affine_invariance_d2(self):
        # the fit runs on the base body, which every affine image shares
        e = next(star_candidates(9, 1))
        base = dist_to_ellipsoids(e).distance
        rng = np.random.default_rng(4)
        for _ in range(20):
            lin = rng.normal(0.0, 0.6, (2, 2)) + np.eye(2)
            lin[:, 0] *= np.sign(np.linalg.det(lin))  # a positive determinant
            img = e.apply(AffineMap(lin, rng.uniform(-2, 2, 2)))
            assert abs(dist_to_ellipsoids(img).distance - base) <= 1e-12

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


def fit_params(e, fit):
    """(cx, cy, psi, phi) of ``fit.best`` on E's base body scaled to area pi."""
    scale = math.sqrt(e.measure / e.affine.det / np.pi)
    lin = np.linalg.solve(e.affine.matrix, fit.best.matrix) / scale
    m = (np.linalg.solve(e.affine.matrix, fit.best.translation - e.affine.translation)
         - e.center) / scale
    return np.array([m[0], m[1], 2 * math.log(math.hypot(lin[0, 0], lin[1, 0])),
                     math.atan2(lin[1, 0], lin[0, 0])])


def base_body(e):
    scale = math.sqrt(e.measure / e.affine.det / np.pi)
    return StarSet(e.c0 / scale, e.a_coeffs / scale, e.b_coeffs / scale)


class TestEllipseFit:
    """The exact fit is no worse than the Nelder-Mead ray fit it replaced:
    these are the exact distances at that fit's ellipses."""

    NELDER_MEAD = [
        0.015935485803188876, 0.008175276436770159, 0.017689524779408477, 0.005102150305625591,
        0.017150523530582388, 0.03361619347539564, 0.01842267511031061, 0.011060217790934013,
        0.01391654523898566, 0.009775377929903364, 0.007118958753184343, 0.016921720914203842,
        0.028736986242751988, 0.03150984057535558, 0.003116853000601464, 0.02347655511809243,
        0.011261471892128136, 0.023878999186571992, 0.01797667576433141, 0.008962040499977121,
        0.01962815922097465, 0.014501062034254006, 0.026017134642398437, 0.023375472740733975,
        0.01505347251465968, 0.007312821344933224, 0.028394772214871477, 0.015795067032577558,
        0.01126450781276677, 0.014974610518375765, 0.016676058117277386, 0.015403396435380634,
        0.013713456973956392, 0.0023068392922266025, 0.0434511814154264, 0.019413977441284314,
        0.00834474866782406, 0.016096703140539036, 0.008120448125810892, 0.008661234693240443,
    ]

    def test_star_candidates_no_worse(self):
        for e, pinned in zip(star_candidates(2024, 40), self.NELDER_MEAD):
            fit = dist_to_ellipsoids(e)
            assert fit.converged
            assert fit.distance <= pinned + 1e-12

    def test_criterion_8_base_set_no_worse(self):
        e2 = StarSet(1.0, a_coeffs=[0.0, 0.05, 0.03]).with_measure(np.pi)
        fit = dist_to_ellipsoids(e2)
        assert fit.converged
        assert fit.distance <= 0.037913904995849755 + 1e-12

    def test_best_map_is_the_fitted_ellipse(self):
        e = next(star_candidates(7, 1))
        fit = dist_to_ellipsoids(e)
        ell = StarSet.unit_disc().apply(fit.best)
        assert ell.measure == pytest.approx(e.measure, rel=1e-12)
        assert symdiff_measure(e, ell) / e.measure == pytest.approx(fit.distance, abs=1e-12)

    def test_gradient_matches_central_differences(self):
        # Hadamard's gradient against the overlap's central differences, a
        # step off the moment ellipse (the optimum's gradient is zero)
        h = 1e-6
        for e in star_candidates(12, 40):
            body = base_body(e)
            x = _moment_ellipse(body) + [0.01, -0.02, 0.05, 0.1]
            grad = _ellipse_overlap(body, x)[1]
            diff = [(_ellipse_overlap(body, x + h * step)[0][0]
                     - _ellipse_overlap(body, x - h * step)[0][0]) / (2 * h) for step in np.eye(4)]
            assert np.max(np.abs(grad - diff)) <= 1e-6 * np.max(np.abs(grad))

    def test_overlap_matches_fine_rays(self):
        # at the optimum, the exact overlap against a 65,536-ray mean and its
        # O(h^2) kink bias; the distance is that overlap's
        h = 2 * np.pi / 65536
        for e in star_candidates(41, 8):
            fit = dist_to_ellipsoids(e)
            body, x = base_body(e), fit_params(e, fit)
            exact = _ellipse_overlap(body, x)[0][0]
            assert 2 * (1 - exact / np.pi) == pytest.approx(fit.distance, abs=1e-14)
            assert abs(exact - ellipse_ray_overlap(body, x, 65536)) <= h * h
            assert fit.error <= 1e-13


class TestStarValidity:
    # r = 1 + a cos(n theta) with minima between the 720 samples, -0.0012
    # and -0.011: the slope bound refines the samples until one is negative
    @pytest.mark.parametrize("amp, n", [(1.00122, 16), (1.00122, 32), (1.0112, 48)])
    def test_negative_between_samples(self, amp, n):
        with pytest.raises(InvalidSetError, match="positive"):
            StarSet(1.0, a_coeffs=[0.0] * (n - 1) + [amp])

    def test_ordinary_sets_certify_on_their_samples(self):
        def refine(theta):
            raise AssertionError("refined")

        theta = np.arange(720) * (2 * np.pi / 720)
        for e in star_candidates(3, 20):
            assert _positive_on_circle(refine, e.derivative_bound(1), e.radius(theta)) is True


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

    def test_residual_reads_the_boundary_profile(self):
        # the 20 seeded sets of criterion 13: the residual is the largest
        # degree-1 or degree-2 moment 2 sqrt(pi) |Re, Im F_hat[n]|, n = 1, 2,
        # of the balanced set's profile
        rng = np.random.default_rng(13)
        for _ in range(20):
            eps = rng.uniform(0.01, 0.05)
            decay = 1.0 / (1.0 + np.arange(1, 7)) ** 2
            a = rng.normal(0.0, eps, 6) * decay
            b = rng.normal(0.0, eps, 6) * decay
            res = balance(StarSet(1.0, a, b).with_measure(np.pi), max_iter=8, tol=1e-9)
            f_hat = boundary_profile(res.balanced_set, n_grid=1024, n_modes=2).f_hat[1:]
            moments = 2 * math.sqrt(np.pi) * np.abs(np.concatenate([f_hat.real, f_hat.imag]))
            assert res.residual == np.max(moments)

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
