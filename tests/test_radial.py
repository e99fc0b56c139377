"""Radial kernels: ball transform, K/L profiles, gamma, rho, first variation."""

import math

import numpy as np
import pytest

from felab.errors import ArityError, CapabilityError, DomainError, ThresholdError
from felab.quadrature import QuadratureConfig, integrate_adaptive
from felab.radial_kernels import (
    ball_hat,
    ball_norm_q,
    default_variation_grids,
    exact_kernel_1d,
    first_variation_check,
    gamma_1d_closed_form,
    gamma_qd,
    gamma_qd_detailed,
    kernel_profile,
    kernel_values,
    omega,
    q_threshold,
    rho_d,
)
from felab.spectral import funk_hecke_eigenvalue
from oracles import (
    derivative_at,
    disc_k4,
    empirical_holder_exponent,
    gamma_asymptotic_fit,
    integrate_composite,
    lens_area,
)


class TestBallHat:
    def test_values_at_origin(self):
        assert ball_hat(1, 1e-14) == pytest.approx(2.0, abs=1e-12)
        assert ball_hat(2, 1e-14) == pytest.approx(np.pi, abs=1e-12)
        assert ball_hat(3, 1e-14) == pytest.approx(4 * np.pi / 3, abs=1e-12)

    def test_sinc_zero(self):
        assert ball_hat(1, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_decay_bound(self):
        r = np.linspace(0.01, 200.0, 4001)
        for d in (1, 2, 3):
            vals = np.abs(ball_hat(d, r))
            assert np.all(vals <= omega(d) + 1e-12)
            # |B^| <= C (1+r)^{-(d+1)/2} with a single constant C = 1.1 omega_d
            assert np.all(vals * (1 + r) ** ((d + 1) / 2) < 1.1 * omega(d) + 1.0)

    def test_unsupported_dimension(self):
        with pytest.raises(CapabilityError):
            ball_hat(4, 1.0)

    def test_small_r_expansion_slope(self):
        # B^(r) = omega_d (1 - pi rho_d r^2) + O(r^4)
        for d in (1, 2):
            rd = rho_d(d)
            r = np.logspace(-3, -1, 25)
            resid = np.abs(ball_hat(d, r) - omega(d) * (1 - np.pi * rd * r**2))
            slope = np.polyfit(np.log(r), np.log(resid), 1)[0]
            assert slope > 3.9


class TestRho:
    def test_d2(self):
        assert rho_d(2) == pytest.approx(np.pi / 2, abs=1e-9)

    def test_d1_convention(self):
        # omega_0 = 1 and int_-1^1 s^2 ds = 2/3
        assert rho_d(1) == pytest.approx(2 * np.pi * (1.0 / 2.0) * (2.0 / 3.0), abs=1e-12)


class TestKernel1D:
    def test_even_q_oracle_uniform(self):
        # exact piecewise-polynomial convolution oracle, q in {4, 6}
        for q in (4, 6):
            r = np.linspace(0.0, float(q), 512)
            vals, errs = kernel_values("K", 1, float(q), r)
            oracle = exact_kernel_1d("K", q)(r)
            assert np.max(np.abs(vals - oracle)) < 1e-6

    def test_triangle_profile(self):
        prof = kernel_profile("L", 1, 4.0, r_max=3.0, n_samples=301)
        tri = np.maximum(0.0, 2.0 - np.abs(prof.radii))
        assert np.max(np.abs(prof.values - tri)) < 1e-7

    def test_k4_point_values(self):
        vals, _ = kernel_values("K", 1, 4.0, np.array([0.0, 3.5]))
        assert vals[0] == pytest.approx(3.0, abs=1e-7)
        assert vals[1] == pytest.approx(0.0, abs=1e-7)

    def test_noneven_q_against_brute(self):
        # independent check of the series/tail split at q = 3.2
        q = 3.2
        xs = np.array([0.0, 0.7, 1.3])
        vals, _ = kernel_values("K", 1, q, xs)
        for x, v in zip(xs, vals):
            def f(xi, xx=x):
                body = (np.cos(2 * np.pi * xx * xi) * np.sin(2 * np.pi * xi)
                        * np.abs(np.sin(2 * np.pi * xi)) ** (q - 2)
                        * np.abs(xi) ** (1 - q))
                return np.where(xi > 0, body, (2 * np.pi) ** (q - 1))
            b1 = integrate_composite(f, 1e-14, 2000.0, 600_000).value
            b2 = integrate_composite(f, 1e-14, 2000.0 + 0.25 / max(x, 0.125), 600_000).value
            assert v == pytest.approx(np.pi ** (1 - q) * (b1 + b2), abs=5e-8)

    def test_no_radii(self):
        vals, errs = kernel_values("K", 1, 4.0, np.array([]))
        assert vals.shape == errs.shape == (0,)

    def test_plancherel_l4_mass(self):
        # int L_4 over the support = 4 (triangle area), d = 1
        prof = kernel_profile("L", 1, 4.0, r_max=2.5, n_samples=2001)
        total = 2.0 * np.trapezoid(prof.values, prof.radii)
        assert total == pytest.approx(4.0, abs=1e-5)


    def test_head_memory_bounded(self):
        # the head's cos(2 pi outer(radii, nodes)) in one piece would take
        # 2048 x 2610 doubles (43 MB); swept in row blocks it stays small
        import tracemalloc

        from felab.radial_kernels import _gk15_mesh, _graded_edges
        r = np.linspace(0.0, 6.0, 2048)
        kernel_values("K", 1, 4.0, r[:4])  # build the cached tables first
        tracemalloc.start()
        try:
            vals, _ = kernel_values("K", 1, 4.0, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nodes, _ = _gk15_mesh(_graded_edges(0.0, 1.0, (0.5, 1.0), base=1.0 / 48))
        assert peak < 0.25 * len(r) * len(nodes) * 8
        assert np.max(np.abs(vals - exact_kernel_1d("K", 4)(r))) < 1e-13
        # a radius's value does not depend on the block it falls in
        sub, _ = kernel_values("K", 1, 4.0, r[::97])
        assert np.max(np.abs(sub - vals[::97])) <= 1e-15 * np.max(np.abs(vals))


class TestKernel2D:
    def test_l4_matches_lens(self):
        r = np.linspace(0.0, 4.0, 257)
        vals, errs = kernel_values("L", 2, 4.0, r)
        diff = np.abs(vals - lens_area(r))
        assert np.max(diff) < 5e-5
        assert np.all(diff <= 10 * errs + 1e-9)

    def test_k4_center_value(self):
        # K_4(0) = 2 pi int_0^1 L_4(s) s ds with L_4 the lens area
        cfg = QuadratureConfig(1e-14, 1e-13, 4000)
        oracle = 2 * np.pi * integrate_adaptive(lambda s: lens_area(s) * s, 0, 1, cfg).value
        vals, _ = kernel_values("K", 2, 4.0, np.array([0.0]))
        assert vals[0] == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("r", [0.75, 0.8, 1.0])
    def test_k4_covers_the_gap_before_the_first_zero(self, r):
        # for r >= 0.75 the J_0 zero segments start past the head's end at
        # rho = 40; the piece between them must be integrated too
        vals, errs = kernel_values("K", 2, 4.0, np.array([r]))
        assert abs(vals[0] - disc_k4(r)) <= 10 * errs[0]

    def test_k4_outside_support(self):
        vals, _ = kernel_values("K", 2, 4.0, np.array([3.5]))
        assert abs(vals[0]) < 1e-8


class TestKernel3D:
    def test_l_kernel_memory_bounded(self):
        # L-kind at q = 3.6 cuts the radial integral at 1e8^(1/2.2) ~ 4.3e3:
        # ~1.56e6 mesh nodes, so a one-piece sine matrix would take
        # 16 x 1.56e6 doubles (~200 MB)
        import tracemalloc

        from felab.radial_kernels import _g_radial, _gk15_mesh
        q = 3.6
        r = np.linspace(0.05, 3.0, 16)
        tracemalloc.start()
        try:
            vals, _ = kernel_values("L", 3, q, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        r_cut = 1e8 ** (1.0 / (2.0 * (q - 2.0) - 1.0))
        nodes, weights = _gk15_mesh(np.linspace(0.0, r_cut, int(r_cut * 24) + 1))
        assert peak < 0.25 * len(r) * len(nodes) * 8
        # direct reference, one radius at a time
        base_w = weights * _g_radial("L", 3, q, nodes) * nodes
        ref = np.array([(2.0 / x) * (np.sin(2 * np.pi * (x * nodes)) @ base_w) for x in r])
        assert np.max(np.abs(vals - ref) / np.abs(ref)) < 1e-12


class TestThresholds:
    def test_l_kernel_refuses_at_qd(self):
        with pytest.raises(ThresholdError) as exc:
            kernel_profile("L", 2, 3.0)
        assert exc.value.threshold == pytest.approx(10.0 / 3.0)

    def test_k_kernel_threshold(self):
        with pytest.raises(ThresholdError):
            kernel_profile("K", 1, 2.0)
        assert q_threshold("K", 1) == pytest.approx(2.0)
        assert q_threshold("L", 1) == pytest.approx(3.0)

    def test_gamma_needs_q_above_3(self):
        with pytest.raises(ThresholdError):
            gamma_qd(1, 2.9)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_infinite_exponent_refused(self, d):
        for compute in (gamma_qd_detailed, ball_norm_q,
                        lambda d, q: funk_hecke_eigenvalue(d, q, 3)):
            with pytest.raises(DomainError, match="finite exponent"):
                compute(d, math.inf)


class TestGamma:
    def test_d2_q4(self):
        assert gamma_qd(2, 4.0) == pytest.approx(4.0, abs=1e-8)

    def test_d1_q4_both_ways(self):
        assert gamma_qd(1, 4.0) == pytest.approx(2.0, abs=1e-9)
        assert gamma_1d_closed_form(4.0) == pytest.approx(2.0, abs=1e-9)

    def test_d1_q6_exact_convolution_slope(self):
        oracle = -float(derivative_at(exact_kernel_1d("K", 6), 1.0))
        assert gamma_qd(1, 6.0) == pytest.approx(oracle, abs=1e-8)

    def test_finite_difference_cross_check(self):
        # spectral differentiation against a centered difference of the profile
        q = 6.0
        h = 1e-4
        vals, _ = kernel_values("K", 1, q, np.array([1.0 - h, 1.0 + h]))
        fd = -(vals[1] - vals[0]) / (2 * h)
        assert gamma_qd(1, q) == pytest.approx(fd, abs=1e-5)

    def test_gamma_equals_l_gap_identity(self):
        # K = L * 1_B in d = 1 gives gamma = L(0) - L(2)
        for q in (3.6, 5.0):
            v, _ = kernel_values("L", 1, q, np.array([0.0, 2.0]))
            assert gamma_qd(1, q) == pytest.approx(v[0] - v[1], abs=1e-8)

    def test_q_continuity(self):
        qs = np.array([3.9, 3.95, 4.0, 4.05, 4.1])
        gs = np.array([gamma_qd(2, q) for q in qs])
        assert np.max(np.abs(np.diff(gs))) < 0.2
        assert gs[2] == pytest.approx(4.0, abs=1e-8)

    def test_positivity(self):
        for d, q in [(1, 3.5), (1, 4.0), (2, 3.6), (2, 4.0), (3, 4.0)]:
            assert gamma_qd(d, q) > 0


class TestFirstVariation:
    def test_d1_q4(self):
        inner, outer = default_variation_grids(1, 4.0)
        res = first_variation_check(1, 4.0, inner, outer)
        assert res.satisfied
        assert res.margin > 0

    def test_d2_q4(self):
        inner, outer = default_variation_grids(2, 4.0, n=64)
        res = first_variation_check(2, 4.0, inner, outer)
        assert res.satisfied
        assert res.margin > 0

    def test_d1_low_q_reports(self):
        # open regime 2 < q < 3: record, never hard-assert
        inner, outer = default_variation_grids(1, 3.2, n=64)
        res = first_variation_check(1, 3.2, inner, outer)
        assert isinstance(res.satisfied, bool)
        assert np.isfinite(res.margin)

    def test_empty_grid(self):
        with pytest.raises(ArityError):
            first_variation_check(1, 4.0, [], [1.5])


class TestAsymptoticFit:
    @pytest.mark.slow
    def test_slopes(self):
        fit1 = gamma_asymptotic_fit(1, [20.0, 30.0, 40.0, 60.0])
        assert abs(fit1["slope"] + 1.5) < 0.1
        fit2 = gamma_asymptotic_fit(2, [20.0, 30.0, 40.0, 60.0])
        assert abs(fit2["slope"] + 2.0) < 0.1

    def test_arity(self):
        with pytest.raises(ArityError):
            gamma_asymptotic_fit(1, [20.0])


class TestProfileObject:
    def test_csv_roundtrip(self):
        prof = kernel_profile("L", 1, 4.0, r_max=2.0, n_samples=32)
        text = prof.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "radius,value,error"
        assert len(lines) == 33
        parsed = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(parsed[:, 0], prof.radii)
        assert np.array_equal(parsed[:, 1], prof.values)

    def test_tail_below_error_scale(self):
        # even q: compact support, the tail sits inside the error bound;
        # non-integer q: only algebraic decay ~ r^-(q-1) is available, so the
        # tail is checked against that envelope instead
        prof4 = kernel_profile("L", 1, 4.0, r_max=4.0, n_samples=128)
        assert abs(prof4.values[-1]) <= 10 * max(prof4.errors[-1], 1e-12)
        prof = kernel_profile("L", 1, 4.5, r_max=6.0, n_samples=256)
        envelope = 4.0 * abs(prof.values[0]) * (1 + prof.r_max) ** (-(prof.exponent - 1))
        assert abs(prof.values[-1]) <= max(10 * prof.errors[-1], envelope)

    def test_interpolation(self):
        prof = kernel_profile("L", 1, 4.0, r_max=3.0, n_samples=601)
        r = np.array([0.33, 1.77])
        assert np.allclose(prof(r), np.maximum(0.0, 2.0 - r), atol=1e-6)

    def test_holder_report(self):
        prof = kernel_profile("L", 1, 4.0, r_max=3.0, n_samples=257)
        expo = empirical_holder_exponent(prof)
        assert 0.5 < expo <= 1.5


class TestBallNorm:
    def test_d1_q4_triangle(self):
        # ||B^||_4^4 = ||1_B * 1_B||_2^2 = 16/3
        res = ball_norm_q(1, 4.0)
        assert res.value == pytest.approx(16.0 / 3.0, abs=1e-9)

    def test_d2_q4_lens(self):
        # = int_R2 L_4(x)^2 dx = 2 pi int_0^2 lens(r)^2 r dr
        cfg = QuadratureConfig(1e-14, 1e-13, 4000)
        oracle = 2 * np.pi * integrate_adaptive(
            lambda s: lens_area(s) ** 2 * s, 0.0, 2.0, cfg).value
        res = ball_norm_q(2, 4.0)
        assert res.value == pytest.approx(oracle, abs=1e-8)


class TestPinnedHeadTail:
    """Head-plus-periodic-tail integrals at exponents the closed-form tests
    miss: value, error estimate and converged flag pinned to 1e-13."""

    @pytest.mark.parametrize("d, q, value, err, converged", [
        (1, 3.5, 2.2301291935585006, 5.65878611602569e-07, False),
        (2, 5.3, 10.29776245978743, 3.311945372022284e-11, True),
        (3, 4.4, 8.559328546146801, 2.353791490824201e-10, True),
    ])
    def test_gamma(self, d, q, value, err, converged):
        res = gamma_qd_detailed(d, q)
        assert res.value == pytest.approx(value, rel=1e-13)
        assert res.error_estimate == pytest.approx(err, rel=1e-13)
        assert res.converged is converged

    def test_gamma_1d_closed_form(self):
        assert gamma_1d_closed_form(3.5) == pytest.approx(2.2301291949465063, rel=1e-13)

    @pytest.mark.parametrize("d, q, value, err", [
        (1, 3.0, 3.077277910258819, 4.0373440997826836e-11),
        (3, 3.3, 11.37347148437444, 1.3596269386735383e-09),
    ])
    def test_ball_norm(self, d, q, value, err):
        res = ball_norm_q(d, q)
        assert res.value == pytest.approx(value, rel=1e-13)
        assert res.error_estimate == pytest.approx(err, rel=1e-13)
        assert res.converged


class TestPinnedKernels:
    """Kernel values and error estimates off the even-q oracles, where the
    series is numerical: pinned to 1e-13 relative."""

    @pytest.mark.parametrize("kind, d, q, values, errors", [
        ("K", 1, 3.81, [2.699107519702967, 2.4722838278288086, 1.2402187996714658],
         [3.8871109321267137e-10, 3.864428562939298e-10, 3.7412220601235636e-10]),
        ("L", 1, 4.5, [2.4122915942606893, 2.020507018450928, 1.031862853059689],
         [3.813650224635489e-09, 3.809732378877391e-09, 3.799845937223479e-09]),
        ("L", 2, 4.2, [3.402054947229826, 2.549141822302449, 0.9324180762048548],
         [7.248379361793862e-07, 2.58248123902105e-08, 1.6013271173579212e-08]),
    ])
    def test_values(self, kind, d, q, values, errors):
        vals, errs = kernel_values(kind, d, q, np.array([0.0, 0.5, 1.3]))
        assert vals == pytest.approx(values, rel=1e-13)
        assert errs == pytest.approx(errors, rel=1e-13)
