"""Circle spectrum, Funk-Hecke eigenvalues, mode margins."""

import tracemalloc

import numpy as np
import pytest
from scipy import special

from felab import spectral
from felab.errors import DomainError, ThresholdError
from felab.quadrature import QuadratureConfig, integrate_adaptive, radial_head_tail
from felab.radial_kernels import _ball_hat_zeros, ball_hat, gamma_qd, kernel_profile, kernel_values
from felab.set_model import IntervalSet, StarSet, boundary_profile
from felab.spectral import (
    _bessel_rows,
    funk_hecke_eigenvalue,
    funk_hecke_eigenvalues,
    mode_margins,
)
from oracles import (
    CircleProfile,
    circle_coeff,
    circle_coeff_from_profile,
    sphere_reduced_prediction,
)


def closed_form(n):
    return 2 / (np.pi * n * n) if n % 2 else 2 / (np.pi * (n * n - 1))


class TestCircleCoeff:
    def test_closed_forms(self):
        for n in range(1, 21):
            assert circle_coeff(4.0, n) == pytest.approx(closed_form(n), abs=1e-10)

    def test_mode_zero_against_double_integral(self):
        # Lhat(0) = Q(1,1)/(4 pi^2) with Q the double integral of the lens
        lens = lambda r: np.where(r < 2, 2 * (np.arccos(np.minimum(r, 2) / 2)
                                               - (r / 2) * np.sqrt(np.maximum(0, 1 - r**2 / 4))), 0.0)
        th = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        vals = lens(np.sqrt(2 - 2 * np.cos(th)))
        oracle = float(np.mean(vals) * 2 * np.pi) * 2 * np.pi / (4 * np.pi**2)
        assert circle_coeff(4.0, 0) == pytest.approx(oracle, abs=1e-6)

    def test_threshold(self):
        with pytest.raises(ThresholdError):
            circle_coeff(3.2, 1)

    def test_profile_route_agrees(self):
        kern = kernel_profile("L", 2, 4.0, r_max=2.2, n_samples=1200)
        for n in (1, 2, 5):
            assert circle_coeff_from_profile(kern, n) == pytest.approx(
                circle_coeff(4.0, n), abs=1e-5)


class TestFunkHecke:
    def test_d2_reduction(self):
        for k in (0, 1, 4, 9):
            assert funk_hecke_eigenvalue(2, 4.0, k) == pytest.approx(
                2 * np.pi * circle_coeff(4.0, k), rel=1e-12)

    def test_closed_values(self):
        assert funk_hecke_eigenvalue(2, 4.0, 3) == pytest.approx(4 / 9, abs=1e-10)
        assert funk_hecke_eigenvalue(2, 4.0, 4) == pytest.approx(4 / 15, abs=1e-10)

    def test_d1_from_kernel_gap(self):
        vals, _ = kernel_values("L", 1, 4.0, np.array([0.0, 2.0]))
        assert funk_hecke_eigenvalue(1, 4.0, 0) == pytest.approx(vals[0] + vals[1], abs=1e-9)
        assert funk_hecke_eigenvalue(1, 4.0, 1) == pytest.approx(vals[0] - vals[1], abs=1e-9)

    @pytest.mark.slow
    def test_d3_k0_against_gegenbauer_route(self):
        # lambda_0 = 2 pi int_{-1}^1 L(sqrt(2-2t)) dt, via t = cos(u)
        lam = funk_hecke_eigenvalue(3, 4.0, 0)
        us = np.linspace(0, np.pi, 801)
        lv, _ = kernel_values("L", 3, 4.0, 2 * np.sin(us / 2))
        oracle = 2 * np.pi * np.trapezoid(lv * np.sin(us), us)
        assert lam == pytest.approx(oracle, rel=2e-4)

    @pytest.mark.parametrize("d, q, k, value", [
        (2, 5.7, 7, 0.004678618798379378),
        (3, 4.2, 2, 2.2345686578443207),
    ])
    def test_pinned(self, d, q, k, value):
        # head-plus-periodic-tail eigenvalues off the closed-form exponents;
        # abs=0, or pytest's default abs = 1e-12 would be 2e-10 relative at 4.7e-3
        assert funk_hecke_eigenvalue(d, q, k) == pytest.approx(value, rel=1e-13, abs=0)

    def test_eigenvalues_real_positive_small_k(self):
        for d, q in ((2, 3.6), (2, 4.0), (3, 4.0)):
            for k in (0, 1, 2):
                lam = funk_hecke_eigenvalue(d, q, k)
                assert np.isfinite(lam) and lam > 0


def _lambda_integrand(d, q, orders):
    """g(rho) rho J_nu(2 pi rho)^2 for each order, through scipy's jv."""
    def f(rho):
        g = np.abs(ball_hat(d, rho)) ** (q - 2.0)
        jj = special.jv(np.reshape(orders, (-1,) + (1,) * np.ndim(rho)), 2 * np.pi * rho)
        return np.where(rho > 0, g * rho, 0.0) * jj**2
    return f


class TestBesselRows:
    """The Funk-Hecke Bessel rows against mpmath at 30 digits."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("ks", [np.arange(13), np.arange(161), np.array([40]),
                                    np.array([160])], ids=["0-12", "0-160", "40", "160"])
    def test_against_mpmath(self, d, ks):
        mpmath = pytest.importorskip("mpmath")
        split = (d - 2) / 2 + ks[-1] + 20.0  # the forward recurrence runs past it
        # x = 0 exactly; at 1e-8 and 1e-3 Miller's values pass the rescale
        # threshold; points across (0, split]; then either side of the split
        x = np.concatenate([[0.0, 1e-8, 1e-3], np.linspace(0.0, split, 10)[1:],
                            [split * (1 - 1e-12), split * (1 + 1e-12), split + 2.0]])
        with mpmath.workdps(30):
            ref = [[float(mpmath.besselj(mpmath.mpf(d - 2) / 2 + k, mpmath.mpf(t)))
                    for t in x.tolist()] for k in ks.tolist()]
        rows = _bessel_rows(d, ks, x.reshape(3, -1))
        assert rows.shape == (len(ks), 3, x.size // 3)
        assert np.max(np.abs(rows.reshape(len(ks), -1) - ref)) <= 2e-15


class TestBatch:
    @pytest.mark.parametrize("d, q, n", [(2, 4.0, 28), (2, 5.7, 12), (3, 4.2, 10)])
    def test_matches_single_mode(self, d, q, n):
        lams = funk_hecke_eigenvalues(d, q, n)
        assert lams.shape == (n + 1,)
        single = [funk_hecke_eigenvalue(d, q, k) for k in range(n + 1)]
        assert np.max(np.abs(lams - single)) <= 2e-13

    # int g(rho) rho J_k(2 pi rho)^2 over [z, inf), q = 3.6, k = 0..24, from
    # z = 24.6246..., the last zero of J_1(2 pi rho) below 25: segments between
    # consecutive zeros, 8 GK15 panels each (the kinks of g on panel edges),
    # 2^15 segments and the abscissa extrapolation, which moves by < 2e-16
    # from 2^13 segments on; 16 panels a segment move it by < 2e-12 / 4 pi^2
    TAIL_3_6 = [
        1.973560346846332e-05, 5.130849040307201e-05, 1.973403471066714e-05,
        5.130999882401478e-05, 1.9755399092353738e-05, 5.126089698922311e-05,
        1.987774060192762e-05, 5.10576669268511e-05, 2.02290418849708e-05,
        5.054987537782416e-05, 2.0978813963194516e-05, 4.9554273364259824e-05,
        2.2316362429680324e-05, 4.78861220343347e-05, 2.4408152365035316e-05,
        4.5414264184145123e-05, 2.7330212588320128e-05, 4.213976172353457e-05,
        3.098207984577543e-05, 3.8283078550642146e-05, 3.500781111722455e-05,
        3.434248987916785e-05, 3.877309920056931e-05, 3.106516345856563e-05,
        4.146148180292442e-05]

    def test_near_threshold_against_kink_split_head(self):
        # lambda_0..24 at q = 3.6 against a reference split at every zero of
        # B^: the head adaptive with jv between consecutive zeros up to z, the
        # tail above.  A tail started off the zeros (at rho = 25) misses it by
        # 1.6e-6; one GK15 panel a period against the |t|^1.6 kinks of g, with
        # the measured rule error removed, leaves under 2e-10
        q, n = 3.6, 24
        f = _lambda_integrand(2, q, np.arange(n + 1))
        zeros = special.jn_zeros(1, 80) / (2 * np.pi)
        edges = np.concatenate([[0.0], zeros[zeros < 25.0]])
        head = sum(integrate_adaptive(f, a, b, QuadratureConfig(1e-17, 1e-15),
                                      max_subdivisions=20000).value
                   for a, b in zip(edges[:-1], edges[1:]))
        reference = 4 * np.pi**2 * (head + np.array(self.TAIL_3_6))
        assert np.max(np.abs(funk_hecke_eigenvalues(2, q, n) - reference)) <= 5e-10

    def test_identical_columns_reproduce_scalar_bits(self):
        # 40 columns: the periodic tail sweeps its last doublings in chunks, and
        # on the graded mesh cut at the zeros of B^ (~1,800 panels) so does the head
        q = 3.7
        scalar = _lambda_integrand(2, q, 3.0)
        for zeros, kink in ([25.0], None), (_ball_hat_zeros(2, 25.0), q - 2.0):
            res = radial_head_tail(lambda rho: scalar(rho)[0], zeros, 1.5 * (q - 2.0), 1e-15, kink)
            batch = radial_head_tail(lambda rho: np.repeat(scalar(rho), 40, axis=0),
                                     zeros, 1.5 * (q - 2.0), 1e-15, kink)
            assert isinstance(res.value, float) and batch.value.shape == (40,)
            assert np.all(batch.value == res.value)
            assert np.all(batch.error_estimate == res.error_estimate)
            assert np.all(batch.converged == res.converged)

    def test_memory_flat_in_mode_count(self):
        tracemalloc.start()
        try:
            spec = mode_margins(2, 4.0, 160)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        assert spec.worst_mode == 4 and len(spec.modes) == 161

    def test_memory_of_one_high_mode(self):
        # one stored row: all ~860 Miller rows on the ~2,000 head nodes of one
        # integrand call would take 14 MB
        tracemalloc.start()
        try:
            lam = funk_hecke_eigenvalue(2, 4.0, 400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6
        # 2 pi Lhat(400) = 4/(400^2 - 1); the head-plus-tail integral reports 2.4e-9
        assert lam == pytest.approx(4 / (400**2 - 1), abs=2.4e-9)

    def test_d1_alternates(self):
        lams = funk_hecke_eigenvalues(1, 4.0, 3)
        assert lams[0] == lams[2] == funk_hecke_eigenvalue(1, 4.0, 0)
        assert lams[1] == lams[3] == funk_hecke_eigenvalue(1, 4.0, 1)

    def test_refusals(self):
        with pytest.raises(DomainError):
            funk_hecke_eigenvalues(2, 4.0, -1)
        with pytest.raises(ThresholdError):
            funk_hecke_eigenvalues(2, 3.2, 4)
        with pytest.raises(DomainError, match="float range"):
            funk_hecke_eigenvalues(2, 700.0, 4)

    def test_integral_float_degrees(self):
        assert funk_hecke_eigenvalue(2, 4.0, 2.0) == funk_hecke_eigenvalue(2, 4.0, 2)
        assert np.array_equal(funk_hecke_eigenvalues(2, 4.0, 3.0), funk_hecke_eigenvalues(2, 4.0, 3))
        assert mode_margins(2, 4.0, 4.0).to_csv() == mode_margins(2, 4.0, 4).to_csv()

    def test_non_integral_degrees_refused_before_integrating(self, monkeypatch):
        def integrate(*args, **kwargs):
            raise AssertionError("integrated a non-integral degree")
        for name in ("radial_head_tail", "gamma_qd", "kernel_values"):
            monkeypatch.setattr(spectral, name, integrate)
        calls = (lambda: funk_hecke_eigenvalue(2, 4.0, 2.5), lambda: funk_hecke_eigenvalue(1, 4.0, 2.5),
                 lambda: funk_hecke_eigenvalues(2, 4.0, 3.5), lambda: mode_margins(2, 4.0, 4.5),
                 lambda: funk_hecke_eigenvalue(2, 4.0, float("nan")))
        for call in calls:
            with pytest.raises(DomainError, match="integer"):
                call()


class TestModeMargins:
    @pytest.fixture(scope="class")
    def spec42(self):
        return mode_margins(2, 4.0, 12)

    def test_affine_neutrality(self, spec42):
        m1, m2 = spec42.modes[1], spec42.modes[2]
        assert m1.combined == pytest.approx(m2.combined, abs=1e-9)
        assert m1.margin == pytest.approx(0.0, abs=1e-9)
        assert m2.margin == pytest.approx(0.0, abs=1e-9)

    def test_worst_mode_is_4(self, spec42):
        assert spec42.worst_mode == 4
        assert spec42.worst_margin == pytest.approx(32 / 5, abs=1e-8)

    def test_stability_constant(self, spec42):
        assert spec42.stability_constant == pytest.approx(8 / (5 * np.pi), abs=1e-9)

    def test_gamma_positive_across_q(self):
        for d, q in ((1, 3.5), (1, 4.0), (1, 6.0), (2, 3.6), (2, 4.0), (2, 4.4)):
            assert gamma_qd(d, q) > 0

    def test_q_sweep_margins_continuous(self):
        vals = []
        for q in (3.8, 3.9, 4.0, 4.1, 4.2):
            spec = mode_margins(2, q, 8)
            assert spec.worst_margin > 0
            vals.append(spec.stability_constant)
        assert np.max(np.abs(np.diff(vals))) < 0.2
        assert vals[2] == pytest.approx(8 / (5 * np.pi), abs=1e-9)

    def test_d3_q4_reported(self):
        # the computation the source analysis left open: record the outcome
        spec = mode_margins(3, 4.0, 10)
        print(f"d=3 q=4 worst margin: {spec.worst_margin:.6f} at n={spec.worst_mode}, "
              f"stability {spec.stability_constant:.6f}")
        assert np.isfinite(spec.worst_margin)

    def test_csv_shape(self, spec42):
        lines = spec42.to_csv().strip().split("\n")
        assert lines[0] == "n,ell_hat,combined,margin"
        assert len(lines) == 15
        assert lines[-1].startswith("gamma,")


class TestCircleProfile:
    def test_wraps_kernel(self):
        kern = kernel_profile("L", 2, 4.0, r_max=2.2, n_samples=600)
        prof = CircleProfile(kern)
        th = np.array([0.0, np.pi / 2, np.pi])
        lens = lambda r: np.where(r < 2, 2 * (np.arccos(np.minimum(r, 2) / 2)
                                               - (r / 2) * np.sqrt(np.maximum(0, 1 - r**2 / 4))), 0.0)
        # theta = pi sits at the r = 2 resonance where the sampled profile
        # carries its largest (honestly reported) error
        assert np.allclose(prof(th), lens(np.sqrt(2 - 2 * np.cos(th))), atol=5e-5)
        assert np.allclose(prof(th), prof(-th), atol=1e-12)  # even

    def test_kind_check(self):
        kern = kernel_profile("K", 2, 4.0, r_max=2.0, n_samples=64)
        with pytest.raises(DomainError):
            CircleProfile(kern)


class TestSphereReduced:
    def test_ball_zero(self):
        prof = boundary_profile(IntervalSet([(-1.0, 1.0)]))
        assert sphere_reduced_prediction(prof, 1, 4.0) == 0.0

    def test_translation_neutral_d1(self):
        prof = boundary_profile(IntervalSet([(-1 + 0.04, 1 + 0.04)]))
        val = sphere_reduced_prediction(prof, 1, 4.0)
        assert abs(val) < 1e-10  # gamma term cancels against the L terms exactly

    def test_single_mode_negative_d2(self):
        e = StarSet(1.0, a_coeffs=[0, 0, 0.02]).with_measure(np.pi)
        prof = boundary_profile(e, n_grid=1024, n_modes=16)
        val = sphere_reduced_prediction(prof, 2, 4.0)
        assert val < 0
        # magnitude should be close to the per-mode margin times ||F||^2
        f2 = float(np.mean(prof.f_vals**2) * 2 * np.pi)
        spec = mode_margins(2, 4.0, 8)
        margin3 = next(m.margin for m in spec.modes if m.n == 3)
        assert val == pytest.approx(-margin3 * f2, rel=0.2)
