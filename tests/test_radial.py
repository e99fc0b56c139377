"""Radial kernels: ball transform, K/L profiles, gamma, rho, first variation."""

import math
import sys

import numpy as np
import pytest
from scipy import special

from felab import functional, quadrature, radial_kernels, spectral
from felab.errors import ArityError, CapabilityError, DomainError, ThresholdError
from felab.quadrature import DEFAULT_CONFIG, QuadratureConfig, gk15_sums, integrate_adaptive
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
from felab.radial_kernels import _power_tail, _series
from felab.set_model import StarSet
from felab.spectral import funk_hecke_eigenvalue
from oracles import (
    SplineKernel,
    a0_tail_aitken,
    a0_tail_mpmath,
    derivative_at,
    disc_k4,
    disc_kernel_k,
    disc_kernel_l,
    disc_norm_band,
    empirical_holder_exponent,
    gamma_asymptotic_fit,
    gk15_kernel_sum,
    graded_kernel_sum,
    integrate_composite,
    k2_to_120,
    lens_area,
    m1_squared,
    seeded_star4,
    shifted_set,
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

    @pytest.mark.parametrize("d", [2, 3])
    def test_small_r_to_rounding(self, d):
        # (sin x - x cos x) / x^3 loses 1e-16 / x^2 relative to cancellation;
        # |B^|^q multiplies that by q, and |B^|^150 peaks near r = 0.03
        mpmath = pytest.importorskip("mpmath")
        r = np.logspace(-6.0, -0.5, 60)
        with mpmath.workdps(40):
            xs = [2 * mpmath.pi * mpmath.mpf(float(s)) for s in r]
            exact = [float(2 * mpmath.pi * mpmath.besselj(1, x) / x if d == 2
                           else 4 * mpmath.pi * (mpmath.sin(x) - x * mpmath.cos(x)) / x**3)
                     for x in xs]
        assert np.max(np.abs(ball_hat(d, r) / exact - 1.0)) <= 4e-15


class TestBallHatZeros:
    @staticmethod
    def tan_roots(n):
        # the roots of tan x = x, i.e. of sin x - x cos x, in (k pi, (k + 1/2) pi)
        from scipy.optimize import brentq
        return np.array([brentq(lambda x: np.sin(x) - x * np.cos(x), k * np.pi, (k + 0.5) * np.pi,
                                xtol=1e-15) for k in range(1, n + 1)])

    @pytest.mark.parametrize("rho", [3.3, 20.0, 25.0])
    def test_against_reference_zeros(self, rho):
        refs = {1: np.arange(1, 2 * rho + 1) / 2.0,
                2: special.jn_zeros(1, 60) / (2 * np.pi),
                3: self.tan_roots(60) / (2 * np.pi),
                4: special.jn_zeros(2, 60) / (2 * np.pi)}
        for d, ref in refs.items():
            ref = ref[ref <= rho]
            zeros = radial_kernels._ball_hat_zeros(d, rho)
            assert zeros.shape == ref.shape
            assert np.max(np.abs(zeros - ref) / ref) <= 1e-14

    @pytest.mark.parametrize("d, last_20, last_25", [
        (1, 20.0, 25.0),
        (2, 19.624515983595106, 24.624614260459804),
        (3, 19.748717397842004, 24.748976525485133),
        (4, 19.872610090809214, 24.87309054929982),
    ])
    def test_last_zero_unchanged(self, d, last_20, last_25):
        # the single last zero every radial tail started from before
        assert radial_kernels._ball_hat_zeros(d, 20.0)[-1] == last_20
        assert radial_kernels._ball_hat_zeros(d, 25.0)[-1] == last_25


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

    @pytest.mark.parametrize("kind", ["K", "L"])
    @pytest.mark.parametrize("q", [4.0, 6.0])
    def test_every_accepted_radius_within_its_error(self, kind, q):
        # the head keeps four GK15 nodes a period of cos(2 pi r xi) up to
        # r = 96 / (4 x 0.2078) = 115.5, with the resonance at r = 96 inside
        # (two periods a panel); past that it is refused
        r = np.concatenate([np.linspace(0.0, 115.5, 2001), np.linspace(95.5, 96.5, 101)])
        vals, errs = kernel_values(kind, 1, q, r)
        assert np.all(np.abs(vals - exact_kernel_1d(kind, q)(r)) <= errs)
        for far in (115.51, 144.0, 1e300):
            with pytest.raises(DomainError, match="resolve radii up to 115.5"):
                kernel_values(kind, 1, q, np.array([0.0, far]))

    def test_exact_kernel_vanishes_past_its_support(self):
        # summing the truncated-power events there used to leave -1.4e-9 at r = 100
        assert np.all(exact_kernel_1d("K", 6)(np.array([5.0, 20.0, 100.0, 1e9])) == 0.0)

    def test_exact_kernel_takes_an_integral_float(self):
        r = np.linspace(0.0, 5.0, 11)
        assert np.array_equal(exact_kernel_1d("K", 4.0)(r), exact_kernel_1d("K", 4)(r))
        for q in (4.4, 4.5, 5.0):
            with pytest.raises(DomainError, match="even integer"):
                exact_kernel_1d("L", q)

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

    @pytest.mark.parametrize("kind", ["K", "L"])
    @pytest.mark.parametrize("q", [3.6, 3.81, 4.5, 5.37])
    def test_series_against_gamma_formula(self, kind, q):
        # (2/pi) int_0^pi sin^mu u sin(ju) du = 2 sin(j pi/2) Gamma(mu+1)
        #   / (2^mu Gamma((mu+j)/2+1) Gamma((mu-j)/2+1)),  mu = q-1 (K);
        # (2/pi) int_0^pi sin^nu u cos(2mu) du = 2 (-1)^m Gamma(nu+1)
        #   / (2^nu Gamma(nu/2+m+1) Gamma(nu/2-m+1)),  nu = q-2 (L; half at m = 0)
        mpmath = pytest.importorskip("mpmath")
        freqs, coeffs, _ = _series(kind, q)
        with mpmath.workdps(30):
            s = mpmath.mpf(q - 1.0 if kind == "K" else q - 2.0)
            pref = 2 * mpmath.gamma(s + 1) / mpmath.mpf(2) ** s
            if kind == "K":
                ref = [pref * mpmath.sinpi(mpmath.mpf(j) / 2) * mpmath.rgamma((s + j) / 2 + 1)
                       * mpmath.rgamma((s - j) / 2 + 1) for j in freqs.tolist()]
            else:
                ref = [pref * (-1) ** (f // 2) * mpmath.rgamma(s / 2 + f // 2 + 1)
                       * mpmath.rgamma(s / 2 - f // 2 + 1) / (2 if f == 0 else 1)
                       for f in freqs.tolist()]
            ref = np.array([float(r) for r in ref])
        # 400 recurrence steps round to 2e-14 relative here
        assert np.all(np.abs(coeffs - ref) <= 1e-13 * np.abs(ref))

    @pytest.mark.parametrize("q", [3.5, 4.5])
    def test_antiderivative_against_gauss_legendre(self, q):
        # Kbar(x) = int_0^x K: 40-point Gauss-Legendre on the kernel values,
        # panels of at most 1/8, graded toward the odd integers, where K has
        # its |r - k|^{q-2} kinks
        x = np.array([0.3, 0.999, 1.0, 1.001, 2.5, 3.0, 4.2])
        [(kbar, cut)] = radial_kernels._kernel_values_1d(q, ("K", 1, x))
        nodes, weights = np.polynomial.legendre.leggauss(40)
        graded = (np.array([1.0, 3.0, 5.0])[:, None]
                  + np.r_[0.0, 0.125 * 0.5 ** np.arange(1, 40), -0.125 * 0.5 ** np.arange(1, 40)])
        for xx, got in zip(x, kbar):
            edges = np.unique(np.r_[np.arange(0.0, xx, 0.125), graded[graded < xx], xx])
            mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
            u = (mid[:, None] + half[:, None] * nodes).ravel()
            ref = np.repeat(half, 40) * np.tile(weights, len(half)) @ kernel_values("K", 1, q, u)[0]
            assert abs(got - ref) <= 3e-13 + cut

    def test_no_radii(self):
        vals, errs = kernel_values("K", 1, 4.0, np.array([]))
        assert vals.shape == errs.shape == (0,)

    def test_plancherel_l4_mass(self):
        # int L_4 over the support = 4 (triangle area), d = 1
        prof = kernel_profile("L", 1, 4.0, r_max=2.5, n_samples=2001)
        total = 2.0 * np.trapezoid(prof.values, prof.radii)
        assert total == pytest.approx(4.0, abs=1e-5)


    def test_head_memory_bounded(self, monkeypatch):
        # the head's cos(2 pi outer(radii, nodes)) in one piece would take
        # 2048 x 704 doubles (11.5 MB) on its 22 16-point panels a zero segment
        # at r <= 96 (two a segment at the warm-up's r <= 0.15, where g's peak sets
        # them); swept in row blocks it stays small
        import tracemalloc

        swept = []
        inner = radial_kernels.kink_mesh

        def spy(*args):
            nodes, weights = inner(*args)
            swept.append(len(nodes))
            return nodes, weights

        monkeypatch.setattr(radial_kernels, "kink_mesh", spy)
        r = np.linspace(0.0, 96.0, 2048)
        kernel_values("K", 1, 4.0, r[:4])  # warm up first
        tracemalloc.start()
        try:
            vals, _ = kernel_values("K", 1, 4.0, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert swept == [64, 704]
        assert peak < 0.25 * len(r) * swept[-1] * 8
        assert np.max(np.abs(vals - exact_kernel_1d("K", 4)(r))) < 1e-13
        # a radius's value does not depend on the block it falls in
        sub, _ = kernel_values("K", 1, 4.0, r[::97])
        assert np.max(np.abs(sub - vals[::97])) <= 1e-15 * np.max(np.abs(vals))


class TestPowerTail:
    """E(c) = int_1^inf xi^{-s} e^{ic xi} dxi is E_s(-ic), returned as e^{-ic} E(c):
    mpmath is the oracle."""

    @pytest.mark.parametrize("s", [1.0001, 1.05, 1.5, 2.0, 2.81, 3.0, 4.4, 7.0, 20.0, 59.0])
    def test_against_expint(self, s):
        # small c at large s is where the cap T <= e^{40/(s-1)} matters:
        # without it the head's rule errs by 1e-8 at s = 59, c = 1e-3
        mpmath = pytest.importorskip("mpmath")
        c = np.concatenate([[0.0], np.logspace(-6, 4, 50), -np.logspace(-6, 4, 50),
                            [1.999, -1.999, 2.001, -2.001]])
        ref = np.array([complex(mpmath.exp(-1j * x) * mpmath.expint(s, -1j * x)) for x in c])
        assert np.max(np.abs(_power_tail(s, c) - ref) / np.abs(ref)) <= 1e-12

    @pytest.mark.parametrize("s", [1.0 + 1e-12, 1.0001, 2.0, 59.0, 1000.0])
    def test_extreme_frequencies(self, s):
        # |c| = 5e-324 puts T at e^745: near s = 1 the head's rule still
        # spans only the last 40 in log xi
        mpmath = pytest.importorskip("mpmath")
        c = np.array([5e-324, -1e-300, 1e-40, 1e-20, 1e300, -1e300])
        ref = np.array([complex(mpmath.exp(-1j * x) * mpmath.expint(s, -1j * x)) for x in c])
        assert np.max(np.abs(_power_tail(s, c) - ref) / np.abs(ref)) <= 1e-12

    def test_unconverged_fraction_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_CF_TERMS", 4)
        with pytest.raises(DomainError, match="continued fraction"):
            _power_tail(2.5, np.array([3.0]))

    @pytest.mark.parametrize("s", [1.5, 2.81, 4.0, 6.0])
    def test_small_entries_leave_the_rest_alone(self, s):
        # c = 0 and the |c| < 2 entries sort last, so the |c| >= 2 entries are
        # bit-identical whether or not they share the call
        big = np.concatenate([2 * np.pi * np.linspace(0.4, 900.0, 500), [2.0, -2.0, 1e300]])
        small = np.array([0.0, 1e-300, -1e-30, 1e-13, 0.3, -1.999])
        alone = _power_tail(s, big)
        mixed = _power_tail(s, np.concatenate([small, big, small]))
        assert np.array_equal(mixed[len(small):-len(small)], alone)
        assert np.array_equal(mixed[:len(small)], mixed[-len(small):])

    @pytest.mark.parametrize("s", [2.81, 2.5])
    def test_kernel_lattice(self, s):
        # the d = 1 kernels' c = 2 pi (j +- x), j <= 801, x up to the 115.5
        # bound, zeros included (j = x), at the K exponent of q = 3.81 and the
        # L exponent of q = 4.5
        mpmath = pytest.importorskip("mpmath")
        j = np.array([0, 1, 2, 3, 7, 96, 115, 116, 400, 801])
        x = np.array([0.0, 0.3, 1.0, 4.7, 95.99, 115.5])
        c = (2 * np.pi * (j[:, None, None] + np.array([1, -1])[:, None] * x)).ravel()
        ref = np.array([complex(mpmath.exp(-1j * v) * mpmath.expint(s, -1j * v)) for v in c])
        assert np.max(np.abs(_power_tail(s, c) - ref) / np.abs(ref)) <= 1e-12


class TestSeriesCut:
    """The d = 1 kernels keep the fewest series terms whose dropped rest, the
    part past the table included, is bounded by 1e-13, and report that bound."""

    @staticmethod
    def tail_shapes(monkeypatch):
        shapes = []
        inner = radial_kernels._power_tail

        def spy(s, c):
            shapes.append(np.shape(c))
            return inner(s, c)

        monkeypatch.setattr(radial_kernels, "_power_tail", spy)
        return shapes

    @staticmethod
    def extended_series(kind, q, top):
        # the table's recurrence carried on to frequency `top`
        freqs, coeffs, _ = _series(kind, q)
        s = q - 1.0 if kind == "K" else q - 2.0
        f = np.arange(freqs[-1] + 2, top + 1, 2)
        ratio = -(s + 2.0 - f) / (s + f) if kind == "K" else (f / 2 - 1.0 - s / 2) / (f / 2 + s / 2)
        return np.concatenate([freqs, f]), np.concatenate([coeffs, coeffs[-1] * np.cumprod(ratio)])

    @pytest.mark.parametrize("kind", ["K", "L"])
    @pytest.mark.parametrize("q", [3.62, 3.81, 4.7, 6.5])
    def test_bound_covers_the_dropped_terms(self, kind, q, monkeypatch):
        shapes = self.tail_shapes(monkeypatch)
        radii = np.linspace(0.0, 115.5, 12)
        vals, errs = kernel_values(kind, 1, q, radii)
        bound = errs - 1e-11 * (1.0 + np.abs(vals))
        assert np.all(bound <= 1e-13) or shapes[0][-2] == len(_series(kind, q)[0])
        s = q - 1.0 if kind == "K" else q - 2.0
        pref, part, top = 2.0 * np.pi ** -s, (np.imag if kind == "K" else np.real), 20001
        f, b = self.extended_series(kind, q, top)
        f, b = f[shapes[0][-2]:], b[shapes[0][-2]:]  # the terms the kernel did not sum
        for x, most in zip(radii, bound):
            c = 2 * np.pi * np.stack([f + x, f - x])
            dropped = pref * abs(b @ (0.5 * part(np.exp(1j * c) * _power_tail(s, c)).sum(0)))
            # past `top`: sum |b_f| <= |b_top| top / s, each |E| <= 1 / (pi (f - x))
            rest = pref * abs(b[-1]) * top / s / (np.pi * (top - x))
            assert dropped + rest <= most

    def test_k_table_rest_is_exact(self, monkeypatch):
        # past j = 801 the |b_j| telescope: their sum is |b_801| (801 - mu) / (2 mu),
        # mu = q - 1, which the recurrence carried to j = 2e6 matches; at
        # K(1, 3.81) that lets the cut keep 355 of the 401 frequencies
        q = 3.81
        freqs, _, trunc = _series("K", q)
        _, b = self.extended_series("K", q, 2_000_001)
        assert trunc == pytest.approx(np.sum(np.abs(b[len(freqs):])), rel=1e-9, abs=0)
        shapes = self.tail_shapes(monkeypatch)
        kernel_values("K", 1, q, np.array([0.0, 0.5, 1.3]))
        assert shapes[0][-2] == 355

    def test_pairs_sent_to_the_tail(self, monkeypatch):
        # the whole table would send 2 x 401 x 256 = 205,312 (frequency, radius) pairs
        shapes = self.tail_shapes(monkeypatch)
        kernel_values("K", 1, 4.7, np.linspace(1.0, 4.7, 256))
        assert 0 < sum(math.prod(shape) for shape in shapes) <= 0.4 * 205_312


class TestKernel2D:
    def test_l4_matches_lens(self):
        r = np.linspace(0.0, 4.0, 257)
        vals, errs = kernel_values("L", 2, 4.0, r)
        diff = np.abs(vals - lens_area(r))
        assert np.max(diff) < 5e-5
        assert np.all(diff <= 10 * errs + 1e-9)

    def test_k4_center_value(self):
        # K_4(0) = 2 pi int_0^1 L_4(s) s ds with L_4 the lens area
        cfg = QuadratureConfig(1e-14, 1e-13)
        oracle = 2 * np.pi * integrate_adaptive(lambda s: lens_area(s) * s, 0, 1, cfg,
                                                max_subdivisions=4000).value
        vals, _ = kernel_values("K", 2, 4.0, np.array([0.0]))
        assert vals[0] == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("r", [0.75, 0.8, 1.0])
    def test_k4_covers_the_gap_before_the_first_zero(self, r):
        # near r = 1, where the first harmonic of g beats slowly against J_0
        # and the tail past the mesh is largest
        vals, errs = kernel_values("K", 2, 4.0, np.array([r]))
        assert abs(vals[0] - disc_k4(r)) <= 10 * errs[0]

    def test_k4_within_its_error(self):
        # every radius lies within its estimate of the triple self-convolution
        # of the disc, and the estimates are not pessimistic (the largest is
        # 5.6 x the largest miss): 256 radii k / 64, ROADMAP item 2's three,
        # and radii off that grid, near the beats at r = 1 and 3 and near 0
        r = np.r_[np.linspace(0.0, 4.0, 257)[1:], 0.95, 1.004, 2.9,
                  np.linspace(0.0, 4.0, 200)[1::13], 1.0 + 1e-4, 3.0 - 1e-3, 1e-5]
        vals, errs = kernel_values("K", 2, 4.0, r)
        miss = np.abs(vals - np.array([disc_k4(x) for x in r]))
        assert np.all(miss <= errs)
        assert np.max(miss[:259]) <= 2e-9
        assert np.max(errs) <= 1e3 * np.max(miss)

    @pytest.mark.parametrize("q", [3.5, 3.8])
    def test_non_even_q_within_its_error(self, q):
        # against Gauss-Legendre between the zeros of J_1 to rho = 800, whose
        # own cut error is taken as its move from 400; on radii k / 32, and on a
        # grid off them with points near the beats at r = 1 and 3
        r = np.r_[np.linspace(0.0, 4.0, 129)[1:], np.linspace(0.0, 4.0, 200)[1:],
                  1.0 + 1e-4, 3.0 - 1e-3, 1e-5]
        ref = disc_kernel_k(q, r, 800.0)
        spread = np.abs(ref - disc_kernel_k(q, r, 400.0))
        vals, errs = kernel_values("K", 2, q, r)
        miss = np.abs(vals - ref)
        assert np.all(miss <= errs + spread)
        assert np.max(errs) <= 1e3 * np.max(miss)

    def test_l4_within_its_error(self):
        # every radius lies within its estimate of the lens area, and the
        # estimates are not pessimistic: 200 radii of (0, 4], radii near 0 and
        # near the beat at r = 2, and a fine grid across that beat
        r = np.r_[np.linspace(0.0, 4.0, 201)[1:], 0.001, 0.01, 0.05, 1.99, 2.01,
                  np.linspace(1.3, 2.7, 561)]
        vals, errs = kernel_values("L", 2, 4.0, r)
        miss = np.abs(vals - lens_area(r))
        assert np.all(miss <= errs)
        assert np.max(errs) <= 1e3 * np.max(miss)

    @pytest.mark.parametrize("q", [3.5, 3.8, 4.2, 4.6])
    def test_l_non_even_q_within_its_error(self, q):
        # against Gauss-Legendre between the zeros of J_1 to rho = 1600, whose
        # own cut error is taken as its move from 800; on radii k / 20 and near
        # the beats at r = 1, 2 and 4.  Below r = 0.05 that reference has not
        # converged
        r = np.r_[np.linspace(0.05, 4.2, 84), 1.0 + 1e-4, 2.0 - 1e-3, 2.0 + 1e-3, 4.0 - 1e-3]
        ref = disc_kernel_l(q, r, 1600.0)
        spread = np.abs(ref - disc_kernel_l(q, r, 800.0))
        vals, errs = kernel_values("L", 2, q, r)
        miss = np.abs(vals - ref)
        assert np.all(miss <= errs + spread)
        assert np.max(errs) <= 1e3 * np.max(miss)

    def test_k4_outside_support(self):
        vals, _ = kernel_values("K", 2, 4.0, np.array([3.5]))
        assert abs(vals[0]) < 1e-8


class TestKernelHeads:
    """The d = 2 and d = 3 kernel meshes are cut at the zeros of B^, the
    |t|^{q-2} kinks of g: at non-even q each head matches a mesh of 32 equal
    GK15 panels a zero segment on the same [0, end]."""

    @pytest.mark.parametrize("kind, d, q", [
        ("K", 2, 3.5), ("K", 2, 3.7), ("L", 2, 4.2), ("K", 3, 3.7), ("L", 3, 6.6)])
    def test_against_fine_zero_segments(self, kind, d, q, monkeypatch):
        heads = []
        inner = radial_kernels._radial_sum

        def spy(*args):
            out = inner(*args)
            heads.append((args, out.copy()))  # the d = 2 kernels add their tails in place
            return out

        monkeypatch.setattr(radial_kernels, "_radial_sum", spy)
        kernel_values(kind, d, q, np.linspace(0.3, 4.0, 38))
        [((_, _, _, radii, cuts, _), head)] = heads
        end = cuts[-1]
        zeros = radial_kernels._ball_hat_zeros(d, end)
        assert np.array_equal(cuts, np.unique(np.r_[0.0, zeros, end]))
        fine = np.r_[(cuts[:-1, None] + np.diff(cuts)[:, None] * np.arange(32) / 32).ravel(), end]
        assert np.max(np.abs(head - gk15_kernel_sum(kind, d, q, radii, fine))) <= 1e-10


class TestKernelMeshAccuracy:
    """Every kernel mesh sum against a GK15 mesh 8 times as fine on the same cuts,
    graded toward each zero of B^ until the last panel holds ~2^-56 of its
    segment's kink mass (``oracles.graded_kernel_sum``): within 1e-12 (1 + max |v|).
    GK15 end panels 1/24 of a zero segment wide, ungraded, missed it at L(2, 3.4)
    by 6e-11 (1 + max |v|)."""

    @staticmethod
    def sums(monkeypatch, run):
        got = []
        inner = radial_kernels._radial_sum

        def spy(*args):
            out = inner(*args)
            got.append((args, out.copy()))
            return out

        monkeypatch.setattr(radial_kernels, "_radial_sum", spy)
        run()
        return got

    @pytest.mark.parametrize("kind, d, q, n", [
        ("L", 2, 3.4, 33), ("K", 2, 5.4, 33), ("L", 2, 6.0, 33), ("K", 3, 3.7, 33),
        ("L", 3, 3.6, 5), ("K", 1, 3.81, 33), ("L", 1, 4.5, 33), ("K", 2, 3.5, 33)])
    def test_kernels(self, kind, d, q, n, monkeypatch):
        r = np.linspace(0.0, max(q, 4.0), n)[1:]
        [((_, _, _, radii, cuts, *_), head)] = self.sums(
            monkeypatch, lambda: kernel_values(kind, d, q, r))
        ref = graded_kernel_sum(kind, d, q, radii, cuts)
        assert np.max(np.abs(head - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))

    @pytest.mark.parametrize("kind, d, q, r_max", [
        ("K", 1, 20.0, 4.0), ("L", 2, 20.0, 1.0), ("K", 3, 40.5, 4.0),
        ("L", 1, None, 4.0), ("K", 2, None, 4.0), ("L", 3, None, 4.0)])
    def test_narrow_peaks(self, kind, d, q, r_max, monkeypatch):
        # the peaks of g ~ |B^|^a narrow like 1 / sqrt(a) at any radius; None is
        # q just below the float-range bound (q ~ 1025, 621, 497)
        if q is None:
            q = (1.0 + math.log(sys.float_info.max) / math.log(omega(d))) * (1.0 - 1e-12)
        r = np.linspace(0.0, r_max, 17)[1:]
        [((_, _, _, radii, cuts, *_), head)] = self.sums(
            monkeypatch, lambda: kernel_values(kind, d, q, r))
        ref = graded_kernel_sum(kind, d, q, radii, cuts)
        assert np.max(np.abs(head - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))

    @pytest.mark.parametrize("q", [3.5, 4.37])
    def test_d1_antiderivatives(self, q, monkeypatch):
        # the expansion terms' first and second antiderivatives in r share the head
        x, t = np.linspace(0.0, 2.2, 23), np.linspace(0.01, 4.4, 23)
        got = self.sums(monkeypatch, lambda: radial_kernels._kernel_values_1d(
            q, ("K", 1, x), ("L", 2, t)))
        assert [args[6] for args, _ in got] == [1, 2]
        for (kind, d, _, radii, cuts, _, order), head in got:
            ref = graded_kernel_sum(kind, d, q, radii, cuts, order)
            assert np.max(np.abs(head - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))


class TestMeshRefusal:
    @pytest.mark.parametrize("kind, d, bound", [
        ("K", 2, "57.75"), ("L", 2, "28.88"), ("K", 3, "57.75"), ("L", 3, "57.75")])
    def test_refused_past_the_end_panels(self, kind, d, bound):
        # the d = 2 and 3 meshes keep four GK15 nodes a period of w_d up to
        # the bound of their 1/24-wide end panels (1/12 for L in d = 2)
        with pytest.raises(DomainError, match=f"resolve radii up to {bound}"):
            kernel_values(kind, d, 4.5, np.array([0.5, 70.0]))


class TestA0Tail:
    """The a_0 part of the d = 2 L kernel past the mesh, in closed form: Hankel's
    expansion of J_0 times M_1's to the power q - 2, one power tail a term, and a
    head graded in log rho where 2 pi r rho < 30."""

    Z = radial_kernels._ball_hat_zeros(2, 160.0)[-1]
    # oracles.a0_tail_mpmath at 25 digits
    MPMATH = {
        (3.5, 1e-5): "0.4889992797001054811487", (3.5, 1e-3): "0.04324475202423290144579",
        (3.5, 0.0165): "-0.0001147689059444748637758", (3.5, 0.5): "0.00001157562438253162751906",
        (3.5, 2.0): "-0.000001107408642601861867184",
        (4.2, 1e-5): "0.0002558763167270345297808", (4.2, 1e-3): "0.00007860536225062610041329",
        (4.2, 0.0165): "-4.457954081856916247814e-7", (4.2, 0.5): "2.184180571349540823524e-8",
        (4.2, 2.0): "-2.090312957975035747834e-9",
    }

    @pytest.mark.parametrize("q, r", sorted(MPMATH))
    def test_against_mpmath(self, q, r):
        # miss <= estimate <= 10^3 max(miss, 1e-15 |tail|), ROADMAP item 2's rule
        mpmath = pytest.importorskip("mpmath")
        value, error = radial_kernels._a0_tail(q, np.array([r]), self.Z)
        ref = mpmath.mpf(self.MPMATH[q, r])
        miss = abs(float(mpmath.mpf(float(value[0])) - ref))
        assert miss <= error[0] <= 1e3 * max(miss, 1e-15 * abs(float(ref)))

    def test_mpmath_reference(self):
        # the pinned references come from oracles.a0_tail_mpmath, whose M_1^2
        # expansion matches mpmath's J_1^2 + Y_1^2 from 2 pi Z on
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for x in (2 * mpmath.pi * self.Z, mpmath.mpf(5000), mpmath.mpf(1e5)):
                exact = mpmath.pi * x * (mpmath.besselj(1, x) ** 2 + mpmath.bessely(1, x) ** 2) / 2
                assert abs(m1_squared(x) - exact) <= mpmath.mpf(1e-27)
        ref = a0_tail_mpmath(4.2, 0.0165, self.Z)
        assert abs(ref / mpmath.mpf(self.MPMATH[4.2, 0.0165]) - 1) <= 1e-20

    @pytest.mark.parametrize("q", [3.5, 4.0, 4.21, 6.6])
    def test_within_the_aitken_estimate(self, q):
        # where 2 pi r Z >= 30 the closed form lies within the per-radius Aitken
        # tail's estimate of its value, on the benchmark's radius grid
        r = np.linspace(0.0, max(q, 4.0), 256)[1:]
        r = r[2 * np.pi * r * self.Z >= 30.0]
        value, _ = radial_kernels._a0_tail(q, r, self.Z)
        ref, ref_err = a0_tail_aitken(q, r, self.Z)
        assert np.all(np.abs(value - ref) <= ref_err)

    @pytest.mark.parametrize("q", [3.5, 4.0])
    def test_small_r_error_is_the_harmonic_bound(self, q):
        # the Aitken tail's estimate was up to 10^3 x the harmonic bound here
        # (0.18 against 7.7e-4 at q = 3.5, r = 1e-6); the closed form's error and
        # the mesh's are now within 1e-12 (1 + |v|) of the bound and the slack
        r = np.array([1e-6, 1e-5, 1e-4])
        vals, errs = kernel_values("L", 2, q, r)
        bound = radial_kernels._harmonic_tail_bound("L", q, r, self.Z)
        assert np.all(errs <= bound + (radial_kernels._KERNEL_SLACK + 1e-12) * (1.0 + np.abs(vals)))

    def test_small_r_head_leaves_the_mesh_sum_alone(self, monkeypatch):
        # the graded head of radii with 2 pi r Z < 30 is its own GK15 sum: the L
        # kernel makes one _radial_sum call, as TestKernelHeads reads it
        calls = []
        inner = radial_kernels._radial_sum
        monkeypatch.setattr(radial_kernels, "_radial_sum", lambda *a: calls.append(a) or inner(*a))
        vals, errs = kernel_values("L", 2, 4.2, np.array([1e-300, 1e-5, 0.01, 0.5]))
        assert len(calls) == 1
        assert np.all(np.isfinite(vals)) and np.all(np.isfinite(errs))

    @pytest.mark.parametrize("q", [3.34, 4.2, 12.0])
    def test_tiny_radii_stay_finite(self, q):
        # the head stops where the envelope's mass past it is eps of its mass
        # past Z (or at rho = e^700), and what it drops is in the error
        value, error = radial_kernels._a0_tail(q, np.array([5e-324, 1e-300]), self.Z)
        assert np.all(np.isfinite(value)) and np.all(np.isfinite(error)) and np.all(error >= 0)


class TestKMeshEnd:
    """The d = 2 K mesh ends at the first zero of B^ past 40 that the tail bound
    at 120 predicts to clear a tenth of the slack, if its own bound confirms it."""

    @staticmethod
    def radii(q):
        return np.r_[np.linspace(0.0, max(q, 4.0), 512)[1:], 1.0 + 1e-4, 3.0 - 1e-3, 1e-5]

    @pytest.mark.parametrize("q", [5.4, 6.0])
    def test_ends_below_120_within_its_error(self, q, monkeypatch):
        ends = []
        inner = radial_kernels._radial_sum
        monkeypatch.setattr(radial_kernels, "_radial_sum",
                            lambda *a: ends.append(a[4][-1]) or inner(*a))
        r = self.radii(q)
        vals, errs = kernel_values("K", 2, q, r)
        assert 40.0 < ends[0] < 120.0
        assert np.max(radial_kernels._harmonic_tail_bound("K", q, r, ends[0])) <= 1e-12
        full, _ = k2_to_120(q, r)
        assert np.all(np.abs(vals - full) <= errs)

    def test_short_mesh_within_its_error_of_the_disc_kernel(self):
        # TestKernel2D::test_non_even_q_within_its_error's check at q = 5.4, where
        # the mesh ends short of rho = 120.  Its second clause, errors <= 10^3 x the
        # largest miss, fails here before and after the short mesh: the fixed
        # slack 1e-11 (1 + |K|) is 2.2e-10 at K(0) = 20.6, the misses <= 1.7e-13
        q = 5.4
        r = np.r_[np.linspace(0.0, 4.0, 129)[1:], np.linspace(0.0, 4.0, 200)[1:],
                  1.0 + 1e-4, 3.0 - 1e-3, 1e-5]
        ref = disc_kernel_k(q, r, 800.0)
        spread = np.abs(ref - disc_kernel_k(q, r, 400.0))
        vals, errs = kernel_values("K", 2, q, r)
        assert np.all(np.abs(vals - ref) <= errs + spread)

    @pytest.mark.parametrize("q", [3.5, 4.0, 4.6])
    def test_unchanged_where_the_bound_stays_above(self, q):
        r = self.radii(q)
        vals, errs = kernel_values("K", 2, q, r)
        full, bound = k2_to_120(q, r)
        assert np.array_equal(vals, full)
        assert np.array_equal(errs, bound + radial_kernels._KERNEL_SLACK * (1.0 + np.abs(full)))


class TestKernel3D:
    def test_l_kernel_memory_bounded(self):
        # L-kind at q = 3.6 cuts the radial integral at 1e8^(1/2.2) ~ 4.3e3:
        # one 16-point panel on each of ~8,700 zero segments at r <= 3, ~1.4e5
        # mesh nodes, so a one-piece sine matrix for 46 radii would take 46 x
        # 1.4e5 doubles (~51 MB)
        import tracemalloc

        from felab.quadrature import kink_mesh, kink_rules
        from felab.radial_kernels import _PERIODS, _ball_hat_zeros, _g_radial
        q = 3.6
        r = np.linspace(0.05, 3.0, 46)
        tracemalloc.start()
        try:
            vals, _ = kernel_values("L", 3, q, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        r_cut = 1e8 ** (1.0 / (2.0 * (q - 2.0) - 1.0))
        cuts = np.r_[0.0, _ball_hat_zeros(3, r_cut), r_cut]
        m = np.ceil(np.diff(cuts) * r.max() / _PERIODS)
        nodes, weights = kink_mesh(cuts, (cuts > 0) & (cuts < r_cut), m, kink_rules(q - 2.0))
        assert peak < 0.25 * len(r) * len(nodes) * 8
        # direct reference on the kernel's own nodes, one radius at a time
        base_w = weights * _g_radial("L", 3, q, nodes) * nodes
        ref = np.array([(2.0 / x) * (np.sin(2 * np.pi * (x * nodes)) @ base_w) for x in r[::3]])
        assert np.max(np.abs(vals[::3] - ref) / np.abs(ref)) < 1e-12

    @pytest.mark.parametrize("r", [0.3, 0.9, 1.5, 1.9])
    def test_l4_matches_lens_volume(self, r):
        # L_4 = |B cap (B + x)| = pi (4 + r) (2 - r)^2 / 12 for r <= 2
        vals, errs = kernel_values("L", 3, 4.0, np.array([r]))
        assert abs(vals[0] - np.pi * (4.0 + r) * (2.0 - r) ** 2 / 12.0) <= errs[0]

    def test_small_values_keep_absolute_slack(self):
        # where |L| ~ 1e-6 the mesh sum still rounds at the scale of L(0) = 46
        r = np.linspace(0.0, 6.6, 256)[1:]
        vals, errs = kernel_values("L", 3, 6.6, r)
        small = np.abs(vals) < 1e-4
        assert np.any(small)
        assert np.all(errs >= 1e-11)


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

    @pytest.mark.parametrize("kind", ["K", "L"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_peak_beyond_float_range_refused(self, kind, d):
        with pytest.raises(DomainError, match="float range"):
            kernel_values(kind, d, 1e300, np.array([0.0, 1.0]))
        # just below the bound (q ~ 1025, 621, 497) the values stay finite
        q = (1.0 + math.log(sys.float_info.max) / math.log(omega(d))) * (1.0 - 1e-12)
        vals, errs = kernel_values(kind, d, q, np.linspace(0.0, 4.0, 9))
        assert np.all(np.isfinite(vals)) and np.all(np.isfinite(errs))
        assert vals[0] > 1e300

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gamma_and_spectrum_peak_beyond_float_range_refused(self, d):
        # just above the bound (q ~ 1025, 621, 497)
        q = (1.0 + math.log(sys.float_info.max) / math.log(omega(d))) * (1.0 + 1e-12)
        with pytest.raises(DomainError, match="float range"):
            gamma_qd_detailed(d, q)
        with pytest.raises(DomainError, match="float range"):
            funk_hecke_eigenvalue(d, q, 3)

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
        for d, q in [(1, 3.5), (1, 4.0), (2, 3.6), (2, 4.0), (3, 4.0), (4, 4.0)]:
            assert gamma_qd(d, q) > 0

    @pytest.mark.parametrize("q", [150.0, 300.0])
    def test_large_q_against_mpmath(self, q):
        # rho^{1-d(q-2)/2} |J|^q once overflowed to inf x 0 near rho = 0 here;
        # past the first zero of J_1, |B^| / pi < 0.14, so three lobes carry
        # all but a 0.14^q part of 4 pi^2 int rho^3 |B^|^q
        mpmath = pytest.importorskip("mpmath")
        zeros = [0] + [mpmath.besseljzero(1, k) / (2 * mpmath.pi) for k in (1, 2, 3)]
        ref = 4 * mpmath.pi**2 * mpmath.quad(
            lambda r: r**3 * abs(mpmath.besselj(1, 2 * mpmath.pi * r) / r) ** q, zeros)
        res = gamma_qd_detailed(2, q)
        assert res.converged
        assert abs(res.value - ref) <= 1e-8 * ref


class TestCalibration:
    """Error estimates against exact values: actual <= estimate <= 10^3 x
    max(actual, 1e-15 |value|), and a periodic tail that stops early."""

    @staticmethod
    def check(value, estimate, exact):
        actual = abs(value - exact)
        assert actual <= estimate <= 1e3 * max(actual, 1e-15 * abs(exact))

    @pytest.mark.parametrize("d, exact", [(1, 2.0), (2, 4.0)])
    def test_gamma_at_4(self, d, exact):
        res = gamma_qd_detailed(d, 4.0)
        self.check(res.value, res.error_estimate, exact)

    @pytest.mark.parametrize("q", [3.7, 4.234, 5.3])
    def test_gamma_1d_against_closed_form(self, q):
        res = gamma_qd_detailed(1, q)
        self.check(res.value, res.error_estimate, gamma_1d_closed_form(q))

    def test_eigenvalues_at_4(self):
        res = spectral._lambda_radial(2, 4.0, np.array([3, 4]))
        for value, estimate, exact in zip(res.value, res.error_estimate, (4 / 9, 4 / 15)):
            self.check(value, estimate, exact)

    def test_ball_norm_d1_q4(self):
        res = ball_norm_q(1, 4.0)
        self.check(res.value, res.error_estimate, 16.0 / 3.0)

    @pytest.mark.parametrize("kind, d, exact", [
        ("L", 2, np.pi), ("L", 3, 4.0 * np.pi / 3.0), ("K", 3, 5.0 * np.pi**2 / 6.0)])
    def test_kernel_at_zero_at_4(self, kind, d, exact):
        # L_4(0) = |B| and K_4(0) = int_B |B cap (B + x)| dx
        vals, errs = kernel_values(kind, d, 4.0, np.array([0.0]))
        self.check(vals[0], errs[0], exact)

    @pytest.mark.parametrize("d, q, exact, tol", [
        (2, 4.2, 3.40205474564131, 1e-11), (3, 3.6, 8.27414621936, 5e-6),
        (2, 3.4, 9.32343658296, 5e-6)])
    def test_l_kernel_at_zero(self, d, q, exact, tol):
        # L_q(0) = ||B^||_{q-2}^{q-2}.  References: Gauss-Legendre on panels
        # between the zeros of B^, graded toward each zero (the kinks of
        # |B^|^{q-2}), out to X = 2^13 periods, plus the closed-form leading
        # tail C^a (2 pi)^{-a(d+1)/2} <|cos|^a> X^{1-p} / (p-1), a = q - 2,
        # C = (2 pi)^{d/2} sqrt(2/pi); 2^13 and 2^16 periods agree to 1.2e-11
        vals, _ = kernel_values("L", d, q, np.array([0.0]))
        assert abs(vals[0] - exact) <= tol

    @pytest.mark.parametrize("q", [3.0, 3.5, 4.0, 5.0])
    def test_planar_tail_disc(self, q):
        # the stationary-phase tail of the disc on [3, 45] and [15, 45] against
        # radial J_1 integrals
        e = StarSet.unit_disc()
        uphi = functional._half_circle(e)
        _, t45, e45, _ = functional._planar_tail(e, uphi, q, DEFAULT_CONFIG, 45.0)
        for cut in (3.0, 15.0):
            _, tail, err, route = functional._planar_tail(e, uphi, q, DEFAULT_CONFIG, cut)
            assert route == "polar_stationary_phase_2d"
            self.check(tail - t45, err + e45, disc_norm_band(q, cut, 45.0))

    @pytest.mark.parametrize("q", [3.5, 4.0, 6.0])
    def test_planar_tail_stars(self, q):
        # against the cut-45 polar mesh, summed panel by panel past each of its
        # panel edges X in [3, 4), [6, 7) and [15, 16), each about two periods
        # of the tail's beat: each estimate covers its miss, and in each band
        # none passes 10^3 times the largest miss (a single X can sit at a zero
        # of the miss)
        for e in [seeded_star4(seed) for seed in range(8)] + [shifted_set()]:
            uphi = functional._half_circle(e)
            edges, masses = [], []
            for rho, half, norm, s in functional._polar_blocks(e, uphi, 45.0):
                kron, _ = gk15_sums(((norm * np.abs(s)) ** q).mean(axis=0) * 2 * np.pi * rho, half)
                edges.append(rho[:, 7] - half)
                masses.append(kron)
            edges, past = np.concatenate(edges), np.cumsum(np.concatenate(masses)[::-1])[::-1]
            _, t45, e45, _ = functional._planar_tail(e, uphi, q, DEFAULT_CONFIG, 45.0)
            for band in (3.0, 6.0, 15.0):
                misses, estimates = [], []
                for x, mass in zip(edges, past):
                    if band <= x < band + 1.0:
                        _, tail, err, route = functional._planar_tail(e, uphi, q, DEFAULT_CONFIG, x)
                        assert route == "polar_stationary_phase_2d"
                        misses.append(abs(tail - t45 - mass))
                        estimates.append(err + e45)
                assert np.all(np.array(misses) <= estimates)
                assert max(estimates) <= 1e3 * max(max(misses), 1e-15 * past[0])

    @pytest.mark.parametrize("d, q", [(1, 4.0), (2, 4.0), (1, 4.234), (2, 5.013), (3, 3.8)])
    def test_gamma_tail_periods(self, d, q, monkeypatch):
        # a counting integrand: the farthest node the periodic tail asks for
        reach = []
        inner = quadrature.tail_power_periodic

        def counting(f, start, period, *args):
            def g(x):
                reach.append((float(np.max(x)) - start) / period)
                return f(x)
            return inner(g, start, period, *args)

        monkeypatch.setattr(quadrature, "tail_power_periodic", counting)
        res = gamma_qd_detailed(d, q)
        assert res.converged
        assert 0 < max(reach) <= 256


class TestHeadCalls:
    """Integrand calls of one radial integral, tail included: the head's
    fixed mesh, cut at the zeros of B^, is swept in chunks after one panel
    that gives the component count."""

    @staticmethod
    def count(monkeypatch, module):
        calls = []
        inner = quadrature.radial_head_tail

        def counting(f, *args):
            def g(x):
                calls.append(x.size)
                return f(x)
            return inner(g, *args)

        monkeypatch.setattr(module, "radial_head_tail", counting)
        return calls

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gamma(self, d, monkeypatch):
        calls = self.count(monkeypatch, radial_kernels)
        assert gamma_qd_detailed(d, 4.37).converged
        assert 0 < len(calls) <= 12

    def test_eigenvalues(self, monkeypatch):
        calls = self.count(monkeypatch, spectral)
        assert spectral.funk_hecke_eigenvalues(2, 5.63, 12).shape == (13,)
        assert 0 < len(calls) <= 15


class TestHeadMesh:
    """The fixed head of every radial head-plus-tail integral against the same
    integrand on its mesh with every panel quartered and twice the halvings
    toward the zeros: it lies within its error estimate, which meets its
    tolerance (abs, rel) = (tol, 10 tol)."""

    @staticmethod
    def head(monkeypatch, module, run, finer=False):
        """The head's (value, error, converged) of the one radial_head_tail call of run()."""
        got = []
        inner = quadrature.radial_head_tail
        build = quadrature.zero_segment_edges

        def spy(*args):
            got.append(inner(*args))
            return got[-1]

        def quartered(cuts, m, end, halvings):
            # the head's segments hold m + 2 = 1 / end equal panels
            return build(cuts, 4 * (np.asarray(m) + 2) - 2, np.asarray(end) / 4, 2 * halvings)

        monkeypatch.setattr(module, "radial_head_tail", spy)
        monkeypatch.setattr(quadrature, "tail_power_periodic",
                            lambda *args: quadrature.IntegralResult(0.0, 0.0, True))
        if finer:
            monkeypatch.setattr(quadrature, "zero_segment_edges", quartered)
        run()
        [res] = got
        return res

    @pytest.mark.parametrize("module, run", [
        *[pytest.param(radial_kernels, lambda d=d, q=q: gamma_qd_detailed(d, q), id=f"gamma-{d}-{q}")
          for d in (1, 2, 3) for q in (3.63, 4.0, 4.4, 5.3, 150.0)],
        *[pytest.param(radial_kernels, lambda d=d, q=q: ball_norm_q(d, q), id=f"norm-{d}-{q}")
          for d in (1, 2, 3) for q in (2.5, 3.0, 3.5)],
        pytest.param(spectral, lambda: spectral._lambda_radial(2, 3.6, np.arange(25)),
                     id="lambda-2-3.6"),
        pytest.param(spectral, lambda: spectral._lambda_radial(3, 4.1, np.arange(13)),
                     id="lambda-3-4.1"),
        *[pytest.param(radial_kernels, lambda kind=kind, d=d, q=q: radial_kernels._moment(kind, d, q),
                       id=f"moment-{kind}-{d}-{q}")
          for kind, d, q in (("L", 2, 3.4), ("L", 3, 3.6), ("K", 2, 3.5))],
    ])
    def test_within_its_estimate(self, module, run, monkeypatch):
        res = self.head(monkeypatch, module, run)
        fine = self.head(monkeypatch, module, run, finer=True)
        assert np.all(res.converged)
        miss = np.abs(res.value - fine.value)
        assert np.all(miss <= res.error_estimate)


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

    @pytest.mark.parametrize("q, inner_min, outer_max", [
        (3.81, 1.772685807626704, 1.7417056391962147),
        (4.71, 3.188313663761608, 3.1447758969866824),
        (5.51, 5.352725026977056, 5.283172689373282),
        (6.51, 10.222666356438099, 10.093034245887072),
    ])
    def test_pinned_d1(self, q, inner_min, outer_max):
        # computed with the whole 401-term table and one complex exp per pair
        res = first_variation_check(1, q, *default_variation_grids(1, q))
        assert res.inner_min == pytest.approx(inner_min, rel=1e-13, abs=0)
        assert res.outer_max == pytest.approx(outer_max, rel=1e-13, abs=0)


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
        r_max = SplineKernel(prof).r_max
        envelope = 4.0 * abs(prof.values[0]) * (1 + r_max) ** (-(prof.exponent - 1))
        assert abs(prof.values[-1]) <= max(10 * prof.errors[-1], envelope)

    def test_interpolation(self):
        prof = SplineKernel(kernel_profile("L", 1, 4.0, r_max=3.0, n_samples=601))
        r = np.array([0.33, 1.77, 3.5])
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
        cfg = QuadratureConfig(1e-14, 1e-13)
        oracle = 2 * np.pi * integrate_adaptive(
            lambda s: lens_area(s) ** 2 * s, 0.0, 2.0, cfg, max_subdivisions=4000).value
        res = ball_norm_q(2, 4.0)
        assert res.value == pytest.approx(oracle, abs=1e-8)


class TestPinnedHeadTail:
    """Head-plus-periodic-tail integrals at exponents the closed-form tests
    miss: value, error estimate and converged flag pinned to 1e-13.  The
    references (mpmath for d = 1 gamma, a tail over the zero segments of B^
    at 8 panels each and 2^15 segments otherwise) are gamma 2.2301291946851,
    10.297762459787297, 8.559328546150358; ball norms 3.0772779102588195,
    11.373471484316497."""

    @pytest.mark.parametrize("d, q, value, err, converged", [
        pytest.param(1, 3.5, 2.230129194693799, 2.0787890095646434e-10, True, id="d1-q3.5"),
        pytest.param(2, 5.3, 10.297762459787286, 8.148860917910196e-14, True, id="d2-q5.3"),
        pytest.param(3, 4.4, 8.559328546150406, 7.641640021327162e-14, True, id="d3-q4.4"),
    ])
    def test_gamma(self, d, q, value, err, converged):
        res = gamma_qd_detailed(d, q)
        assert res.value == pytest.approx(value, rel=1e-13, abs=0)
        assert res.error_estimate == pytest.approx(err, rel=1e-13, abs=0)
        assert res.converged is converged

    def test_gamma_1d_closed_form(self):
        assert gamma_1d_closed_form(3.5) == pytest.approx(2.2301291946973087, rel=1e-13, abs=0)

    @pytest.mark.parametrize("d, q, value, err", [
        pytest.param(1, 3.0, 3.077277910258819, 8.663502801946625e-15, id="d1-q3.0"),
        pytest.param(3, 3.3, 11.373471484316497, 6.190159382092578e-14, id="d3-q3.3"),
    ])
    def test_ball_norm(self, d, q, value, err):
        res = ball_norm_q(d, q)
        assert res.value == pytest.approx(value, rel=1e-13, abs=0)
        assert res.error_estimate == pytest.approx(err, rel=1e-13, abs=0)
        assert res.converged


class TestPinnedKernels:
    """Kernel values and error estimates off the even-q oracles, where the
    series is numerical: pinned to 1e-13 relative."""

    @pytest.mark.parametrize("kind, d, q, values, errors", [
        # d = 1: the errors are the 1e-11 (1 + |v|) slack plus the bound on the
        # series terms cut or past the table, 9.99e-14 (K) and 1.50e-12 (L).
        # For K, mu = 2.81: past j = 801 the |b_j| telescope to
        # |b_801| (801 - mu) / (2 mu), which weighs in at 6.95e-14; the cut
        # drops the 46 terms from j = 711 on, bounded by 3.04e-14
        ("K", 1, 3.81, [2.699107519702967, 2.4722838278288086, 1.2402187996714658],
         [3.709093418234384e-11, 3.482269726360195e-11, 2.2502046982028644e-11]),
        ("L", 1, 4.5, [2.4122915942606893, 2.020507018450928, 1.031862853059689],
         [3.5624204921246046e-11, 3.170635916314845e-11, 2.1819917509236053e-11]),
        # references: 3.40205474564131 (see TestCalibration), and 2.54914183817,
        # 0.93241807853 from Gauss-Legendre on the panels between the zeros of
        # J_1 out to rho = 1e4; the errors, 2.0e-12, 1.5e-9 and 2.8e-9, are
        # inside the estimates.  Past the mesh the a_0 part's closed form errs
        # ~1e-20 here, where the Aitken tail it replaced reported 2.5e-18 and 8.7e-19
        ("L", 2, 4.2, [3.402054745643273, 2.5491418366543366, 0.9324180813143333],
         [5.332017947460318e-11, 1.3527202431027845e-08, 1.3519838508062507e-08]),
    ])
    def test_values(self, kind, d, q, values, errors):
        vals, errs = kernel_values(kind, d, q, np.array([0.0, 0.5, 1.3]))
        assert vals == pytest.approx(values, rel=1e-13, abs=0)
        assert errs == pytest.approx(errors, rel=1e-13, abs=0)
