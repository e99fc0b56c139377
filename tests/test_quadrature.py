"""Quadrature engine and special-function checks."""

import numpy as np
import pytest

from felab.errors import ArityError, DomainError
from felab.quadrature import (
    DEFAULT_CONFIG,
    IntegralResult,
    QuadratureConfig,
    _richardson_partial_sums,
    gk15_panels,
    gk15_sums,
    integrate_adaptive,
    integrate_oscillatory_tail,
    kink_mesh,
    kink_rules,
    tail_power_periodic,
)
from oracles import bessel_j, bessel_zeros, gegenbauer, integrate_composite

CFG = QuadratureConfig()


class TestBessel:
    def test_j0_at_zero(self):
        assert bessel_j(0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_positive_order_at_zero(self):
        assert bessel_j(1, 0.0) == 0.0
        assert bessel_j(0.5, 0.0) == 0.0

    def test_half_order_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin(x); vanishes at x = pi
        assert bessel_j(0.5, np.pi) == pytest.approx(0.0, abs=1e-15)
        x = 2.7
        assert bessel_j(0.5, x) == pytest.approx(np.sqrt(2 / (np.pi * x)) * np.sin(x), abs=1e-14)
        assert bessel_j(1.5, x) == pytest.approx(
            np.sqrt(2 / (np.pi * x)) * (np.sin(x) / x - np.cos(x)), abs=1e-14)

    def test_recurrence(self):
        # J_{v-1}(x) + J_{v+1}(x) = (2v/x) J_v(x)
        x = np.linspace(0.1, 100.0, 997)
        for v in (1.0, 1.5, 2.0, 2.5):
            lhs = bessel_j(v - 1, x) + bessel_j(v + 1, x)
            rhs = 2 * v / x * bessel_j(v, x)
            scale = np.maximum(np.abs(rhs), 1e-3)
            assert np.max(np.abs(lhs - rhs) / scale) < 1e-10

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            bessel_j(0, np.nan)
        with pytest.raises(DomainError):
            bessel_j(0, np.inf)
        with pytest.raises(DomainError):
            bessel_j(0.3, 1.0)  # not a half-integer order

    def test_zeros(self):
        z = bessel_zeros(0.5, 4)
        assert np.allclose(z, np.pi * np.arange(1, 5), atol=1e-12)
        z1 = bessel_zeros(1.0, 3)
        assert np.max(np.abs(bessel_j(1.0, z1))) < 1e-10


class TestGegenbauer:
    def test_degree_zero(self):
        assert gegenbauer(0, 0.7, 0.3) == 1.0

    def test_legendre_p1(self):
        assert gegenbauer(1, 0.5, 0.42) == pytest.approx(0.42, abs=1e-15)

    def test_legendre_p2(self):
        assert gegenbauer(2, 0.5, 0.5) == pytest.approx(-0.125, abs=1e-14)

    def test_chebyshev_limit(self):
        assert gegenbauer(3, 0.0, 0.4) == pytest.approx(np.cos(3 * np.arccos(0.4)), abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            gegenbauer(2, 0.5, 1.5)


class TestPanelRule:
    """GK15 on uneven panels: Kronrod exact to degree 22, Gauss to 13."""

    EDGES = np.array([-2.0, -0.5, 0.5, 2.5])

    def monomial(self, p):
        a, b = self.EDGES[:-1], self.EDGES[1:]
        nodes, weights = gk15_panels(0.5 * (a + b), 0.5 * (b - a))
        kron, err = gk15_sums(nodes**p, 0.5 * (b - a))
        exact = (b ** (p + 1) - a ** (p + 1)) / (p + 1)
        scale = (np.abs(b) ** (p + 1) + np.abs(a) ** (p + 1)) / (p + 1)
        return kron, err, (nodes**p * weights).sum(axis=1), exact, scale

    @pytest.mark.parametrize("p", range(23))
    def test_kronrod_exact(self, p):
        kron, _, weighted, exact, scale = self.monomial(p)
        assert np.all(np.abs(kron - exact) <= 1e-14 * scale)
        assert np.all(np.abs(weighted - exact) <= 1e-14 * scale)

    def test_rule_error_marks_gauss_degree(self):
        for p in range(14):
            _, err, _, _, scale = self.monomial(p)
            assert np.all(err <= 1e-14 * scale)
        _, err, _, _, scale = self.monomial(14)
        assert np.all(err >= 1e-9 * scale)

    def test_scalar_panel(self):
        nodes, weights = gk15_panels(0.0, 0.5)
        assert nodes.shape == weights.shape == (15,)
        assert np.array_equal(nodes, -nodes[::-1])
        assert weights.sum() == pytest.approx(1.0, abs=1e-15)


class TestKinkRules:
    """The 16-point rules of the kernel meshes: Gauss-Legendre, and Gauss-Jacobi
    for (1 + x)^a, (1 - x)^a and (1 - x^2)^a with the weight divided out, each
    exact for its weight times a polynomial of degree 31: to 1e-13 of int w |x|^k,
    where scipy's roots_jacobi misses by up to 3.1e-14, a tenth of the kernel
    meshes' 1e-12 (1 + max |v|)."""

    @staticmethod
    def moments(a: float, k: int):
        """Closed forms of int_-1^1 w x^k for the weights (1 + x)^a, (1 - x)^a and
        (1 - x^2)^a, and of int w |x|^k, the scale of a sum's rounding: with
        x = 2u - 1 the first is sum_j C(k, j) (-1)^(k-j) 2^(a+j+1) B(a+j+1, 1), the
        second (-1)^k times it, the third B((k+1)/2, a+1) at even k and 0 at odd k."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            am = mpmath.mpf(a)
            left = mpmath.fsum(mpmath.binomial(k, j) * (-1) ** (k - j) * 2 ** (am + j + 1)
                               * mpmath.beta(am + j + 1, 1) for j in range(k + 1))
            both = 0 if k % 2 else mpmath.beta(mpmath.mpf(k + 1) / 2, am + 1)
            exact = [float(left), float((-1) ** k * left), float(both)]
            scale = [float(mpmath.quad(lambda x: (1 + x) ** am * abs(x) ** k, [-1, 0, 1]))] * 2
            scale.append(float(mpmath.beta(mpmath.mpf(k + 1) / 2, am + 1)))
        return exact, scale

    @pytest.mark.parametrize("a", [0.2, 1.4, 2.2, 4.6])
    def test_exact_to_degree_31(self, a):
        rules = kink_rules(a)
        for k in range(32):
            exact, scale = self.moments(a, k)
            for (x, w), weight, want, size in zip(
                    rules[1:], ((1 + rules[1, 0]) ** a, (1 - rules[2, 0]) ** a,
                                (1 - rules[3, 0] ** 2) ** a), exact, scale):
                assert abs(w * weight @ x ** k - want) <= 1e-13 * size, (a, k)

    @pytest.mark.parametrize("a", [0, 0.0, None])
    def test_no_kink_is_gauss_legendre(self, a):
        x, w = np.polynomial.legendre.leggauss(16)
        for rule in kink_rules(a):
            assert np.array_equal(rule[0], x) and np.array_equal(rule[1], w)

    def test_mesh_takes_each_rule_where_its_kink_is(self):
        # segments [0, 0.5] (kink at its end), [0.5, 1.1] (both ends, m = 1) and
        # [1.1, 2.3] (m = 3: a left kink, a plain panel, a right kink)
        cuts, kinked = np.array([0.0, 0.5, 1.1, 2.3]), np.array([False, True, True, True])
        rules = kink_rules(1.7)
        nodes, weights = kink_mesh(cuts, kinked, [1, 1, 3], rules)
        panels = [(0.0, 0.5, 2), (0.5, 1.1, 3), (1.1, 1.5, 1), (1.5, 1.9, 0), (1.9, 2.3, 2)]
        assert nodes.shape == weights.shape == (16 * len(panels),)
        for i, (lo, hi, r) in enumerate(panels):
            half = 0.5 * (hi - lo)
            got = slice(16 * i, 16 * i + 16)
            assert np.allclose(nodes[got], lo + half * (1 + rules[r, 0]), rtol=0, atol=4e-16)
            assert np.allclose(weights[got], half * rules[r, 1], rtol=1e-15, atol=0)
        # a kink at a panel's left end is integrated exactly: (t - 1.1)^1.7 t^3 on [1.1, 1.5]
        mpmath = pytest.importorskip("mpmath")
        exact = float(mpmath.quad(lambda t: (t - mpmath.mpf("1.1")) ** mpmath.mpf("1.7") * t ** 3,
                                  [mpmath.mpf("1.1"), mpmath.mpf("1.5")]))
        got = slice(32, 48)
        assert abs(weights[got] @ ((nodes[got] - 1.1) ** 1.7 * nodes[got] ** 3) - exact) <= 1e-14


class TestAdaptive:
    def test_polynomial_exactness(self):
        for deg in range(0, 16):
            coeffs = np.arange(1.0, deg + 2.0)
            exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
            res = integrate_adaptive(lambda x: np.polyval(coeffs[::-1], x), 0.0, 1.0, CFG)
            assert abs(res.value - exact) < 1e-13 * max(1.0, abs(exact))

    def test_quadratic(self):
        res = integrate_adaptive(lambda x: x**2, 0.0, 1.0, CFG)
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert res.converged

    def test_endpoint_singularity(self):
        cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
        res = integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, cfg, max_subdivisions=20000)
        assert res.value == pytest.approx(2.0, abs=1e-8)

    def test_sinc_against_series(self):
        # int_-5^5 sin(2 pi x)/(pi x) dx against the term-by-term series of
        # Si: 2/pi * Si(10 pi) via the power/asymptotic series oracle in scipy
        from scipy.special import sici
        exact = 2.0 / np.pi * sici(10 * np.pi)[0]

        def f(x):
            return np.where(x != 0, np.sin(2 * np.pi * x) / (np.pi * np.where(x != 0, x, 1.0)), 2.0)

        res = integrate_adaptive(f, -5.0, 5.0, CFG)
        assert res.value == pytest.approx(exact, abs=1e-10)

    def test_deterministic(self):
        def f(x):
            return np.sin(17.0 * x) / (1.0 + x * x)

        r1 = integrate_adaptive(f, 0.0, 30.0, CFG)
        r2 = integrate_adaptive(f, 0.0, 30.0, CFG)
        assert r1.value == r2.value
        assert r1.error_estimate == r2.error_estimate

    def test_invalid_interval(self):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: x, 1.0, 0.0, CFG)

    def test_vector_components_meet_their_own_tolerance(self):
        # one mesh, two scales: each component is held to max(abs, rel |value_k|)
        def f(x):
            return np.stack([np.sin(17.0 * x) / (1.0 + x * x), 1e-6 * np.exp(-x * x)])

        res = integrate_adaptive(f, 0.0, 30.0, CFG)
        assert res.value.shape == res.error_estimate.shape == res.converged.shape == (2,)
        assert np.all(res.converged)
        assert np.all(res.error_estimate <= np.maximum(CFG.abs_tol, CFG.rel_tol * np.abs(res.value)))
        for k in range(2):
            alone = integrate_adaptive(lambda x, k=k: f(x)[k], 0.0, 30.0, CFG)
            assert res.value[k] == pytest.approx(alone.value, abs=1e-10)
        assert res.value[1] == pytest.approx(1e-6 * np.sqrt(np.pi) / 2, rel=1e-12)

    def test_budget_exhaustion_flag(self):
        cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15)
        res = integrate_adaptive(lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-300), 0.0, 1.0, cfg,
                                 max_subdivisions=3)
        assert not res.converged

    def test_points_at_kinks(self):
        # |sin 2 pi x|^1.6 on [0, 5] has kinks at k/2; the integral is
        # 10 int_0^{1/2} = (5/pi) sqrt(pi) Gamma(1.3) / Gamma(1.8)
        from scipy.special import gamma
        exact = 5.0 / np.pi * np.sqrt(np.pi) * gamma(1.3) / gamma(1.8)
        cfg = QuadratureConfig(1e-13, 1e-12)
        calls = {}
        for name, points in (("plain", ()), ("kinks", np.arange(1, 10) / 2.0)):
            def f(x):
                calls[name] = calls.get(name, 0) + 1
                return np.abs(np.sin(2 * np.pi * x)) ** 1.6
            res = integrate_adaptive(f, 0.0, 5.0, cfg, points=points)
            assert res.converged
            assert abs(res.value - exact) <= res.error_estimate
        assert calls["kinks"] < calls["plain"]


class TestOscillatoryTail:
    def test_sin_over_x2(self):
        zeros = np.pi * np.arange(1, 90)
        res = integrate_oscillatory_tail(lambda x: np.sin(x) / x**2, zeros, CFG)
        ref = integrate_composite(lambda x: np.sin(x) / x**2, np.pi, 1e6, 2_000_000).value
        assert res.value == pytest.approx(ref, rel=1e-9)
        assert res.converged

    def test_zero_function(self):
        res = integrate_oscillatory_tail(lambda x: np.zeros_like(x), np.arange(1.0, 40.0), CFG)
        assert res.value == 0.0
        assert res.converged

    def test_one_signed_sum_is_truncated_unconverged(self):
        # no extrapolation without alternation: the plain sum, the last
        # segment as its tail, and converged False however small that is
        f = lambda x: np.sin(2 * np.pi * x) ** 4 / x**12
        zeros = 1.0 + 0.5 * np.arange(0, 257)
        res = integrate_oscillatory_tail(f, zeros, CFG)
        ref = integrate_composite(f, 1.0, zeros[-1], 2048).value
        assert res.value == pytest.approx(ref, rel=1e-12)
        assert not res.converged

    def test_bad_zeros(self):
        with pytest.raises(DomainError):
            integrate_oscillatory_tail(lambda x: x, np.array([1.0, 0.5, 2.0]), CFG)


class TestPowerPeriodicTail:
    def test_known_power(self):
        # int_10^inf sin^2(2 pi x)/x^2 dx = (1/2) int_10^inf x^-2 (1 - cos 4 pi x);
        # brute truncation at R needs its mean tail 1/(2R) restored
        f = lambda x: np.sin(2 * np.pi * x) ** 2 / x**2
        res = tail_power_periodic(f, 10.0, 0.5, 2.0, 64, CFG)
        big_r = 2e5
        ref = integrate_composite(f, 10.0, big_r, 800_000).value + 1.0 / (2 * big_r)
        assert res.value == pytest.approx(ref, abs=1e-9)

    def test_abscissa_ladder_solves_its_model(self):
        # S_inf - S_K = sum_i c_i X_K^-(p + i) at X_K = 7 + K/2, the abscissa
        # the partial sum ends at, is solved exactly; in the period count K
        # the same remainder, (K/2)^-p (1 + 14/K)^-p ..., never ends
        x = 7.0 + 0.5 * np.arange(1, 257)
        partial = 1.0 - 0.3 * x**-0.7 + 2.0 * x**-1.7 - 5.0 * x**-2.7
        value, spread = _richardson_partial_sums(partial, 0.7, x)
        assert abs(value - 1.0) <= 1e-14 and spread <= 1e-14

    def test_rejects_divergent(self):
        with pytest.raises(DomainError):
            tail_power_periodic(lambda x: 1 / x, 1.0, 0.5, 1.0, 64, CFG)

    def test_vector_keeps_first_converged_doubling(self):
        # log(x) leaves a remainder no power ladder removes: the large
        # component runs all six doublings and ends unconverged, while the
        # small one meets the absolute tolerance after one; each keeps its
        # own result
        f = lambda x: np.sin(2 * np.pi * x) ** 2 * np.log(x) / x**1.5
        small = tail_power_periodic(lambda x: 3e-9 * f(x), 10.0, 0.5, 1.5, 64, CFG)
        large = tail_power_periodic(f, 10.0, 0.5, 1.5, 64, CFG)
        both = tail_power_periodic(lambda x: np.stack([3e-9 * f(x), f(x)]), 10.0, 0.5, 1.5, 64,
                                   CFG)
        assert small.converged and not large.converged
        assert list(both.converged) == [True, False]
        assert list(both.value) == [small.value, large.value]
        assert list(both.error_estimate) == [small.error_estimate, large.error_estimate]

    @pytest.mark.parametrize("p", [1023.5, 1e300])
    def test_ladder_takes_any_finite_power(self, p):
        # 2^(p + i) overflows a float from p = 1024 on; the ladder must not
        res = tail_power_periodic(lambda x: (10.0 / x) ** 60, 10.0, 0.5, p, 64, CFG)
        assert np.isfinite(res.value) and np.isfinite(res.error_estimate)


class TestConfig:
    def test_invariants(self):
        with pytest.raises(DomainError):
            QuadratureConfig(abs_tol=0.0, rel_tol=0.0)
        with pytest.raises(DomainError):
            integrate_adaptive(np.exp, 0.0, 1.0, max_subdivisions=0)
        with pytest.raises(DomainError):
            IntegralResult(1.0, -1.0, True)

    def test_converged_respects_tolerance(self):
        res = integrate_adaptive(lambda x: np.ones_like(x), 0.0, 1.0, CFG)
        assert res.converged
        assert res.error_estimate <= max(CFG.abs_tol, CFG.rel_tol * abs(res.value))
