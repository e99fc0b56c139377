"""Expansion terms, residuals, and remainder decay orders."""

import numpy as np
import pytest

from felab.errors import DomainError, ThresholdError
from felab.functional import phi_q
from felab.perturbation import (
    _TIGHT,
    expansion_report,
    inner_K,
    quadratic_terms,
    remainder_slope,
    sliver_family_1d,
    star_mode_family,
    translated_ball,
)
from felab.radial_kernels import exact_kernel_1d, gamma_qd
from felab.set_model import IntervalSet, StarSet, _signed_pieces
from oracles import cumulative, quadratic_terms_freq_1d, translated_disc_terms


class TestInnerK:
    def test_ball_is_zero(self):
        assert inner_K(IntervalSet([(-1, 1)]), 4.0) == 0.0

    def test_shifted_sliver_sign_and_value(self):
        # E = ball with the sliver [1-d, 1] moved to [1, 1+d]
        d = 0.05
        e = sliver_family_1d(d)
        val = inner_K(e, 4.0)
        k4 = exact_kernel_1d("K", 4)
        pieces, _ = cumulative(k4)
        # exact integral of the piecewise-cubic oracle over [1-d, 1+d] bands
        def integral(a, b):
            total = 0.0
            for lo, hi, poly in pieces:
                l, r = max(a, lo), min(b, hi)
                if r > l:
                    total += np.polyval(poly[::-1], r) - np.polyval(poly[::-1], l)
            return total
        oracle = integral(1.0, 1.0 + d) - integral(1.0 - d, 1.0)
        assert val == pytest.approx(oracle, abs=1e-9)
        assert val < 0

    def test_translated_ball_quadratic(self):
        # K_4'' jumps by 3 across r = 1, so the cubic term is t^3/2, not zero
        t = 0.05
        val = inner_K(translated_ball(t, 1), 4.0)
        gamma = gamma_qd(1, 4.0)
        assert val == pytest.approx(-gamma * t**2 + 0.5 * t**3, abs=5 * t**4)

    def test_d2_translated_disc(self):
        t = 0.05
        val = inner_K(translated_ball(t, 2), 4.0)
        gamma = gamma_qd(2, 4.0)
        # leading order -(gamma/2) int (a^2+b^2) = -(gamma/2) * pi t^2 * ...
        prof_scale = np.pi * t**2  # int (a^2+b^2) dsigma for a small shift
        assert val < 0
        assert val == pytest.approx(-0.5 * gamma * prof_scale, rel=0.05)


class TestQuadraticTerms:
    def test_ball_zero(self):
        out = quadratic_terms(IntervalSet([(-1, 1)]), 4.0)
        assert out == {"LL": 0.0, "Lrefl": 0.0}

    def test_route_agreement_q4(self):
        e = translated_ball(0.05, 1)
        a = quadratic_terms(e, 4.0)
        b = quadratic_terms_freq_1d(e, 4.0)
        assert a["LL"] == pytest.approx(b["LL"], abs=1e-7)
        assert a["Lrefl"] == pytest.approx(b["Lrefl"], abs=1e-7)

    def test_brute_double_integral(self):
        t = 0.04
        e = translated_ball(t, 1)
        out = quadratic_terms(e, 4.0)
        tri = lambda x: np.maximum(0.0, 2.0 - np.abs(x))
        n = 1200
        xs = np.linspace(1, 1 + t, n)
        ys = np.linspace(-1, -1 + t, n)
        w = (t / n) ** 2
        def block(u, v):
            uu, vv = np.meshgrid(u, v, indexing="ij")
            return tri(uu - vv).sum() * w
        ll = block(xs, xs) - 2 * block(xs, ys) + block(ys, ys)
        assert out["LL"] == pytest.approx(ll, abs=1e-6)

    def test_d2_mode_reduction_is_leading_order(self):
        # the single-mode reduction 2 * 2 pi |F^_4|^2 lambda_4 agrees with the
        # exact LL to leading order only: its relative gap falls >= 3x each
        # time eps halves (3.4%, 1.1%, 0.32%, 0.09% at eps = 0.08 ... 0.01)
        from felab.set_model import boundary_profile
        from felab.spectral import funk_hecke_eigenvalue
        lam = funk_hecke_eigenvalue(2, 4.0, 4)
        gaps = []
        for eps in (0.08, 0.04, 0.02, 0.01):
            e = star_mode_family(eps, 4)
            ll = quadratic_terms(e, 4.0)["LL"]
            prof = boundary_profile(e, n_grid=1024, n_modes=12)
            gaps.append(abs(ll - 2 * 2 * np.pi * abs(prof.fourier_coeff(4)) ** 2 * lam) / ll)
        assert all(a >= 3.0 * b for a, b in zip(gaps, gaps[1:])), gaps

    def test_d2_refused_at_or_below_q2(self):
        with pytest.raises(ThresholdError):
            quadratic_terms(star_mode_family(0.02, 4), 10.0 / 3.0)
        with pytest.raises(ThresholdError):
            expansion_report(translated_ball(0.02, 2), 3.0)


@pytest.mark.parametrize("call, e, q", [
    (inner_K, sliver_family_1d(0.05), 1100.0), (quadratic_terms, sliver_family_1d(0.05), 1100.0),
    (expansion_report, sliver_family_1d(0.05), 1100.0),
    (inner_K, translated_ball(0.05, 2), 700.0),
    (quadratic_terms, translated_ball(0.05, 2), 700.0),
    (expansion_report, translated_ball(0.05, 2), 700.0)])
def test_refused_past_the_float_range(call, e, q):
    # the peak omega_d^(q-1) of the kernels overflows: refused, not NaN
    with pytest.raises(DomainError, match="float range"):
        call(e, q)


def lam4_pair_sums(e):
    """<f*L_4, f> and <f*L_4, f~> from Lam_4(t) = int_0^t int_0^u (2 - |v|)_+,
    t^2 - |t|^3/6 on [0, 2] and linear past it, in exact piecewise cubics."""
    def lam(t):
        t = abs(t)
        return t * t - t**3 / 6.0 if t <= 2.0 else 8.0 / 3.0 + 2.0 * (t - 2.0)
    pieces = list(zip(*_signed_pieces(e.endpoints(), [-1.0, 1.0])))
    ll = lr = 0.0
    for a, b, s in pieces:
        for c, d, s2 in pieces:
            ll += s * s2 * (lam(b - c) - lam(a - c) - lam(b - d) + lam(a - d))
            lr += s * s2 * (lam(b + d) - lam(a + d) - lam(b + c) + lam(a + c))
    return ll, lr


class TestExactTerms1D:
    """The d = 1 terms are exact integrals of the kernels' antiderivatives."""

    @pytest.mark.parametrize("eps", [0.02, 0.005, 0.00125])
    def test_q4_sliver_terms(self, eps):
        # K_4 jumps in its second derivative at r = 1: <K, f> = -2 eps^2 + eps^3 / 2
        e = sliver_family_1d(eps)
        rep = expansion_report(e, 4.0)
        assert abs(rep.term_K - (-8.0 * eps**2 + 2.0 * eps**3)) <= 1e-13
        quads = quadratic_terms(e, 4.0)
        ll, lr = lam4_pair_sums(e)
        assert abs(quads["LL"] - ll) <= 1e-13 and abs(quads["Lrefl"] - lr) <= 1e-13

    @pytest.mark.parametrize("eps", [0.02, 0.005, 0.00125])
    def test_q4_sliver_residual_within_its_error(self, eps):
        # ||1_E^||_4^4 - ||1_B^||_4^4 - terms = -(4/3) eps^3 exactly on the sliver family;
        # the estimate covers the miss and is not pessimistic by more than 10^3
        rep = expansion_report(sliver_family_1d(eps), 4.0)
        miss = abs(rep.residual + 4.0 / 3.0 * eps**3)
        assert miss <= rep.error_estimate <= 1e3 * max(miss, 1e-15 * rep.direct)

    @pytest.mark.parametrize("q", [3.0, 3.5, 3.7])
    @pytest.mark.parametrize("e", [sliver_family_1d(0.02), sliver_family_1d(0.005),
                                   translated_ball(0.05, 1)])
    def test_against_the_frequency_side(self, e, q):
        quads, ref = quadratic_terms(e, q), quadratic_terms_freq_1d(e, q)
        assert abs(quads["LL"] - ref["LL"]) <= 1e-8
        assert abs(quads["Lrefl"] - ref["Lrefl"]) <= 1e-8

    def test_far_piece_against_the_refined_frequency_side(self):
        # the coarse mesh's panels straddle the kinks of |B^|^{q-2}: at q = 3.5 it
        # misses Lrefl by 3.4e-8 here; 16 times finer and cut at 5000, by 8e-11
        e = IntervalSet([(-1.0, 0.85), (10.0, 10.15)])
        quads = quadratic_terms(e, 3.5)
        ref = quadratic_terms_freq_1d(e, 3.5, refine=16, cut=5000.0)
        assert abs(quads["LL"] - ref["LL"]) <= 1e-9
        assert abs(quads["Lrefl"] - ref["Lrefl"]) <= 1e-9

    def test_far_pair_refused(self):
        # pair differences past the kernels' 115.5 radius bound are not extrapolated
        e = IntervalSet([(-1.0, 0.9), (120.0, 120.1)])
        with pytest.raises(DomainError, match="resolve radii up to 115.5"):
            inner_K(e, 4.0)
        with pytest.raises(DomainError, match="resolve radii up to 115.5"):
            expansion_report(e, 4.0)


class TestTranslatedDisc:
    """The d = 2 terms and residual against radial J_0 integrals to rho = 400
    (``oracles.translated_disc_terms``); the exact residual is minus the exact
    term sum, since a translation leaves ||1_E^||_q^q unchanged."""

    @pytest.mark.parametrize("q, t", [(4.0, 0.01), (4.0, 0.04), (3.5, 0.04)])
    def test_terms_and_residual_within_error(self, q, t):
        rep = expansion_report(translated_ball(t, 2), q)
        ref = translated_disc_terms(q, t)
        exact = (q * ref["K"], q * q / 4.0 * ref["LL"], q * (q - 2.0) / 4.0 * ref["Lrefl"])
        for got, want in zip((rep.term_K, rep.term_LL, rep.term_Lrefl), exact):
            assert abs(got - want) <= rep.error_estimate, (got, want, rep.error_estimate)
        assert abs(rep.residual + sum(exact)) <= rep.error_estimate
        # the bound is not pessimistic by orders of magnitude
        assert rep.error_estimate <= 100 * abs(rep.residual + sum(exact))

    def test_inner_products_read_the_same_pass(self):
        e = translated_ball(0.03, 2)
        rep = expansion_report(e, 4.0)
        quads = quadratic_terms(e, 4.0)
        assert rep.term_K == 4.0 * inner_K(e, 4.0)
        assert rep.term_LL == 4.0 * quads["LL"]
        assert rep.term_Lrefl == 2.0 * quads["Lrefl"]


class TestExpansionReport:
    def test_ball_trivial(self):
        rep = expansion_report(IntervalSet([(-1.0, 1.0)]), 4.0)
        assert rep.direct == rep.base
        assert rep.term_K == rep.term_LL == rep.term_Lrefl == 0.0
        assert rep.residual == 0.0

    def test_ball_norm_computed_once_per_exponent(self, monkeypatch):
        # the reports of a family share the ball's Phi_q: one set each, one ball
        import felab.perturbation as pert
        from felab.functional import phi_q
        calls = []
        monkeypatch.setattr(pert, "phi_q", lambda e, *a, **k: calls.append(e) or phi_q(e, *a, **k))
        pert._ball_phi.cache_clear()
        reps = [expansion_report(sliver_family_1d(eps), 3.7) for eps in (0.02, 0.05)]
        assert len(calls) == 3
        ball = phi_q(IntervalSet([(-1.0, 1.0)]), 3.7, pert._TIGHT).norm_q_pow_q
        assert reps[0].base == reps[1].base == ball

    @pytest.mark.parametrize("e, q", [
        (star_mode_family(0.015, 3), 4.0), (star_mode_family(0.015, 4), 4.0),
        (star_mode_family(0.015, 5), 4.0), (translated_ball(0.04, 2), 3.5),
        (translated_ball(0.04, 2), 4.0)])
    def test_d2_direct_is_phi_q(self, e, q):
        # the terms' sweep gives phi_q's norm at the report's cut bit for bit
        rep = expansion_report(e, q)
        assert rep.direct == phi_q(e, q, _TIGHT, radial_cut=45.0).norm_q_pow_q

    def test_d2_disc_direct_is_base(self):
        rep = expansion_report(StarSet.unit_disc(), 4.0)
        assert rep.direct == rep.base

    def test_d2_sweeps_the_set_once(self, monkeypatch):
        import felab.functional as functional
        import felab.perturbation as pert
        pert._ball_phi(2, 4.0)
        sweeps = []
        polar_blocks = functional._polar_blocks

        def counted(e, *args):
            sweeps.append(e)
            return polar_blocks(e, *args)

        monkeypatch.setattr(pert, "_polar_blocks", counted)
        monkeypatch.setattr(functional, "_polar_blocks", counted)
        e = star_mode_family(0.015, 4)
        expansion_report(e, 4.0)
        assert len(sweeps) == 1 and sweeps[0] is e

    @pytest.mark.parametrize("e", [star_mode_family(0.02, 4), sliver_family_1d(0.02)])
    def test_error_covers_both_norm_errors(self, e):
        # ||1_E^||_q^q = Phi^q |E|^{q-1}: an error dPhi is q Phi^{q-1} |E|^{q-1} dPhi
        q = 4.0
        if e.dimension == 1:
            ball = IntervalSet([(-1.0, 1.0)])
            direct, base = phi_q(e, q, _TIGHT), phi_q(ball, q, _TIGHT)
        else:
            direct = phi_q(e, q, _TIGHT, radial_cut=45.0)
            base = phi_q(StarSet.unit_disc(), q, _TIGHT, radial_cut=45.0)
        floor = sum(q * (r.phi * r.measure) ** (q - 1.0) * r.error_estimate
                    for r in (direct, base))
        assert expansion_report(e, q).error_estimate >= floor * (1.0 - 1e-12)

    def test_translation_neutrality(self):
        rep = expansion_report(translated_ball(0.05, 1), 4.0)
        assert abs(rep.direct - rep.base) < 1e-9
        assert abs(rep.term_sum + rep.residual) < 1e-9
        assert abs(rep.term_sum) < 1e-3

    def test_regime_refusal(self):
        with pytest.raises(DomainError):
            expansion_report(IntervalSet([(1.0, 3.0)]), 4.0)

    def test_q3_tagged(self):
        rep = expansion_report(sliver_family_1d(0.05), 3.0)
        assert rep.remainder_order == "2"

    def test_low_q_first_order_form(self):
        rep = expansion_report(sliver_family_1d(0.05), 2.5)
        assert rep.remainder_order == "q-1"
        assert rep.term_LL == 0.0 and rep.term_Lrefl == 0.0

    def test_balanced_family_no_quadratic(self):
        rep = expansion_report(sliver_family_1d(0.02), 4.0)
        assert abs(rep.term_LL) <= 0.1 * abs(rep.term_K)


class TestRemainderSlope:
    def test_q4_sliver(self):
        out = remainder_slope(sliver_family_1d, 4.0, [0.08, 0.04, 0.02, 0.01])
        assert not out["noise_limited"]
        assert out["slope"] >= 2.1

    def test_identical_family_noise_limited(self):
        out = remainder_slope(lambda t: IntervalSet([(-1.0, 1.0)]),
                              4.0, [0.08, 0.04, 0.02, 0.01])
        assert out["noise_limited"]

    def test_needs_a_decade(self):
        with pytest.raises(DomainError):
            remainder_slope(sliver_family_1d, 4.0, [0.04, 0.03, 0.02, 0.01])

    def test_low_q_exponent_recorded_only(self):
        # 2 < q < 3: the remainder constant is unknown; record the fitted
        # exponent (target q - 1), assert nothing beyond well-definedness
        out = remainder_slope(sliver_family_1d, 2.5, [0.16, 0.08, 0.04, 0.02])
        print(f"q=2.5 sliver fitted remainder exponent: {out['slope']:.3f} "
              f"(first-order theory predicts about {2.5 - 1:.1f})")
        assert np.isfinite(out["slope"]) or out["noise_limited"]


class TestFamilies:
    def test_sliver_measure_and_balance(self):
        e = sliver_family_1d(0.07)
        assert e.measure == pytest.approx(2.0, abs=1e-15)
        from felab.set_model import boundary_profile
        prof = boundary_profile(e)
        assert np.max(np.abs(prof.f_vals)) < 1e-14

    def test_star_family_measure(self):
        e = star_mode_family(0.05, 5)
        assert e.measure == pytest.approx(np.pi, rel=1e-12)

    def test_star_family_rejects_affine_modes(self):
        with pytest.raises(DomainError):
            star_mode_family(0.05, 2)
