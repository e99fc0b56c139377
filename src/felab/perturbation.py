"""Taylor expansion of ||1_E^||_q^q about the ball, verified against direct
evaluation.

For f = 1_E - 1_B and |E triangle B| small,

    ||1_E^||_q^q = ||1_B^||_q^q + q <K_q, f>
                   + (q^2/4) <f*L_q, f> + (q(q-2)/4) <f*L_q, f~>
                   + remainder,

with remainder O(|E triangle B|^{2+rho}) for q > 3, O(|E triangle B|^2) at
q = 3, and (d = 1, 2 < q < 3) a first-order form with only the K-term and
remainder O(|E triangle B|^{q-1}).  This module assembles the terms, the
directly evaluated left side (through the same frequency pipeline as the
base value, so discretization bias cancels in the difference; in d = 2 from
the sweep that gives the terms), and the residual; ``remainder_slope`` fits
the residual decay order on a shrinking family of sets.

Inner products: in d = 1 all three are exact sums, over the signed pieces of
f, of the kernel antiderivatives int_0^x K and int_0^t int_0^u L, which
exist for every q > 2 (no L is needed below q = 3); the report's error adds
their errors and the rounding of the cancelling sums.  In d = 2
one sweep of E's polar mesh gives ||1_E^||_q^q bit for bit as ``phi_q`` at
the same cut and, with b = B^ and h = 1_E^ - b, all three as
the frequency integrals of b|b|^{q-2} Re h, |b|^{q-2}|h|^2 and
|b|^{q-2} Re h^2; the report's error adds their rule errors and a bound on
the remainder dropped past the cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .functional import (_EPS, _block_norm_q, _expi, _half_circle, _phi_result, _planar_tail,
                         _polar_blocks, phi_q)
from .quadrature import QuadratureConfig, gk15_sums
from .radial_kernels import (_KERNEL_SLACK, _check_exponent, _check_peak, _kernel_values_1d,
                             ball_hat)
from .set_model import AffineMap, IntervalSet, StarSet, _signed_pieces, symdiff_measure

__all__ = [
    "ExpansionReport",
    "inner_K",
    "quadratic_terms",
    "expansion_report",
    "remainder_slope",
    "sliver_family_1d",
    "translated_ball",
    "star_mode_family",
]

# the one tolerance of every expansion report, for its direct value, the
# ball's Phi_q and the d = 2 tail; the CLI records it in the run manifest
_TIGHT = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-11)
_D2_CUT = 45.0


@dataclass(frozen=True)
class ExpansionReport:
    exponent: float
    dimension: int
    direct: float
    base: float
    term_K: float
    term_LL: float
    term_Lrefl: float
    residual: float
    symdiff: float
    remainder_order: str
    error_estimate: float

    @property
    def term_sum(self) -> float:
        return self.term_K + self.term_LL + self.term_Lrefl

    def as_dict(self) -> dict:
        return {
            "q": self.exponent, "d": self.dimension,
            "direct": self.direct, "base": self.base,
            "term_K": self.term_K, "term_LL": self.term_LL,
            "term_Lrefl": self.term_Lrefl, "residual": self.residual,
            "symdiff": self.symdiff, "remainder_order": self.remainder_order,
            "error": self.error_estimate,
        }


# ---------------------------------------------------------------------------
# d = 1 terms from the signed pieces of f = 1_E - 1_B
# ---------------------------------------------------------------------------

def _terms_1d(e: IntervalSet, q: float, quadratic: bool = True):
    """(<K, f>, <f*L, f>, <f*L, f~>) and their errors from the antiderivatives
    Kbar(x) = int_0^x K and Lam(t) = int_0^t int_0^u L at the unique |x| the
    sums need: <K, f> = sum s (Kbar(b) - Kbar(a)) over the signed pieces of f,
    <f*L, f> = sum s s' (Lam(b - c) - Lam(a - c) - Lam(b - d) + Lam(a - d))
    over pairs, the second piece reflected for <f*L, f~>.  A difference errs
    by the series cut at its ends and the kernel's slack _KERNEL_SLACK (1 + |K|),
    |K| its mean, times the width (L's times the widths' product; below q = 3,
    where L has no values, the corners' own errors), plus rounding."""
    a, b, sgn = _signed_pieces(e.endpoints(), [-1.0, 1.0])  # E \ B (+1), B \ E (-1)
    n, ends = len(a), np.concatenate([a, b])
    xs, at_x = np.unique(np.abs(ends), return_inverse=True)
    # corners b - c, a - c, b - d, a - d of each pair of pieces, the second (c, d)
    # reflected to (-d, -c) for Lrefl; Lam is even, and 0 at 0
    near, far = np.stack([b, a, b, a], -1), np.stack([a, a, b, b], -1)
    corners = np.stack([near[:, None] - far, near[:, None] + far[..., ::-1]])
    ts, at_t = np.unique(np.abs(corners), return_inverse=True)
    (kbar, k_cut), *lam = _kernel_values_1d(q, ("K", 1, xs), *[("L", 2, ts[ts > 0])] * quadratic)
    kb = np.sign(ends) * kbar[at_x]  # Kbar is odd
    diff = kb[n:] - kb[:n]
    terms, errs = np.array([sgn @ diff, 0.0, 0.0]), np.zeros(3)
    errs[0] = (2 * n * (k_cut + _EPS * np.sum(np.abs(kb)))
               + _KERNEL_SLACK * np.sum(b - a + np.abs(diff)))
    if quadratic:
        [(lam, l_cut)] = lam
        lam = np.r_[np.zeros(len(ts) - len(lam)), lam][at_t.reshape(corners.shape)]
        pair = lam @ np.array([1.0, -1.0, -1.0, 1.0])
        terms[1:] = np.sum(sgn[:, None] * sgn * pair, axis=(1, 2))
        slack = (np.sum(np.outer(b - a, b - a) + np.abs(pair), axis=(1, 2)) if q > 3.0
                 else np.sum(1.0 + np.abs(lam), axis=(1, 2, 3)))
        errs[1:] = (4 * n * n * (l_cut + _EPS * np.sum(np.abs(lam), axis=(1, 2, 3)))
                    + _KERNEL_SLACK * slack)
    return terms, errs


def inner_K(e, q: float) -> float:
    """<K_q, f> = int_{E\\B} K_q - int_{B\\E} K_q."""
    _check_peak(e.dimension, q)
    return float((_planar_pass(e, q)[1] if e.dimension == 2
                  else _terms_1d(e, q, quadratic=False)[0])[0])


def _planar_pass(e: StarSet, q: float):
    """One sweep of E's polar mesh at the report's cut.  Returns ||1_E^||_q^q,
    its error and its route as ``phi_q(e, q, _TIGHT, radial_cut=_D2_CUT)`` forms
    them (the mesh plus ``_planar_tail``); the terms (<K, f>, <f*L, f>,
    <f*L, f~>) and their GK15 rule terms; and a bound on the report's
    remainder past the cut.

    b = B^ and h = 1_E^ - b, with the phase of 1_E^ that the norm drops put
    back where it is not 1; the integrands b|b|^{q-2} Re h, |b|^{q-2}|h|^2 and
    |b|^{q-2} Re h^2 are even in xi, so the half circle carries them.
    """
    uphi = _half_circle(e)
    _, tail, tail_err, route = _planar_tail(e, uphi, q, _TIGHT, _D2_CUT)
    shift = uphi @ e.affine.translation + (uphi @ e.affine.matrix) @ e.center
    norm_q, terms, rule = np.zeros(2), np.zeros(3), np.zeros(3)
    for rho, half, norm, s in _polar_blocks(e, uphi, _D2_CUT):
        norm_q += _block_norm_q(rho, half, norm, s, q)
        hat = norm * s
        if np.any(shift):
            hat *= _expi(np.multiply.outer(shift, -2 * np.pi * rho), np.empty_like(hat))
        b = ball_hat(2, rho)
        h = hat - b
        # b and |b|^{q-2} depend on rho alone: the means over phi come first
        re2, im2 = (np.mean(v * v, axis=0) for v in (h.real, h.imag))
        parts = np.stack([b * np.mean(h.real, axis=0), re2 + im2, re2 - im2])
        kron, err = gk15_sums(parts * (np.abs(b) ** (q - 2.0) * 2 * np.pi * rho), half)
        terms += kron.sum(axis=-1)
        rule += err.sum(axis=-1)
    # past the cut |1_E^| <= c_e rho^{-3/2} and |b| <= c_b rho^{-3/2}, the
    # largest on the last block, |h| <= |1_E^| + |b|, and the remainder is at
    # most |1_E^|^q + |b|^q + q|b|^{q-1}|h| + q(q-1)/2 |b|^{q-2}|h|^2
    c_e, c_b = (float(np.max(np.abs(v) * rho**1.5)) for v in (hat, b))
    bound = (c_e**q + c_b**q + q * c_b ** (q - 1.0) * (c_e + c_b)
             + 0.5 * q * (q - 1.0) * c_b ** (q - 2.0) * (c_e + c_b) ** 2)
    expo = 1.5 * q - 2.0
    norm_q += (tail, tail_err)
    return (*norm_q.tolist(), route), terms, rule, 2 * np.pi * bound * _D2_CUT ** (-expo) / expo


def quadratic_terms(e, q: float) -> dict:
    """<f*L_q, f> and <f*L_q, f~>."""
    if e.dimension == 2:  # the d = 2 terms need L_q continuous
        _check_exponent("L", 2, q)
    else:
        _check_peak(1, q)
    _, ll, lr = (_planar_pass(e, q)[1] if e.dimension == 2 else _terms_1d(e, q)[0]).tolist()
    return {"LL": ll, "Lrefl": lr}


@lru_cache(maxsize=16)
def _ball_phi(d: int, q: float):
    """Phi_q of the unit ball through the pipeline of the direct value; it
    depends on (d, q) alone, so the reports of a family share it."""
    if d == 1:
        return phi_q(IntervalSet([(-1.0, 1.0)]), q, _TIGHT)
    return phi_q(StarSet.unit_disc(), q, _TIGHT, radial_cut=_D2_CUT)


def expansion_report(e, q: float) -> ExpansionReport:
    """All expansion terms, the direct value, and the residual."""
    d = e.dimension
    ball = IntervalSet([(-1.0, 1.0)]) if d == 1 else StarSet.unit_disc()
    delta = symdiff_measure(e, ball)
    if delta > 0.3 * (2.0 if d == 1 else np.pi):
        raise DomainError("expansion regime requires |E triangle B| <= 0.3 |B|")
    if q > 3.0:
        order = "2+rho"
    elif q == 3.0:
        order = "2"
    else:
        if d != 1:
            raise DomainError("the first-order expansion for 2 < q < 3 is d = 1 only")
        order = "q-1"
    # below q = 3 the quadratic terms drop out of the first-order form
    weights = np.array([q, q * q / 4.0, q * (q - 2.0) / 4.0]) * [1.0, q >= 3.0, q >= 3.0]
    if d == 2:
        _check_exponent("L", 2, q)
        norm, terms, rule, tail = _planar_pass(e, q)
        # phi_q's result, and its Babenko guard, from the pass's norm
        direct = _phi_result(*norm, e.measure, q, 2, _TIGHT)
        err = float(weights @ rule) + tail
    else:
        _check_peak(1, q)
        terms, rule = _terms_1d(e, q, quadratic=q >= 3.0)
        direct, err = phi_q(e, q, _TIGHT), float(weights @ rule)
    t_k, t_ll, t_lr = (weights * terms).tolist()
    base = _ball_phi(d, q)
    # the errors of the norms ||1_E^||_q^q = Phi^q |E|^{q-1}, not of Phi
    err += sum(q * r.error_estimate * r.norm_q_pow_q / r.phi for r in (direct, base))
    residual = direct.norm_q_pow_q - base.norm_q_pow_q - t_k - t_ll - t_lr
    return ExpansionReport(q, d, direct.norm_q_pow_q, base.norm_q_pow_q, t_k, t_ll, t_lr,
                           residual, delta, order, err)


def remainder_slope(family, q: float, eps_list) -> dict:
    """Least-squares slope of log |residual| against log |E triangle B|."""
    eps = sorted(float(t) for t in eps_list)
    if len(eps) < 4 or eps[0] <= 0:
        raise DomainError("need at least 4 positive epsilon values")
    if eps[-1] / eps[0] < 7.9:
        raise DomainError("epsilon values should span close to a decade")
    rows = []
    noise = 0.0
    for t in eps:
        rep = expansion_report(family(t), q)
        rows.append((rep.symdiff, rep.residual))
        noise = max(noise, rep.error_estimate)
    resid = np.array([abs(r) for _, r in rows])
    deltas = np.array([s for s, _ in rows])
    if np.max(resid) < 10.0 * max(noise, 1e-14):
        return {"slope": float("nan"), "noise_limited": True, "rows": rows}
    slope = float(np.polyfit(np.log(deltas), np.log(np.maximum(resid, 1e-300)), 1)[0])
    return {"slope": slope, "noise_limited": False, "rows": rows}


# ---------------------------------------------------------------------------
# epsilon-families (volume-true by construction or by dilation)
# ---------------------------------------------------------------------------

def sliver_family_1d(eps: float) -> IntervalSet:
    """Move a boundary sliver of width eps outward: balanced, |E| = 2."""
    if not (0 < eps < 0.5):
        raise DomainError("eps must lie in (0, 1/2)")
    return IntervalSet([(-1.0, 1.0 - eps), (1.0, 1.0 + eps)])


def translated_ball(t: float, d: int = 1):
    if d == 1:
        return IntervalSet([(-1.0 + t, 1.0 + t)])
    return StarSet(1.0, affine=AffineMap(np.eye(2), np.array([t, 0.0])))


def star_mode_family(eps: float, n_mode: int = 4) -> StarSet:
    """r(theta) = 1 + eps cos(n theta), dilated back to ball measure."""
    if n_mode < 3:
        raise DomainError("use modes >= 3 (lower modes are affine directions)")
    coeffs = [0.0] * n_mode
    coeffs[n_mode - 1] = eps
    return StarSet(1.0, a_coeffs=coeffs).with_measure(np.pi)
