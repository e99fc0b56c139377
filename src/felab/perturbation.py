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

Inner products: in d = 1 the K-term integrates the sampled kernel profile
exactly (antiderivatives of the interpolating spline) and the quadratic
terms use exact interval algebra (q > 3) or the frequency mesh (q <= 3).
In d = 2 one sweep of E's polar mesh gives ||1_E^||_q^q bit for bit as
``phi_q`` at the same cut and, with b = B^ and h = 1_E^ - b, all three as
the frequency integrals of b|b|^{q-2} Re h, |b|^{q-2}|h|^2 and
|b|^{q-2} Re h^2; the report's error adds their rule errors and a bound on
the remainder dropped past the cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ThresholdError
from .functional import (_block_norm_q, _half_circle, _phi_result, _planar_tail, _polar_blocks,
                         _signed_exp_mesh, phi_q)
from .quadrature import QuadratureConfig, gk15_sums
from .radial_kernels import ball_hat, kernel_profile, q_threshold
from .set_model import AffineMap, IntervalSet, StarSet, symdiff_measure

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
# signed pieces of f = 1_E - 1_B
# ---------------------------------------------------------------------------

def _signed_pieces_1d(e: IntervalSet):
    """(left, right, sign) covering E \\ B (+1) and B \\ E (-1)."""
    pts = np.unique(np.concatenate([e.endpoints(), [-1.0, 1.0]]))
    pieces = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (lo + hi)
        in_e = any(l <= mid < r for l, r in e.intervals)
        in_b = -1.0 <= mid < 1.0
        if in_e and not in_b:
            pieces.append((lo, hi, 1.0))
        elif in_b and not in_e:
            pieces.append((lo, hi, -1.0))
    return pieces


@lru_cache(maxsize=16)
def _profile_1d(kind: str, q: float):
    r_max = max(q + 2.0, 6.0)
    return kernel_profile(kind, 1, q, r_max=r_max, n_samples=3072)


def inner_K(e, q: float) -> float:
    """<K_q, f> = int_{E\\B} K_q - int_{B\\E} K_q."""
    if e.dimension == 2:
        return float(_planar_pass(e, q, _TIGHT)[1][0])
    prof = _profile_1d("K", q)
    anti = prof._spline.antiderivative()

    def integral(a, b):
        # K is even; antiderivative of the even extension
        def cum(x):
            return math.copysign(1.0, x) * float(anti(min(abs(x), prof.r_max)))
        return cum(b) - cum(a)

    return float(sum(s * integral(a, b) for a, b, s in _signed_pieces_1d(e)))


def _planar_pass(e: StarSet, q: float, cfg: QuadratureConfig):
    """One sweep of E's polar mesh at the report's cut.  Returns ||1_E^||_q^q,
    its error and its route as ``phi_q(e, q, cfg, radial_cut=_D2_CUT)`` forms
    them (the mesh plus ``_planar_tail``); the terms (<K, f>, <f*L, f>,
    <f*L, f~>) and their GK15 rule terms; and a bound on the report's
    remainder past the cut.

    b = B^ and h = 1_E^ - b, with the phase of 1_E^ that the norm drops put
    back where it is not 1; the integrands b|b|^{q-2} Re h, |b|^{q-2}|h|^2 and
    |b|^{q-2} Re h^2 are even in xi, so the half circle carries them.
    """
    uphi = _half_circle(e)
    _, tail, tail_err, route = _planar_tail(e, uphi, q, cfg, _D2_CUT)
    shift = uphi @ e.affine.translation + (uphi @ e.affine.matrix) @ e.center
    norm_q, terms, rule = np.zeros(2), np.zeros(3), np.zeros(3)
    for rho, half, norm, s in _polar_blocks(e, uphi, _D2_CUT):
        norm_q += _block_norm_q(rho, half, norm, s, q)
        b = ball_hat(2, rho)
        hat = norm * s
        if np.any(shift):
            hat = hat * np.exp(-2j * np.pi * rho * shift[:, None, None])
        h = hat - b
        w = np.abs(b) ** (q - 2.0)
        parts = np.stack([b * w * h.real, w * (h.real**2 + h.imag**2), w * (h * h).real], axis=1)
        kron, err = gk15_sums(parts.mean(axis=0) * 2 * np.pi * rho, half)
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


def _quadratic_terms_freq_1d(e: IntervalSet, q: float) -> dict:
    """Frequency route: <f*L,f> = int |f^|^2 |B^|^{q-2},
    <f*L,f~> = Re int (f^)^2 |B^|^{q-2}.

    Needed at q = 3 where L_3 is singular in x-space (log spikes); also a
    cross-check of the interval-algebra route for q > 3.
    """
    m = len(e.intervals) + 1
    tol = 1e-9  # the terms enter residuals of order |E triangle B|^2 >> this
    cut = float(np.clip(((m / np.pi) ** 2 * np.pi ** (2.0 - q) / ((q - 1.0) * tol))
                        ** (1.0 / (q - 1.0)), 100.0, 2.0e4))
    diam = max(e.intervals[-1][1], 1.0) - min(e.intervals[0][0], -1.0)
    h = min(0.05, 0.5 / max(diam, 1.0))
    # f^ = P / (2 pi i xi) with E's endpoints and the ball's in one signed sum;
    # no centering, since the phase of f^ enters Lrefl
    ends = np.concatenate([e.endpoints(), [-1.0, 1.0]])
    signs = np.concatenate([np.resize([1.0, -1.0], 2 * m - 2), [-1.0, 1.0]])
    half, chunks = _signed_exp_mesh(ends, signs, cut, h)
    ll = 0.0
    lr = 0.0
    for xi, p in chunks:
        # |f^|^2 = |P|^2 / (2 pi xi)^2 and Re (f^)^2 = -Re P^2 / (2 pi xi)^2
        weight = np.abs(ball_hat(1, xi)) ** (q - 2.0) / (2 * np.pi * xi) ** 2
        ll += float(np.sum(gk15_sums((p.real**2 + p.imag**2) * weight, 1.0)[0]))
        lr -= float(np.sum(gk15_sums((p * p).real * weight, 1.0)[0]))
    return {"LL": 2.0 * half * ll, "Lrefl": 2.0 * half * lr}


def quadratic_terms(e, q: float) -> dict:
    """<f*L_q, f> and <f*L_q, f~>."""
    if e.dimension == 1:
        if q <= 3.0:
            return _quadratic_terms_freq_1d(e, q)
        prof = _profile_1d("L", q)
        a1 = prof._spline.antiderivative()
        a2 = a1.antiderivative()
        r_max = prof.r_max

        def lam(t):
            # double antiderivative of the even extension of L
            t = abs(t)
            if t <= r_max:
                return float(a2(t))
            return float(a2(r_max)) + (t - r_max) * float(a1(r_max))

        pieces = _signed_pieces_1d(e)

        def pair_sum(ps1, ps2):
            total = 0.0
            for (a, b, s1) in ps1:
                for (c, d, s2) in ps2:
                    total += s1 * s2 * (lam(b - c) - lam(a - c) - lam(b - d) + lam(a - d))
            return total

        reflected = [(-b, -a, s) for (a, b, s) in pieces]
        return {"LL": pair_sum(pieces, pieces), "Lrefl": pair_sum(pieces, reflected)}
    _check_planar_exponent(q)
    _, ll, lr = _planar_pass(e, q, _TIGHT)[1].tolist()
    return {"LL": ll, "Lrefl": lr}


def _check_planar_exponent(q: float) -> None:
    """The d = 2 quadratic terms need L_q continuous: q > q_2 = 10/3."""
    thr = q_threshold("L", 2)
    if not q > thr:
        raise ThresholdError(f"the d = 2 quadratic terms need q > {thr:.6g}; got q = {q}", thr)


@lru_cache(maxsize=16)
def _ball_phi(d: int, q: float, cfg: QuadratureConfig):
    """Phi_q of the unit ball through the pipeline of the direct value; it
    depends on (d, q, cfg) alone, so the reports of a family share it."""
    if d == 1:
        return phi_q(IntervalSet([(-1.0, 1.0)]), q, cfg)
    return phi_q(StarSet.unit_disc(), q, cfg, radial_cut=_D2_CUT)


def expansion_report(e, q: float, cfg: QuadratureConfig = _TIGHT) -> ExpansionReport:
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
    if d == 2:
        _check_planar_exponent(q)
        norm, terms, rule, tail = _planar_pass(e, q, cfg)
        # phi_q's result, and its Babenko guard, from the pass's norm
        direct = _phi_result(*norm, e.measure, q, 2, cfg)
        weights = np.array([q, q * q / 4.0, q * (q - 2.0) / 4.0])
        t_k, t_ll, t_lr = (weights * terms).tolist()
        err = float(weights @ rule) + tail
    else:
        direct, err = phi_q(e, q, cfg), 0.0
        t_k = q * inner_K(e, q)
        t_ll = t_lr = 0.0
        if q >= 3.0:
            quads = quadratic_terms(e, q)
            t_ll = q**2 / 4.0 * quads["LL"]
            t_lr = q * (q - 2.0) / 4.0 * quads["Lrefl"]
    base = _ball_phi(d, q, cfg)
    # the errors of the norms ||1_E^||_q^q = Phi^q |E|^{q-1}, not of Phi
    err += sum(q * r.error_estimate * r.norm_q_pow_q / r.phi for r in (direct, base))
    residual = direct.norm_q_pow_q - base.norm_q_pow_q - t_k - t_ll - t_lr
    return ExpansionReport(q, d, direct.norm_q_pow_q, base.norm_q_pow_q, t_k, t_ll, t_lr,
                           residual, delta, order, err)


def remainder_slope(family, q: float, eps_list,
                    cfg: QuadratureConfig = _TIGHT) -> dict:
    """Least-squares slope of log |residual| against log |E triangle B|."""
    eps = sorted(float(t) for t in eps_list)
    if len(eps) < 4 or eps[0] <= 0:
        raise DomainError("need at least 4 positive epsilon values")
    if eps[-1] / eps[0] < 7.9:
        raise DomainError("epsilon values should span close to a decade")
    rows = []
    noise = 0.0
    for t in eps:
        rep = expansion_report(family(t), q, cfg)
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
