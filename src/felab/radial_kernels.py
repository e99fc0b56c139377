"""The ball transform, the radial kernels, and their boundary derivative.

Conventions
-----------
Fourier transform: f^(xi) = int e^{-2 pi i x.xi} f(x) dx.  The unit-ball
transform is radial; with r = |xi|,

    d=1:  B^(r) = sin(2 pi r) / (pi r)
    d=2:  B^(r) = J_1(2 pi r) / r
    d=3:  B^(r) = (sin(2 pi r) - 2 pi r cos(2 pi r)) / (2 pi^2 r^3)

equivalently B^(r) = r^{-d/2} J_{d/2}(2 pi r).  The two kernels are the
radial inverse transforms

    K-kind:  g = B^ |B^|^{q-2}      (first-variation kernel)
    L-kind:  g = |B^|^{q-2}         (second-variation kernel)

computable for q above 3 - 2/(d+1) (K) and q_d = 4 - 2/(d+1) (L).

The boundary derivative gamma = -dK/dr at r = 1 is evaluated spectrally
(differentiating under the integral), which collapses to the nonnegative
integrand

    gamma(q, d) = 4 pi^2 int_0^inf rho^{1+d} |B^(rho)|^q drho
                = 4 pi^2 int_0^inf rho^{1 - d(q-2)/2} |J_{d/2}(2 pi rho)|^q drho,

a power envelope times an oscillation of period 1/2; the first form cannot
overflow (|B^| <= omega_d) and runs on ball_hat's closed forms for d <= 3.
Like the ball norms', its fixed head is cut at the zeros of B^ and its
periodic tail starts at the last, so the kinks of |B^|^q fall on panel and
period edges.  For d = 1 this is 2 pi^{2-q} int |xi|^{2-q} |sin(2 pi xi)|^q.

Profile evaluation
------------------
Every kernel mesh is one sum, |S^{d-1}| int rho^{d-1} g(rho) w_d(2 pi r rho)
drho, w_1 = cos, w_2 = J_0, w_3(y) = sin y / y, cut at the zeros of B^ (the
|t|^a kinks of g, a = q - 1 for K and q - 2 for L): each zero segment holds
m equal 16-point panels, m set by the largest radius and by a so that none
spans more than 2.2 periods of w_d or 1 / (1.2 sqrt(a)) in rho, where the
peaks of g narrow.  At non-even q a panel that ends at a zero takes the
Gauss-Jacobi rule of (1 +- x)^a, or of (1 - x^2)^a where m = 1, and
integrates the kink as Gauss-Legendre, which every other panel takes (all
of them at even q), integrates a smooth g.  Each mesh refuses, once, a
radius past a fixed bound, 115.5 (d = 1), 57.75 (d = 2 K, d = 3) or 28.88
(d = 2 L), the reach of the GK15 meshes these panels replaced.
``kernel_values`` adds one fixed slack, _KERNEL_SLACK (1 + |v|), to every
error.  d = 1: the mesh is a head on [0, 1], two zero segments; past it
g(xi) = pi^{-s} xi^{-s}
P(2 pi xi), s = q-1 (K) or q-2 (L), P = sin(u)|sin u|^{q-2} or
|sin u|^{q-2}, and one table of P's Fourier series (finite for q = 4, 6, 8)
meets the power tails int_1^inf xi^{-s} e^{ic xi} dxi in one coefficients
x tails product over the (frequency, radius) pairs, cut where |E(c)| <= min(2/|c|, 1/(s-1))
bounds all it drops by 1e-13, the reported truncation term.  At c = 2 pi
(f +- x), e^{ic} = e^{+-2 pi ix} is one exp per radius, so the power tail is
e^{-ic} E_s(-ic) (``quadrature._power_tail``): a Gauss-Legendre head in log
xi up to |c| xi = 2, then E_s's continued fraction (DLMF 8.19) by modified
Lentz on the pairs sorted by |c|, shedding each converged leading run; it
matches mpmath to ~1e-13 relative.  The same engine gives the d = 1
expansion terms' antiderivatives int_0^x K and int_0^t int_0^u L.
d = 2 and 3: the same panels on every zero segment of B^.  In d = 2 K runs
on them to the last zero below 120, or to an earlier zero past 40 where its
tail bound has fallen to a tenth of the slack; L runs on them to 160, then
sums the a_0 part of the L table in closed form, Hankel's expansion of J_0
times M_1's to the power q - 2 on the power-tail engine, every radius at
once.  Past the last zero of B^ each bounds the harmonics of its table
beating against J_0 in one routine.  In d = 3 they run to a cut where g has
decayed, plus a tail bound.  At r = 0, d = 2 and 3 take the moment
|S^{d-1}| int rho^{d-1} g from the head-plus-periodic-tail integral.

Convention: omega_0 = 1, so the d = 1 instances of the slicing formulas
match the closed forms.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from ._pwpoly import nfold_indicator_convolution
from .errors import ArityError, CapabilityError, DomainError, ThresholdError
from .quadrature import (
    DEFAULT_CONFIG,
    IntegralResult,
    _power_tail,
    gk15_panels,
    gk15_sums,
    kink_mesh,
    kink_rules,
    radial_head_tail,
)

__all__ = [
    "omega",
    "q_threshold",
    "ball_hat",
    "RadialKernel",
    "kernel_profile",
    "kernel_values",
    "exact_kernel_1d",
    "gamma_qd",
    "gamma_qd_detailed",
    "gamma_1d_closed_form",
    "rho_d",
    "ball_norm_q",
    "FirstVariationResult",
    "first_variation_check",
    "default_variation_grids",
]


def omega(d: int) -> float:
    """Volume of the unit ball; omega(0) = 1 by convention."""
    if d < 0:
        raise DomainError("dimension must be >= 0")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def q_threshold(kind: str, d: int) -> float:
    """Computability threshold: q_d = 4 - 2/(d+1) for L, 3 - 2/(d+1) for K."""
    if kind == "L":
        return 4.0 - 2.0 / (d + 1)
    if kind == "K":
        return 3.0 - 2.0 / (d + 1)
    raise DomainError(f"kind must be 'K' or 'L', got {kind!r}")


def _check_exponent(kind: str, d: int, q: float) -> None:
    thr = q_threshold(kind, d)
    if not (q > thr):
        raise ThresholdError(
            f"{kind}-kind kernel needs q > {thr:.6g} in d={d} "
            f"(continuity threshold q_d = 4 - 2/(d+1)); got q = {q}",
            thr,
        )
    _check_peak(d, q)


def _check_peak(d: int, q: float) -> None:
    """Refuse q whose peak omega_d^(q-1) = |B^(0)|^(q-1) leaves the float range
    (q = inf among them): the kernels, gamma and the sphere spectrum."""
    if not (q - 1.0) * math.log(omega(d)) < math.log(np.finfo(float).max):
        raise DomainError(f"need a finite exponent q whose peak omega_{d}^(q-1) "
                          f"= |B^(0)|^(q-1) stays in the float range; got q = {q}")


# ---------------------------------------------------------------------------
# ball transform
# ---------------------------------------------------------------------------

def ball_hat(d: int, r):
    """Fourier transform of the unit-ball indicator at radius r >= 0."""
    if d not in (1, 2, 3):
        raise CapabilityError(f"ball_hat supports d in {{1,2,3}}, got {d}")
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if np.any(r < 0):
        raise DomainError("radius must be >= 0")
    if d == 1:
        out = 2.0 * np.sinc(2.0 * r)
    else:  # c J_1(x) / x, or c j_1(x) / x in d = 3, with c = 2 pi (d - 1) and x = 2 pi r,
        # keep their digits at small x, unlike (sin x - x cos x) / x^3; at x = 0 they are c / d.
        # Below x = 1e-3 scipy's j_1 misses by ~24 ulp, and j_1(x) / x = (1 - x^2/10
        # (1 - x^2/28)) / 3 holds rounding (the next term is x^6 / 15120)
        x = 2.0 * np.pi * r
        pos = x > 0
        c = 2.0 * np.pi * (d - 1)
        out = np.full_like(r, c / d)
        out[pos] = c * (special.j1(x[pos]) if d == 2 else special.spherical_jn(1, x[pos])) / x[pos]
        if d == 3:
            small = x < 1e-3
            out[small] = c / 3.0 * (1.0 - x[small] ** 2 / 10.0 * (1.0 - x[small] ** 2 / 28.0))
    return float(out[0]) if scalar else out


def _ball_hat_zeros(d: int, rho: float) -> np.ndarray:
    """Every zero of B^ in (0, rho]: k/2 for d = 1, else j_{d/2,s} / 2 pi by
    McMahon's expansion and Newton (DLMF 10.21(vii)), all s at once."""
    if d == 1:
        return np.arange(1, math.floor(2.0 * rho) + 1) / 2.0
    nu = d / 2.0
    mu = 4.0 * nu * nu
    # zero s lies near (s + nu/2 - 1/4)/2; one candidate past that count covers the error
    beta = (np.arange(1, math.floor(2.0 * rho - 0.5 * nu + 0.25) + 2) + 0.5 * nu - 0.25) * math.pi
    x = beta - (mu - 1.0) / (8.0 * beta) - (mu - 1.0) * (7.0 * mu - 31.0) / (384.0 * beta**3)
    for _ in range(3):
        jj = special.jv(nu, x)
        x -= jj / (special.jv(nu - 1.0, x) - nu / x * jj)
    return x[x <= 2.0 * math.pi * rho] / (2.0 * math.pi)


def _g_radial(kind: str, d: int, q: float, rho: np.ndarray) -> np.ndarray:
    """The kernel's Fourier-side profile g(rho) = B^ |B^|^{q-2} or |B^|^{q-2}."""
    bh = ball_hat(d, rho)
    mag = np.abs(bh) ** (q - 2.0)
    return bh * mag if kind == "K" else mag


def _series(kind: str, q: float) -> tuple:
    """(frequencies, coefficients, truncation bound) of the periodic factor.

    K-kind: sin(u)|sin u|^{q-2} = sum b_j sin(ju), frequencies j odd, with
    mu = q-1: b_1 = 2 Gamma(mu+1) / (2^mu Gamma((mu+3)/2) Gamma((mu+1)/2)),
    b_{j+2} = -b_j (mu-j) / (mu+j+2).
    L-kind: |sin u|^{q-2} = a_0 + sum a_m cos(2mu), frequencies 0 and 2m,
    with nu = q-2: c_0 = Gamma(nu+1) / (2^nu Gamma(nu/2+1)^2),
    c_m = c_{m-1} (m-1-nu/2) / (m+nu/2), a_0 = c_0, a_m = 2 c_m.
    At even q the recurrences end (sin^n u is a finite sum); otherwise the
    table stops at frequency ~800, and the truncation term bounds the sum of
    |coefficients| past it; for K at mu < 801 the |b_j| telescope and it is
    that sum, |b_801| (801 - mu) / (2 mu).  Every coefficient is kept, however
    small: the d = 1 kernel cuts the table where its own bound says so.
    """
    s = q - 1.0 if kind == "K" else q - 2.0
    lead = math.lgamma(s + 1.0) - s * math.log(2.0)
    if kind == "K":
        freqs = np.arange(1, 802, 2)
        lead += math.log(2.0) - math.lgamma((s + 3.0) / 2.0) - math.lgamma((s + 1.0) / 2.0)
        steps = -(s - freqs[:-1]) / (s + freqs[:-1] + 2.0)
        rest = (801.0 - s) / (2.0 * s) if s < 801.0 else 801.0 / s
    else:
        freqs = np.arange(0, 801, 2)
        lead -= 2.0 * math.lgamma(s / 2.0 + 1.0)
        m = freqs[1:] // 2
        steps = (m - 1.0 - s / 2.0) / (m + s / 2.0) * np.where(m == 1, 2.0, 1.0)  # a_m = 2 c_m
        rest = 400.0 / max(s, 0.5)
    coeffs = math.exp(lead) * np.cumprod(np.concatenate([[1.0], steps]))
    trunc = float(np.abs(coeffs[-1])) * rest
    return freqs, coeffs, trunc


# the largest radius each kernel mesh serves, by (d, kind): fixed bounds, a period
# of w_d per four node gaps of the GK15 panels 1/48 (d = 1), 1/24 (d = 2 K, d = 3)
# and 1/12 (d = 2 L) wide that meshed the kernels before the 16-point panels, which
# keep >= 7 nodes a period up to them
_MAX_RADIUS = {(1, "K"): 115.5, (1, "L"): 115.5, (2, "K"): 57.75, (2, "L"): 28.875,
               (3, "K"): 57.75, (3, "L"): 57.75}


def _check_resolved(kind: str, d: int, radii: np.ndarray) -> None:
    """Refuse radii past the kernel mesh's bound, _MAX_RADIUS[d, kind]."""
    bound = _MAX_RADIUS[d, kind]
    if np.any(radii > bound):
        raise DomainError(f"the {kind}-kind kernels in d = {d} resolve radii up to {bound:.4g}, "
                          f"the fixed bound of their mesh; got r = {np.max(radii):.6g}")


# every kernel value's error adds _KERNEL_SLACK (1 + |value|), which the d = 1
# expansion terms carry too
_KERNEL_SLACK = 1e-11

# (radius, node) or (frequency, radius) pairs per block of the kernel meshes
# and of the d = 1 tail product: their working arrays stay near 0.5 MB at any
# number of radii and nodes
_PAIR_CHUNK = 1 << 16

# |S^{d-1}| (exact: omega(1) is 2 less an ulp), the radial wave w_d of a radial
# profile's inverse transform and, on the line, the waves of its antiderivatives
# (1 - cos y as 2 sin^2(y/2), exact at small y); the d = 1 head's cuts and kink flags
_SPHERE = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}
_WAVE = {(1, 0): np.cos, (2, 0): special.j0, (3, 0): lambda y: np.sin(y) / y,
         (1, 1): np.sin, (1, 2): lambda y: 2.0 * np.sin(0.5 * y) ** 2}
_HEAD_CUTS, _HEAD_KINKS = np.array([0.0, 0.5, 1.0]), np.array([False, True, True])
# a kernel mesh's panels span at most _PERIODS periods of w_d at the largest radius,
# and at most 1 / (_PEAK sqrt(a)) in rho, as the peaks of g ~ |B^|^a narrow like
# 1 / sqrt(a): within 6e-14 (1 + max |v|) of a fine graded mesh up to the float range
_PERIODS, _PEAK = 2.2, 1.2


def _radial_sum(kind: str, d: int, q: float, radii: np.ndarray, cuts: np.ndarray,
                kinked: np.ndarray, order: int = 0) -> np.ndarray:
    """|S^{d-1}| int rho^{d-1} g(rho) w_d(2 pi r rho) drho over [cuts[0], cuts[-1]],
    w_1 = cos, w_2 = J_0, w_3(y) = sin y / y (r > 0), or in d = 1 its ``order``-th
    antiderivative in r, w(y) / (2 pi rho)^order.

    Each segment between ``cuts`` holds m = ceil(length x max(max r / _PERIODS,
    _PEAK sqrt(a))) equal 16-point panels (``quadrature.kink_mesh``), a = q - 1
    for K and q - 2 for L.  At non-even q a panel that ends at a ``kinked`` cut, a
    zero of B^ where g has a |t|^a kink, takes the Gauss-Jacobi rule of that kink,
    and every other panel Gauss-Legendre, as all do at even q.  The mesh is swept
    in blocks of at most _PAIR_CHUNK pairs: runs of segments of at most _PAIR_CHUNK
    nodes, each against as many radii as fit.  Its callers refuse the radii it does
    not resolve.
    """
    a = q - 1.0 if kind == "K" else q - 2.0
    rules = kink_rules(a if q % 2 else None)
    per_length = max(radii.max(initial=0.0) / _PERIODS, _PEAK * math.sqrt(a))
    m = np.ceil(np.diff(cuts) * per_length).astype(int)
    out = np.zeros_like(radii)
    step = max(1, _PAIR_CHUNK // (16 * int(m.max())))  # segments per run
    for lo in range(0, len(m), step):
        nodes, weights = kink_mesh(cuts[lo:lo + step + 1], kinked[lo:lo + step + 1],
                                   m[lo:lo + step], rules)
        w = _SPHERE[d] * weights * _g_radial(kind, d, q, nodes) * nodes ** (d - 1)
        w /= (2 * np.pi * nodes) ** order
        rows = max(1, _PAIR_CHUNK // len(nodes))
        for r0 in range(0, len(radii), rows):
            out[r0:r0 + rows] += _WAVE[d, order](2 * np.pi * np.outer(radii[r0:r0 + rows], nodes)) @ w
    return out


def _kernel_values_1d(q: float, *parts):
    """Per part (kind, order, x), the d = 1 kernel or its first or second
    antiderivative in r at radii x >= 0, 2 int_0^inf g(xi) W dxi with W = cos y,
    sin y / (2 pi xi) or 2 sin^2(y/2) / (2 pi xi)^2, y = 2 pi x xi, and the
    bound on the series terms cut (``kernel_values`` adds the slack): a head on
    [0, 1] (``_radial_sum``, with the kinks of g at 1/2 and 1), then each series
    term against the power tails at 2 pi (f +- x) at the exponent
    s + order, q for K at order 1 and L at order 2, for every q > 2.  At
    order 1 the phase turns by -i; at order 2 the tail is T(0) - T(x), T the
    order-0 sum.  The parts share that exponent (K at order 1 with L at order
    2, or one part), and one call when they fit.  Each part refuses radii past
    115.5 (``_check_resolved``); up to there the head errs by <= 3e-15
    (1 + max |v|) against a graded GK15 mesh 8 times as fine at q <= 6."""
    blocks, out = [], []
    for kind, order, x in parts:
        s = q - 1.0 if kind == "K" else q - 2.0
        p, pref = s + order, 2.0 * np.pi ** -s / (2 * np.pi) ** order
        _check_resolved(kind, 1, x)
        freqs, coeffs, trunc = _series(kind, q)
        # term f is at most |b_f| (w(f) + w(f - max x)) / 2, w(t) = min(1/(pi t), 1/(p-1))
        # >= |E(2 pi t)|, plus |b_f| w(f) at order 2, and falls with f: keep the
        # fewest leading terms whose rest, table tail too, is <= 1e-13
        f = np.append(freqs, freqs[-1] + 2.0)
        w = ((0.5 + (order == 2)) / np.maximum(np.pi * f, p - 1.0)
             + 0.5 / np.maximum(np.pi * (f - x.max(initial=0.0)), p - 1.0))
        dropped = pref * np.cumsum((np.append(np.abs(coeffs), trunc) * w)[::-1])[::-1]
        n = np.count_nonzero(dropped[:-1] > 1e-13)
        xt = np.append(x, 0.0) if order == 2 else x
        head = _radial_sum(kind, 1, q, x, _HEAD_CUTS, _HEAD_KINKS, order)
        out.append((head, pref, np.empty_like(xt), float(dropped[n])))
        step = max(1, _PAIR_CHUNK // max(2 * n, 1))
        for lo in range(0, len(xt), step):
            xc = xt[lo:lo + step]
            c = 2 * np.pi * (freqs[:n, None] + np.stack([xc, -xc])[:, None])
            blocks.append((out[-1][2][lo:lo + step], kind, order, coeffs[:n], xc, c))
    ends = np.cumsum([b[-1].size for b in blocks])
    if len(blocks) > 1 and ends[-1] <= _PAIR_CHUNK:
        flat = _power_tail(p, np.concatenate([b[-1].ravel() for b in blocks]))
        tables = [flat[e - b[-1].size:e].reshape(b[-1].shape) for e, b in zip(ends, blocks)]
    else:
        tables = [_power_tail(p, b[-1]) for b in blocks]
    for (tail, kind, order, coeffs, xc, _), table in zip(blocks, tables):
        plus, minus = coeffs @ table
        # e^{ic} at c = 2 pi (f + x), f an integer, turned by -i at order 1 (cos to sin)
        phase = np.exp(2j * np.pi * (xc - np.round(xc))) * (1, -1j, 1)[order]
        tail[:] = 0.5 * (np.imag if kind == "K" else np.real)(phase * plus + np.conj(phase) * minus)
    return [(head + pref * (tail[-1] - tail[:-1] if order == 2 else tail), cut)
            for (_, order, _), (head, pref, tail, cut) in zip(parts, out)]


def _moment(kind: str, d: int, q: float):
    """The kernel at r = 0, |S^{d-1}| int_0^inf rho^{d-1} g(rho) drho, and its error.

    The envelope decays like rho^{-p}, p = (d+1)(q-2+s)/2 - (d-1) with s = 1
    (K) or 0 (L): p > 1 exactly above q_threshold.  The tail starts at a
    zero of B^; a K tail alternates by half period, but the ladder reads
    only even period counts.  The tolerance sits below the kernel slack."""
    a = q - 1.0 if kind == "K" else q - 2.0
    p = (d + 1.0) * a / 2.0 - (d - 1.0)
    res = radial_head_tail(lambda rho: rho ** (d - 1) * _g_radial(kind, d, q, rho),
                           _ball_hat_zeros(d, 20.0), p, 1e-12, a if q % 2 else None)
    value = _SPHERE[d] * res.value
    return value, _SPHERE[d] * res.error_estimate


def _envelope(p: float, rho):
    """env = 2 pi rho^{1-p} M_1(2 pi rho)^p, M_1 = |J_1 + i Y_1|, the amplitude of the
    d = 2 integrand 2 pi rho g(rho), p = q - 1 (K) or q - 2 (L)."""
    return 2.0 * np.pi * rho ** (1.0 - p) * np.hypot(special.j1(2 * np.pi * rho),
                                                     special.y1(2 * np.pi * rho)) ** p


def _harmonic_tail_bound(kind: str, q: float, x: np.ndarray, z: float) -> np.ndarray:
    """A bound on the d = 2 kernel integral past z, a zero of B^ (for L, of all
    but its a_0 part).  There the integrand is, with env and p of ``_envelope``,
    env(rho) M_0 cos(phi_0) sum_j c_j cos(j phi + e_j), J_1 = M_1 cos(phi) and
    J_0 = M_0 cos(phi_0) at 2 pi rho and 2 pi r rho, and c the ``_series``
    table.  env M_0 decreases, asymptotically like rho^{-s}, s = 3p/2 - 1/2, so
    by the second mean value theorem each harmonic, beating at nu = |j +- r|
    (the phase rates' limits), leaves at most env(z) M_0(z) |c_j| / 2 times
    min(1 / (pi nu), z / (s - 1)), the latter where the beat goes stationary
    (r near j), as the table's truncation term does."""
    freqs, coeffs, trunc = _series(kind, q)
    p, s = (q - 1.0, 1.5 * q - 2.0) if kind == "K" else (q - 2.0, 1.5 * q - 3.5)
    if kind == "L":
        freqs, coeffs = freqs[1:], coeffs[1:]
    amp0 = np.hypot(special.j0(2 * np.pi * x * z), special.y0(2 * np.pi * x * z))
    tails = sum(np.abs(coeffs) @ (1.0 / np.maximum(np.pi * np.abs(freqs[:, None] + sx),
                                                   (s - 1.0) / z)) for sx in (x, -x))
    return _envelope(p, z) * amp0 * (0.5 * tails + trunc * z / (s - 1.0))


def _kernel_values_2d_K(q: float, x: np.ndarray):
    """K-kind: ``_radial_sum`` on the zeros of B^ up to Z, and ``_harmonic_tail_bound`` on
    the rest.  Z is the last zero below 120, or an earlier one past 40 where the bound is
    at most _KERNEL_SLACK / 10.  The bound times Z^s, s = 3q/2 - 2, rises with Z (each
    harmonic's share does, and env M_0 Z^s up to ~1e-5), so the bound at 120 predicts
    that zero from above, and one more bound there confirms it."""
    _check_resolved("K", 2, x)
    cuts = np.r_[0.0, _ball_hat_zeros(2, 120.0)]
    bound = _harmonic_tail_bound("K", q, x, cuts[-1])
    end = cuts[-1] * (np.max(bound) / (0.1 * _KERNEL_SLACK)) ** (1.0 / (1.5 * q - 2.0))
    k = int(np.searchsorted(cuts, max(end, 40.0)))
    if k < len(cuts) - 1:
        early = _harmonic_tail_bound("K", q, x, cuts[k])
        if np.max(early) <= 0.1 * _KERNEL_SLACK:
            cuts, bound = cuts[:k + 1], early
    return _radial_sum("K", 2, q, x, cuts, cuts > 0.0), bound


# L's a_0 part past Z takes Hankel's expansion of J_0(y) in _HANKEL_TERMS terms from
# y = _HANKEL_FROM on, where its first two omitted terms are ~3e-18
_HANKEL_FROM = 30.0
_HANKEL_TERMS = 16


def _a0_tail(q: float, x: np.ndarray, z: float):
    """a_0 int_z^inf env(rho) J_0(2 pi r rho) drho, the a_0 part of L past z (a zero of
    B^ near 160), at radii x > 0, and its error.

    With p = q - 2, env = 2 pi^{1-p} rho^{1-3p/2} sum_m e_m (2 pi rho)^{-2m}: M_1^2's
    expansion (DLMF 10.18.17) to the power p/2, three terms, the fourth (~(2 pi z)^-6
    relative) the error term.  J_0(y) = Re sqrt(2/(pi y)) e^{i(y - pi/4)} sum_k i^k a_k
    y^{-k} (DLMF 10.17.3), whose first two omitted terms bound the remainder (10.17(iii)).
    Each product term is C rho^{-sigma} e^{i c rho}, c = 2 pi r, whose integral past rho0
    is rho0^{1-sigma} e^{i c rho0} _power_tail(sigma, c rho0): one call a sigma, every
    radius at once.  The series starts at rho0 = max(z, _HANKEL_FROM / c).  Below it,
    [z, rho0] runs on GK15 panels in log rho, uniform in s log rho + c rho, s = max(1,
    3p/2 - 2): none spans more than 2 of phase or e^{2/s} of rho.  rho0 stops where
    the envelope's mass past it is eps of its mass past z (or at e^700), which bounds
    what is dropped there.
    The error adds _power_tail's 1e-12 relative and the rounding of the phase c rho0 on
    every term, the omitted terms, and the head's |K - G| and rounding: eps (16 + log2
    nodes) of its envelope's mass, each node's J_0 good to 2 sqrt(2y / pi) + 1 < 10 ulp
    (its phase y <= 30 to 3 ulp), plus the sum's rounding."""
    p, eps = q - 2.0, np.finfo(float).eps
    dec = 1.5 * p - 2.0  # env falls like rho^-(1 + dec), dec > 0 above q_d
    t = np.cumprod([1.0] + [(2 * k - 1) / (2 * k) * (1 - (2 * k - 1) ** 2 / 4) for k in (1, 2, 3)])
    e = [1.0]  # (sum_k t_k w^k)^{p/2} by J. C. P. Miller's recurrence
    for n in (1, 2, 3):
        e.append(sum(((0.5 * p + 1.0) * k - n) * t[k] * e[n - k] for k in range(1, n + 1)) / n)
    lead = _series("L", q)[1][0] * 2.0 * np.pi ** (1.0 - p)
    # a_0 int_z^inf env, with |e_m| in place of e_m: it bounds every part of the tail
    mass = lead * sum(abs(em) * (2 * np.pi * z) ** (-2.0 * m) for m, em in enumerate(e))
    mass *= z ** -dec / dec

    def env(rho):
        w = (2 * np.pi * rho) ** -2.0
        return lead * rho ** -(1.0 + dec) * (e[0] + w * (e[1] + w * e[2]))

    c = 2 * np.pi * x
    log_z = math.log(z)
    log_end = min(log_z - math.log(eps) / dec, 700.0)
    log_rho0 = np.clip(math.log(_HANKEL_FROM) - np.log(c), log_z, log_end)
    values = np.zeros_like(x)
    errors = np.full_like(x, mass * abs(e[3]) * (2 * np.pi * z) ** -6.0)
    h = np.nonzero(log_rho0 > log_z)[0]
    if h.size:
        s, ch = max(1.0, dec), c[h, None]
        t0, t1 = s * log_z + ch * z, s * log_rho0[h, None] + ch * np.exp(log_rho0[h, None])
        n = math.ceil(np.max(t1 - t0) / 2.0)
        tt = t0 + (t1 - t0) * np.arange(n + 1) / n
        # s log rho + c rho = t at rho = (s/c) W((c/s) e^{t/s}), rho = e^{t/s - W}
        edges = np.exp(tt / s - special.lambertw(np.exp(np.log(ch) - math.log(s) + tt / s)).real)
        edges[:, 0], edges[:, -1] = z, np.exp(log_rho0[h])
        half = 0.5 * np.log(edges[:, 1:] / edges[:, :-1])
        rho = edges[:, :-1, None] * np.exp(gk15_panels(half, half)[0])
        g = env(rho) * rho
        kron, rule = gk15_sums(g * special.j0(ch[..., None] * rho), half)
        values[h] = np.sum(kron, axis=1)
        rounding = eps * (16.0 + math.log2(rho[0].size)) * np.sum(gk15_sums(g, half)[0], axis=1)
        errors[h] += np.sum(rule, axis=1) + rounding
    capped = log_rho0 >= log_end
    errors[capped] += mass * np.exp(-dec * (log_end - log_z))
    k = np.nonzero(~capped)[0]
    if k.size:
        rho0, y0 = np.exp(log_rho0[k]), c[k] * np.exp(log_rho0[k])
        a = np.cumprod(np.r_[1.0, -(2 * np.arange(1, _HANKEL_TERMS + 2) - 1.0) ** 2
                             / (8 * np.arange(1, _HANKEL_TERMS + 2))])
        ks = np.arange(_HANKEL_TERMS)[:, None]
        hankel = 1j ** ks * a[:_HANKEL_TERMS, None] * y0 ** -ks.astype(float)
        table = np.array([_power_tail(1.5 * p - 0.5 + n, y0) for n in range(_HANKEL_TERMS + 4)])
        terms = np.concatenate([e[m] * (2 * np.pi * rho0) ** (-2.0 * m) * hankel
                                * table[2 * m:2 * m + _HANKEL_TERMS] for m in range(3)])
        scale = lead / (np.pi * np.sqrt(x[k])) * rho0 ** -(dec + 0.5)
        values[k] += scale * np.real(np.exp(1j * (y0 - 0.25 * np.pi)) * np.sum(terms, axis=0))
        rest = sum(abs(a[j]) * y0 ** (-0.5 - j) / (1.5 * p - 1.5 + j)
                   for j in (_HANKEL_TERMS, _HANKEL_TERMS + 1))
        errors[k] += ((1e-12 + 2 * eps * y0) * scale * np.sum(np.abs(terms), axis=0)
                      + mass * dec * math.sqrt(2.0 / np.pi) * (rho0 / z) ** -dec * rest)
    return values, errors


def _kernel_values_2d_L(q: float, x: np.ndarray):
    """L-kind: ``_radial_sum`` on the zeros of B^ up to Z, the last below 160.
    Past Z, with |cos phi|^{q-2} = a_0 + sum a_m cos(2 m phi), ``_a0_tail`` sums the a_0
    part a_0 env(rho) J_0(2 pi r rho) in closed form, and ``_harmonic_tail_bound``
    covers the other harmonics."""
    _check_resolved("L", 2, x)
    cuts = np.r_[0.0, _ball_hat_zeros(2, 160.0)]
    z, values = cuts[-1], _radial_sum("L", 2, q, x, cuts, cuts > 0.0)
    tail, errors = _a0_tail(q, x, z)
    return values + tail, errors + _harmonic_tail_bound("L", q, x, z)


def _kernel_values_3d(kind: str, q: float, x: np.ndarray):
    # the integrand decays like rho^{1 - 2(q-1)} (K) / rho^{1 - 2(q-2)} (L):
    # composite quadrature to a cut, plus a bound on the rest
    decay = 2.0 * (q - 1.0) - 1.0 if kind == "K" else 2.0 * (q - 2.0) - 1.0
    r_cut = max(60.0, (1e8) ** (1.0 / decay)) if decay < 8 else 60.0
    _check_resolved(kind, 3, x)
    zeros = _ball_hat_zeros(3, r_cut)
    cuts = np.unique(np.r_[0.0, zeros, r_cut])
    out = _radial_sum(kind, 3, q, x, cuts, np.isin(cuts, zeros))
    last = np.linspace(r_cut - 1.0, r_cut, 257)  # the last unit: two zero segments
    tail_bound = 4.0 * np.pi * np.max(np.abs(_g_radial(kind, 3, q, last))) * r_cut
    return out, tail_bound


def kernel_values(kind: str, d: int, q: float, radii):
    """Kernel values at arbitrary radii (the engine behind kernel_profile)."""
    _check_exponent(kind, d, q)
    radii = np.asarray(radii, dtype=float)
    if not np.all(np.isfinite(radii)) or np.any(radii < 0):
        raise DomainError("radii must be finite and >= 0")
    if d == 1:
        [(values, errors)] = _kernel_values_1d(q, (kind, 0, radii))
    elif d not in (2, 3):
        raise CapabilityError(f"kernel profiles support d in {{1,2,3}}, got {d}")
    else:  # r = 0 takes the moment; no mesh sum or per-radius tail runs there
        values, errors = np.empty_like(radii), np.empty_like(radii)
        pos = radii > 0
        if np.any(pos):
            if d == 3:
                values[pos], errors[pos] = _kernel_values_3d(kind, q, radii[pos])
            elif kind == "K":
                values[pos], errors[pos] = _kernel_values_2d_K(q, radii[pos])
            else:
                values[pos], errors[pos] = _kernel_values_2d_L(q, radii[pos])
        if not np.all(pos):
            values[~pos], errors[~pos] = _moment(kind, d, q)
    return values, errors + _KERNEL_SLACK * (1.0 + np.abs(values))


@dataclass(frozen=True)
class RadialKernel:
    """A kernel profile sampled on a radius grid, with the error of each sample."""

    kind: str
    dimension: int
    exponent: float
    radii: np.ndarray
    values: np.ndarray
    errors: np.ndarray

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("radius,value,error\n")
        for r, v, e in zip(self.radii, self.values, self.errors):
            buf.write(f"{r:.17g},{v:.17g},{e:.17g}\n")
        return buf.getvalue()


def kernel_profile(kind: str, d: int, q: float, r_max: float | None = None,
                   n_samples: int = 2048) -> RadialKernel:
    """Sample the K- or L-kind kernel on a uniform radius grid [0, r_max]."""
    _check_exponent(kind, d, q)
    if r_max is None:
        r_max = max(q, 4.0)
    if r_max <= 0 or n_samples < 8:
        raise DomainError("need r_max > 0 and n_samples >= 8")
    radii = np.linspace(0.0, r_max, n_samples)
    values, errors = kernel_values(kind, d, q, radii)
    return RadialKernel(kind, d, q, radii, values, errors)


def exact_kernel_1d(kind: str, q: float):
    """Exact piecewise-polynomial d=1 kernel for even integer q (test oracle)."""
    if q % 2 or q < 4:
        raise DomainError(f"exact kernels exist for even integer q >= 4; got q = {q}")
    n = int(q) - 1 if kind == "K" else int(q) - 2
    return nfold_indicator_convolution([(-1, 1)], n, exact=True)


# ---------------------------------------------------------------------------
# gamma, rho, and the first-variation condition
# ---------------------------------------------------------------------------

def gamma_qd_detailed(d: int, q: float) -> IntegralResult:
    """-dK_q/dr at r = 1, by differentiation under the integral sign.

    Inserting the ring factor turns the derivative into
    4 pi^2 int rho^{1+d} |B^(rho)|^q drho (nonnegative integrand).  Requires
    q > 3: below that the defining integral diverges and K_q is no longer
    differentiable at the boundary.
    """
    if not (q > 3.0):
        raise ThresholdError(f"gamma requires q > 3 (K differentiability); got q = {q}", 3.0)
    _check_peak(d, q)

    def f(rho):  # rho^{1+d} |B^|^q, any d: |B^| <= omega_d, so no factor overflows
        bh = ball_hat(d, rho) if d <= 3 else special.jv(d / 2.0, 2 * np.pi * rho) / rho ** (d / 2.0)
        return rho ** (1.0 + d) * np.abs(bh) ** q

    res = radial_head_tail(f, _ball_hat_zeros(d, 20.0), q * (d + 1.0) / 2.0 - d - 1.0, 1e-14,
                           q if q % 2 else None)
    value, err = 4.0 * np.pi**2 * res.value, 4.0 * np.pi**2 * res.error_estimate
    return IntegralResult(value, err, converged=bool(err <= DEFAULT_CONFIG.tolerance(value)))


def gamma_qd(d: int, q: float) -> float:
    return gamma_qd_detailed(d, q).value


def gamma_1d_closed_form(q: float) -> float:
    """2 pi^{2-q} int_R |xi|^{2-q} |sin(2 pi xi)|^q dxi (d = 1 closed form)."""
    if not (q > 3.0):
        raise ThresholdError(f"the closed-form integral converges only for q > 3; got {q}", 3.0)

    def f(xi):
        return np.where(xi > 0, xi ** (2.0 - q), 0.0) * np.abs(np.sin(2 * np.pi * xi)) ** q

    res = radial_head_tail(f, _ball_hat_zeros(1, 10.0), q - 2.0, 1e-14, q if q % 2 else None)
    return 4.0 * np.pi ** (2.0 - q) * res.value


def rho_d(d: int) -> float:
    """2 pi omega_{d-1} / omega_d times int_-1^1 s^2 (1-s^2)^{(d-1)/2} ds, which is
    2 pi / (d + 2): 2 pi times the ball's second moment int_B x_1^2 / omega_d."""
    if d < 1:
        raise DomainError("d must be >= 1")
    return 2.0 * np.pi / (d + 2)


def ball_norm_q(d: int, q: float) -> IntegralResult:
    """||B^||_q^q = d omega_d int_0^inf rho^{d-1} |B^(rho)|^q drho."""
    if not 2.0 < q < math.inf:
        raise DomainError("q must be a finite exponent > 2")

    def f(rho):
        return np.where(rho > 0, rho, 0.0) ** (d - 1) * np.abs(ball_hat(d, rho)) ** q

    res = radial_head_tail(f, _ball_hat_zeros(d, 20.0), q * (d + 1.0) / 2.0 - (d - 1.0), 1e-15,
                           q if q % 2 else None)
    value, err = d * omega(d) * res.value, d * omega(d) * res.error_estimate
    return IntegralResult(value, err, converged=bool(err <= DEFAULT_CONFIG.tolerance(value)))


@dataclass(frozen=True)
class FirstVariationResult:
    inner_min: float
    outer_max: float
    satisfied: bool
    margin: float
    error_bound: float


def default_variation_grids(d: int, q: float, n: int = 256, r_max: float | None = None):
    """Grids straddling r = 1 with a one-step gap (K is continuous at 1)."""
    if n < 1:
        raise DomainError("grids need n >= 1 points")
    if r_max is None:
        r_max = max(q, 4.0)
    inner = np.linspace(0.0, 1.0, n + 1)[:n]
    outer = np.linspace(1.0, r_max, n + 1)[1:]
    return inner, outer


def first_variation_check(d: int, q: float, inner_grid, outer_grid) -> FirstVariationResult:
    """Check min K over the inside grid >= max K over the outside grid."""
    inner = np.asarray(inner_grid, dtype=float)
    outer = np.asarray(outer_grid, dtype=float)
    if len(inner) == 0 or len(outer) == 0:
        raise ArityError("grids must be nonempty")
    vi, ei = kernel_values("K", d, q, inner)
    vo, eo = kernel_values("K", d, q, outer)
    i_min = int(np.argmin(vi))
    i_max = int(np.argmax(vo))
    inner_min = float(vi[i_min])
    outer_max = float(vo[i_max])
    err = float(ei[i_min] + eo[i_max])
    margin = inner_min - outer_max
    return FirstVariationResult(inner_min, outer_max, margin >= -err, margin, err)
