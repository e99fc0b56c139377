"""Reference routines that only the tests use.

Independent routes the tests check felab against (Bessel and Gegenbauer
evaluators, a brute-force composite GK15 sum, the indicator transforms,
radial J_0 and J_1 integrals for the translated disc's expansion terms,
the disc's norm and its K and L kernels, the d = 2 L kernel's a_0 tail
past the mesh by Aitken's segment sum and by mpmath, the d = 2 K kernel on
its full mesh to rho = 120, the kernel mesh sum on GK15 panels (between given
edges, or on a fine mesh graded toward the zeros of B^) and the head of the radial
head-plus-tail integral on such a mesh, the circle-profile route to the circle
coefficients on a spline through a sampled profile, the
sphere-reduced second variation, the boundary radius by bisection, the
planar norm one radial panel at a time from the radial factor node by node,
the d = 1 quadratic expansion terms on the frequency side, the even-q d = 1
norm as an exact integer pair sum), the planar sets several test modules
share, report-only fits and probes, a local ascent from a given start, and
views of package objects that only the tests read.  None of them is called by
the package, its command line or its acceptance criteria.
"""

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
from scipy import integrate, special
from scipy.interpolate import CubicSpline

from felab._pwpoly import PiecewisePoly, _poly_add, _poly_antideriv, _poly_eval, _poly_shift
from felab.errors import ArityError, DomainError
from felab.functional import (
    _circle,
    _half_circle,
    _signed_exp_mesh,
    _star_hat_points,
    phi_ball,
    phi_q,
)
from felab.quadrature import (
    DEFAULT_CONFIG,
    IntegralResult,
    QuadratureConfig,
    gk15_panels,
    gk15_sums,
    integrate_adaptive,
    integrate_oscillatory_tail,
)
from felab.radial_kernels import (
    RadialKernel,
    _ball_hat_zeros,
    _envelope,
    _harmonic_tail_bound,
    _SPHERE,
    _WAVE,
    _g_radial,
    _radial_sum,
    _series,
    ball_hat,
    gamma_qd,
    kernel_values,
    omega,
)
from felab.search import SearchConfig, SearchResult, _ascend, _params_to_set, _set_to_params
from felab.set_model import AffineMap, IntervalSet, SphereProfile, StarSet, dist_to_ellipsoids
from felab.spectral import funk_hecke_eigenvalue, funk_hecke_eigenvalues


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def bessel_j(order: float, x):
    """Bessel function J_order for half-integer or integer order >= 0.

    Half-integer orders go through the closed trigonometric (spherical
    Bessel) forms; integer orders are delegated to the library evaluator,
    which switches between series and asymptotics internally.
    """
    twice = round(2 * order)
    if not np.isclose(2 * order, twice) or twice < 0:
        raise DomainError(f"order must be a nonnegative half-integer, got {order}")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("bessel_j requires finite x")
    if np.any(arr < 0):
        raise DomainError("bessel_j requires x >= 0")
    if twice % 2 == 0:
        out = special.jv(int(order), arr)
    else:
        n = (twice - 1) // 2
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.sqrt(2.0 * arr / np.pi) * special.spherical_jn(n, arr)
        out = np.where(arr == 0.0, 0.0, out)
    return out if isinstance(x, np.ndarray) else float(out)


def bessel_zeros(order: float, count: int) -> np.ndarray:
    """First ``count`` positive zeros of J_order (order half-integer or integer)."""
    if count < 1:
        raise ArityError("count must be >= 1")
    twice = round(2 * order)
    if twice % 2 == 0:
        return special.jn_zeros(int(order), count)
    if np.isclose(order, 0.5):
        return np.pi * np.arange(1, count + 1)
    # bracket the zeros around their asymptotic positions (k + order/2 - 1/4) pi
    from scipy.optimize import brentq

    zeros = []
    k = 1
    guard = 0
    while len(zeros) < count and guard < 10 * count + 100:
        guard += 1
        approx = (k + order / 2.0 - 0.25) * np.pi
        a, b = approx - 0.45 * np.pi, approx + 0.45 * np.pi
        a = max(a, order + 1e-6)
        fa, fb = bessel_j(order, a), bessel_j(order, b)
        if fa * fb < 0:
            zeros.append(brentq(lambda t: bessel_j(order, t), a, b, xtol=1e-13))
        k += 1
    if len(zeros) < count:
        raise DomainError(f"failed to bracket {count} zeros of J_{order}")
    return np.array(zeros)


def gegenbauer(k: int, lam: float, t: float) -> float:
    """Gegenbauer polynomial C_k^lam(t) by the three-term recurrence.

    For lam = 0 (the circle case) returns the Chebyshev normalization
    cos(k arccos t), which is the correct Funk-Hecke weight on S^1.
    """
    if k < 0:
        raise DomainError("k must be >= 0")
    if lam <= -0.5:
        raise DomainError("lam must exceed -1/2")
    if abs(t) > 1 + 1e-14:
        raise DomainError("t must lie in [-1, 1]")
    t = min(1.0, max(-1.0, t))
    if lam == 0.0:
        return math.cos(k * math.acos(t))
    if k == 0:
        return 1.0
    if k == 1:
        return 2.0 * lam * t
    c_prev, c_cur = 1.0, 2.0 * lam * t
    for m in range(2, k + 1):
        c_next = (2.0 * (m + lam - 1.0) * t * c_cur - (m + 2.0 * lam - 2.0) * c_prev) / m
        c_prev, c_cur = c_cur, c_next
    return c_cur


# ---------------------------------------------------------------------------
# quadrature and spectral reference routes
# ---------------------------------------------------------------------------

def integrate_composite(f, a: float, b: float, n_panels: int) -> IntegralResult:
    """Non-adaptive composite GK15 over equal panels, one vectorized call."""
    if not (a < b):
        raise DomainError(f"require a < b, got [{a}, {b}]")
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    x, _ = gk15_panels(0.5 * (edges[1:] + edges[:-1]), half)
    kron, err = gk15_sums(f(x), half)
    value = float(np.sum(kron))
    error = float(np.sum(err))
    return IntegralResult(value, error, converged=True)


def _interval_hat(e: IntervalSet, xi: np.ndarray) -> np.ndarray:
    """Exact sum over intervals of (e^{-2 pi i xi l} - e^{-2 pi i xi r})/(2 pi i xi)."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(xi.shape, dtype=complex)
    small = np.abs(xi) < 1e-10
    denom = np.where(small, 1.0, 2j * np.pi * xi)
    for l, r in e.intervals:
        out += (np.exp(-2j * np.pi * xi * l) - np.exp(-2j * np.pi * xi * r)) / denom
    if np.any(small):
        # analytic xi -> 0 limit: measure - i pi xi (r^2 - l^2) + O(xi^2)
        lim = sum((r - l) for l, r in e.intervals)
        slope = sum((r**2 - l**2) for l, r in e.intervals)
        out = np.where(small, lim - 1j * np.pi * xi * slope, out)
    return out


def indicator_hat(e, xi):
    """Fourier transform of the indicator of E at frequency xi."""
    arr = np.asarray(xi, dtype=float)
    out = _interval_hat(e, np.atleast_1d(arr)) if e.dimension == 1 else _star_hat_points(e, arr)
    return complex(out[0]) if arr.ndim == e.dimension - 1 else out


def circle_coeff(q: float, n: int) -> float:
    """Fourier coefficient Lhat(n) of the circle profile of L_q (d = 2): lambda_|n| / 2 pi."""
    return funk_hecke_eigenvalue(2, q, abs(n)) / (2.0 * np.pi)


def lens_area(r):
    """Area of the intersection of two unit discs at center distance r (= L_4 in d = 2)."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    m = r < 2
    out[m] = 2.0 * (np.arccos(r[m] / 2) - (r[m] / 2) * np.sqrt(1 - r[m] ** 2 / 4))
    return out


def disc_k4(r: float) -> float:
    """K_4(r) in d = 2, the triple self-convolution of the unit disc, r > 0.

    K_4(r) = int_0^{1+r} lens(s) s theta_r(s) ds, where theta_r(s) is the
    angle of the circle of radius s about (r, 0) that lies inside the unit
    disc.  theta_r has kinks at |1 - r| and 1 + r: the integral splits at the
    first and ends at the second (or at 2, where the lens vanishes).
    """
    def f(s):
        cos_edge = (r * r + s * s - 1.0) / (2.0 * r * s)
        return float(lens_area(s)) * s * 2.0 * math.acos(min(1.0, max(-1.0, cos_edge)))

    cut = abs(1.0 - r)
    return sum(integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
               for a, b in ((0.0, cut), (cut, min(1.0 + r, 2.0))) if b > a)


def _j1_gauss_nodes(lo: float, hi: float):
    """Nodes and weights of 40-point Gauss-Legendre between the zeros of
    J_1(2 pi rho) on [lo, hi]."""
    zeros = special.jn_zeros(1, int(2 * hi) + 2) / (2 * np.pi)
    cuts = np.r_[lo, zeros[(zeros > lo) & (zeros < hi)], hi]
    x, w = np.polynomial.legendre.leggauss(40)
    mid, half = 0.5 * (cuts[1:] + cuts[:-1]), 0.5 * np.diff(cuts)
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def disc_kernel_k(q: float, r, rho_max: float) -> np.ndarray:
    """K_q(r) in d = 2 cut at rho_max: 2 pi int_0^rho_max rho b |b|^{q-2}
    J_0(2 pi r rho) drho, b = J_1(2 pi rho) / rho, by 40-point Gauss-Legendre
    between the zeros of J_1, the kinks of b |b|^{q-2}."""
    return _disc_kernel("K", q, r, rho_max)


def disc_kernel_l(q: float, r, rho_max: float) -> np.ndarray:
    """L_q(r) in d = 2 cut at rho_max, the L twin of ``disc_kernel_k``:
    2 pi int_0^rho_max rho |b|^{q-2} J_0(2 pi r rho) drho."""
    return _disc_kernel("L", q, r, rho_max)


def _disc_kernel(kind: str, q: float, r, rho_max: float) -> np.ndarray:
    rho, wts = _j1_gauss_nodes(0.0, rho_max)
    b = special.j1(2 * np.pi * rho) / rho
    g = b * np.abs(b) ** (q - 2.0) if kind == "K" else np.abs(b) ** (q - 2.0)
    base = 2 * np.pi * wts * rho * g
    r = np.asarray(r, dtype=float)
    return np.array([special.j0(2 * np.pi * x * rho) @ base for x in r])


def a0_tail_aitken(q: float, x, z: float):
    """The d = 2 L kernel's a_0 part past z, a_0 int_z^inf env(rho) J_0(2 pi r rho)
    drho, per radius: from z to the first leading-order zero (k - 1/4) / 2r of J_0
    past it and 127 more segments, Aitken-accelerated.  Returns values and errors."""
    a0 = _series("L", q)[1][0]
    values, errors = np.zeros(len(x)), np.zeros(len(x))
    for i, r in enumerate(x):
        def f(rho, r=r):
            return a0 * _envelope(q - 2.0, rho) * special.j0(2 * np.pi * rho * r)

        first = math.floor(2.0 * r * z + 0.25) + 1
        zeros = (np.arange(first, first + 128) - 0.25) / (2.0 * r)
        res = integrate_oscillatory_tail(f, np.r_[z, zeros])
        values[i], errors[i] = res.value, res.error_estimate
    return values, errors


def m1_squared(x):
    """pi x M_1(x)^2 / 2, M_1^2 = J_1^2 + Y_1^2, by its expansion (DLMF 10.18.17) to 12
    terms, for mpmath x >= 1000: the remainder is below the first omitted term, ~1e-60."""
    import mpmath
    total, term = mpmath.mpf(1), mpmath.mpf(1)
    for k in range(1, 12):
        term *= mpmath.mpf(2 * k - 1) / (2 * k) * (4 - (2 * k - 1) ** 2) / (4 * x * x)
        total += term
    return total


def a0_tail_mpmath(q: float, r: float, z: float, dps: int = 25):
    """``a0_tail_aitken``'s integral for one radius in mpmath at ``dps`` digits: to the
    first zero of J_0(2 pi r rho) past z, then between its zeros, summed by nsum."""
    import mpmath
    with mpmath.workdps(dps):
        p, two_pi = mpmath.mpf(q) - 2, 2 * mpmath.pi
        a0 = mpmath.gamma(p + 1) / (2 ** p * mpmath.gamma(p / 2 + 1) ** 2)
        r, z = mpmath.mpf(r), mpmath.mpf(z)

        def f(rho):
            x = two_pi * rho
            return (two_pi * rho ** (1 - p) * (2 * m1_squared(x) / (mpmath.pi * x)) ** (p / 2)
                    * mpmath.besselj(0, r * x))

        n0 = int(2 * r * z + 0.25)  # zeros of J_0 below 2 pi r z, to leading order
        while mpmath.besseljzero(0, n0 + 1) <= two_pi * r * z:
            n0 += 1
        while n0 > 0 and mpmath.besseljzero(0, n0) > two_pi * r * z:
            n0 -= 1

        def zero(n):
            return mpmath.besseljzero(0, n0 + n) / (two_pi * r)

        first = zero(1)
        head = mpmath.quad(f, [z * (first / z) ** (mpmath.mpf(k) / 8) for k in range(9)],
                           method="gauss-legendre")
        tail = mpmath.nsum(lambda k: mpmath.quad(f, [zero(int(k)), zero(int(k) + 1)],
                                                 method="gauss-legendre"), [1, mpmath.inf])
        return a0 * (head + tail)


def k2_to_120(q: float, x):
    """The d = 2 K kernel at radii x > 0 on its full mesh, cut at the zeros of B^ up to
    the last below rho = 120, and the harmonic tail bound there: values and errors
    before ``kernel_values`` adds its slack."""
    cuts = np.r_[0.0, _ball_hat_zeros(2, 120.0)]
    values = _radial_sum("K", 2, q, x, cuts, cuts > 0.0)
    return values, _harmonic_tail_bound("K", q, x, cuts[-1])


def gk15_kernel_sum(kind: str, d: int, q: float, radii, edges, order: int = 0) -> np.ndarray:
    """|S^{d-1}| int rho^{d-1} g(rho) w(2 pi r rho) drho on GK15 panels between ``edges``,
    w the kernel meshes' wave (``order`` its antiderivative in d = 1), in runs of
    panels against every radius."""
    radii, out = np.asarray(radii, dtype=float), 0.0
    for lo in range(0, len(edges) - 1, 4096):
        e = edges[lo:lo + 4097]
        nodes, weights = gk15_panels(0.5 * (e[1:] + e[:-1]), 0.5 * np.diff(e))
        nodes, weights = nodes.ravel(), weights.ravel()
        w = _SPHERE[d] * weights * _g_radial(kind, d, q, nodes) * nodes ** (d - 1)
        w /= (2 * np.pi * nodes) ** order
        out = out + np.array([_WAVE[d, order](2 * np.pi * r * nodes) @ w for r in radii])
    return out


def zero_segment_edges(cuts: np.ndarray, m, end=0.0, halvings: int = 0) -> np.ndarray:
    """Panel edges on [cuts[0], cuts[-1]] cut at the increasing ``cuts`` (the zeros of
    B^, kinks of the radial integrands): in each segment an end panel ``end`` of it wide
    at either end (none at end = 0), ``m`` equal panels between (both may vary by segment)
    and, toward each cut but 0, ``halvings`` more edges end / 2^j of it from the cut."""
    lens = np.diff(cuts)
    m, end = np.broadcast_to(m, lens.shape).astype(int), np.broadcast_to(end, lens.shape)
    # k / m of the span between the end panels, k = 0..m - 1, and m where an end panel follows
    n = m + (end > 0.0)
    seg = np.repeat(np.arange(lens.size), n)
    k = np.arange(seg.size) - np.repeat(np.cumsum(n) - n, n)
    inner = cuts[seg] + lens[seg] * (end[seg] + (1.0 - 2.0 * end[seg]) * k / m[seg])
    h = np.outer(lens * end, 0.5 ** np.arange(1, halvings + 1))
    graded = [(cuts[:-1, None] + h)[cuts[:-1] != 0.0].ravel(), (cuts[1:, None] - h).ravel()]
    return np.unique(np.concatenate([cuts, inner, *graded]))


def graded_kernel_sum(kind: str, d: int, q: float, radii, cuts, order: int = 0) -> np.ndarray:
    """The kernel mesh sum over [cuts[0], cuts[-1]] on a fine GK15 mesh graded toward
    every cut but 0: 8 max(2, ceil(length max(max r / 2, sqrt(q)))) equal panels a
    segment (g's peaks narrow like 1 / sqrt(q)) between end panels 1/64 of it wide, and
    ceil(56 / (a + 1)) halvings toward each cut (a = q - 1 for K, q - 2 for L), so the
    last panel holds ~2^-56 of its segment's |t|^a mass.  The end panels span more than
    two periods of the wave past r ~ 256, where this reference no longer holds."""
    a = q - 1.0 if kind == "K" else q - 2.0
    n = 8 * np.maximum(2, np.ceil(np.diff(cuts) * max(np.max(radii) / 2.0, math.sqrt(q))))
    edges = zero_segment_edges(cuts, n, 1.0 / 64, math.ceil(56.0 / (a + 1.0)))
    return gk15_kernel_sum(kind, d, q, radii, edges, order)


def graded_head(f, zeros, p_tail: float, kink):
    """int_0^zeros[-1] f, the head of ``radial_head_tail``, on GK15 panels cut at the
    increasing ``zeros`` (|t|^kink kinks of f, ``kink`` None where f is smooth) and
    graded toward each: 8 max(2, ceil(length sqrt(p_tail))) equal panels a segment
    between end panels 1/64 of it wide, and ceil(56 / (kink + 1)) halvings toward each
    zero.  Returns the Kronrod sum, a vector for a vector f, and a bound on its
    rounding, eps (15 + log2 panels) sum |f w|."""
    cuts = np.r_[0.0, zeros]
    n = 8 * np.maximum(2, np.ceil(np.diff(cuts) * math.sqrt(max(p_tail, 1.0))))
    edges = zero_segment_edges(cuts, n, 1.0 / 64, 0 if kink is None else math.ceil(56.0 / (kink + 1.0)))
    half = 0.5 * np.diff(edges)
    nodes, weights = gk15_panels(0.5 * (edges[1:] + edges[:-1]), half)
    y = np.asarray(f(nodes), dtype=float)
    mass = np.sum(np.abs(y) * weights, axis=(-2, -1))
    eps = np.finfo(float).eps
    return np.sum(gk15_sums(y, half)[0], axis=-1), eps * (15.0 + math.log2(half.size)) * mass


def disc_norm_band(q: float, lo: float, hi: float) -> float:
    """int over lo <= |xi| <= hi of |1_B^|^q for the unit disc, 1_B^ = J_1(2 pi rho) / rho."""
    rho, wts = _j1_gauss_nodes(lo, hi)
    return float(2 * np.pi * np.sum(wts * rho * np.abs(special.j1(2 * np.pi * rho) / rho) ** q))


def translated_disc_terms(q: float, t: float, rho_max: float = 400.0) -> dict:
    """<K, f>, <f*L, f> and <f*L, f~> for the unit disc translated by t, f = 1_E - 1_B.

    With b = J_1(2 pi rho) / rho and f^ = b (e^{-2 pi i rho u.t} - 1), the
    angular means are J_0 integrals:
    <K, f> = 2 pi int rho |b|^q (J_0(2 pi rho t) - 1),
    <f*L, f> = 2 pi int rho |b|^q 2 (1 - J_0(2 pi rho t)),
    <f*L, f~> = 2 pi int rho |b|^q (J_0(4 pi rho t) - 2 J_0(2 pi rho t) + 1),
    each by 40-point Gauss-Legendre between the zeros of J_1 up to rho_max.
    """
    rho, wts = _j1_gauss_nodes(0.0, rho_max)
    b = special.j1(2 * np.pi * rho) / rho
    base = 2 * np.pi * wts * rho * np.abs(b) ** q
    once, twice = special.j0(2 * np.pi * rho * t), special.j0(4 * np.pi * rho * t)
    return {"K": float(base @ (once - 1.0)), "LL": float(base @ (2.0 - 2.0 * once)),
            "Lrefl": float(base @ (twice - 2.0 * once + 1.0))}


def quadratic_terms_freq_1d(e: IntervalSet, q: float, refine: int = 1, cut: float | None = None) -> dict:
    """The d = 1 quadratic terms on the frequency side:
    <f*L, f> = int |f^|^2 |B^|^{q-2} and <f*L, f~> = Re int (f^)^2 |B^|^{q-2},
    f = 1_E - 1_B, on the uniform GK15 mesh of ``functional._signed_exp_mesh``
    to a cut sized for 1e-9, with panels of width min(0.05, 0.5 / diam)
    divided by ``refine``; ``cut`` overrides the cut.  The panels straddle the
    kinks of |B^|^{q-2} at the half integers, and the xi^{-q} tail past the
    cut is dropped.
    """
    m = len(e.intervals) + 1
    if cut is None:
        cut = float(np.clip(((m / np.pi) ** 2 * np.pi ** (2.0 - q) / ((q - 1.0) * 1e-9))
                            ** (1.0 / (q - 1.0)), 100.0, 2.0e4))
    diam = max(e.intervals[-1][1], 1.0) - min(e.intervals[0][0], -1.0)
    h = min(0.05, 0.5 / max(diam, 1.0)) / refine
    # f^ = P / (2 pi i xi) with E's endpoints and the ball's in one signed sum;
    # no centering, since the phase of f^ enters Lrefl
    ends = np.concatenate([e.endpoints(), [-1.0, 1.0]])
    signs = np.concatenate([np.resize([1.0, -1.0], 2 * m - 2), [-1.0, 1.0]])
    half, chunks = _signed_exp_mesh(ends, signs, cut, h)
    ll = lr = 0.0
    for xi, p in chunks:
        # |f^|^2 = |P|^2 / (2 pi xi)^2 and Re (f^)^2 = -Re P^2 / (2 pi xi)^2
        weight = np.abs(ball_hat(1, xi)) ** (q - 2.0) / (2 * np.pi * xi) ** 2
        ll += float(np.sum(gk15_sums((p.real**2 + p.imag**2) * weight, 1.0)[0]))
        lr -= float(np.sum(gk15_sums((p * p).real * weight, 1.0)[0]))
    return {"LL": 2.0 * half * ll, "Lrefl": 2.0 * half * lr}


def centred_endpoints(e: IntervalSet):
    """The endpoints and signs of E' = E centred and dilated to measure 2, as
    ``phi_q`` takes it."""
    ends = e.endpoints()
    ends = (ends - 0.5 * (ends[0] + ends[-1])) / (0.5 * e.measure)
    return ends, np.resize([1.0, -1.0], len(ends))


def even_norm_exact(e: IntervalSet, q: int) -> Fraction:
    """||1_E^||_q^q at even q = 2n as an exact rational, in integer arithmetic and
    independent of ``_pwpoly``: (-1)^n / (2 p!) sum_{a,b} w_a w_b |sigma_a - sigma_b|^p,
    p = 2n - 1, over ordered pairs of n-multisets of the endpoints, sigma their sum and
    w the multinomial times the sign product.  Float endpoints are dyadic rationals,
    so the largest denominator D is a multiple of every other one and D x is an
    integer.  The weights are merged per sigma, and the sum over a < b runs in
    increasing sigma as sum_b w_b sum_j C(p, j) sigma_b^{p-j} (-sigma_a)^j against
    prefix sums of w_a sigma_a^j: N p big-integer products, not N^2."""
    ends = [Fraction(float(x)) for x in e.endpoints()]
    den = max(x.denominator for x in ends)
    xs = [int(x * den) for x in ends]
    n, p = q // 2, q - 1
    merged = Counter()
    for combo in combinations_with_replacement(range(len(xs)), n):
        mult = math.factorial(n) // math.prod(map(math.factorial, Counter(combo).values()))
        merged[sum(xs[i] for i in combo)] += (-1) ** sum(i % 2 for i in combo) * mult
    binom = [math.comb(p, j) * (-1) ** j for j in range(p + 1)]
    prefix, total = [0] * (p + 1), 0
    for sigma in sorted(merged):
        w = merged[sigma]
        total += w * sum(c * sigma ** (p - j) * s
                         for j, (c, s) in enumerate(zip(binom, prefix)))
        for j in range(p + 1):
            prefix[j] += w * sigma ** j
    return Fraction((-1) ** n * total, math.factorial(p) * den ** p)


def interval_norm_bands(e: IntervalSet, qs, xs, cut: float = 2.0e4) -> np.ndarray:
    """int_{x < |xi| < cut} |1_E'^|^q for each q in ``qs`` and x in ``xs``
    (``centred_endpoints``), on the uniform GK15 mesh of
    ``functional._signed_exp_mesh`` with panels of width 1/R, R >= 2 diam an
    integer, so that integer x end a panel."""
    ends, signs = centred_endpoints(e)
    rate = math.ceil(max(20.0, 2.0 * (ends[-1] - ends[0])))
    n_panels = round(cut * rate)
    half, chunks = _signed_exp_mesh(ends, signs, cut, cut / (n_panels - 0.5))
    first = np.array([round(x * rate) for x in xs])
    bands = np.zeros((len(qs), len(xs)))
    start = 0
    for xi, p in chunks:
        mod2 = (p.real**2 + p.imag**2) / (2 * np.pi * xi) ** 2
        # per x, the panels of this chunk past it
        past = np.clip(first - start, 0, len(xi))
        for j, q in enumerate(qs):
            kron = gk15_sums(mod2 ** (0.5 * q), 1.0)[0]
            tails = np.concatenate([np.cumsum(kron[::-1])[::-1], [0.0]])
            bands[j] += tails[past]
        start += len(xi)
    return 2.0 * half * bands


@dataclass(frozen=True)
class SplineKernel:
    """A sampled kernel profile read between its radii by a cubic spline,
    0 past r_max, the last radius."""

    kernel: RadialKernel
    _spline: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_spline", CubicSpline(self.kernel.radii, self.kernel.values))

    @property
    def r_max(self) -> float:
        return float(self.kernel.radii[-1])

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = self._spline(np.clip(r, self.kernel.radii[0], self.r_max))
        return np.where(r > self.r_max, 0.0, out)


def circle_coeff_from_profile(kernel: RadialKernel, n: int) -> float:
    """Oracle route: (2 pi)^{-1} int Ltheta(t) cos(nt) dt against a sampled profile."""
    profile = CircleProfile(kernel)

    def f(theta):
        return profile(theta) * np.cos(n * theta)

    res = integrate_adaptive(f, 0.0, 2 * np.pi, QuadratureConfig(1e-12, 1e-11))
    return res.value / (2 * np.pi)


@dataclass(frozen=True)
class CircleProfile:
    """theta -> L_q at chord distance |x| = sqrt(2 - 2 cos theta) (d = 2)."""

    kernel: RadialKernel
    _spline: SplineKernel = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kernel.dimension != 2 or self.kernel.kind != "L":
            raise DomainError("CircleProfile wraps a d=2 L-kind kernel")
        object.__setattr__(self, "_spline", SplineKernel(self.kernel))

    @property
    def exponent(self) -> float:
        return self.kernel.exponent

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        r = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.cos(theta)))
        return self._spline(r)


# ---------------------------------------------------------------------------
# report-only fits and probes
# ---------------------------------------------------------------------------

def gamma_asymptotic_fit(d: int, q_list):
    """Fit log gamma - q log omega_d against log q; slope -> -(d+2)/2."""
    q_arr = np.asarray(sorted(q_list), dtype=float)
    if len(q_arr) < 4:
        raise ArityError("need at least 4 exponents for the asymptotic fit")
    log_w = math.log(omega(d))
    ys = []
    for q in q_arr:
        g = gamma_qd(d, float(q))
        ys.append(math.log(g) - q * log_w)
    slope, intercept = np.polyfit(np.log(q_arr), ys, 1)
    return {"slope": float(slope), "kappa_estimate": float(math.exp(intercept))}


def empirical_holder_exponent(kernel: RadialKernel) -> float:
    """Fitted modulus-of-continuity exponent of a sampled profile (report only)."""
    v = kernel.values
    hs, mods = [], []
    step = 1
    for _ in range(6):
        diffs = np.abs(v[step:] - v[:-step])
        hs.append(step * (kernel.radii[1] - kernel.radii[0]))
        mods.append(float(np.max(diffs)))
        step *= 2
    hs, mods = np.array(hs), np.array(mods)
    keep = mods > 0
    if np.count_nonzero(keep) < 2:
        return 1.0
    return float(np.polyfit(np.log(hs[keep]), np.log(mods[keep]), 1)[0])


def q_continuity_probe(e, q: float, r: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """|  ||1_E^||_q - ||1_E^||_r | / |q - r|^{1/2} after measure normalization."""
    if q == r:
        raise DomainError("q and r must differ")
    if min(q, r) <= 2:
        raise DomainError("exponents must exceed 2")
    if e.dimension == 1:
        e = e.dilate(1.0 / e.measure)
    else:
        e = e.with_measure(1.0)
    nq = phi_q(e, q, cfg)
    nr = phi_q(e, r, cfg)
    # measure one: Phi = norm itself
    return abs(nq.norm_q_pow_q ** (1.0 / q) - nr.norm_q_pow_q ** (1.0 / r)) / math.sqrt(abs(q - r))


# ---------------------------------------------------------------------------
# planar sets the tests share
# ---------------------------------------------------------------------------

def seeded_star4(seed):
    """A star:4 candidate drawn the way the search draws one, at ball measure."""
    rng = np.random.default_rng(seed)
    decay = 1.0 / (1.0 + np.arange(1, 5)) ** 2
    a = rng.normal(0.0, 0.15, 4) * decay
    b = rng.normal(0.0, 0.15, 4) * decay
    return StarSet(1.0, a, b).with_measure(np.pi)


def shifted_set():
    """Non-identity linear part, translation and base center all non-trivial."""
    base = StarSet(1.0, a_coeffs=[0.0, 0.06, 0.02], b_coeffs=[0.0, -0.03], center=(0.1, -0.05))
    return base.apply(AffineMap(np.array([[1.2, 0.3], [-0.1, 0.8]]), np.array([0.4, -0.7])))


# ---------------------------------------------------------------------------
# the planar norm, one radial panel at a time
# ---------------------------------------------------------------------------

def _radial_factor(ph: np.ndarray, a: np.ndarray, rr: np.ndarray) -> np.ndarray:
    """int_0^R e^{-i a s/R} s ds = R^2 (e^{-ia}(1 + ia) - 1)/a^2, given ph = e^{-ia},
    node by node; ``rr`` = R^2 broadcasts against ``a``.  The closed form loses
    ~eps/a^2 to cancellation, so below |a| = 0.1 the Taylor series
    R^2 sum_k (-ia)^k / (k! (k + 2)) replaces it (ten terms: < 1e-17).  It runs
    in the dtype it is given, extended precision included."""
    small = np.abs(a) < 0.1
    with np.errstate(divide="ignore", invalid="ignore"):
        g = ph * (1.0 + 1j * a)
        g -= 1.0
        g *= rr / (a * a)
    if np.any(small):
        z = -1j * a[small]
        term = np.ones_like(z)
        series = 0.5 * term
        for k in range(1, 10):
            term *= z / k
            series += term / (k + 2)
        g[small] = np.broadcast_to(rr, g.shape)[small] * series
    return g


def norm_q_2d_per_panel(e: StarSet, q: float, radial_cut: float):
    """||1_E^||_q^q on [0, radial_cut], on the same mesh and circle rules as
    ``functional._polar_blocks``: block 0's rule at its top radius, every
    later block's at the cut.

    The circle sum is taken panel by panel: a (15, n_phi, n_theta) array of
    radial factors per panel, averaged over theta, with no split of the
    closed form and no near-pair rule.
    """
    uphi = _half_circle(e)
    n_phi = len(uphi)
    n_panels = int(radial_cut / 0.25) + 1
    half = 0.5 * radial_cut / n_panels
    mid = (2 * np.arange(n_panels) + 1) * half
    offsets = gk15_panels(0.0, half)[0]
    dirs = uphi @ e.affine.matrix
    scale = 2 * np.pi * e.affine.det
    value = 0.0
    block = 16
    for lo in range(0, n_panels, block):
        hi = min(lo + block, n_panels)
        r, rate = _circle(e, dirs, 2 * half * (hi if lo == 0 else n_panels))
        panel_ph = np.exp(-1j * mid[lo:hi, None, None] * rate)
        offset_ph = np.exp(-1j * offsets[:, None, None] * rate)
        rho = mid[lo:hi, None] + offsets[None, :]
        hat = np.empty((hi - lo, 15, n_phi))
        for j in range(hi - lo):
            g = _radial_factor(panel_ph[j] * offset_ph, rho[j, :, None, None] * rate, r * r)
            hat[j] = np.abs(g.mean(axis=2))
        integ = ((scale * hat) ** q).mean(axis=2) * 2 * np.pi * rho
        value += float(np.sum(gk15_sums(integ, half)[0]))
    return value


def panel_circle_means(e: StarSet, uphi: np.ndarray, rho: np.ndarray, n_theta: int):
    """1_E^(rho u_phi) up to the phase that the translation and the star center
    add, (2 pi det / n) sum_theta R^2 F(rho A), node by node on a circle rule of
    ``n_theta`` nodes: shape (angles, len(rho)).  ``_polar_blocks``' norm s
    stands for the same value."""
    theta = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    r = e.radius(theta)
    dirs = uphi @ e.affine.matrix
    rate = 2 * np.pi * r * (np.outer(dirs[:, 0], np.cos(theta)) + np.outer(dirs[:, 1], np.sin(theta)))
    a = rho[:, None, None] * rate
    g = _radial_factor(np.exp(-1j * a), a, r * r)
    return (2 * np.pi * e.affine.det / n_theta) * g.sum(axis=2).T


def local_ascent(start, cfg: SearchConfig) -> SearchResult:
    """Coordinate-wise trial steps with halving from ``start``; volume fixed by dilation."""
    phi_b = phi_ball(cfg.dimension, cfg.exponent).phi
    params, best, trajectory, evals = _ascend(
        _set_to_params(start, cfg).astype(float), cfg, cfg.budget)
    final = _params_to_set(params, cfg)
    fit = dist_to_ellipsoids(final)
    return SearchResult(final, best, phi_b, phi_b - best, fit.distance,
                        tuple(trajectory), evals)


# ---------------------------------------------------------------------------
# the sphere-reduced second variation
# ---------------------------------------------------------------------------

def integral_a2_b2(profile: SphereProfile) -> float:
    """int (a^2 + b^2) dsigma."""
    if profile.dimension == 1:
        return float(np.sum(profile.a_vals**2 + profile.b_vals**2))
    return float(np.mean(profile.a_vals**2 + profile.b_vals**2) * 2 * np.pi)


def integral_f(profile: SphereProfile) -> float:
    """int F dsigma."""
    if profile.dimension == 1:
        return float(np.sum(profile.f_vals))
    return float(np.mean(profile.f_vals) * 2 * np.pi)


def sphere_reduced_prediction(profile: SphereProfile, d: int, q: float) -> float:
    """Predicted second-order change of ||1_E^||_q^q from the boundary profile.

    -(q/2) gamma int(a^2+b^2) dsigma + (q^2/4) Q(F,F) + (q(q-2)/4) Q(F,F~).
    """
    if profile.dimension != d:
        raise DomainError("profile dimension mismatch")
    gamma = gamma_qd(d, q)
    lead = -0.5 * q * gamma * integral_a2_b2(profile)
    if d == 1:
        vals, _ = kernel_values("L", 1, q, np.array([0.0, 2.0]))
        l0, l2 = float(vals[0]), float(vals[1])
        fp, fm = float(profile.f_vals[0]), float(profile.f_vals[1])
        qff = l0 * (fp * fp + fm * fm) + 2.0 * l2 * fp * fm
        qffr = 2.0 * l0 * fp * fm + l2 * (fp * fp + fm * fm)
        return lead + q**2 / 4.0 * qff + q * (q - 2.0) / 4.0 * qffr
    if d != 2:
        raise DomainError("profiles are supported in d = 1 and d = 2")
    total_ff = 0.0
    total_ffr = 0.0
    for n, lam in enumerate(funk_hecke_eigenvalues(2, q, profile.n_modes)):
        weight = 1.0 if n == 0 else 2.0
        c2 = abs(profile.fourier_coeff(n)) ** 2
        # ||F_n||^2 in L^2(sigma) = 2 pi (|F^(n)|^2 + |F^(-n)|^2)
        total_ff += weight * 2 * np.pi * c2 * lam
        total_ffr += weight * 2 * np.pi * c2 * lam * (-1.0) ** n
    return lead + q**2 / 4.0 * total_ff + q * (q - 2.0) / 4.0 * total_ffr


# ---------------------------------------------------------------------------
# the boundary radius by bisection
# ---------------------------------------------------------------------------

def radius_about_origin_bisection(e: StarSet, theta) -> np.ndarray:
    """``StarSet.radius_about_origin`` by 64 bisection steps on its gap
    t -> |A^{-1}(t u - v) - c| - r(angle) over the same bracket."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    inv = e.affine.inverse()
    p = u @ inv.matrix.T
    off = inv.translation - e.center

    def gap(t):
        y = t[:, None] * p + off
        return np.hypot(y[:, 0], y[:, 1]) - e.radius(np.arctan2(y[:, 1], y[:, 0]))

    r_hi = np.max(np.abs(e.radius(np.linspace(0, 2 * np.pi, 256)))) + np.linalg.norm(off)
    hi = np.full(len(theta), 2.0 * r_hi / np.min(np.linalg.norm(p, axis=1)) + 1.0)
    lo = np.zeros(len(theta))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        inside = gap(mid) < 0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return 0.5 * (lo + hi)



def ellipse_ray_overlap(body: StarSet, params, n_rays: int) -> float:
    """|B cap Ell| as a mean over ``n_rays`` rays from the origin, for the
    base body B (star-shaped about the origin) and the area-pi ellipse
    (cx, cy, psi, phi) of ``set_model._ellipse_overlap``.  A ray meets the
    ellipse on [t_lo, t_hi], the roots of aa t^2 + 2 bb t + cc = 0 in the
    ellipse's frame; the mean errs by O(h^2) at the rays' kinks, h = 2 pi /
    n_rays."""
    cx, cy, psi, phi = params
    theta = np.arange(n_rays) * (2 * np.pi / n_rays)
    qa, qb = math.exp(-psi), math.exp(psi)  # 1 / semi-axis^2
    c, s = math.cos(phi), math.sin(phi)
    w0, w1 = -(c * cx + s * cy), s * cx - c * cy  # the origin in the ellipse frame
    cc = qa * w0 * w0 + qb * w1 * w1 - 1.0
    uc, us = np.cos(theta - phi), np.sin(theta - phi)
    aa = qa + (qb - qa) * us * us
    bb = qa * w0 * uc + qb * w1 * us
    sq = np.sqrt(np.maximum(bb * bb - aa * cc, 0.0))
    r = body.radius(theta)
    lower = np.minimum(np.maximum((-bb - sq) / aa, 0.0), r)
    upper = np.minimum(np.maximum((sq - bb) / aa, 0.0), r)
    return float(np.pi * np.mean(upper * upper - lower * lower))

# ---------------------------------------------------------------------------
# views of package objects that only the tests read
# ---------------------------------------------------------------------------

def derivative_at(f: PiecewisePoly, x: float):
    """f'(x), in the arithmetic of the coefficients."""
    acc = 0
    for e, p in f.events:
        if x >= e and len(p) > 1:
            dp = [c * i for i, c in enumerate(p)][1:]
            acc += _poly_eval(dp, x - e)
    return acc


def cumulative(f: PiecewisePoly):
    """Antiderivative F(x) = int_-inf^x f, as (lo, hi, poly) pieces, poly in x,
    plus the final constant."""
    breaks, polys = f.to_breaks()
    pieces = []
    acc = 0
    for i in range(len(breaks) - 1):
        anti = _poly_add(_poly_antideriv(polys[i]), [acc])  # in x - breaks[i]
        pieces.append((breaks[i], breaks[i + 1], _poly_shift(anti, -breaks[i])))
        acc = _poly_eval(anti, breaks[i + 1] - breaks[i])
    return pieces, acc


def deviation_from_identity(m: AffineMap) -> float:
    return float(np.linalg.norm(m.matrix - np.eye(m.dimension))
                 + np.linalg.norm(m.translation))


def translate(e: IntervalSet, t: float) -> IntervalSet:
    return IntervalSet([(l + t, r + t) for l, r in e.intervals])
