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

    gamma(q, d) = 4 pi^2 int_0^inf rho^{1 - d(q-2)/2} |J_{d/2}(2 pi rho)|^q drho,

a power envelope times a pi-periodic oscillation in u = 2 pi rho; such
tails are handled exactly by ``tail_power_periodic``.  For d = 1 this is
literally 2 pi^{2-q} int |xi|^{2-q} |sin(2 pi xi)|^q dxi.

Profile evaluation
------------------
d = 1: g(xi) = pi^{-s} xi^{-s} P(2 pi xi) with s = q-1 (K) or q-2 (L) and
P the periodic factor sin(u)|sin u|^{q-2} or |sin u|^{q-2}.  One path
serves both kinds: a graded head on [0, 1], then one table of P's Fourier
series (finite for q = 4, 6, 8) against the power tails
int_1^inf xi^{-s} e^{ic xi} dxi, summed as one coefficients x tails
product over all (frequency, radius) pairs.  The power tail comes from a
Laplace-type contour integral interpolated by one complex Chebyshev series
in log c; its interpolation range moves it by ~1e-11 relative.  d = 2:
graded composite head plus zero-segmented accelerated tail, the same
table feeding the L kernel's harmonics.  d = 3: the transform
(2/r) int g(rho) rho sin(2 pi rho r) drho decays fast enough for composite
quadrature with an analytic tail bound.

Convention: omega_0 = 1, so the d = 1 instances of the slicing formulas
match the closed forms.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special
from scipy.interpolate import CubicSpline

from ._pwpoly import nfold_indicator_convolution
from .errors import ArityError, CapabilityError, DomainError, ThresholdError
from .quadrature import (
    DEFAULT_CONFIG,
    IntegralResult,
    QuadratureConfig,
    gk15_panels,
    integrate_adaptive,
    integrate_oscillatory_tail,
    radial_head_tail,
    tail_power_periodic,
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
    if q == math.inf:
        raise DomainError("the kernels need a finite exponent q")
    if not (q > thr):
        raise ThresholdError(
            f"{kind}-kind kernel needs q > {thr:.6g} in d={d} "
            f"(continuity threshold q_d = 4 - 2/(d+1)); got q = {q}",
            thr,
        )


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
    elif d == 2:
        x = 2.0 * np.pi * r
        small = x < 1e-4
        out = np.empty_like(r)
        xs = x[small]
        out[small] = np.pi * (1.0 - xs**2 / 8.0 + xs**4 / 192.0)
        xl = x[~small]
        out[~small] = 2.0 * np.pi * special.j1(xl) / xl
    else:
        x = 2.0 * np.pi * r
        small = x < 1e-3
        out = np.empty_like(r)
        xs = x[small]
        out[small] = (4.0 * np.pi / 3.0) * (1.0 - xs**2 / 10.0 + xs**4 / 280.0)
        xl = x[~small]
        out[~small] = (np.sin(xl) - xl * np.cos(xl)) * 4.0 * np.pi / xl**3
    return float(out[0]) if scalar else out


def _g_radial(kind: str, d: int, q: float, rho: np.ndarray) -> np.ndarray:
    """The kernel's Fourier-side profile g(rho) = B^ |B^|^{q-2} or |B^|^{q-2}."""
    bh = ball_hat(d, rho)
    mag = np.abs(bh) ** (q - 2.0)
    return bh * mag if kind == "K" else mag


# ---------------------------------------------------------------------------
# single-frequency algebraic tails (d = 1 engine)
# ---------------------------------------------------------------------------

class _PowerTail:
    """E(c) = int_1^inf xi^{-s} e^{ic xi} dxi, the single-frequency power tail.

    The contour rotation xi = 1 + iu gives E(c) = i e^{ic} M(c) with
    M(c) = int_0^inf (1+iu)^{-s} e^{-cu} du.  M is analytic in Re c > 0; it
    is interpolated by one complex Chebyshev series in log c on
    [log 2, log c_max] and integrated directly for c < 2.  The interpolant
    depends on its range: moving c_max moves M by ~1e-11 relative.
    """

    C_LO = 2.0
    N_NODES = 160

    def __init__(self, s: float, c_max: float):
        if s <= 1.0:
            raise DomainError("power tail needs decay exponent s > 1")
        self.s = s
        self.c_max = max(c_max, 10.0)
        self.lo = math.log(self.C_LO)
        self.hi = math.log(self.c_max * 1.05)
        k = np.arange(self.N_NODES)
        w = np.cos(np.pi * (k + 0.5) / self.N_NODES)  # Chebyshev points in (-1, 1)
        logc = 0.5 * (self.hi + self.lo) + 0.5 * (self.hi - self.lo) * w
        vals = np.array([self._m_direct(math.exp(lc)) for lc in logc])
        fit = np.polynomial.chebyshev.chebfit
        self._cheb = fit(w, vals.real, self.N_NODES - 1) + 1j * fit(w, vals.imag, self.N_NODES - 1)
        self._small_cache: dict[float, complex] = {}

    def _m_direct(self, c: float) -> complex:
        # substituted form M(c) = (1/c) int_0^inf (1 + iv/c)^{-s} e^{-v} dv
        # keeps the integrand O(1)-scaled for every c > 0
        s = self.s
        cfg = QuadratureConfig(abs_tol=1e-16, rel_tol=1e-14, max_subdivisions=4000)

        def re_part(v):
            w = v / c
            return (1.0 + w * w) ** (-s / 2.0) * np.cos(s * np.arctan(w)) * np.exp(-v)

        def im_part(v):
            w = v / c
            return -((1.0 + w * w) ** (-s / 2.0)) * np.sin(s * np.arctan(w)) * np.exp(-v)

        rr = integrate_adaptive(re_part, 0.0, 50.0, cfg).value
        ii = integrate_adaptive(im_part, 0.0, 50.0, cfg).value
        return complex(rr, ii) / c

    def _m(self, c: np.ndarray) -> np.ndarray:
        out = np.empty(len(c), dtype=complex)
        big = c >= self.C_LO
        w = (2.0 * np.log(c[big]) - (self.hi + self.lo)) / (self.hi - self.lo)
        out[big] = np.polynomial.chebyshev.chebval(w, self._cheb)
        for idx in np.nonzero(~big)[0]:
            key = float(c[idx])
            if key not in self._small_cache:
                self._small_cache[key] = self._m_direct(key)
            out[idx] = self._small_cache[key]
        return out

    def __call__(self, c: np.ndarray) -> np.ndarray:
        """E(c) = U(c) + i T(c): U even with U(0) = 1/(s-1), T odd."""
        ca = np.abs(c)
        out = np.full(ca.shape, 1.0 / (self.s - 1.0), dtype=complex)
        nz = ca > 0
        m = self._m(ca[nz])
        cos, sin = np.cos(ca[nz]), np.sin(ca[nz])
        out.real[nz] = -sin * m.real - cos * m.imag
        out.imag[nz] = np.sign(c[nz]) * (cos * m.real - sin * m.imag)
        return out


@lru_cache(maxsize=32)
def _power_tail(s: float, c_max: float) -> _PowerTail:
    return _PowerTail(s, c_max)


@lru_cache(maxsize=64)
def _series(kind: str, q: float) -> tuple:
    """(frequencies, coefficients, truncation bound) of the periodic factor.

    K-kind: sin(u)|sin u|^{q-2} = sum b_j sin(ju), frequencies j odd;
    L-kind: |sin u|^{q-2} = a_0 + sum a_m cos(2mu), frequencies 0 and 2m.
    At q = 4, 6, 8 the factor is sin^n u, n = q-1 (K) or q-2 (L), a finite
    binomial sum; otherwise the series is cut at frequency ~800 and the
    rest bounded from the last coefficient.
    """
    if q in (4.0, 6.0, 8.0):
        n = int(q) - 1 if kind == "K" else int(q) - 2
        k = np.arange(n // 2, -1, -1)
        freqs = n - 2 * k
        coeffs = 2.0 ** (1 - n) * (-1.0) ** (n // 2 - k) * special.comb(n, k)
        if n % 2 == 0:
            coeffs[0] /= 2.0  # the constant term a_0
        trunc = 0.0
    else:
        nodes, weights = _gk15_mesh(_graded_edges(0.0, np.pi, (0.0, np.pi), base=np.pi / 2048))
        sin_part = np.sin(nodes)
        mag = np.abs(sin_part) ** (q - 2.0)
        if kind == "K":
            freqs = np.arange(1, 802, 2)
            coeffs = (2.0 / np.pi) * (np.sin(np.outer(freqs, nodes)) @ (sin_part * mag * weights))
            last, s = freqs[-1], q - 1.0
        else:
            freqs = np.arange(0, 801, 2)
            f = mag * weights
            coeffs = np.concatenate([[np.sum(f) / np.pi],
                                     (2.0 / np.pi) * (np.cos(np.outer(freqs[1:], nodes)) @ f)])
            last, s = freqs[-1] // 2, q - 2.0
        trunc = float(np.abs(coeffs[-1])) * last / max(s, 0.5)
        keep = np.abs(coeffs) > 1e-15
        freqs, coeffs = freqs[keep], coeffs[keep]
    freqs.flags.writeable = coeffs.flags.writeable = False  # shared by every caller
    return freqs, coeffs, trunc


def _graded_edges(a: float, b: float, singular: tuple, base: float) -> np.ndarray:
    """Panel edges on [a, b], refined toward each singular point over 42 halvings."""
    edges = set(np.arange(a, b, base))
    edges.add(b)
    for s in singular:
        if not (a <= s <= b):
            continue
        h = base
        for _ in range(42):
            h *= 0.5
            for e in (s - h, s + h):
                if a < e < b:
                    edges.add(e)
    return np.array(sorted(edges))


def _gk15_mesh(edges: np.ndarray):
    """Flat GK15 nodes and weights on the panels between consecutive edges."""
    nodes, weights = gk15_panels(0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1]))
    return nodes.ravel(), weights.ravel()


# (frequency or node, radius) pairs per block of the d = 1 tail and head
# products: their working arrays stay near 10 MB at any number of radii
_PAIR_CHUNK = 1 << 16


def _kernel_values_1d(kind: str, q: float, radii: np.ndarray):
    # value(x) = 2 int_0^inf g(xi) cos(2 pi x xi) dxi: a graded head on
    # [0, 1], then each series term against the power tails at 2 pi (f +- x),
    # their real parts for the cosine series (L), imaginary for the sine (K)
    s = q - 1.0 if kind == "K" else q - 2.0
    pref = 2.0 * np.pi ** -s
    x = np.asarray(radii, dtype=float)
    nodes, weights = _gk15_mesh(_graded_edges(0.0, 1.0, (0.5, 1.0), base=1.0 / 48))
    w = 2.0 * weights * _g_radial(kind, 1, q, nodes)
    head = np.empty_like(x)
    rows = max(1, _PAIR_CHUNK // len(nodes))
    for lo in range(0, len(x), rows):
        head[lo:lo + rows] = np.cos(2 * np.pi * np.outer(x[lo:lo + rows], nodes)) @ w

    freqs, coeffs, trunc = _series(kind, q)
    pt = _power_tail(s, 2 * np.pi * (820 + float(np.max(x, initial=0.0)) + 2))
    part = np.imag if kind == "K" else np.real
    tail = np.empty_like(x)
    step = max(1, _PAIR_CHUNK // len(freqs))
    for lo in range(0, len(x), step):
        xc = x[lo:lo + step]
        both = pt(2 * np.pi * (freqs[:, None] + xc)) + pt(2 * np.pi * (freqs[:, None] - xc))
        tail[lo:lo + step] = coeffs @ (0.5 * part(both))
    values = head + pref * tail
    errors = np.full_like(values, pref * trunc + 1e-11 * (1.0 + np.abs(values)))
    return values, errors


def _j0_tail(f, r: float, rho0: float, n_seg: int) -> IntegralResult:
    """int_rho0^inf f for an integrand carrying J_0(2 pi rho r), r > 0:
    adaptive up to the first zero past rho0, then zero segments, accelerated.

    The error is the segment tail's: the bridge runs at 1e-13 absolute,
    inside the 1e-11 slack both callers add."""
    first = math.ceil(2.0 * r * rho0 + 0.75)
    segs = (np.arange(first, first + n_seg + 1) - 0.25) / (2.0 * r)
    bridge = integrate_adaptive(f, rho0, segs[0], QuadratureConfig(1e-13, 1e-12, 2000))
    res = integrate_oscillatory_tail(f, segs)
    return IntegralResult(bridge.value + res.value, res.error_estimate, res.converged)


def _kernel_values_2d_K(q: float, radii: np.ndarray):
    # K-kind integrand decays like rho^{(3-3q)/2} <= rho^{-4} for q > 11/3:
    # composite head plus a short zero-segmented tail is plenty
    x = np.asarray(radii, dtype=float)
    r0 = 40.0
    edges = np.linspace(0.0, r0, int(r0 * 24) + 1)
    nodes, weights = _gk15_mesh(edges)
    base_w = 2.0 * np.pi * weights * _g_radial("K", 2, q, nodes) * nodes
    values = np.empty_like(x)
    errors = np.empty_like(x)
    for lo in range(0, len(x), 256):
        xi = x[lo:lo + 256]
        values[lo:lo + 256] = special.j0(2 * np.pi * np.outer(xi, nodes)) @ base_w
    n_seg = 96
    for i, r in enumerate(x):
        f = (lambda rho, rr=r: 2.0 * np.pi * _g_radial("K", 2, q, rho) * rho
             * special.j0(2 * np.pi * rho * rr))
        if r < 0.75:
            res = integrate_oscillatory_tail(f, r0 + 0.5 * np.arange(n_seg + 1))
        else:
            res = _j0_tail(f, r, r0, n_seg)
        values[i] += res.value
        errors[i] = res.error_estimate + 1e-11 * (1.0 + abs(values[i]))
    return values, errors


def _kernel_values_2d_L(q: float, radii: np.ndarray):
    """L-kind via the exact amplitude-phase split of the Bessel factor.

    With J_1 = A cos(phi), Y_1 = A sin(phi) (A, phi exact; A^2 = J_1^2+Y_1^2),

        |B^|^{q-2} rho = rho^{3-q} A(2 pi rho)^{q-2} |cos phi|^{q-2},

    and |cos phi|^{q-2} = a_0 + sum a_m cos(2 m phi).  The a_0 part has a
    smooth positive envelope and alternates exactly between J_0 zeros
    (Aitken-accelerated); the oscillatory remainder is integrated on a
    fixed mesh and its tail bounded by a van der Corput estimate.
    """
    x = np.asarray(radii, dtype=float)
    rho0, z_cut = 1.0, 160.0
    freqs, coeffs, coeff_trunc = _series("L", q)
    a0, freqs, coeffs = coeffs[0], freqs[1:], coeffs[1:]

    def envelope(rho):
        xx = 2.0 * np.pi * rho
        amp = np.hypot(special.j1(xx), special.y1(xx))
        return 2.0 * np.pi * rho ** (3.0 - q) * amp ** (q - 2.0)

    # head: full integrand on [0, rho0]
    edges = np.linspace(0.0, rho0, 65)
    h_nodes, h_weights = _gk15_mesh(edges)
    head_w = 2.0 * np.pi * h_weights * _g_radial("L", 2, q, h_nodes) * h_nodes
    values = special.j0(2 * np.pi * np.outer(x, h_nodes)) @ head_w

    # oscillatory harmonics on [rho0, z_cut], shared mesh for all radii
    edges = np.linspace(rho0, z_cut, int((z_cut - rho0) * 12) + 1)
    nodes, weights = _gk15_mesh(edges)
    xx = 2.0 * np.pi * nodes
    amp = np.hypot(special.j1(xx), special.y1(xx))
    phi = np.unwrap(np.arctan2(special.y1(xx), special.j1(xx)))
    # the series expands |sin u|^{q-2}; here the argument is cos phi, and
    # |cos u| = |sin(u + pi/2)| flips odd harmonics: a_m -> (-1)^m a_m
    osc = np.zeros_like(nodes)
    for f, am in zip(freqs, coeffs * (-1.0) ** (freqs // 2)):
        osc += am * np.cos(f * phi)
    osc_w = weights * 2.0 * np.pi * nodes ** (3.0 - q) * amp ** (q - 2.0) * osc
    for lo in range(0, len(x), 256):
        xi = x[lo:lo + 256]
        values[lo:lo + 256] += special.j0(2 * np.pi * np.outer(xi, nodes)) @ osc_w

    # van der Corput tail bound for the harmonics beyond z_cut (phase rate
    # >= 2 pi per unit rho for every m >= 1), plus the truncated-series slack
    env_z = envelope(z_cut)
    damp = np.minimum(1.0, 1.0 / np.sqrt(np.pi**2 * z_cut * np.maximum(x, 1e-12)))
    osc_bound = np.sum(np.abs(coeffs)) * env_z * damp / np.pi + coeff_trunc * env_z
    # near r = 2m the difference chirp of the m-th harmonic against J_0 goes
    # stationary (the lens-kink radius for q = 4); bound that piece by its
    # un-cancelled envelope integral
    beta = (3.0 * q - 7.0) / 2.0
    near = np.abs(x[:, None] - freqs) < 0.5
    osc_bound = osc_bound + (near @ np.abs(coeffs)) * env_z * damp * z_cut / max(beta - 1.0, 0.5)

    # smooth a0 part on [rho0, inf): alternating between J_0 zeros
    errors = np.empty_like(x)
    n_seg = 128
    p_smooth = q / 2.0 - 2.0 + (q - 2.0)  # envelope decay exponent of E0
    for i, r in enumerate(x):
        if r < 1e-9:
            res = tail_power_periodic(lambda rho: a0 * envelope(rho), rho0, 0.5,
                                      max(1.2, p_smooth), n_seg)
        else:
            res = _j0_tail(lambda rho, rr=r: a0 * envelope(rho) * special.j0(2 * np.pi * rho * rr),
                           r, rho0, n_seg)
        values[i] += res.value
        errors[i] = res.error_estimate + osc_bound[i] + 1e-11 * (1.0 + abs(values[i]))
    return values, errors


# sines evaluated per chunk of the d = 3 kernel sum: the radial cut reaches
# ~1e4 near q_d (millions of nodes), so the sum is swept in chunks of panels
_SIN_CHUNK = 1 << 20


def _kernel_values_3d(kind: str, q: float, radii: np.ndarray):
    # value(r) = (2/r) int_0^inf g(rho) rho sin(2 pi rho r) drho; integrand
    # decays like rho^{1 - 2(q-1)} (K) / rho^{1 - 2(q-2)} (L): composite + bound
    x = np.asarray(radii, dtype=float)
    decay = 2.0 * (q - 1.0) - 1.0 if kind == "K" else 2.0 * (q - 2.0) - 1.0
    r_cut = max(60.0, (1e8) ** (1.0 / decay)) if decay < 8 else 60.0
    edges = np.linspace(0.0, r_cut, int(r_cut * 24) + 1)
    pos = x > 1e-12
    xp = x[pos]
    sums = np.zeros(len(xp))
    moment = 0.0  # int g rho^2 drho, the r -> 0 limit
    step = max(1, _SIN_CHUNK // (15 * max(len(xp), 1)))  # panels per chunk
    for lo in range(0, len(edges) - 1, step):
        nodes, weights = _gk15_mesh(edges[lo:lo + step + 1])
        g = _g_radial(kind, 3, q, nodes)
        sin_mat = np.outer(xp, nodes)
        sin_mat *= 2 * np.pi
        np.sin(sin_mat, out=sin_mat)
        sums += sin_mat @ (weights * g * nodes)
        moment += float(np.sum(weights * g * nodes**2))
    out = np.empty_like(x)
    out[pos] = (2.0 / xp) * sums
    out[~pos] = 4.0 * np.pi * moment
    last = _gk15_mesh(edges[-5:])[0][-50:]
    tail_bound = abs(2.0 * np.pi * np.max(np.abs(_g_radial(kind, 3, q, last))) * last[-1]) * 2.0
    errors = np.full_like(out, tail_bound + 1e-11 * np.abs(out))
    return out, errors


def kernel_values(kind: str, d: int, q: float, radii):
    """Kernel values at arbitrary radii (the engine behind kernel_profile)."""
    _check_exponent(kind, d, q)
    radii = np.asarray(radii, dtype=float)
    if not np.all(np.isfinite(radii)) or np.any(radii < 0):
        raise DomainError("radii must be finite and >= 0")
    if d == 1:
        return _kernel_values_1d(kind, q, radii)
    if d == 2:
        if kind == "K":
            return _kernel_values_2d_K(q, radii)
        return _kernel_values_2d_L(q, radii)
    if d == 3:
        return _kernel_values_3d(kind, q, radii)
    raise CapabilityError(f"kernel profiles support d in {{1,2,3}}, got {d}")


@dataclass(frozen=True)
class RadialKernel:
    """Sampled radial kernel profile with cubic interpolation."""

    kind: str
    dimension: int
    exponent: float
    radii: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    _spline: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_spline", CubicSpline(self.radii, self.values))

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = self._spline(np.clip(r, self.radii[0], self.radii[-1]))
        return np.where(r > self.radii[-1], 0.0, out)

    @property
    def r_max(self) -> float:
        return float(self.radii[-1])

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


def exact_kernel_1d(kind: str, q: int):
    """Exact piecewise-polynomial d=1 kernel for even integer q (test oracle)."""
    if q % 2 or q < 4:
        raise DomainError("exact kernels exist for even integer q >= 4")
    n = q - 1 if kind == "K" else q - 2
    return nfold_indicator_convolution([(-1, 1)], n, exact=True)


# ---------------------------------------------------------------------------
# gamma, rho, and the first-variation condition
# ---------------------------------------------------------------------------

def gamma_qd_detailed(d: int, q: float) -> IntegralResult:
    """-dK_q/dr at r = 1, by differentiation under the integral sign.

    Inserting the ring factor turns the derivative into
    4 pi^2 int rho^{1-d(q-2)/2} |J_{d/2}(2 pi rho)|^q drho (nonnegative
    integrand).  Requires q > 3: below that the defining integral diverges
    and K_q is no longer differentiable at the boundary.
    """
    if q == math.inf:
        raise DomainError("gamma needs a finite exponent q")
    if not (q > 3.0):
        raise ThresholdError(f"gamma requires q > 3 (K differentiability); got q = {q}", 3.0)
    order = d / 2.0
    expo = 1.0 - d * (q - 2.0) / 2.0

    def f(rho):
        with np.errstate(invalid="ignore"):
            jj = special.jv(order, 2 * np.pi * rho)
        return np.where(rho > 0, rho**expo, 0.0) * np.abs(jj) ** q

    res = radial_head_tail(f, 20.0, d * (q - 2.0) / 2.0 + q / 2.0 - 1.0, 1e-14)
    value = 4.0 * np.pi**2 * res.value
    err = 4.0 * np.pi**2 * res.error_estimate
    return IntegralResult(value, err, converged=err <= DEFAULT_CONFIG.tolerance(value))


def gamma_qd(d: int, q: float) -> float:
    return gamma_qd_detailed(d, q).value


def gamma_1d_closed_form(q: float) -> float:
    """2 pi^{2-q} int_R |xi|^{2-q} |sin(2 pi xi)|^q dxi (d = 1 closed form)."""
    if not (q > 3.0):
        raise ThresholdError(f"the closed-form integral converges only for q > 3; got {q}", 3.0)

    def f(xi):
        return np.where(xi > 0, xi ** (2.0 - q), 0.0) * np.abs(np.sin(2 * np.pi * xi)) ** q

    return 4.0 * np.pi ** (2.0 - q) * radial_head_tail(f, 10.0, q - 2.0, 1e-14).value


def rho_d(d: int) -> float:
    """2 pi omega_{d-1} / omega_d times int_-1^1 s^2 (1-s^2)^{(d-1)/2} ds."""
    if d < 1:
        raise DomainError("d must be >= 1")

    def f(t):  # s = sin t removes the endpoint singularity
        return np.sin(t) ** 2 * np.cos(t) ** d

    integral = integrate_adaptive(f, -np.pi / 2, np.pi / 2, QuadratureConfig(1e-14, 1e-13)).value
    return 2.0 * np.pi * omega(d - 1) / omega(d) * integral


def ball_norm_q(d: int, q: float) -> IntegralResult:
    """||B^||_q^q = d omega_d int_0^inf rho^{d-1} |B^(rho)|^q drho."""
    if not 2.0 < q < math.inf:
        raise DomainError("q must be a finite exponent > 2")

    def f(rho):
        return np.where(rho > 0, rho, 0.0) ** (d - 1) * np.abs(ball_hat(d, rho)) ** q

    res = radial_head_tail(f, 20.0, q * (d + 1.0) / 2.0 - (d - 1.0), 1e-15)
    scale = d * omega(d)
    value = scale * res.value
    err = scale * res.error_estimate
    return IntegralResult(value, err, converged=err <= DEFAULT_CONFIG.tolerance(value))


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
