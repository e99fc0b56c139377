"""Reference routines that only the tests use.

Independent routes the tests check felab against (Bessel and Gegenbauer
evaluators, a brute-force composite GK15 sum, the circle-profile route to
the circle coefficients) and report-only fits and probes.  None of them is
called by the package, its command line or its acceptance criteria.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from felab.errors import ArityError, DomainError
from felab.functional import phi_q
from felab.quadrature import (
    DEFAULT_CONFIG,
    IntegralResult,
    QuadratureConfig,
    gk15_panels,
    gk15_sums,
    integrate_adaptive,
)
from felab.radial_kernels import RadialKernel, gamma_qd, omega


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


def circle_coeff_from_profile(kernel: RadialKernel, n: int,
                              cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Oracle route: (2 pi)^{-1} int Ltheta(t) cos(nt) dt against a sampled profile."""
    if kernel.dimension != 2 or kernel.kind != "L":
        raise DomainError("profile route needs a d=2 L-kind kernel")

    def f(theta):
        r = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.cos(theta)))
        return kernel(r) * np.cos(n * theta)

    res = integrate_adaptive(f, 0.0, 2 * np.pi, QuadratureConfig(1e-12, 1e-11,
                                                                 cfg.max_subdivisions))
    return res.value / (2 * np.pi)


@dataclass(frozen=True)
class CircleProfile:
    """theta -> L_q at chord distance |x| = sqrt(2 - 2 cos theta) (d = 2)."""

    kernel: RadialKernel

    def __post_init__(self):
        if self.kernel.dimension != 2 or self.kernel.kind != "L":
            raise DomainError("CircleProfile wraps a d=2 L-kind kernel")

    @property
    def exponent(self) -> float:
        return self.kernel.exponent

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        r = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.cos(theta)))
        return self.kernel(r)


# ---------------------------------------------------------------------------
# report-only fits and probes
# ---------------------------------------------------------------------------

def gamma_asymptotic_fit(d: int, q_list, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Fit log gamma - q log omega_d against log q; slope -> -(d+2)/2."""
    q_arr = np.asarray(sorted(q_list), dtype=float)
    if len(q_arr) < 4:
        raise ArityError("need at least 4 exponents for the asymptotic fit")
    log_w = math.log(omega(d))
    ys = []
    for q in q_arr:
        g = gamma_qd(d, float(q), cfg)
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
