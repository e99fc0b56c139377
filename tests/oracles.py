"""Reference routines that only the tests use.

Independent routes the tests check felab against (Bessel and Gegenbauer
evaluators, a brute-force composite GK15 sum, the circle-profile route to
the circle coefficients, the sphere-reduced second variation, the boundary
radius by bisection, the planar norm one radial panel at a time),
report-only fits and probes, a local ascent from a given start, and views
of package objects that only the tests read.  None of them is called by the
package, its command line or its acceptance criteria.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from felab._pwpoly import PiecewisePoly, _poly_add, _poly_antideriv, _poly_eval
from felab.errors import ArityError, DomainError
from felab.functional import (
    _circle_rule_order,
    _phase_rates,
    _radial_factor,
    _radius_bound,
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
)
from felab.radial_kernels import RadialKernel, gamma_qd, kernel_values, omega
from felab.search import SearchConfig, SearchResult, _ascend, _params_to_set, _set_to_params
from felab.set_model import AffineMap, IntervalSet, SphereProfile, StarSet, dist_to_ellipsoids
from felab.spectral import funk_hecke_eigenvalue


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
# the planar norm, one radial panel at a time
# ---------------------------------------------------------------------------

def norm_q_2d_per_panel(e: StarSet, q: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
                        radial_cut: float | None = None):
    """||1_E^||_q^q and its error on the same mesh as ``functional._norm_q_2d``.

    The circle sum is taken panel by panel: a (15, n_phi, n_theta) array of
    radial factors per panel, averaged over theta, with no split of the
    closed form and no near-pair rule.
    """
    n_phi = int(max(32, 8 * e.n_modes + 16)) // 2
    phi = np.linspace(0.0, np.pi, n_phi, endpoint=False)
    uphi = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    expo = 1.5 * q - 2.0
    probe_rho = np.array([6.0, 9.0, 13.0])
    pts = (probe_rho[:, None, None] * uphi[None, :, :]).reshape(-1, 2)
    c_est = float(np.max(np.abs(_star_hat_points(e, pts)).reshape(3, -1)
                         * probe_rho[:, None] ** 1.5)) * 1.5
    if radial_cut is None:
        tol = max(cfg.abs_tol, 1e-7)
        radial_cut = (2 * np.pi * max(c_est, 1e-6) ** q / (expo * tol)) ** (1.0 / expo)
        radial_cut = float(np.clip(radial_cut, 15.0, 45.0))
    n_panels = int(radial_cut / 0.25) + 1
    half = 0.5 * radial_cut / n_panels
    mid = (2 * np.arange(n_panels) + 1) * half
    offsets = gk15_panels(0.0, half)[0]
    dirs = uphi @ e.affine.matrix
    scale = 2 * np.pi * e.affine.det
    r_bound = _radius_bound(e)
    value = 0.0
    rule_err = 0.0
    block = 16
    for lo in range(0, n_panels, block):
        hi = min(lo + block, n_panels)
        n_theta = _circle_rule_order(2 * np.pi * (2 * half * hi) * r_bound)
        theta = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
        r = e.radius(theta)
        rate = _phase_rates(dirs, theta, r)
        panel_ph = np.exp(-1j * mid[lo:hi, None, None] * rate)
        offset_ph = np.exp(-1j * offsets[:, None, None] * rate)
        rho = mid[lo:hi, None] + offsets[None, :]
        hat = np.empty((hi - lo, 15, n_phi))
        for j in range(hi - lo):
            g = _radial_factor(panel_ph[j] * offset_ph, rho[j, :, None, None] * rate, r * r)
            hat[j] = np.abs(g.mean(axis=2))
        integ = ((scale * hat) ** q).mean(axis=2) * 2 * np.pi * rho
        kron, err = gk15_sums(integ, half)
        value += float(np.sum(kron))
        rule_err += float(np.sum(err))
    tail = 2 * np.pi * c_est**q * radial_cut ** (-expo) / expo
    return value, rule_err + tail


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
    for n in range(profile.n_modes + 1):
        lam = funk_hecke_eigenvalue(2, q, n)
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


# ---------------------------------------------------------------------------
# views of package objects that only the tests read
# ---------------------------------------------------------------------------

def derivative_at(f: PiecewisePoly, x: float):
    """f'(x), in the arithmetic of the coefficients."""
    acc = 0
    for e, p in f.events:
        if x >= e and len(p) > 1:
            dp = [c * i for i, c in enumerate(p)][1:]
            acc += _poly_eval(dp, x)
    return acc


def cumulative(f: PiecewisePoly):
    """Antiderivative F(x) = int_-inf^x f, as (breaks, polys) pieces plus final constant."""
    breaks, polys = f.to_breaks()
    pieces = []
    acc = 0
    for i in range(len(breaks) - 1):
        anti = _poly_antideriv(polys[i])
        offset = acc - _poly_eval(anti, breaks[i])
        pieces.append((breaks[i], breaks[i + 1], _poly_add(anti, [offset])))
        acc = offset + _poly_eval(anti, breaks[i + 1])
    return pieces, acc


def deviation_from_identity(m: AffineMap) -> float:
    return float(np.linalg.norm(m.matrix - np.eye(m.dimension))
                 + np.linalg.norm(m.translation))


def translate(e: IntervalSet, t: float) -> IntervalSet:
    return IntervalSet([(l + t, r + t) for l, r in e.intervals])
