"""Candidate sets, their boundary profiles, distances, and affine balancing.

Two set representations are supported:

* ``IntervalSet``   -- a disjoint union of intervals in R (exact arithmetic
  for measures, symmetric differences and window distances);
* ``StarSet``       -- an affine image of a body star-shaped about a center,
  with the radius function a truncated Fourier series on the circle.

Every construction in the stability analysis lives in this class of sets.

The boundary profile of a set E (in coordinates where the comparison ball
is the unit ball, the caller applies the affine normalization first) is the
pair of per-direction radial moments

    a(alpha) = int_0^inf 1_{E \\ B}(r alpha) r^{d-1} dr,
    b(alpha) = int_0^inf 1_{B \\ E}(r alpha) r^{d-1} dr,    F = b - a,

so that int a = |E\\B|, int b = |B\\E| and int F = |B| - |E|.  A set of ball
measure is *balanced* when F is orthogonal to every polynomial of degree
<= 2 restricted to the sphere; an affine change of variables can always
achieve this for sets close to the ball, and ``balance`` realizes the
construction as a damped Newton iteration on the degree-1 and degree-2
moments, which it reads off the Fourier coefficients of ``boundary_profile``
(the antisymmetric part of the linear update is neutral, so the iteration
runs over symmetric traceless matrices plus translations).  In d = 1 the
symmetric difference sums the signed pieces of ``_signed_pieces``, which the
d = 1 expansion terms read too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidSetError, NonConvergenceError

__all__ = [
    "AffineMap",
    "IntervalSet",
    "StarSet",
    "SphereProfile",
    "BalanceResult",
    "EllipsoidFit",
    "symdiff_measure",
    "dist_to_ellipsoids",
    "boundary_profile",
    "balance",
    "vanishing_check",
    "set_to_json",
    "set_from_json",
]


# ---------------------------------------------------------------------------
# affine maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineMap:
    """x -> M x + t with an invertible linear part."""

    matrix: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        t = np.atleast_1d(np.asarray(self.translation, dtype=float))
        if m.shape[0] != m.shape[1] or m.shape[0] != t.shape[0]:
            raise DomainError("affine map needs a square matrix matching the translation")
        if abs(np.linalg.det(m)) < 1e-300:
            raise DomainError("affine map must be invertible")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "translation", t)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return x @ self.matrix.T + self.translation

    def inverse(self) -> "AffineMap":
        inv = np.linalg.inv(self.matrix)
        return AffineMap(inv, -inv @ self.translation)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: x -> self(other(x))."""
        return AffineMap(self.matrix @ other.matrix,
                         self.matrix @ other.translation + self.translation)

    def normalized_measure_preserving(self) -> "AffineMap":
        """Divide the linear part by |det|^(1/d)."""
        d = self.dimension
        scale = abs(self.det) ** (1.0 / d)
        return AffineMap(self.matrix / scale, self.translation)

    @staticmethod
    def identity(d: int) -> "AffineMap":
        return AffineMap(np.eye(d), np.zeros(d))


# ---------------------------------------------------------------------------
# interval unions (d = 1)
# ---------------------------------------------------------------------------

class IntervalSet:
    """Finite union of disjoint intervals, kept sorted and merged."""

    dimension = 1

    def __init__(self, intervals):
        ivs = sorted((float(l), float(r)) for l, r in intervals)
        merged = []
        for l, r in ivs:
            if not (math.isfinite(l) and math.isfinite(r)):
                raise InvalidSetError(f"interval endpoints must be finite, got ({l}, {r})")
            if r <= l:
                raise InvalidSetError(f"empty or reversed interval ({l}, {r})")
            if merged and l <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], r))
            else:
                merged.append((l, r))
        if not merged:
            raise InvalidSetError("interval set must have positive measure")
        self.intervals = tuple(merged)
        if not math.isfinite(self.measure):
            raise InvalidSetError("interval set must have finite measure")

    @property
    def measure(self) -> float:
        return float(sum(r - l for l, r in self.intervals))

    def apply(self, phi: AffineMap) -> "IntervalSet":
        if phi.dimension != 1:
            raise DomainError("dimension mismatch")
        a = phi.matrix[0, 0]
        b = phi.translation[0]
        return IntervalSet([tuple(sorted((a * l + b, a * r + b))) for l, r in self.intervals])

    def dilate(self, s: float) -> "IntervalSet":
        if s <= 0:
            raise DomainError("dilation factor must be positive")
        return IntervalSet([(s * l, s * r) for l, r in self.intervals])

    def intersect_measure(self, lo: float, hi: float) -> float:
        return float(sum(max(0.0, min(r, hi) - max(l, lo)) for l, r in self.intervals))

    def median(self) -> float:
        """Point splitting the set into equal halves."""
        half = self.measure / 2.0
        acc = 0.0
        for l, r in self.intervals:
            if acc + (r - l) >= half:
                return l + (half - acc)
            acc += r - l
        return self.intervals[-1][1]

    def endpoints(self) -> np.ndarray:
        return np.array([e for iv in self.intervals for e in iv])

    def __repr__(self):
        return f"IntervalSet({list(self.intervals)!r})"


def _signed_pieces(ends1, ends2):
    """(left, right, sign) arrays of the pieces of E1 \\ E2 (+1) and E2 \\ E1
    (-1) for interval unions given by their sorted endpoints: a midpoint lies
    in a union where an odd count of its endpoints is <= it."""
    pts = np.unique(np.concatenate([ends1, ends2]))
    mid = 0.5 * (pts[:-1] + pts[1:])
    sign = (np.searchsorted(ends1, mid, side="right") % 2
            - np.searchsorted(ends2, mid, side="right") % 2)
    return pts[:-1][sign != 0], pts[1:][sign != 0], sign[sign != 0].astype(float)


# ---------------------------------------------------------------------------
# star-shaped planar sets (d = 2)
# ---------------------------------------------------------------------------

class StarSet:
    """Affine image of a body star-shaped about ``center``.

    The base body is {center + s u(theta) : 0 <= s <= r(theta)} with
    r(theta) = c0 + sum_n (a_n cos n theta + b_n sin n theta); the set is
    matrix @ base + translation.
    """

    dimension = 2

    def __init__(self, c0: float, a_coeffs=(), b_coeffs=(), center=(0.0, 0.0),
                 affine: AffineMap | None = None):
        self.c0 = float(c0)
        self.a_coeffs = np.asarray(a_coeffs, dtype=float)
        self.b_coeffs = np.asarray(b_coeffs, dtype=float)
        self.center = np.asarray(center, dtype=float)
        self.affine = affine if affine is not None else AffineMap.identity(2)
        if (self.a_coeffs.ndim != 1 or self.b_coeffs.ndim != 1 or self.center.shape != (2,)
                or self.affine.dimension != 2):
            raise InvalidSetError("star set needs 1-D coefficient lists, a center of "
                                  "length 2 and a 2-D affine part")
        numbers = np.concatenate([[self.c0], self.a_coeffs, self.b_coeffs, self.center,
                                  self.affine.matrix.ravel(), self.affine.translation])
        if not np.all(np.isfinite(numbers)):
            raise InvalidSetError("star-set parameters must be finite")
        if self.affine.det <= 0:
            raise InvalidSetError("star-set affine part must have positive determinant")
        theta = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
        if np.min(self.radius(theta)) <= 0:
            raise InvalidSetError("radius function must be positive")
        try:
            measure = self.measure
        except OverflowError:  # c0**2 beyond the float range
            measure = math.inf
        if not 0 < measure < math.inf:
            raise InvalidSetError("star set must have a positive, finite measure")

    def radius(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        r = np.full_like(theta, self.c0)
        for n, an in enumerate(self.a_coeffs, start=1):
            if an:
                r = r + an * np.cos(n * theta)
        for n, bn in enumerate(self.b_coeffs, start=1):
            if bn:
                r = r + bn * np.sin(n * theta)
        return r

    @property
    def n_modes(self) -> int:
        return max(len(self.a_coeffs), len(self.b_coeffs))

    @property
    def measure(self) -> float:
        base = np.pi * self.c0**2 + (np.pi / 2) * (np.sum(self.a_coeffs**2) + np.sum(self.b_coeffs**2))
        return float(abs(self.affine.det) * base)

    def apply(self, phi: AffineMap) -> "StarSet":
        if phi.dimension != 2:
            raise DomainError("dimension mismatch")
        return StarSet(self.c0, self.a_coeffs, self.b_coeffs, self.center,
                       phi.compose(self.affine))

    def dilate(self, s: float) -> "StarSet":
        return self.apply(AffineMap(s * np.eye(2), np.zeros(2)))

    def with_measure(self, target: float) -> "StarSet":
        return self.dilate(math.sqrt(target / self.measure))

    def star_origin(self) -> np.ndarray:
        """Image of the base center: the set is star-shaped about this point."""
        return self.affine(self.center)

    def centroid(self) -> np.ndarray:
        theta = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)
        r = self.radius(theta)
        u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        base_area = np.pi * self.c0**2 + (np.pi / 2) * (np.sum(self.a_coeffs**2) + np.sum(self.b_coeffs**2))
        first_moment = (r[:, None] ** 3 / 3.0 * u).mean(axis=0) * 2 * np.pi
        base_centroid = self.center + first_moment / base_area
        return self.affine(base_centroid)

    def boundary(self) -> np.ndarray:
        """256 boundary points, at evenly spaced angles about the base center."""
        theta = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return self.affine(self.center + self.radius(theta)[:, None] * u)

    def contains(self, points) -> np.ndarray:
        """Vectorized membership test for an (n, 2) array of points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        inv = self.affine.inverse()
        y = inv(pts) - self.center
        rho = np.hypot(y[:, 0], y[:, 1])
        ang = np.arctan2(y[:, 1], y[:, 0])
        return rho <= self.radius(ang)

    def radius_derivatives(self, theta: np.ndarray):
        """r(theta), r'(theta) and r''(theta) from the Fourier coefficients."""
        r = np.full_like(theta, self.c0)
        dr = np.zeros_like(theta)
        ddr = np.zeros_like(theta)
        a = np.pad(self.a_coeffs, (0, self.n_modes - len(self.a_coeffs)))
        b = np.pad(self.b_coeffs, (0, self.n_modes - len(self.b_coeffs)))
        for n, (an, bn) in enumerate(zip(a, b), start=1):
            if an or bn:
                c, s = np.cos(n * theta), np.sin(n * theta)
                mode = an * c + bn * s
                r += mode
                dr += n * (bn * c - an * s)
                ddr -= n * n * mode
        return r, dr, ddr

    def radius_about_origin(self, theta) -> np.ndarray:
        """Radial function about the origin (requires the origin in the kernel).

        The boundary radius t along u(theta) is the zero of the gap
        g(t) = |y| - r(angle y), y = A^{-1}(t u - v) - c, which has a single
        sign change on [0, t_hi] for sets star-shaped about the origin.
        Safeguarded Newton: g'(t) = (y.p)/|y| - r'(angle y) (y x p)/|y|^2
        with p = A^{-1} u, and a bisection step of the bracket wherever a
        Newton step would leave it; a ray is done when its step is at most
        four ulp of t (two to five steps from the star-center estimate).
        """
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        inv = self.affine.inverse()
        p = u @ inv.matrix.T
        # y(t) = inv(t u) - center = t p + (inv.translation - center)
        off = inv.translation - self.center

        def newton(t, pp):
            """The gap at t and the Newton iterate from t (not finite where g' = 0)."""
            y = t[:, None] * pp + off
            rho = np.hypot(y[:, 0], y[:, 1])
            r, dr, _ = self.radius_derivatives(np.arctan2(y[:, 1], y[:, 0]))
            g = rho - r
            with np.errstate(divide="ignore", invalid="ignore"):
                cross = (y[:, 0] * pp[:, 1] - y[:, 1] * pp[:, 0]) / rho
                return g, t - g * rho / ((y * pp).sum(axis=1) - dr * cross)

        norm_p = np.linalg.norm(p, axis=1)
        r_hi = (np.max(np.abs(self.radius(np.linspace(0, 2 * np.pi, 256)))) + np.linalg.norm(off))
        hi = np.full(len(theta), 2.0 * r_hi / np.min(norm_p) + 1.0)
        lo = np.zeros(len(theta))
        if np.any(newton(lo, p)[0] >= 0):
            raise InvalidSetError("origin is not interior to the set")
        if np.any(newton(hi, p)[0] <= 0):
            raise InvalidSetError("failed to bracket the boundary radius")
        # the root when the origin is the star center: r(angle p) / |p|
        t = np.clip(self.radius(np.arctan2(p[:, 1], p[:, 0])) / norm_p, lo, hi)
        active = np.arange(len(theta))
        for _ in range(64):
            ta = t[active]
            g, step = newton(ta, p[active])
            la = np.where(g < 0, ta, lo[active])
            ha = np.where(g < 0, hi[active], ta)
            step = np.where((step >= la) & (step <= ha), step, 0.5 * (la + ha))
            t[active], lo[active], hi[active] = step, la, ha
            active = active[np.abs(step - ta) > 4 * np.spacing(ta)]
            if not active.size:
                break
        return t

    @staticmethod
    def unit_disc() -> "StarSet":
        return StarSet(1.0)

    def __repr__(self):
        return (f"StarSet(c0={self.c0}, modes={self.n_modes}, "
                f"det={self.affine.det:.6g})")


# ---------------------------------------------------------------------------
# symmetric difference and ellipsoid distance
# ---------------------------------------------------------------------------

def symdiff_measure(e1, e2, n_theta: int = 8192, grid_resolution: int = 1024) -> float:
    """|E1 triangle E2|; exact for interval sets, angular quadrature for
    star-compatible planar sets, grid counting otherwise."""
    if e1.dimension != e2.dimension:
        raise DomainError("sets must share a dimension")
    if e1.dimension == 1:
        left, right, _ = _signed_pieces(e1.endpoints(), e2.endpoints())
        return float(sum(right - left))
    o1, o2 = e1.star_origin(), e2.star_origin()
    try:
        # common-origin radial formula about the first set's star center
        theta = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
        shift = AffineMap(np.eye(2), -o1)
        s1, s2 = e1.apply(shift), e2.apply(shift)
        r1 = s1.radius_about_origin(theta)
        r2 = s2.radius_about_origin(theta)
        return float(0.5 * np.mean(np.abs(r1**2 - r2**2)) * 2 * np.pi)
    except InvalidSetError:
        return _grid_symdiff(e1, e2, grid_resolution)


def _grid_symdiff(e1: StarSet, e2: StarSet, resolution: int) -> float:
    pts = np.concatenate([e1.boundary(), e2.boundary()])
    lo, hi = pts.min(axis=0) - 0.05, pts.max(axis=0) + 0.05
    xs = np.linspace(lo[0], hi[0], resolution)
    ys = np.linspace(lo[1], hi[1], resolution)
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    xx, yy = np.meshgrid(xs, ys)
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    diff = e1.contains(pts) != e2.contains(pts)
    return float(np.count_nonzero(diff) * cell)


@dataclass(frozen=True)
class EllipsoidFit:
    distance: float
    best: AffineMap
    converged: bool


def dist_to_ellipsoids(e, n_theta: int = 1024) -> EllipsoidFit:
    """Normalized distance inf |E triangle Ell| / |E| over equal-measure ellipsoids."""
    if e.measure <= 0:
        raise InvalidSetError("set must have positive measure")
    if e.dimension == 1:
        return _dist_intervals(e)
    return _dist_star(e, n_theta)


def _dist_intervals(e: IntervalSet) -> EllipsoidFit:
    length = e.measure
    ends = e.endpoints()
    candidates = np.unique(np.concatenate([ends, ends - length]))
    best_overlap = -1.0
    best_t = candidates[0]
    for t in candidates:
        ov = e.intersect_measure(t, t + length)
        if ov > best_overlap + 1e-15:
            best_overlap = ov
            best_t = t
    dist = 2.0 * (length - best_overlap) / length
    window = AffineMap(np.array([[length / 2.0]]), np.array([best_t + length / 2.0]))
    return EllipsoidFit(float(dist), window, True)


def _ellipse_ray_overlap(r_set, cos_t, sin_t, params, area):
    """|E cap ellipse| for an area-``area`` ellipse given by (cx, cy, psi, phi).

    The rays leave the origin in the directions (cos_t, sin_t) and leave E at
    ``r_set``.  The ellipse has semi-axes sqrt(area/pi) e^{+-psi/2}, the first
    at angle phi, so in its frame a ray has the direction (cos, sin)(theta -
    phi) and meets the boundary where aa t^2 + 2 bb t + cc = 0.
    """
    cx, cy, psi, phi = params
    qa = math.exp(-psi) * np.pi / area  # 1 / semi-axis^2
    qb = math.exp(psi) * np.pi / area
    c, s = math.cos(phi), math.sin(phi)
    w0, w1 = -(c * cx + s * cy), s * cx - c * cy  # ray origin in the ellipse frame
    cc = qa * w0 * w0 + qb * w1 * w1 - 1.0
    uc = cos_t * c + sin_t * s  # cos(theta - phi)
    us = sin_t * c - cos_t * s  # sin(theta - phi)
    aa = qa + (qb - qa) * (us * us)
    bb = (qa * w0) * uc + (qb * w1) * us
    # a ray that misses the ellipse gets disc = 0, hence t_lo = t_hi and no
    # overlap: the root needs no mask
    sq = np.sqrt(np.maximum(bb * bb - aa * cc, 0.0))
    lower = np.maximum((-bb - sq) / aa, 0.0)
    upper = np.maximum(np.minimum((sq - bb) / aa, r_set), lower)
    return float(np.pi * np.mean(upper * upper - lower * lower))


def _moment_ellipse(r_set, cos_t, sin_t) -> np.ndarray:
    """(cx, cy, psi, phi) of the ellipse with E's centroid and second moments.

    int_E f = int dtheta int_0^r f(t u) t dt; an ellipse's covariance has
    eigenvalues alpha^2/4 >= beta^2/4, so psi = log(alpha/beta) = log(l1/l2)/2.
    """
    r2 = r_set * r_set
    m0 = 0.5 * r2.mean()
    r3 = r2 * r_set / (3.0 * m0)
    cx, cy = (r3 * cos_t).mean(), (r3 * sin_t).mean()
    r4 = r2 * r2 / (4.0 * m0)
    sxx = (r4 * cos_t * cos_t).mean() - cx * cx
    syy = (r4 * sin_t * sin_t).mean() - cy * cy
    sxy = (r4 * cos_t * sin_t).mean() - cx * cy
    mean, dev = 0.5 * (sxx + syy), math.hypot(0.5 * (sxx - syy), sxy)
    return np.array([cx, cy, 0.5 * math.log((mean + dev) / (mean - dev)),
                     0.5 * math.atan2(2.0 * sxy, sxx - syy)])


# Nelder-Mead passes of the ellipse fit: a pass stalls on the kinks the
# tangent rays put into the overlap, and a fresh simplex at its result moves on
_FIT_NM = {"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000}
_FIT_MAX_PASSES = 20


def _dist_star(e: StarSet, n_theta: int) -> EllipsoidFit:
    """Equal-area ellipse fit by ray overlap, from the moment ellipse.

    The overlap |E cap ellipse| is a mean over ``n_theta`` rays from E's
    star origin, where E ends at ``radius_about_origin``.  Nelder-Mead
    starts at the moment ellipse (E's centroid and second-moment matrix,
    scaled to E's area) and is restarted from its own result until a pass
    gains no more than its ``fatol``.  ``converged`` says that the kept pass
    met its tolerances and the restarts stalled within _FIT_MAX_PASSES.
    """
    from scipy.optimize import minimize

    area = e.measure
    origin = e.star_origin()
    centered = e.apply(AffineMap(np.eye(2), -origin))
    theta = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    r_set = centered.radius_about_origin(theta)

    def objective(params):
        return 2.0 * (area - _ellipse_ray_overlap(r_set, cos_t, sin_t, params, area))

    best = minimize(objective, _moment_ellipse(r_set, cos_t, sin_t),
                    method="Nelder-Mead", options=_FIT_NM)
    stalled = False
    for _ in range(_FIT_MAX_PASSES - 1):
        res = minimize(objective, best.x, method="Nelder-Mead", options=_FIT_NM)
        stalled = res.fun >= best.fun - _FIT_NM["fatol"]
        if res.fun < best.fun:
            best = res
        if stalled:
            break
    cx, cy, psi, phi = best.x
    ab = math.sqrt(area / np.pi)
    alpha, beta = ab * math.exp(psi / 2.0), ab * math.exp(-psi / 2.0)
    c, s = math.cos(phi), math.sin(phi)
    ell = AffineMap(np.array([[c, -s], [s, c]]) @ np.diag([alpha, beta]),
                    np.array([cx, cy]) + origin)
    dist = max(0.0, best.fun) / area
    return EllipsoidFit(float(dist), ell, bool(best.success and stalled))


# ---------------------------------------------------------------------------
# boundary profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereProfile:
    """Boundary profile (a, b, F = b - a) on S^{d-1}.

    d = 1: endpoint pairs ordered (+1, -1).  d = 2: values on a uniform
    theta grid plus the Fourier coefficients of F up to ``n_modes``
    (F_hat[n] = (2 pi)^{-1} int F e^{-i n theta}).
    """

    dimension: int
    a_vals: np.ndarray
    b_vals: np.ndarray
    f_vals: np.ndarray
    thetas: np.ndarray | None = None
    f_hat: np.ndarray | None = None

    @property
    def n_modes(self) -> int:
        return 0 if self.f_hat is None else len(self.f_hat) - 1

    def fourier_coeff(self, n: int) -> complex:
        if self.dimension != 2:
            raise DomainError("Fourier coefficients exist for d = 2 profiles")
        if abs(n) >= len(self.f_hat):
            return 0.0
        c = self.f_hat[abs(n)]
        return c if n >= 0 else np.conj(c)


def boundary_profile(e, n_grid: int = 2048, n_modes: int = 32) -> SphereProfile:
    """Radial moments of E relative to the unit ball (origin-centered)."""
    if e.dimension == 1:
        a_plus = e.intersect_measure(1.0, np.inf)
        a_minus = e.intersect_measure(-np.inf, -1.0)
        b_plus = 1.0 - e.intersect_measure(0.0, 1.0)
        b_minus = 1.0 - e.intersect_measure(-1.0, 0.0)
        a = np.array([a_plus, a_minus])
        b = np.array([b_plus, b_minus])
        return SphereProfile(1, a, b, b - a)
    theta = np.linspace(0.0, 2 * np.pi, n_grid, endpoint=False)
    rr = e.radius_about_origin(theta)
    a = np.where(rr > 1.0, 0.5 * (rr**2 - 1.0), 0.0)
    b = np.where(rr < 1.0, 0.5 * (1.0 - rr**2), 0.0)
    f = b - a
    coeffs = np.fft.rfft(f) / n_grid
    f_hat = coeffs[: n_modes + 1].copy()
    return SphereProfile(2, a, b, f, theta, f_hat)


# ---------------------------------------------------------------------------
# balancing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BalanceResult:
    map: AffineMap
    balanced_set: object
    residual: float
    iterations: int
    converged: bool


def balance(e, max_iter: int = 12, tol: float = 1e-10) -> BalanceResult:
    """Measure-preserving affine map making the boundary profile balanced."""
    if e.dimension == 1:
        t = e.median()
        phi = AffineMap(np.eye(1), np.array([-t]))
        moved = e.apply(phi)
        prof = boundary_profile(moved)
        residual = float(np.max(np.abs(prof.f_vals)))
        return BalanceResult(phi, moved, residual, 1, residual <= max(tol, 1e-12))
    # d = 2: re-dilate to ball measure, then Newton over symmetric traceless
    # linear parts + translations (antisymmetric parts act trivially on the
    # degree-<=2 moment map)
    scale = math.sqrt(np.pi / e.measure)
    pre = AffineMap(scale * np.eye(2), np.zeros(2))
    current = e.apply(pre)
    total = pre

    def moments(body):
        """The degree-1 and degree-2 moments of F on the orthonormal circle
        restrictions cos/sin(n theta)/sqrt(pi), n = 1, 2, of {x, y, x^2 - y^2,
        xy}: 2 sqrt(pi) (Re F_hat[n], -Im F_hat[n]).  Mode 0 is fixed by the
        measure constraint and is not part of the residual."""
        f_hat = boundary_profile(body, n_grid=1024, n_modes=2).f_hat[1:]
        return 2 * math.sqrt(np.pi) * np.column_stack([f_hat.real, -f_hat.imag]).ravel()

    def step_map(z):
        s = np.array([[z[0], z[1]], [z[1], -z[0]]])
        det = 1.0 - z[0] ** 2 - z[1] ** 2
        if det <= 0.1:
            raise NonConvergenceError("balance step left the invertible regime", float("nan"))
        lin = (np.eye(2) + s) / math.sqrt(det)
        return AffineMap(lin, np.array([z[2], z[3]]))

    res = moments(current)
    it = 0
    for it in range(1, max_iter + 1):
        if np.max(np.abs(res)) <= tol:
            break
        jac = np.zeros((4, 4))
        h = 1e-6
        for k in range(4):
            dz = np.zeros(4)
            dz[k] = h
            r_plus = moments(current.apply(step_map(dz)))
            r_minus = moments(current.apply(step_map(-dz)))
            jac[:, k] = (r_plus - r_minus) / (2 * h)
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            raise NonConvergenceError("singular balance Jacobian", float(np.max(np.abs(res))))
        # damped update with step halving
        lam = 1.0
        for _ in range(8):
            trial_map = step_map(lam * delta)
            trial = current.apply(trial_map)
            trial_res = moments(trial)
            if np.max(np.abs(trial_res)) < np.max(np.abs(res)):
                current = trial
                total = trial_map.compose(total)
                res = trial_res
                break
            lam *= 0.5
        else:
            raise NonConvergenceError("balance step failed to reduce the residual",
                                      float(np.max(np.abs(res))))
    residual = float(np.max(np.abs(res)))
    if residual > tol:
        raise NonConvergenceError(
            f"balance did not reach tol={tol} in {max_iter} iterations", residual)
    return BalanceResult(total, current, residual, it, True)


def vanishing_check(profile: SphereProfile, k: int) -> float:
    """The double integral of F(alpha) F(beta) |alpha - beta|^{2k} on S^1 x S^1.

    |alpha - beta|^{2k} = (2 - 2cos(dtheta))^k expands into modes <= k, so
    the value is 4 pi^2 sum_m h_k(m) |F_hat(m)|^2 with the small tables below;
    it vanishes for balanced sets when k <= 2.
    """
    if profile.dimension != 2:
        raise DomainError("vanishing_check applies to circle profiles")
    if k not in (0, 1, 2):
        raise DomainError("k must be in {0, 1, 2}")
    tables = {
        0: {0: 1.0},
        1: {0: 2.0, 1: -1.0},
        2: {0: 6.0, 1: -4.0, 2: 1.0},
    }
    total = 0.0
    for m, hm in tables[k].items():
        c = profile.fourier_coeff(m)
        weight = 1.0 if m == 0 else 2.0  # +-m both contribute
        total += weight * hm * abs(c) ** 2
    return float(4 * np.pi**2 * total)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(x: float) -> float:
    return float(f"{x:.17g}")


def set_to_json(e) -> str:
    if e.dimension == 1:
        doc = {"dimension": 1, "kind": "intervals",
               "intervals": [[_fmt(l), _fmt(r)] for l, r in e.intervals]}
    else:
        doc = {
            "dimension": 2,
            "kind": "star",
            "center": [_fmt(c) for c in e.center],
            "fourier": {
                "c0": _fmt(e.c0),
                "a": [_fmt(v) for v in e.a_coeffs],
                "b": [_fmt(v) for v in e.b_coeffs],
            },
            "affine": {
                "matrix": [[_fmt(v) for v in row] for row in e.affine.matrix],
                "translation": [_fmt(v) for v in e.affine.translation],
            },
        }
    return json.dumps(doc, indent=2)


def set_from_json(text: str):
    """The set of a document written by ``set_to_json``.

    Text that is not a JSON object describing an interval union or a star
    set raises InvalidSetError.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise InvalidSetError(f"set document is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidSetError(f"set document must be a JSON object, got {type(doc).__name__}")
    try:
        if doc.get("kind") == "intervals" or doc.get("dimension") == 1:
            return IntervalSet([tuple(iv) for iv in doc["intervals"]])
        if doc.get("kind") != "star":
            raise InvalidSetError(f"unknown set kind {doc.get('kind')!r}")
        four = doc["fourier"]
        aff = doc.get("affine")
        phi = AffineMap(np.array(aff["matrix"]), np.array(aff["translation"])) if aff else None
        return StarSet(four["c0"], four.get("a", ()), four.get("b", ()),
                       center=doc.get("center", (0.0, 0.0)), affine=phi)
    except KeyError as exc:
        raise InvalidSetError(f"set document lacks the key {exc}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidSetError(f"malformed set document: {exc}") from None
