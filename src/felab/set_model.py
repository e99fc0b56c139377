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
moments, which it reads off the profile's Fourier coefficients as a sum over
the set's own boundary, ``_profile_modes``, with their Jacobian as that
sum's boundary flux (the antisymmetric part of the linear update is neutral,
so the iteration runs over symmetric traceless matrices plus translations).
In d = 1 the symmetric difference sums the signed pieces of
``_signed_pieces``, which the d = 1 expansion terms read too.  In d = 2 the
symmetric difference and the ellipse fit take areas by Green's theorem on
the arcs of each boundary inside the other set: one crossing search
(``_crossings``) ends the arcs and one Gauss-Legendre arc rule (``_arcs``)
integrates them.
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
        if _positive_on_circle(self.radius, self.derivative_bound(1),
                               self.radius(np.arange(720) * (2 * np.pi / 720))) is False:
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

    def derivative_bound(self, k: int) -> float:
        """S_k = sum n^k (|a_n| + |b_n|), with |c0| added at k = 0: a bound
        on |r^(k)| over the circle."""
        return float(abs(self.c0) * (k == 0)
                     + np.arange(1, len(self.a_coeffs) + 1) ** k @ np.abs(self.a_coeffs)
                     + np.arange(1, len(self.b_coeffs) + 1) ** k @ np.abs(self.b_coeffs))

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

    def centroid(self) -> np.ndarray:
        theta = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)
        r = self.radius(theta)
        u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        base_area = np.pi * self.c0**2 + (np.pi / 2) * (np.sum(self.a_coeffs**2) + np.sum(self.b_coeffs**2))
        first_moment = (r[:, None] ** 3 / 3.0 * u).mean(axis=0) * 2 * np.pi
        base_centroid = self.center + first_moment / base_area
        return self.affine(base_centroid)

    def curve(self, theta):
        """Boundary points P(theta) = A(c + r u) + v and their tangents
        P'(theta) = A(r' u + r u_perp), at the base angles theta."""
        theta = np.asarray(theta, dtype=float)
        r, dr, _ = self.radius_derivatives(theta)
        u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        perp = np.stack([-u[:, 1], u[:, 0]], axis=1)
        return (self.affine(self.center + r[:, None] * u),
                (dr[:, None] * u + r[:, None] * perp) @ self.affine.matrix.T)

    def boundary(self) -> np.ndarray:
        """256 boundary points, at evenly spaced angles about the base center."""
        return self.curve(np.linspace(0, 2 * np.pi, 256, endpoint=False))[0]

    def gap(self, x, dx=None):
        """The gap |y| - r(angle y), y = A^{-1}(x - v) - c, at the (n, 2)
        points x: negative inside the set, zero on its boundary.  With the
        tangents dx, also its derivative along them, (y.p)/|y| - r'(angle y)
        (y x p)/|y|^2 with p = A^{-1} dx (not finite at y = 0)."""
        inv = self.affine.inverse()
        y = inv(x) - self.center
        rho = np.hypot(y[:, 0], y[:, 1])
        angle = np.arctan2(y[:, 1], y[:, 0])
        if dx is None:  # membership tests may sample a whole grid: r alone
            return rho - self.radius(angle)
        r, dr, _ = self.radius_derivatives(angle)
        p = dx @ inv.matrix.T
        with np.errstate(divide="ignore", invalid="ignore"):
            return rho - r, ((y * p).sum(axis=1) - dr * (y[:, 0] * p[:, 1] - y[:, 1] * p[:, 0])
                             / rho) / rho

    def contains(self, points) -> np.ndarray:
        """Vectorized membership test for an (n, 2) array of points."""
        return self.gap(np.atleast_2d(np.asarray(points, dtype=float))) <= 0

    def radius_derivatives(self, theta: np.ndarray):
        """r(theta), r'(theta) and r''(theta) from the Fourier coefficients."""
        n = np.arange(1, self.n_modes + 1)
        a, b = np.zeros(len(n)), np.zeros(len(n))
        a[:len(self.a_coeffs)], b[:len(self.b_coeffs)] = self.a_coeffs, self.b_coeffs
        nt = np.multiply.outer(theta, n)
        c, s = np.cos(nt), np.sin(nt)
        return (self.c0 + c @ a + s @ b, c @ (n * b) - s @ (n * a),
                -(c @ (n * n * a) + s @ (n * n * b)))

    def radius_about_origin(self, theta) -> np.ndarray:
        """Radial function about the origin (requires the origin in the kernel).

        The boundary radius t along u(theta) is the zero of the gap at t u,
        which has a single sign change on [0, t_hi] for sets star-shaped about
        the origin; ``_bracketed_newton`` finds it from the star-center
        estimate in two to five steps.
        """
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        inv = self.affine.inverse()
        p = u @ inv.matrix.T

        def newton(t, idx):
            """The gap at t and the Newton iterate from t (not finite where g' = 0)."""
            g, dg = self.gap(t[:, None] * u[idx], u[idx])
            with np.errstate(divide="ignore", invalid="ignore"):
                return g, t - g / dg

        norm_p = np.linalg.norm(p, axis=1)
        off = inv.translation - self.center
        r_hi = (np.max(np.abs(self.radius(np.linspace(0, 2 * np.pi, 256)))) + np.linalg.norm(off))
        hi = np.full(len(theta), 2.0 * r_hi / np.min(norm_p) + 1.0)
        lo = np.zeros(len(theta))
        every = np.arange(len(theta))
        if np.any(newton(lo, every)[0] >= 0):
            raise InvalidSetError("origin is not interior to the set")
        if np.any(newton(hi, every)[0] <= 0):
            raise InvalidSetError("failed to bracket the boundary radius")
        # the root when the origin is the star center: r(angle p) / |p|
        t = np.clip(self.radius(np.arctan2(p[:, 1], p[:, 0])) / norm_p, lo, hi)
        return _bracketed_newton(newton, t, lo, hi, np.ones(len(theta), dtype=bool))

    @staticmethod
    def unit_disc() -> "StarSet":
        return StarSet(1.0)

    def __repr__(self):
        return (f"StarSet(c0={self.c0}, modes={self.n_modes}, "
                f"det={self.affine.det:.6g})")


# ---------------------------------------------------------------------------
# crossings and arcs on planar boundaries
# ---------------------------------------------------------------------------

# the arc rule: Gauss-Legendre at 24 nodes, and at 12 for its error; one
# column of weights per order over the 36 nodes of both
_GL24, _GL12 = np.polynomial.legendre.leggauss(24), np.polynomial.legendre.leggauss(12)
_ARC_NODES = np.concatenate([_GL24[0], _GL12[0]])
_ARC_WEIGHTS = np.zeros((36, 2))
_ARC_WEIGHTS[:24, 0], _ARC_WEIGHTS[24:, 1] = _GL24[1], _GL12[1]


def _positive_on_circle(f, slope: float, values: np.ndarray):
    """Whether the periodic f, with |f'| <= slope, is positive on the circle.

    ``values`` are f at len(values) even angles from 0.  A sample certifies
    its arc of half-width h where f > slope h there; the arcs it leaves open
    are halved and sampled again at their midpoints.  A sample f <= 0 refutes
    (False).  None where more than four arcs per first sample, or forty
    halvings, stay open: then the samples are all that is known.
    """
    n = len(values)
    theta, half = np.arange(n) * (2 * np.pi / n), np.pi / n
    for _ in range(40):
        if not np.min(values) > 0:
            return False
        theta = theta[values <= slope * half]
        if not theta.size:
            return True
        if theta.size > 4 * n:
            return None
        half *= 0.5
        theta = (theta[:, None] + [-half, half]).ravel()
        values = f(theta)
    return None


def _bracketed_newton(newton, t, lo, hi, lo_below, scale: float = 0.0,
                      gtol: float = 0.0) -> np.ndarray:
    """Roots in the brackets [lo, hi] from the starts t, where the function
    is below zero at lo exactly where ``lo_below``.

    newton(t, idx) gives the function at t and the Newton iterate from t for
    the entries idx.  An iterate outside the closed bracket becomes the
    bracket's midpoint.  An entry is done when its step is at most four ulp
    of max(|t|, scale), or when the function there is at most ``gtol``, its
    rounding, where the steps would only follow that rounding.
    """
    active = np.arange(len(t))
    for _ in range(64):
        ta = t[active]
        g, step = newton(ta, active)
        up = (g < 0) == lo_below[active]  # the root lies above ta
        la = np.where(up, ta, lo[active])
        ha = np.where(up, hi[active], ta)
        step = np.where((step >= la) & (step <= ha), step, 0.5 * (la + ha))
        t[active], lo[active], hi[active] = step, la, ha
        active = active[(np.abs(step - ta) > 4 * np.spacing(np.maximum(np.abs(ta), scale)))
                        & (np.abs(g) > gtol)]
        if not active.size:
            break
    return t


def _sign_grid(n_modes: int) -> np.ndarray:
    """``_crossings``' grid, 2 pi included."""
    n = 128 * (1 + n_modes // 16)
    return np.arange(n + 1) * (2 * np.pi / n)


def _crossings(gap, n_modes: int, on_grid=None) -> np.ndarray:
    """The sorted angles in [0, 2 pi) where the periodic gap(theta) -> (g,
    dg/dtheta), of order one, changes sign.

    A grid of 128 angles per 16 Fourier modes of the curves (``_sign_grid``;
    ``on_grid`` gives (g, dg) there, where the caller has them) brackets each
    sign change.  Where g' changes sign between two samples and g does not,
    the gap is sampled again at the zero of g's secant: a dip across zero
    there holds two crossings closer than the grid.  ``_bracketed_newton``
    refines each bracket from its secant to eight ulp of the gap.
    """
    grid = _sign_grid(n_modes)
    g, dg = (np.append(v, v[0]) for v in (gap(grid[:-1]) if on_grid is None else on_grid)[:2])
    k = np.flatnonzero((dg[:-1] * dg[1:] < 0) & ((g[:-1] < 0) == (g[1:] < 0)))
    dip = grid[k] - dg[k] * (grid[k + 1] - grid[k]) / (dg[k + 1] - dg[k])
    g_dip = gap(dip)[0]
    split = (g_dip < 0) != (g[k] < 0)
    order = np.argsort(np.concatenate([grid[:-1], dip[split]]))
    grid = np.append(np.concatenate([grid[:-1], dip[split]])[order], 2 * np.pi)
    g = np.concatenate([g[:-1], g_dip[split]])[order]
    below = g < 0
    k = np.flatnonzero(below != np.roll(below, -1))
    lo, hi, g_lo, g_hi = grid[k], grid[k + 1], g[k], g[(k + 1) % len(g)]

    def newton(t, idx):
        g, dg = gap(t)[:2]
        with np.errstate(divide="ignore", invalid="ignore"):
            return g, t - g / dg

    roots = _bracketed_newton(newton, lo + (hi - lo) * g_lo / (g_lo - g_hi), lo, hi, below[k],
                              np.pi, 8 * np.finfo(float).eps)
    return np.sort(roots % (2 * np.pi))


def _arcs(cuts: np.ndarray, n_modes: int):
    """The arcs of the circle between the sorted angles ``cuts``, cut again at
    the multiples of 2 pi / 16 (per 16 Fourier modes of the integrand) so that
    none is longer: their midpoints, half-widths and arc-rule nodes."""
    k = 16 * (1 + n_modes // 16)
    edges = np.unique(np.concatenate([cuts, np.arange(k) * (2 * np.pi / k)]))
    edges = np.append(edges, 2 * np.pi)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    return mid, half, mid[:, None] + half[:, None] * _ARC_NODES


def _arc_area(e: StarSet, cuts: np.ndarray, inside, at=np.empty(0)):
    """1/2 int P x P' dtheta over the arcs of E's boundary between ``cuts``
    whose midpoints ``inside`` accepts (from the points and tangents there), at
    both orders of the arc rule: that boundary's share of an area by Green's
    theorem; and the points and tangents at ``at``, from the same ``curve`` call."""
    mid, half, theta = _arcs(cuts, e.n_modes)
    p, dp = e.curve(np.concatenate([theta.ravel(), mid, at]))
    n, k = theta.size, theta.size + len(mid)
    keep = inside(p[n:k], dp[n:k])
    form = (p[:n, 0] * dp[:n, 1] - p[:n, 1] * dp[:n, 0]).reshape(theta.shape)
    return 0.5 * (half[keep] @ form[keep]) @ _ARC_WEIGHTS, (p[k:], dp[k:])


# ---------------------------------------------------------------------------
# symmetric difference and ellipsoid distance
# ---------------------------------------------------------------------------

def symdiff_measure(e1, e2) -> float:
    """|E1 triangle E2|: exact for interval sets; for star sets |E1| + |E2| -
    2 |E1 cap E2|, with the intersection from ``_intersection``."""
    if e1.dimension != e2.dimension:
        raise DomainError("sets must share a dimension")
    if e1.dimension == 1:
        left, right, _ = _signed_pieces(e1.endpoints(), e2.endpoints())
        return float(sum(right - left))
    return max(0.0, e1.measure + e2.measure - 2.0 * float(_intersection(e1, e2)[0]))


def _intersection(e1: StarSet, e2: StarSet) -> np.ndarray:
    """|E1 cap E2| at both orders of the arc rule, by Green's theorem: the
    arcs of each boundary inside the other set, which end where the boundary
    crosses the other set's gap.  An arc that lies on both boundaries, to
    1e-12 of the other set's base radius, counts once, with E1's."""
    total = np.zeros(2)
    for a, b, shared in ((e1, e2, 1e-12), (e2, e1, -1e-12)):
        def gap(theta):  # b's gap along a's boundary, in b's mean radius
            return tuple(v / b.c0 for v in b.gap(*a.curve(theta)))

        cuts = _crossings(gap, a.n_modes + b.n_modes)
        total += _arc_area(a, cuts, lambda p, dp: b.gap(p, dp)[0] / b.c0 < shared)[0]
    return total


@dataclass(frozen=True)
class EllipsoidFit:
    """The distance, the fitted ellipsoid as the image of the unit ball,
    whether the fit met its stopping rule, and the distance's error."""

    distance: float
    best: AffineMap
    converged: bool
    error: float


def dist_to_ellipsoids(e) -> EllipsoidFit:
    """Normalized distance inf |E triangle Ell| / |E| over equal-measure
    ellipsoids, with the error of the distance at the fitted one."""
    if e.measure <= 0:
        raise InvalidSetError("set must have positive measure")
    if e.dimension == 1:
        return _dist_intervals(e)
    return _dist_star(e)


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
    # exact but for the rounding of the endpoint sums
    error = 4.0 * len(ends) * np.spacing(np.max(np.abs(ends))) / length
    return EllipsoidFit(float(dist), window, True, float(error))


def _ellipse_overlap(body: StarSet, params, grid=None):
    """|B cap Ell| at both orders of the arc rule, its gradient and Hessian
    in ``params`` and the gradient's rounding bound, for B = ``body``
    (star-shaped about the origin) and the area-pi ellipse m + M w(s),
    w = (cos s, sin s), M = R(phi) diag(alpha, beta), alpha = e^{psi/2} =
    1/beta, params = (m, psi, phi).

    By Green's theorem about the origin, B's arcs inside the ellipse add
    1/2 int r^2 dtheta (the arc rule) and the ellipse's arcs inside B add
    1/2 int (m + M w) x M w' ds = 1/2 (m x M dw + ds) in closed form.  The
    arcs end at the crossings, which the search finds on B's boundary in the
    ellipse's gap Q - 1 = |z|^2 - 1, z = M^{-1}(P - m).  By Hadamard's
    formula the gradient is int (dx/dp) x x' ds over the ellipse's arcs
    inside B alone, sum +-G(s) over the arcs' ends with G(s) = ((M w)_y,
    -(M w)_x, sin 2s / 4, -(alpha^2 - beta^2) cos 2s / 4).  Its derivative,
    the Hessian, is sum +-(dG/dp + G'(s) ds/dp): a crossing at B's angle
    theta moves by dtheta/dp = -(dQ/dp)/(dQ/dtheta), so its ellipse angle
    s = arg z by ds/dp = z x (dz/dp + z_theta dtheta/dp).  A crossing found
    to 8 ulp of the gap moves by 8 eps / |dQ/dtheta|, which bounds the
    gradient's rounding with the largest integrand, max(alpha, beta)^2.
    ``grid`` is B's ``curve`` on ``_sign_grid``, which a fit builds once.
    """
    m, psi, phi = np.asarray(params[:2]), params[2], params[3]
    c, s = math.cos(phi), math.sin(phi)
    ab = np.array([math.exp(0.5 * psi), math.exp(-0.5 * psi)])
    a2, b2 = ab**2
    rot = np.array([[c, -s], [s, c]])
    mat, inv = rot * ab, rot.T / ab[:, None]

    def gap(p, dp):
        z, dz = (p - m) @ inv.T, dp @ inv.T
        return (z * z).sum(axis=1) - 1.0, 2.0 * (z * dz).sum(axis=1), z, dz

    cuts = _crossings(lambda theta: gap(*body.curve(theta))[:2], body.n_modes,
                      None if grid is None else gap(*grid)[:2])
    inner, at_cuts = _arc_area(body, cuts, lambda p, dp: gap(p, dp)[0] < 1e-12, cuts)
    _, slope, z, dz = gap(*at_cuts)
    s_end = np.arctan2(z[:, 1], z[:, 0]) % (2 * np.pi)
    order = np.argsort(s_end)
    s_end, slope, z, dz = s_end[order], slope[order], z[order], dz[order]
    ends = np.append(s_end, s_end[0] + 2 * np.pi) if s_end.size else np.array([0.0, 2 * np.pi])
    mid = 0.5 * (ends[:-1] + ends[1:])
    keep = body.gap(m + np.stack([np.cos(mid), np.sin(mid)], axis=1) @ mat.T) < -1e-12
    sign = (np.roll(keep, 1) * 1.0 - keep)[:len(s_end)]  # +1 where a kept arc ends
    w = np.stack([np.cos(s_end), np.sin(s_end)], axis=1)
    cos2, sin2 = w[:, 0] ** 2 - w[:, 1] ** 2, 2 * w[:, 0] * w[:, 1]
    dw, dw_psi = (sign @ w) * [ab, 0.5 * ab * [1, -1]] @ rot.T  # sum +-M w, +-dM/dpsi w
    outer = 0.5 * (m[0] * dw[1] - m[1] * dw[0] + np.sum(ends[1:][keep] - ends[:-1][keep]))
    grad = np.array([dw[1], -dw[0], 0.25 * (sign @ sin2), -0.25 * (a2 - b2) * (sign @ cos2)])
    # the Hessian: dG/dp at fixed s (dM/dphi = J M), then G'(s) ds/dp with
    # z . dz/dp and z x dz/dp at fixed theta
    hess = np.zeros((4, 4))
    hess[:2, 2], hess[:2, 3] = [dw_psi[1], -dw_psi[0]], dw
    hess[3, 2] = -0.25 * (a2 + b2) * (sign @ cos2)
    mdw = np.stack([-w[:, 1], w[:, 0]], axis=1) * ab @ rot.T
    g_s = np.stack([mdw[:, 1], -mdw[:, 0], 0.5 * cos2, 0.5 * (a2 - b2) * sin2], axis=1)
    zx = np.stack([-z[:, 1], z[:, 0]], axis=1)  # z x v = zx . v
    z_dot = np.column_stack([-(z @ inv), 0.5 * (z[:, 1] ** 2 - z[:, 0] ** 2),
                             (b2 - a2) * z[:, 0] * z[:, 1]])
    z_cross = np.column_stack([-(zx @ inv), z[:, 0] * z[:, 1],
                               -(a2 * z[:, 0] ** 2 + b2 * z[:, 1] ** 2)])
    eps = np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore"):  # a tangent crossing: no bound
        ds = z_cross - 2.0 * ((zx * dz).sum(axis=1) / slope)[:, None] * z_dot
        hess += g_s.T @ (sign[:, None] * ds)
        bound = 8 * eps * (len(cuts) + np.sum(1.0 / np.abs(slope))) * np.max(ab) ** 2
    return inner + outer, grad, hess, bound


def _moment_ellipse(body: StarSet) -> np.ndarray:
    """(cx, cy, psi, phi) of the area-pi ellipse with B's centroid and the
    shape of its second moments, int_B f = int dtheta int_0^r f(t u) t dt by
    the arc rule.  An ellipse's covariance has eigenvalues alpha^2/4 >=
    beta^2/4, so psi = log(alpha/beta) = log(l1/l2)/2."""
    _, half, theta = _arcs(np.empty(0), 2 * body.n_modes)
    theta, w = theta.ravel(), np.outer(half, _ARC_WEIGHTS[:, 0]).ravel()
    r = body.radius(theta)
    u = np.stack([np.cos(theta), np.sin(theta)])
    m0 = 0.5 * (w @ r**2)
    mean = u @ (w * r**3) / (3.0 * m0)
    (sxx, sxy), (_, syy) = (u * (w * r**4)) @ u.T / (4.0 * m0) - np.outer(mean, mean)
    mid, dev = 0.5 * (sxx + syy), math.hypot(0.5 * (sxx - syy), sxy)
    return np.array([mean[0], mean[1], 0.5 * math.log((mid + dev) / (mid - dev)),
                     0.5 * math.atan2(2.0 * sxy, sxx - syy)])


def _dist_star(e: StarSet) -> EllipsoidFit:
    """Equal-area ellipse fit on E's base body, from its moment ellipse.

    |E cap Ell| / |E| is affine-invariant, so the fit runs on the base body B
    scaled to area pi about its star center, where ``_ellipse_overlap`` gives
    the exact overlap with its gradient and Hessian.  Newton steps maximize
    the overlap.  The Hessian's eigenvalues are made negative, no flatter
    than 1e-6 of the largest, so that each step climbs; a step is at most
    0.2 long, and it shrinks to the peak of the overlap's quadratic along it
    (by 0.1 to 0.5) until the overlap rises, or, where the rise is within the
    overlap's rounding, until the gradient halves; twelve shrinks end the
    fit.  ``converged`` says that the gradient fell within its rounding
    bound; the error is the arc rule's, from its two orders, and the sum's
    rounding.
    """
    scale = math.sqrt(e.measure / e.affine.det / np.pi)
    body = StarSet(e.c0 / scale, e.a_coeffs / scale, e.b_coeffs / scale)
    grid = body.curve(_sign_grid(body.n_modes)[:-1])
    x = _moment_ellipse(body)
    overlap, grad, hess, bound = _ellipse_overlap(body, x, grid)
    noise = 16 * np.finfo(float).eps * np.pi
    for _ in range(40):
        if np.max(np.abs(grad)) <= bound:
            break
        lam, vec = np.linalg.eigh(hess)
        lam = np.maximum(np.abs(lam), 1e-6 * np.max(np.abs(lam)) + np.finfo(float).tiny)
        step = vec @ ((vec.T @ grad) / lam)
        step *= min(1.0, 0.2 / np.linalg.norm(step))
        for _ in range(12):
            trial = _ellipse_overlap(body, x + step, grid)
            rise, slope = trial[0][0] - overlap[0], grad @ step
            if rise > 1e-4 * slope + noise or (
                    abs(rise) <= noise and np.max(np.abs(trial[1])) < 0.5 * np.max(np.abs(grad))):
                break
            step *= min(max(slope / (2 * (slope - rise)) if slope > rise else 0.5, 0.1), 0.5)
        else:
            break
        x, (overlap, grad, hess, bound) = x + step, trial
    cx, cy, psi, phi = x
    c, s = math.cos(phi), math.sin(phi)
    mat = np.array([[c, -s], [s, c]]) * [math.exp(0.5 * psi), math.exp(-0.5 * psi)]
    ell = AffineMap(scale * e.affine.matrix @ mat,
                    e.affine(e.center + scale * np.array([cx, cy])))
    dist = max(0.0, 2.0 * (1.0 - overlap[0] / np.pi))
    error = 2.0 * (abs(overlap[0] - overlap[1]) + noise) / np.pi
    return EllipsoidFit(float(dist), ell, bool(np.max(np.abs(grad)) <= bound), float(error))


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
    return SphereProfile(2, a, b, b - a, theta, _profile_modes(e, n_modes))


def _profile_modes(e: StarSet, n_modes: int, flux: bool = False):
    """F_hat[0..n_modes] of a planar profile from E's own boundary, with no
    ray solve.  F = (1 - r^2)/2 along rays from the origin, so for n >= 1
    F_hat[n] = -(2 pi)^{-1} int_E e^{-i n arg x} dx, and e^{-i n arg x} is
    0-homogeneous: div(x h / 2) = h, so by Green that integral is
    1/2 oint e^{-i n arg P} (P x P') dtheta.  The trapezoidal sum takes 256
    points per 32 modes of the set and the profile; F_hat[0] = (pi - |E|)/(2 pi)
    from the same sum.

    With ``flux``, also d F_hat / dz, one row per generator of ``balance``'s
    step (x, -y), (y, x), (1, 0), (0, 1): a field V moves int_E h by the
    boundary flux oint h(P) (V x P') dtheta, on the same sum."""
    k = 256 * (1 + (e.n_modes + n_modes) // 32)
    p, dp = e.curve(np.arange(k) * (2 * np.pi / k))
    z = p[:, 0] - 1j * p[:, 1]
    form = (p[:, 0] * dp[:, 1] - p[:, 1] * dp[:, 0]) * (np.pi / k)
    waves = np.vander(z / np.abs(z), n_modes + 1, increasing=True)
    f_hat = -(form @ waves) / (2 * np.pi)
    f_hat[0] += 0.5
    if not flux:
        return f_hat
    fields = np.stack([p[:, 0] * dp[:, 1] + p[:, 1] * dp[:, 0],
                       p[:, 1] * dp[:, 1] - p[:, 0] * dp[:, 0], dp[:, 1], -dp[:, 0]])
    return f_hat, -(fields @ waves) / k


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


def _balance_moments(body: StarSet):
    """The degree-1 and degree-2 moments of F on the orthonormal circle
    restrictions cos/sin(n theta)/sqrt(pi), n = 1, 2, of {x, y, x^2 - y^2,
    xy}: 2 sqrt(pi) (Re F_hat[n], -Im F_hat[n]), and their Jacobian in the
    step z of ``_balance_step`` at z = 0.  Mode 0 is fixed by the measure
    constraint and is not part of the residual."""
    f_hat, d_hat = _profile_modes(body, 2, flux=True)
    res = np.column_stack([f_hat[1:].real, -f_hat[1:].imag]).ravel()
    jac = np.stack([d_hat[:, 1:].real, -d_hat[:, 1:].imag], axis=2).reshape(4, 4).T
    return 2 * math.sqrt(np.pi) * res, 2 * math.sqrt(np.pi) * jac


def _balance_step(z) -> AffineMap:
    """x -> (I + S) x / sqrt(det(I + S)) + (z2, z3), S = [[z0, z1], [z1, -z0]]
    with det(I + S) = 1 - z0^2 - z1^2 > 0: measure-preserving, with
    velocities (x, -y), (y, x), (1, 0), (0, 1) at 0."""
    s = np.array([[z[0], z[1]], [z[1], -z[0]]])
    return AffineMap((np.eye(2) + s) / math.sqrt(1.0 - z[0] ** 2 - z[1] ** 2),
                     np.array([z[2], z[3]]))


def balance(e, max_iter: int = 12, tol: float = 1e-10) -> BalanceResult:
    """Measure-preserving affine map making the boundary profile balanced.

    In d = 2 the set is dilated to ball measure; then Newton steps over
    symmetric traceless linear parts plus translations (antisymmetric parts
    act trivially on the degree-<=2 moments) drive the moments to zero.  The
    moments and their Jacobian are one boundary sum on the current set
    (``_balance_moments``); a step is halved until it keeps det(I + S) above
    0.1 and the largest moment falls.
    """
    if e.dimension == 1:
        t = e.median()
        phi = AffineMap(np.eye(1), np.array([-t]))
        moved = e.apply(phi)
        prof = boundary_profile(moved)
        residual = float(np.max(np.abs(prof.f_vals)))
        return BalanceResult(phi, moved, residual, 1, residual <= max(tol, 1e-12))
    scale = math.sqrt(np.pi / e.measure)
    total = AffineMap(scale * np.eye(2), np.zeros(2))
    current = e.apply(total)
    res, jac = _balance_moments(current)
    it = 0
    for it in range(1, max_iter + 1):
        if np.max(np.abs(res)) <= tol:
            break
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            raise NonConvergenceError("singular balance Jacobian", float(np.max(np.abs(res))))
        lam = 1.0
        for _ in range(8):
            z, lam = lam * delta, 0.5 * lam
            if z[0] ** 2 + z[1] ** 2 >= 0.9:
                continue
            trial_map = _balance_step(z)
            trial = current.apply(trial_map)
            trial_res, trial_jac = _balance_moments(trial)
            if np.max(np.abs(trial_res)) < np.max(np.abs(res)):
                current, res, jac = trial, trial_res, trial_jac
                total = trial_map.compose(total)
                break
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
