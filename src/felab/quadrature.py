"""Numerical backbone: the GK15 panel rule and the integration engines.

Everything downstream (radial kernels, the functional, the sphere spectrum)
runs on this module:

* ``gk15_panels`` / ``gk15_sums`` -- the Gauss-Kronrod 15(7) panel rule
  (QUADPACK's qk15): the nodes and Kronrod weights of a batch of panels,
  and the Kronrod sums with the |K - G| rule error of values sampled on
  them, under every GK15 mesh in the package; ``zero_segment_edges``
  gives ``radial_head_tail``'s head its edges, cut and graded at the zeros
  of B^.
* ``kink_rules`` / ``kink_mesh`` -- the kernel meshes' 16-point panels:
  Gauss-Legendre where the integrand is smooth, and at a |t|^a kink on a
  panel end the Gauss-Jacobi rule of (1 +- x)^a or (1 - x^2)^a (scipy's
  ``roots_jacobi``; DLMF 3.5(v)), weights divided by the weight function,
  so that a panel ending at a kink needs no grading.
* ``integrate_adaptive``    -- adaptive bisection (QUADPACK's QAGP) from
  panels cut at known kinks, a round of splits per call: the reference of
  the fixed meshes, which no module calls.  Identical inputs give
  bit-identical results: worst error first, creation order breaks ties.
* ``integrate_oscillatory_tail`` -- sums inter-zero segment integrals of a
  slowly decaying oscillatory integrand and accelerates the alternating
  segment series with iterated Aitken (plain truncation, reported
  unconverged, as the fallback): the reference of the d = 2 L kernel's
  closed-form a_0 tail, which no module calls.
* ``tail_power_periodic``   -- tail integrator for integrands of the form
  (algebraic envelope) x (fixed-period oscillation), the shape every
  Bessel-power tail in this package reduces to.  Integrating over exact
  periods removes the oscillation to leading order; an exact solve in the
  abscissa removes the algebraic remainder, and a rule error measured on
  the first periods is removed and kept in the estimate.
* ``radial_head_tail``      -- the radial integrals over [0, inf) (gamma,
  ball norms, moments, Funk-Hecke eigenvalues): a fixed head cut at the
  zeros of B^, then a tail of period 1/2 from the last.  Its mesh and
  tolerances follow from the ``tol`` and kink exponent its caller fixes.
* ``_power_tail``           -- E(c) = int_1^inf xi^{-s} e^{ic xi} dxi, a
  generalized exponential integral (DLMF 8.19), for an array of c at once:
  the algebraic tails of the d = 1 kernels and of the d = 1 norm at even q,
  and the terms of the d = 2 L kernel's a_0 tail.

Integrands must accept numpy arrays.  Non-finite integrand values (isolated
integrable singularities) are treated as zero.

Vector integrands.  ``integrate_adaptive``, ``tail_power_periodic`` and
``radial_head_tail`` also take an integrand with values of shape
(K,) + x.shape: K integrals on one mesh (the Funk-Hecke eigenvalues of all
modes, which share the kinks of |B^|^{q-2}), each held to its own
max(abs_tol, rel_tol |value_k|), and a result of arrays of length K.  The
adaptive loop bisects by the largest component error; the periodic tail
doubles until every component has stopped, and a component keeps the
result of its first stopping doubling.  K identical components reproduce
the scalar result bit for bit.

All functions here are pure; there is no shared mutable state.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError

__all__ = [
    "QuadratureConfig",
    "IntegralResult",
    "DEFAULT_CONFIG",
    "integrate_adaptive",
    "integrate_oscillatory_tail",
    "tail_power_periodic",
    "radial_head_tail",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances of the integration engines."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8

    def __post_init__(self):
        # written so that a NaN tolerance fails the check
        if not (self.abs_tol >= 0 and self.rel_tol >= 0 and self.abs_tol + self.rel_tol > 0):
            raise DomainError("require abs_tol, rel_tol >= 0 and abs_tol + rel_tol > 0")

    def tolerance(self, scale: float = 1.0) -> float:
        return max(self.abs_tol, self.rel_tol * abs(scale))


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class IntegralResult:
    """Floats for a scalar integrand; arrays, one entry per component, for a
    vector one."""

    value: float
    error_estimate: float
    converged: bool

    def __post_init__(self):
        err = self.error_estimate
        if np.any(err < 0) if getattr(err, "ndim", 0) else err < 0:
            raise DomainError("error_estimate must be >= 0")


def _within(err, value, cfg: QuadratureConfig):
    """err <= max(abs_tol, rel_tol |value|), one bool per component for arrays."""
    if isinstance(err, float):
        return err <= cfg.tolerance(value)
    return err <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(value))


def _result(value, error, converged) -> IntegralResult:
    if getattr(value, "ndim", 0):
        return IntegralResult(value, error, converged)
    return IntegralResult(float(value), float(error), bool(converged))


# ---------------------------------------------------------------------------
# Gauss-Kronrod 15(7) panel rule
# ---------------------------------------------------------------------------

_GK_NODES = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])

_GK_WEIGHTS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])

_G_WEIGHTS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


def _eval_clean(f, x: np.ndarray) -> np.ndarray:
    """f at x, shape x.shape or (K,) + x.shape, with non-finite values zeroed."""
    with np.errstate(all="ignore"):
        y = np.asarray(f(x), dtype=float)
    if y.shape[-x.ndim:] != x.shape:  # a constant
        y = np.broadcast_to(y, x.shape).astype(float)
    bad = ~np.isfinite(y)
    return np.where(bad, 0.0, y) if bad.any() else y


def gk15_panels(mid, half):
    """GK15 nodes and Kronrod weights of the panels mid +- half.

    ``mid`` and ``half`` are scalars or arrays; each result takes their
    (broadcast) shape with a trailing axis of length 15 added, the weights
    that of ``half`` alone.
    """
    half = np.asarray(half)[..., None]
    return np.asarray(mid)[..., None] + half * _GK_NODES, half * _GK_WEIGHTS


def gk15_sums(y, half):
    """Kronrod sums and |K - G| rule errors of node values y (..., panels, 15).

    ``half`` is the panels' half-width, a scalar or one value per panel.
    The 7-point Gauss rule lives on the odd-indexed Kronrod nodes.  The
    sums are scaled in place: no temporaries beyond the two sums.
    """
    kron = y @ _GK_WEIGHTS
    kron *= half
    gauss = y[..., 1::2] @ _G_WEIGHTS
    gauss *= half
    gauss -= kron
    return kron, np.abs(gauss, out=gauss)


def _gk15_batch(f, a: np.ndarray, b: np.ndarray):
    """Kronrod values and |K - G| errors of the panels [a, b], shape
    (panels,) or (K, panels)."""
    half = 0.5 * (b - a)
    x, _ = gk15_panels(0.5 * (a + b), half)
    return gk15_sums(_eval_clean(f, x), half)


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


# ---------------------------------------------------------------------------
# 16-point panel rules of the kernel meshes: Gauss-Legendre, Gauss-Jacobi at kinks
# ---------------------------------------------------------------------------

_LEGENDRE_16 = np.polynomial.legendre.leggauss(16)
_PLAIN_RULES = np.broadcast_to(np.array(_LEGENDRE_16), (4, 2, 16))


def kink_rules(a: float | None) -> np.ndarray:
    """The four 16-point rules of a kernel mesh's panels on [-1, 1], shape (4, 2, 16)
    as (rule, nodes | weights): Gauss-Legendre, then the Gauss-Jacobi rules of the
    weights (1 + x)^a, (1 - x)^a and (1 - x^2)^a with their weights divided by the
    weight at the nodes.  Each sums plain values f(x_i) and is exact where f is its
    weight times a polynomial of degree 31: rule 1, 2 or 3 integrates a |t|^a kink at
    -1, +1 or both as Gauss-Legendre integrates a smooth f.  At a = 0 or None (no
    kink) all four are Gauss-Legendre, built once."""
    if not a:
        return _PLAIN_RULES
    x, w = special.roots_jacobi(16, 0.0, a)  # the weight (1 + x)^a
    xx, ww = special.roots_jacobi(16, a, a)
    w /= (1.0 + x) ** a  # 1 + x is exact where (1 + x)^a is small
    return np.array([_LEGENDRE_16, (x, w), (-x[::-1], w[::-1]), (xx, ww / (1.0 - xx * xx) ** a)])


def kink_mesh(cuts: np.ndarray, kinked: np.ndarray, m, rules: np.ndarray):
    """Flat nodes and weights of m[i] equal panels on segment i between the increasing
    ``cuts``: a panel that starts at a ``kinked`` cut takes rule 1 of ``rules``
    (``kink_rules``), one that ends at one rule 2, one that does both rule 3, and
    every other panel rule 0."""
    m = np.asarray(m, dtype=int)
    seg = np.repeat(np.arange(m.size), m)
    k = np.arange(seg.size) - np.repeat(np.cumsum(m) - m, m)  # the panel's place in its segment
    lo, length = cuts[seg], np.diff(cuts)[seg]
    left, right = lo + length * (k / m[seg]), lo + length * ((k + 1) / m[seg])
    which = (kinked[seg] & (k == 0)) + 2 * (kinked[seg + 1] & (k == m[seg] - 1))
    half = 0.5 * (right - left)[:, None]
    nodes = left[:, None] + half * (1.0 + rules[which, 0])
    return nodes.ravel(), (half * rules[which, 1]).ravel()


def integrate_adaptive(f, a: float, b: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
                       points=(), max_subdivisions: int = 4000) -> IntegralResult:
    """Adaptive bisection with the GK15 rule on [a, b] cut at ``points`` (QAGP).

    Each round takes the worst panels (by error estimate, the largest
    component's for a vector integrand; ties broken by creation order)
    until the error left meets half the tolerance and bisects them in one
    integrand call, until every component's summed error meets its
    tolerance or ``max_subdivisions`` splits are spent."""
    if not (a < b and max_subdivisions >= 1):
        raise DomainError(f"require a < b and max_subdivisions >= 1, got [{a}, {b}], {max_subdivisions}")
    edges = [a, *sorted({float(p) for p in points if a < p < b}), b]
    kron, err = _gk15_batch(f, np.array(edges[:-1]), np.array(edges[1:]))
    # a panel's values: Python floats for a scalar integrand (no numpy call
    # per panel), (K,) arrays for a vector one; fsum gives correctly rounded
    # totals, one per component
    if kron.ndim == 1:
        panels, worst, every, fsum = np.ndarray.tolist, float, bool, math.fsum
    else:
        panels, worst, every = (lambda a: list(a.T)), np.max, np.all
        fsum = lambda parts: np.array([math.fsum(c) for c in np.array(parts).T])
    vals, errs = panels(kron), panels(err)
    total_val, total_err = sum(vals), sum(errs)
    # heap entries: (-largest error, insertion counter, a, b, value, error)
    heap = sorted((-worst(e), i, lo, hi, v, e)  # a sorted list is a heap
                  for i, (lo, hi, v, e) in enumerate(zip(edges, edges[1:], vals, errs)))
    counter, n_splits = len(heap), 0
    while n_splits < max_subdivisions and not every(_within(total_err, total_val, cfg)):
        # pop worst first until the error left on the heap meets half the tolerance
        left, popped = total_err, []
        half_tol = 0.5 * np.maximum(cfg.abs_tol, cfg.rel_tol * abs(total_val))
        while heap and n_splits + len(popped) < max_subdivisions and not every(left <= half_tol):
            neg_err, _, ia, ib, _, ierr = heap[0]
            if neg_err == 0.0 or ib - ia < 1e-14 * max(1.0, abs(ia), abs(ib)):
                break
            popped.append(heapq.heappop(heap))
            left = left - ierr
        if not popped:
            break
        lo, hi = [item[2] for item in popped], [item[3] for item in popped]
        mid, n = [0.5 * (x + y) for x, y in zip(lo, hi)], len(popped)
        kron, err = _gk15_batch(f, np.array(lo + mid), np.array(mid + hi))
        vals, errs = panels(kron), panels(err)
        for (_, _, ia, ib, ival, ierr), im, k0, k1, e0, e1 in zip(
                popped, mid, vals, vals[n:], errs, errs[n:]):
            total_val = total_val + ((k0 + k1) - ival)
            total_err = total_err + ((e0 + e1) - ierr)
            heapq.heappush(heap, (-worst(e0), counter, ia, im, k0, e0))
            heapq.heappush(heap, (-worst(e1), counter + 1, im, ib, k1, e1))
            counter += 2
        n_splits += n
    value, error = fsum([item[4] for item in heap]), fsum([item[5] for item in heap])
    return _result(value, error, _within(error, value, cfg))


# ---------------------------------------------------------------------------
# oscillatory tails
# ---------------------------------------------------------------------------

def _aitken_accelerate(partial: np.ndarray):
    """Iterated Aitken delta-squared on a partial-sum sequence."""
    s = partial.astype(float)
    best = s[-1]
    err = abs(s[-1] - s[-2]) if len(s) > 1 else abs(s[-1])
    for _ in range(12):
        if len(s) < 3:
            break
        d1 = s[1:-1] - s[:-2]
        d2 = s[2:] - 2.0 * s[1:-1] + s[:-2]
        with np.errstate(all="ignore"):
            t = s[:-2] - d1 * d1 / d2
        t = t[np.isfinite(t)]
        if len(t) == 0:
            break
        new_err = abs(t[-1] - best)
        best = t[-1]
        err = new_err
        s = t
    return float(best), float(err)


def _richardson_partial_sums(partial: np.ndarray, p_tail: float, ends: np.ndarray):
    """Extrapolate the partial sums S_K (last axis; leading axes are
    components) for S_inf - S_K = sum_i c_i X_K^-(p_tail + i), X_K = ends[K-1].

    The model is solved exactly over the levels K = 2^m >= 8 present, at most
    six: the divided difference in t = 1/X of X^p_tail (S_inf - S_K) over
    them vanishes, so S_inf = sum_j w_j S_j with weights from the X_j alone,
    applied level by level so that each component is summed alike.  The
    error is the spread against the solve without the lowest level.
    """
    n = partial.shape[-1]
    levels = [2 ** m for m in range(3, int(math.log2(n)) + 1)][-6:]
    if len(levels) < 2:
        last = partial[..., -1]
        return last, abs(last - partial[..., -2]) if n > 1 else abs(last)

    def solve(ks):
        x = [float(ends[k - 1]) for k in ks]
        # (X_j / X_top)^p <= 1: no exponent overflows, and past p ~ 1000 the
        # top level takes all the weight, as a remainder below rounding should
        u = [(xj / x[-1]) ** p_tail / math.prod(1.0 / xj - 1.0 / xk for xk in x if xk != xj)
             for xj in x]
        total = math.fsum(u)
        return sum((uj / total) * partial[..., k - 1] for uj, k in zip(u, ks))

    best = solve(levels)
    return best, abs(best - solve(levels[1:]))


def integrate_oscillatory_tail(f, zeros, cfg: QuadratureConfig = DEFAULT_CONFIG) -> IntegralResult:
    """Integrate f over [zeros[0], infinity) by inter-zero segments.

    ``zeros`` must be an increasing sequence of sign changes of f.  The
    segment sums alternate there, and their partial sums are accelerated with
    iterated Aitken; a series that does not alternate is summed as it stands,
    with the last segment as its tail, and reported unconverged.
    """
    z = np.asarray(zeros, dtype=float)
    if len(z) < 3:
        raise DomainError("need at least 3 segmentation points")
    if np.any(np.diff(z) <= 0):
        raise DomainError("segmentation points must be strictly increasing")
    kron, err = _gk15_batch(f, z[:-1], z[1:])
    quad_err = float(np.sum(err))
    partial = np.cumsum(kron)
    signs = np.sign(kron[np.abs(kron) > 0])
    if len(signs) == 0:
        return IntegralResult(0.0, quad_err, converged=True)
    if len(signs) > 4 and np.all(signs[1:] * signs[:-1] < 0):
        value, acc_err = _aitken_accelerate(partial)
        return _result(value, acc_err + quad_err, _within(acc_err + quad_err, value, cfg))
    return _result(partial[-1], abs(kron[-1]) + quad_err, False)


# component values per integrand call of the head's and the periodic tail's
# sweeps: a vector integrand's panels are evaluated in chunks of at most this many
_SWEEP_VALUES = 1 << 19


def tail_power_periodic(f, start: float, period: float, decay_power: float, n_periods: int,
                        cfg: QuadratureConfig = DEFAULT_CONFIG) -> IntegralResult:
    """Integrate f over [start, infinity) for f = envelope x periodic factor.

    ``decay_power`` is the algebraic decay exponent p of the integrand
    envelope (|f| ~ rho^-p up to the oscillation).  Segment integrals over
    exact periods, one GK15 panel each, form a smooth sequence regardless of
    phase, extrapolated in the abscissa.  The first ``n_periods`` periods
    are also integrated with two panels a period; the difference, as a
    share of their mass, times the mass of the whole tail is the rule term
    (|K - G| overstates it by orders of magnitude).  It is removed from the
    value and added to the extrapolation's spread in the estimate.  The
    rule errs least with the oscillation's kinks on period edges, so
    ``start`` should sit at one.  The count of periods doubles, at most six
    times, until the estimate meets the tolerance (``converged``) or the
    spread has fallen to the rule term, which more periods cannot shrink.
    Each component of a vector integrand keeps the result of the doubling
    at which it stopped.
    """
    if period <= 0:
        raise DomainError("period must be positive")
    if decay_power <= 1.0:
        raise DomainError("decay_power must exceed 1 for a convergent tail")
    half = start + 0.5 * period * np.arange(2 * n_periods + 1)
    kron, _ = _gk15_batch(f, np.r_[half[:-1:2], half[:-1]], np.r_[half[2::2], half[1:]])
    krons, two = [kron[..., :n_periods]], kron[..., n_periods::2] + kron[..., n_periods + 1::2]
    mass, two_mass = np.sum(np.abs(krons[0]), axis=-1), np.sum(np.abs(two), axis=-1)
    ratio = (np.sum(krons[0], axis=-1) - np.sum(two, axis=-1)) / np.where(two_mass, two_mass, 1.0)
    step = max(1, _SWEEP_VALUES // (15 * krons[0][..., 0].size))  # panels per integrand call
    prev_val, last = None, n_periods << 6
    out_val, out_err, done, converged = 0.0, 0.0, False, False
    while True:
        partial = np.cumsum(np.concatenate(krons, axis=-1), axis=-1)
        value, spread = _richardson_partial_sums(
            partial, decay_power - 1.0, start + period * np.arange(1, n_periods + 1))
        if prev_val is not None:
            spread = np.maximum(spread, abs(value - prev_val) * 0.5)
        prev_val, rule = value, ratio * (mass + abs(value - partial[..., -1]))
        out_val = np.where(done, out_val, value - rule)
        out_err = np.where(done, out_err, spread + abs(rule))
        converged = np.where(done, converged, _within(out_err, out_val, cfg))
        done = done | converged | (spread <= abs(rule))
        if np.all(done) or n_periods == last:
            break
        k0, n_periods = n_periods, 2 * n_periods
        edges = start + period * np.arange(k0, n_periods + 1)
        sweep = [_gk15_batch(f, edges[:-1][lo:lo + step], edges[1:][lo:lo + step])[0]
                 for lo in range(0, n_periods - k0, step)]
        krons.append(np.concatenate(sweep, axis=-1))
        mass = mass + np.sum(np.abs(krons[-1]), axis=-1)
    return _result(out_val, out_err, converged)


def radial_head_tail(f, zeros, p_tail: float, tol: float, kink: float | None) -> IntegralResult:
    """Integrate f over [0, infinity): a fixed head on [0, zeros[-1]], then a periodic tail.

    ``zeros`` are increasing kinks of f, |t|^kink at each (the zeros of B^, half a
    unit apart), ``kink`` None where f is smooth there (even q).  The head has six
    GK15 panels a segment, max(6, 2 sqrt(p_tail)) on the first (|B^|^q peaks at 0
    with width ~ 1 / (pi sqrt(q))), and H = ceil(log2(1/tol) / (kink + 1)) - 4 halvings
    toward each zero, so the last panel, ~2^-(H+4) wide, holds a |t|^kink mass near
    tol.  Its error, sum |K - G| over one chunked sweep plus eps log2(panels) sum |K|
    (Higham's bound of a pairwise sum's rounding), is held to (abs, rel) = (tol, 10 tol);
    the tail, ~ x^-p_tail times an oscillation of period 1/2, to ten times that, from 64
    periods.  ``f`` may be a vector integrand."""
    m = np.r_[max(6, math.ceil(2.0 * math.sqrt(p_tail))), np.full(len(zeros) - 1, 6)]
    halvings = 0 if kink is None else max(0, math.ceil(math.log2(1.0 / tol) / (kink + 1.0)) - 4)
    edges = zero_segment_edges(np.r_[0.0, zeros], m - 2, 1.0 / m, halvings)
    a, b = edges[:-1], edges[1:]
    # the first panel alone gives the component count, which sizes the sweep's calls
    sweep = [_gk15_batch(f, a[:1], b[:1])]
    step = max(1, _SWEEP_VALUES // (15 * sweep[0][0][..., 0].size))
    sweep += [_gk15_batch(f, a[lo:lo + step], b[lo:lo + step]) for lo in range(1, a.size, step)]
    kron, rule = (np.concatenate(part, axis=-1) for part in zip(*sweep))
    value, error = np.sum(kron, axis=-1), np.sum(rule, axis=-1)
    error += np.finfo(float).eps * math.log2(a.size) * np.sum(np.abs(kron), axis=-1)
    tail = tail_power_periodic(f, zeros[-1], 0.5, p_tail, 64, QuadratureConfig(10 * tol, 100 * tol))
    converged = np.logical_and(_within(error, value, QuadratureConfig(tol, 10 * tol)), tail.converged)
    return _result(value + tail.value, error + tail.error_estimate, converged)


# ---------------------------------------------------------------------------
# single-frequency algebraic tails (the d = 1 kernels and the even-q d = 1 norm)
# ---------------------------------------------------------------------------

_HEAD_RULE = np.polynomial.legendre.leggauss(48)
_TAIL_SPLIT = 2.0  # the head covers |c| xi <= 2
_LOG_NEGLIGIBLE = 40.0  # e^{-40} ~ 4e-18 is below rounding
_CF_TERMS = 200  # the fraction needs ~90 at most once |c| T >= 2, any s > 1


def _lentz_at_2(s: float) -> complex:
    """_power_tail's continued fraction at z = -2i, in scalar arithmetic."""
    b = complex(s, -_TAIL_SPLIT)
    frac, d, lentz_c = 1.0 / b, 1.0 / b, math.inf
    for i in range(1, _CF_TERMS + 1):
        a, b = -i * (s - 1.0 + i), b + 2.0
        d, lentz_c = 1.0 / (a * d + b), b + a / lentz_c
        frac *= lentz_c * d
        if abs(lentz_c * d - 1.0) < 1e-15:
            return frac
    raise DomainError(f"the power-tail continued fraction did not converge (s = {s})")


def _power_tail(s: float, c: np.ndarray) -> np.ndarray:
    """e^{-ic} E(c), E(c) = int_1^inf xi^{-s} e^{ic xi} dxi (s > 1), elementwise;
    its value at -c is the conjugate.

    E = int_1^T + T^{1-s} E_s(-i|c|T), T = max(1, min(2/|c|, e^{40/(s-1)})):
    Gauss-Legendre in log xi over the last 40 of log T (below it the phase
    |c| xi < 1e-17 is dropped), then E_s's continued fraction, dropped past
    the cap on T, where it is below e^{-40}/(s-1).  Where |c| >= 2, T = 1 and
    e^{-ic} E is the fraction alone, with no exp taken.  Lentz runs on the
    |c| >= 2 entries sorted by |c|, largest (quickest) first, and sheds the
    leading converged run each step; the ones behind a live entry iterate on.
    Every |c| < 2 entry under the cap shares the one fraction at |c| T = 2,
    the slowest to converge, evaluated once in scalar arithmetic; c = 0 and
    the entries past the cap take the head alone."""
    c = np.asarray(c, dtype=float)
    ca = np.abs(c).ravel()
    # |c| < 2: the head (at c = 0, log c = -inf leaves int_1^T xi^{-s}), and the
    # fraction at |c| T = 2 times T^{1-s} e^{i|c|(T-1)} where T is under its cap
    h = np.nonzero(ca < _TAIL_SPLIT)[0]
    ch = ca[h]
    log_c = np.log(ch, out=np.full_like(ch, -np.inf), where=ch > 0)
    far = log_c >= math.log(_TAIL_SPLIT) - _LOG_NEGLIGIBLE / (s - 1.0)
    # E_s(z) = e^{-z} / (z + s - s / (z + s + 2 - 2 (s+1) / (z + s + 4 - ...)))
    # at z = -i max(|c|, 2) by modified Lentz (c_0 = inf makes c_1 = b_1)
    order = np.argsort(ca)[::-1][:len(ca) - len(h)]
    b = s - 1j * ca[order]
    frac = 1.0 / b
    d, lentz_c, e, shed = frac.copy(), np.inf, np.zeros(len(ca), complex), 0
    shared = _lentz_at_2(s) if np.any(far) else 0.0
    for i in range(1, _CF_TERMS + 2):
        if shed == len(order):
            break
        a = -i * (s - 1.0 + i)
        b += 2.0
        np.reciprocal(np.add(np.multiply(d, a, out=d), b, out=d), out=d)  # 1 / (a d + b)
        lentz_c = b + a / lentz_c
        delta = lentz_c * d
        frac *= delta
        if not abs(delta[0] - 1.0) < 1e-15:  # the leading entry is live: none sheds
            continue
        done = np.abs(delta - 1.0) < 1e-15
        run = len(done) if done.all() else int(np.argmin(done))
        e[order[shed:shed + run]] = frac[:run]
        shed += run
        b, d, lentz_c, frac = b[run:], d[run:], lentz_c[run:], frac[run:]
    else:
        raise DomainError(f"the power-tail continued fraction did not converge (s = {s})")

    log_t = np.minimum(math.log(_TAIL_SPLIT) - log_c, _LOG_NEGLIGIBLE / (s - 1.0))
    lo = np.maximum(0.0, log_t - _LOG_NEGLIGIBLE)
    half = 0.5 * (log_t - lo)
    u = lo[:, None] + half[:, None] * (1.0 + _HEAD_RULE[0])
    head = np.exp((1.0 - s) * u + 1j * np.exp(u + log_c[:, None])) @ _HEAD_RULE[1]
    e[h] = (np.exp(-1j * ch) * (head * half - np.expm1((1.0 - s) * lo) / (s - 1.0))
            + np.exp((1.0 - s) * log_t + 1j * (_TAIL_SPLIT - ch)) * np.where(far, shared, 0.0))
    e.imag *= np.sign(c.ravel())
    return e.reshape(c.shape)
