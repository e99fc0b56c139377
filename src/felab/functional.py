"""Direct evaluation of Phi_q(E) = |E|^{-1/q'} ||1_E^||_q.

Routes
------
* d = 1: the transform of an interval union is an exact finite sum,
  1_E^(xi) = P(xi)/(2 pi i xi) with P(xi) = sum_e s_e e^{-2 pi i xi e} over
  the endpoints (s = +1 left, -1 right).  At even q = 2n the norm is a finite
  sum too, (-1)^n / (2 p!) sum_{a,b} w_a w_b |sigma_a - sigma_b|^p, p = 2n - 1,
  over pairs of n-multisets of the endpoints (``_pair_sum``); it is the value
  wherever its rounding bound meets the tolerance.  Otherwise ||1_E^||_q^q is
  integrated on uniform GK15 panels out to a cutoff, and a tail past it is
  added or bounded.  The rigorous envelope |1_E^(xi)| <= m/(pi xi) (m = number of
  intervals) sets the longest cutoff and bounds its tail, which then joins
  the error estimate.  At even q = 2n, |P|^q = |P^n|^2 has top frequency
  n diam, and a panel spans at most one of its periods, fewer at tighter
  tolerances; elsewhere the panels are 0.5 / diam wide, at most 0.05.  The
  panels are grouped in blocks of 64, and a node is xi = base_b + mid_i +
  off_k (block start, panel centre in the block, GK15 offset), so P is one
  small matrix product per chunk of blocks: U[b, e] = e^{-2 pi i base_b e}
  times W[e, (i, k)] = s_e e^{-2 pi i mid_i e} e^{-2 pi i off_k e}, W the
  product of a panel and an offset phase table.  That is 2m exps per block,
  per panel centre and per offset instead of 2m per node, and each phase is
  a product of directly computed exps, so no error accumulates.  The endpoints
  are centered first: a translation only rotates the phase of 1_E^.  At
  even q = 2n, |P|^q = |P^n|^2 is a finite exponential sum, so its tail T_q
  past x is exact: a sum over pairs of n-multisets of the endpoints of the
  power tails int_1^inf t^{-q} e^{ict} dt (``quadrature._power_tail``).
  Between the even integers, 2k < q < 2k + 2, T_q lies between Lyapunov's
  lower bound from T_{2k+2} and T_{2k+4} (log-convexity in q) and Hoelder's
  upper bound from T_{2k} and T_{2k+2}; at even q the bracket is T_q widened
  by its error.  Where the cutoff passes _EXP_SUM_GATE, the mesh stops at the
  first x where the bracket is as narrow as the envelope's tail, its
  midpoint is added and its half-width is the error.
  ``PhiResult.method`` names the route.  The mesh's error is floored at a
  rounding bound of its sum.
* d = 2: polar frequency coordinates.  Per angle, the transform of a
  star-shaped set is a circle sum of the closed-form radial factor
  R^2 F(rho A), F(a) = (e^{-ia}(1 + ia) - 1)/a^2, by a trapezoid rule whose
  order grows with the frequency the base body meets, |rho u M| for the
  affine matrix M (spectral accuracy for the band-limited boundaries used
  here); ``_circle`` sizes it and gives R and A for the norm and for the
  transform at points.  The norm integrates over uniform GK15 panels in the
  radius, in blocks of 16: block 0 takes the rule at its top radius and
  every later block the rule at the cut, whose tables are built once.  At
  rho = mid_j + half x_k, e^{-i rho A} = P_j O_k, products of phases from cos
  and sin; no error accumulates.  As F(rho A) = e^{-i rho A} (rho^-2 A^-2 +
  i rho^-1 A^-1) - rho^-2 A^-2, a block's circle sums are one batched matmul,
  rows P_j against columns R^2/A^2 O_k and i R^2/A O_k, less one sum of
  R^2/A^2.  The split cancels where |rho A| is small: pairs (phi, theta) with
  |A| rho_min < 0.1 on a group's first panel (panel 0, the rest of block 0,
  the later blocks) take the factored Taylor series: a table of R^2 (-iA)^k
  per pair, summed over theta, meets rho^k / (k! (k + 2)) in a second matmul;
  the transform at points takes its pairs with |A| < 0.1 from it at rho = 1.  The
  translation and the star center only rotate the phase of 1_E^ and drop
  out of |1_E^|.  Past
  the cut, where the boundary's curvature is positive (and not near 0), the
  leading stationary-phase term (Herz 1962) gives the rest: |1_E^(rho u)|^q is
  rho^{-3q/2} times a periodic function of rho, whose Fourier harmonics each
  integrate by ``quadrature._power_tail``; its error is the first omitted
  order, and the cut is the first from 3 (or the higher cut where the
  boundary is curved enough for the model) to 45 where that meets the
  tolerance.  Elsewhere, and where the model needs a cut past 15, the mesh
  runs to a cut in [15, 45] chosen from a bound |1_E^| <= C |xi|^{-3/2}, C
  estimated on a probe ring, and that bound's tail is the error term.
  ``PhiResult.method`` names the route.
* even q: the Fourier transform can be eliminated;
  ||1_E^||_q^q = ||1_E * ... * 1_E||_2^2 with q/2 convolution factors.
  For interval unions the convolution is exact piecewise-polynomial
  arithmetic; for planar sets a grid rasterization + FFT fallback is
  provided.  This oracle is an independent code path: a space-side check of
  the frequency side's pair sum in d = 1, and of the quadrature in d = 2.

Every Phi value is checked against the sharp Hausdorff-Young (Babenko)
bound (p^{1/2p} q^{-1/2q})^d, which no indicator function can attain.

State
-----
The module keeps one piece of mutable state, each thread's work arrays
(``_buffer``), the one exception to felab's rule of no global mutable state.
Arrays allocated at each call go back to the OS whenever glibc's trim
threshold lies below them, and each call faults them in again: a d = 1 search
evaluation on the mesh (intervals:3 at q = 3.5) faults 31 pages with fresh
arrays and 2.4 with the thread's.  Even-q evaluations take the pair sum, which
uses none, and fault 0.2-0.3 pages either way.  Every caller fills the arrays
it asks for before it reads them, and no two threads share one, so no result
depends on an earlier call.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, count

import numpy as np

from ._pwpoly import nfold_indicator_convolution
from .errors import DomainError, InvalidSetError
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, _power_tail, gk15_panels, gk15_sums
from .set_model import IntervalSet, StarSet, _positive_on_circle

__all__ = [
    "PhiResult",
    "babenko_bound",
    "phi_q",
    "phi_even_oracle",
    "phi_ball",
]


@dataclass(frozen=True)
class PhiResult:
    phi: float
    norm_q_pow_q: float
    measure: float
    error_estimate: float
    method: str
    converged: bool = True

    def as_dict(self) -> dict:
        return {
            "phi": self.phi,
            "norm_q_pow_q": self.norm_q_pow_q if math.isfinite(self.norm_q_pow_q) else None,
            "measure": self.measure,
            "error": self.error_estimate,
            "method": self.method,
            "converged": self.converged,
        }


def babenko_bound(q: float, d: int) -> float:
    """Sharp Hausdorff-Young constant C_q^d; strict upper bound for Phi_q."""
    if q <= 2:
        raise DomainError("q must exceed 2")
    p = q / (q - 1.0)
    return float((p ** (1.0 / (2 * p)) * q ** (-1.0 / (2 * q))) ** d)


# ---------------------------------------------------------------------------
# indicator transforms
# ---------------------------------------------------------------------------

def _circle(e: StarSet, dirs: np.ndarray, rho_max: float):
    """The circle rule for the frequencies rho eta, eta a row of ``dirs`` and
    0 <= rho <= rho_max: (R, A), the radii R = r(theta) at its nodes and the
    phase rates A = 2 pi R (eta . u(theta)) per row.  Its order covers the band
    2 pi rho_max (c0 + sum |a_n| + |b_n|) max|eta|, c0 + sum >= max r, with
    Nyquist's count plus an Airy margin, for e^{i z cos}-type integrands."""
    r_bound = abs(e.c0) + float(np.sum(np.abs(e.a_coeffs)) + np.sum(np.abs(e.b_coeffs)))
    band = 2 * np.pi * rho_max * (r_bound * float(np.max(np.hypot(dirs[:, 0], dirs[:, 1]))))
    n_theta = int(max(48, band + 3.0 * band ** (1.0 / 3.0) + 12))
    theta = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    r = e.radius(theta)
    a = 2 * np.pi * (np.outer(dirs[:, 0], np.cos(theta)) + np.outer(dirs[:, 1], np.sin(theta)))
    a *= r
    return r, a


def _star_hat_points(e: StarSet, pts: np.ndarray) -> np.ndarray:
    """Transform of a star set at an (n, 2) array of frequency points: per
    point, the circle sum of R^2 F(A), by the closed form where |A| >= 0.1
    and by ``_near_sums`` at rho = 1 below."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    # affine reduction: (T E + v)^ (xi) = det T e^{-2 pi i v.xi} E^(T^t xi)
    eta = pts @ e.affine.matrix
    r, a = _circle(e, eta, 1.0)
    near = np.abs(a) < 0.1
    w = np.divide(r * r, a * a, out=np.zeros_like(a), where=~near)
    vals = ((np.exp(-1j * a) * (1.0 + 1j * a) - 1.0) * w).sum(axis=1)
    vals += _near_sums(a, r * r, near, np.ones(1))[:, 0]
    shift = pts @ e.affine.translation + eta @ e.center
    if np.any(shift):
        vals = vals * np.exp(-2j * np.pi * shift)
    return e.affine.det * 2 * np.pi / len(r) * vals


# ---------------------------------------------------------------------------
# Phi_q
# ---------------------------------------------------------------------------

# the d = 1 mesh is swept in chunks of blocks of panels
_MESH_BLOCK = 64   # panels per block: one row of the phase product
_MESH_CHUNK = 16   # blocks per chunk: ~15k nodes
# The thread's working arrays (``_buffer``): arrays allocated at each call go back to
# the OS whenever glibc's trim threshold, which earlier frees move, lies below them,
# and each call faults them in again (31 minor faults a d = 1 search evaluation on
# the mesh, 2.4 with these).
_work = threading.local()
# ~3 s; at non-even q diam/measure <= 167 at the 2e4 cut (4x any criterion's
# union), 66,667 at 50, the shortest cut of an exponential-sum tail; even q
# meshes q diam / (2k) panels a unit of xi (``_norm_q_1d``)
_MESH_NODES = 2e8
# the exponential-sum tails run only where the envelope's cut passes this: above
# 245, the PROBE_QUAD cut of six intervals at q = 4, so the probe tolerance's
# short cuts keep the envelope.  Even-q search evaluations take the pair sum (all
# 200 of an intervals:3 search at q = 4, 197 at q = 6; restarts 50, budget 200);
# the rest, the widest, mesh.  On panels one beat period wide the cost rule alone
# would keep most of those (three intervals cut at about 97 at q = 4)
_EXP_SUM_GATE = 400.0
_EVEN_PAIRS = 1 << 16  # entries of a tail table at most: ~12 MB of working arrays
_EPS = float(np.finfo(float).eps)
_POLAR_PAIRS = 1024  # pairs (phi, theta) per chunk of the planar sweep: ~1 MB of tables
_STEPS = np.array([0, 1, 2, 3, 0, 4, 8, 12.0])[:, None]  # panel steps d and 4c, in panels
# d = 2: the polar mesh stops at a cut in _SP_CUT and the stationary-phase tail
# takes the rest; from 3 its error still covers its miss (calibrated on the disc,
# seeded star:4 sets and sheared images).  Sets whose model needs a cut past 15
# take the ring route, at a cut in _RING_CUT
_SP_CUT = (3.0, 45.0)
_RING_CUT = (15.0, 45.0)
_SP_TABLE = 2048  # boundary points of the curvature table
_SP_SAMPLES = 256  # samples of the periodic factor f per direction
_SP_HARMONICS = 64  # coefficients of f kept at non-even q
_SP_FLAT = 0.1  # the largest first omitted order, relative, at the cut


def _buffer(name: str, shape, dtype=float) -> np.ndarray:
    """The thread's work array ``name`` (one dtype a name) as a view of ``shape``, grown
    to the largest size asked for and kept across calls; the next request overwrites it."""
    size = math.prod(shape)
    if getattr(_work, name, np.empty(0)).size < size:
        setattr(_work, name, np.empty(size, dtype))
    return getattr(_work, name)[:size].reshape(shape)


def _expi(angle: np.ndarray, out: np.ndarray) -> np.ndarray:
    """e^{i angle} into the complex ``out`` by cos and sin; ``angle`` may be ``out.real``."""
    np.sin(angle, out=out.imag)
    np.cos(angle, out=out.real)
    return out


def _signed_exp_mesh(ends: np.ndarray, signs: np.ndarray, cut: float, h: float):
    """P(xi) = sum_e s_e e^{-2 pi i xi e} on the uniform GK15 mesh of [0, cut].

    The panels have width <= h.  Returns ``(half, chunks)``: the panel
    half-width, and an iterator over ``(xi, P)`` arrays of shape (panels, 15)
    that walks the panels in order.  Block b of B panels starts at
    base_b = 2 half B b, so node (i, k) of the block is xi = base_b + mid_i + off_k
    with mid_i = (2i + 1) half and off_k = x_k half, and P = U @ W with
    U[b, e] = e^{-2 pi i base_b e} and W[e, (i, k)] = s_e e^{-2 pi i mid_i e}
    e^{-2 pi i off_k e}, the product of a (2m, B) and a (2m, 15) phase table.
    Each phase is a product of directly computed exps, so no error accumulates.
    W and the arrays are the thread's ``_buffer``s: the caller may overwrite the
    arrays, and the next chunk, of this mesh or of the thread's next one, does;
    the thread's next mesh rewrites W.
    """
    n_panels = int(cut / h) + 1
    half = 0.5 * cut / n_panels
    mid = (2 * np.arange(_MESH_BLOCK) + 1.0) * half
    off = gk15_panels(0.0, half)[0]
    loc = mid[:, None] + off
    # the two tables by cos and sin, the signs on the first through a float view
    mids = _buffer("mesh_mids", (len(ends), _MESH_BLOCK), complex)
    _expi(np.multiply.outer(ends, -2 * np.pi * mid, out=mids.real), mids)
    mids.view(float).reshape(len(ends), -1)[...] *= signs[:, None]
    offs = _buffer("mesh_offs", (len(ends), 15), complex)
    _expi(np.multiply.outer(ends, -2 * np.pi * off, out=offs.real), offs)
    w = np.multiply(mids[:, :, None], offs[:, None], out=_buffer(
        "mesh_w", (len(ends), _MESH_BLOCK, 15), complex)).reshape(len(ends), -1)
    n_blocks = -(-n_panels // _MESH_BLOCK)

    def chunks():
        for b0 in range(0, n_blocks, _MESH_CHUNK):
            base = 2 * half * _MESH_BLOCK * np.arange(b0, min(b0 + _MESH_CHUNK, n_blocks))
            n = min(len(base) * _MESH_BLOCK, n_panels - b0 * _MESH_BLOCK)
            p = np.matmul(np.exp(-2j * np.pi * np.outer(base, ends)), w,
                          out=_buffer("mesh_p", (len(base), _MESH_BLOCK * 15), complex))
            xi = np.add(base[:, None, None], loc, out=_buffer("mesh_xi", (len(base), _MESH_BLOCK, 15)))
            yield xi.reshape(-1, 15)[:n], p.reshape(-1, 15)[:n]

    return half, chunks()


def _exp_sum_table(ends: np.ndarray, signs: np.ndarray, n: int):
    """P^n = sum_a w_a e^{-2 pi i xi sigma_a} over the n-multisets a of the
    endpoints, sigma_a their sum and w_a the multinomial times the sign
    product.  Returns ``(sigma, a, b, w_ab)`` over the pairs a <= b,
    w_ab = w_a w_b doubled off the diagonal: |P|^{2n} = |P^n|^2 =
    Re sum w_ab e^{-2 pi i xi (sigma_a - sigma_b)}."""
    idx = np.fromiter(chain.from_iterable(combinations_with_replacement(range(len(ends)), n)),
                      np.intp).reshape(-1, n)
    # a multiset's row is sorted, so prod_e (count_e)! is the product of each
    # entry's place in its run of equal entries
    run = np.ones(idx.shape)
    for j in range(1, n):
        run[:, j] = np.where(idx[:, j] == idx[:, j - 1], run[:, j - 1] + 1.0, 1.0)
    w = np.prod(signs[idx], axis=1) * (math.factorial(n) / np.prod(run, axis=1))
    # row a of the pairs holds b = a, ..., N - 1 and starts with the diagonal pair
    k = np.arange(len(w))
    lengths = len(w) - k
    starts = np.cumsum(lengths) - lengths
    a = np.repeat(k, lengths)
    b = np.arange(a.size) - np.repeat(starts - k, lengths)
    w_ab = 2.0 * w[a] * w[b]
    w_ab[starts] = w * w
    return ends[idx].sum(axis=1), a, b, w_ab


def _pair_sum(table, n: int, reach: float):
    """||1_E'^||_{2n}^{2n} from the n-multiset ``_exp_sum_table`` as a finite
    sum, and a bound on its rounding.

    |t|^p, p = 2n - 1, has the transform -2 p! (2 pi i xi)^{-2n} away from 0, and
    the moments of P^n below order n vanish (P(0) = 0), so ||P^n / (2 pi i xi)^n||_2^2
    = (-1)^n / (2 p!) sum_{a,b} w_a w_b |sigma_a - sigma_b|^p, over the a <= b pairs
    with w_ab.  The bound (Higham, ch. 3-4) adds, in units u = eps / 2 of
    |w_ab| |D|^p / (2 p!), D = sigma_a - sigma_b: p for D's rounding, 5 for the
    power (an ulp), the two products and the scale, and 20 + log2 N for numpy's
    pairwise sum of N terms (runs of at most 16 in leaves of 128); and p |D|^{p-1}
    times 2n (n + 1) ``reach``, the most that the centring, the scaling and the
    n - 1 additions of a sigma move D, endpoints at most ``reach`` from 0."""
    sigma, a, b, w = table
    p = 2 * n - 1
    dist = np.abs(sigma[a] - sigma[b])
    lower = dist ** (p - 1)
    power = lower * dist
    scale = (-1) ** n / (2.0 * math.factorial(p))
    depth = p + 25 + math.log2(len(w))
    bound = (depth * np.abs(w) @ power + 2 * n * (n + 1) * p * reach * np.abs(w) @ lower)
    return scale * float(np.sum(w * power)), 0.5 * _EPS * abs(scale) * float(bound)


def _exp_sum_tail(table, p: float, x: float):
    """T_p(x) = ||1_E'^||_p^p over |xi| > x at even p = 2n, from the
    n-multiset ``_exp_sum_table``, and its error.

    T_p(x) = 2 (2 pi)^{-p} x^{1-p} Re sum_{a<=b} w_ab E(c_ab),
    c_ab = -2 pi x (sigma_a - sigma_b) and E(c) = int_1^inf t^{-p} e^{ict} dt
    = e^{ic} _power_tail(p, c).  The error is _power_tail's tested accuracy,
    1e-12 relative, on every term; it exceeds the rounding of the sum."""
    sigma, a, b, w = table
    z = np.exp(-2j * np.pi * x * sigma)  # e^{ic_ab} = z_a conj(z_b)
    terms = w * z[a] * z[b].conj() * _power_tail(p, -2 * np.pi * x * (sigma[a] - sigma[b]))
    scale = 2.0 * (2 * np.pi) ** -p * x ** (1.0 - p)
    return scale * float(np.sum(terms.real)), scale * 1e-12 * float(np.sum(np.abs(terms)))


def _bracket(tails, q: float):
    """(lo, hi) around T_q from the (value, error) of T_p at p = 2k, 2k + 2 and
    2k + 4, 2k < q <= 2k + 2, or of T_q alone at even q, standing for all three.
    hi is Hoelder's bound T_{2k}^theta T_{2k+2}^{1-theta}, theta = (2k + 2 - q)/2;
    lo is Lyapunov's (the log-convexity of p -> T_p, Hardy-Littlewood-Polya),
    solved for T_q: T_{2k+2} <= T_q^lam T_{2k+4}^{1-lam}, lam = 2/(2k + 4 - q).
    At q = 2k + 2 both are T_q, widened by its error."""
    (t0, e0), (t1, e1), (t2, e2) = tails * (3 // len(tails))
    k = math.ceil(0.5 * q) - 1
    theta, lam = 0.5 * (2 * k + 2 - q), 2.0 / (2 * k + 4 - q)
    hi = (t0 + e0) ** theta * (t1 + e1) ** (1.0 - theta)
    lo = (max(t1 - e1, 0.0) / (t2 + e2) ** (1.0 - lam)) ** (1.0 / lam)
    return lo, hi


def _tail_bracket(tables, q: float, x: float):
    """``_bracket`` at x from the exact tails of the 2k-, 2k+2- and 2k+4-tables,
    or of the one T_q table at even q = 2k + 2."""
    n = math.ceil(0.5 * q) - len(tables) // 2  # the first table's order
    return _bracket([_exp_sum_tail(t, 2.0 * (n + i), x) for i, t in enumerate(tables)], q)


def _norm_q_1d(e: IntervalSet, q: float, cfg: QuadratureConfig):
    """||1_E'^||_q^q, its error and the route for E' = (E - c) / s of measure 2,
    s = |E| / 2: ||1_E^||_q^q = s^{q-1} ||1_E'^||_q^q.

    At even q = 2n whose n-multiset table has at most _EVEN_PAIRS entries, the
    norm is ``_pair_sum``, wherever its rounding bound meets the tolerance.
    Otherwise the mesh runs.  The envelope |P| <= 2m gives a cut for the
    tolerance, clipped to [50, 2e4], and bounds the tail past it.  Where that
    cut passes _EXP_SUM_GATE, the exponential-sum tables have at most
    _EVEN_PAIRS entries and they cost less than the panels they can save, the
    mesh stops sooner: the tail is the midpoint of ``_tail_bracket`` (from the
    one T_q table at even q, else from the 2k-, 2k+2- and 2k+4-tables, 2k < q <
    2k + 2) past the first x >= 50 where its half-width, the error, meets the
    envelope's tail.  The first x comes from the Bohr means M_p of |P|^p
    (T_p(x) ~ 2 (2 pi)^{-p} M_p x^{1-p} / (p - 1), so the half-width scales as
    x^{1-q}, and is 0 at even q: x = 50); x steps up while the exact bracket
    misses, and ends a panel of the envelope's mesh, whose head the mesh then
    is.  So no error exceeds the envelope route's.  The node count grows with
    diam/measure, and a set that needs more than _MESH_NODES is refused.
    """
    m = len(e.intervals)
    # 1_E^ = P / (2 pi i xi) with signs +1 at left and -1 at right endpoints
    ends = e.endpoints()
    ends = (ends - 0.5 * (ends[0] + ends[-1])) / (0.5 * e.measure)
    signs = np.resize([1.0, -1.0], 2 * m)
    even = q % 2 == 0
    orders = [int(q) // 2] if even else [math.ceil(0.5 * q) - 1 + i for i in range(3)]
    sizes = [math.comb(2 * m + n - 1, n) for n in orders]  # n-multisets of the endpoints
    entries = [s * (s + 1) // 2 for s in sizes]
    tables = None
    if even and entries[0] <= _EVEN_PAIRS:
        tables = [_exp_sum_table(ends, signs, orders[0])]
        value, err = _pair_sum(tables[0], orders[0], float(max(-ends[0], ends[-1])))
        if err <= cfg.tolerance(value):
            return value, err, "pair_sum_1d"
    tol = max(cfg.abs_tol, 1e-12)
    cut = ((m / np.pi) ** q / ((q - 1.0) * tol)) ** (1.0 / (q - 1.0))
    cut = float(np.clip(cut, 50.0, 2.0e4))
    tail, tail_err = 0.0, 2.0 * (m / np.pi) ** q * cut ** (1.0 - q) / (q - 1.0)
    route = "mesh_envelope_1d"
    # panels per unit xi, keyed to the fastest beat frequency.  At even q = 2n,
    # |P|^q = |P^n|^2 is a trigonometric polynomial, and |P / xi|^q a
    # band-limited function, of top frequency n diam: a panel spans k <= 1 of
    # its periods, k^14 ~ the tolerance / 1e-7 (Gauss-7's error grows like
    # k^14): 1 at PROBE_QUAD, ~0.85 at the default, ~0.52 at _TIGHT.  Elsewhere
    # |P|^q has kinks at the zeros of P: width 0.5 / diam, at most 0.05
    diam = ends[-1] - ends[0]
    if even:
        k = min(1.0, (max(cfg.abs_tol, cfg.rel_tol) / 1e-7) ** (1.0 / 14.0))
        rate = 0.5 * q * diam / k
    else:
        rate = max(20.0, 2.0 * diam)
    h = 1.0 / rate
    # the tables must cost less than the panels past 50 they could save: a
    # _power_tail entry, its table built, costs about four panels of any width
    # (2.4-7.5 for three intervals' 1,596- and 231-entry tables at q = 6 and 4)
    if (entries[-1] <= _EVEN_PAIRS and cut > _EXP_SUM_GATE
            and 4 * sum(entries) < (cut - 50.0) * rate):
        tables = tables or [_exp_sum_table(ends, signs, n) for n in orders]
        # the first x from the bracket of T_p ~ 2 (2 pi)^{-p} M_p x^{1-p} / (p - 1)
        # at x = 1, M_p the Bohr mean of |P|^p: its pairs whose frequencies agree
        bohr = [(2.0 * (2 * np.pi) ** -(2.0 * n) / (2.0 * n - 1.0)
                 * float(np.sum(w[np.abs(sigma[a] - sigma[b]) <= 1e-9])), 0.0)
                for (sigma, a, b, w), n in zip(tables, orders)]
        lo, hi = _bracket(bohr, q)
        x = max(50.0, (max(hi - lo, 0.0) / (2.0 * tail_err)) ** (1.0 / (q - 1.0)))
        width = cut / (int(cut / h) + 1)  # x ends a panel of the envelope's mesh
        while (x := width * math.ceil(x / width)) < cut:
            lo, hi = _tail_bracket(tables, q, x)
            if hi - lo <= 2.0 * tail_err:
                cut, tail, tail_err = x, 0.5 * (lo + hi), 0.5 * (hi - lo)
                route = "mesh_even_tail_1d" if even else "mesh_bracket_tail_1d"
                break
            x *= max(1.1, ((hi - lo) / (2.0 * tail_err)) ** (1.0 / (q - 1.0)))
    if not 15.0 * cut * rate <= _MESH_NODES:
        raise DomainError(f"Phi_q needs ~{15.0 * cut * rate:.3g} > {_MESH_NODES:.0e} mesh nodes "
                          f"here: diam/measure is {0.5 * (ends[-1] - ends[0]):.3g}")
    value, rule_err = _mesh_head(ends, signs, q, cut, h)
    return value + tail, rule_err + tail_err, route


def _mesh_head(ends: np.ndarray, signs: np.ndarray, q: float, cut: float, h: float):
    """int_0^cut |P / (2 pi xi)|^q on the ``_signed_exp_mesh`` of panels at most h
    wide, and its error: the GK15 rule's sum |K - G|, floored at a rounding
    bound of the sum."""
    half, chunks = _signed_exp_mesh(ends, signs, cut, h)
    value = rule_err = 0.0
    n_chunks = 0
    for xi, p in chunks:  # in place: |P / (2 pi xi)|^2 in P's real part, then the values in xi
        re, im = p.real, p.imag
        np.square(re, out=re)
        re += np.square(im, out=im)
        xi *= 2 * np.pi
        np.square(xi, out=xi)
        if q % 2:
            np.divide(re, xi, out=xi)
            xi **= 0.5 * q
        else:  # the n-th power by n - 1 products
            np.divide(re, xi, out=re)
            np.square(re, out=xi)
            for _ in range(int(q) // 2 - 2):
                xi *= re
        kron, err = gk15_sums(xi, 1.0)
        value += float(np.sum(kron))
        rule_err += float(np.sum(err))
        n_chunks += 1
    # every term is >= 0, so the sums round by at most (a 15-node dot per
    # panel, numpy's pairwise sum in a chunk, the chunk sums in turn) ulps of it
    rounding = (15.0 + math.log2(15.0 * cut / h) + n_chunks) * _EPS
    value *= 2.0 * half
    return value, max(2.0 * half * rule_err, rounding * value)


def _half_circle(e: StarSet) -> np.ndarray:
    """u_phi on [0, pi): |1_E^(-xi)| = |1_E^(xi)|, so half the circle carries the angular
    means.  The linear part squeezes the angular features of 1_E^ by up to its stretch
    sigma_max / sigma_min, so the count grows by as much; a conformal part, whose stretch
    is 1 to rounding, keeps 4 n_modes + 8 (at least 16) exactly."""
    sigma = np.linalg.svd(e.affine.matrix, compute_uv=False)
    n = math.ceil(max(16, 4 * e.n_modes + 8) * sigma[0] / sigma[-1] - 1e-9)
    phi = np.linspace(0.0, np.pi, n, endpoint=False)
    return np.stack([np.cos(phi), np.sin(phi)], axis=1)


def _near_sums(rate: np.ndarray, rr: np.ndarray, near: np.ndarray, rho: np.ndarray):
    """Circle sums of R^2 F(rho A), A = ``rate`` and ``rr`` = R^2, over the ``near``
    pairs (row, theta) at the nodes ``rho``: (rows, *rho.shape), a ``_buffer``.
    The series sum_k R^2 (-iA)^k rho^k / (k! (k + 2)) factors: each row sums its
    pairs' R^2 (-iA)^k once, and one batched matmul takes the sums to the nodes.
    K terms are kept, the first dropped one below 1e-17 at the largest |rho A|:
    <= 1.6 past the first panel and on a star:4 set's first (K <= 22), 10 on
    criterion 8's e2 stretched by diag(6, 1/6) (K ~ 50), where the series
    cancels to ~1e-13 of the circle sum of moduli, where |1_E^| is small."""
    p, t = np.nonzero(near)
    a = rate[p, t]
    x = float(np.max(np.abs(a), initial=0.0) * np.max(rho, initial=0.0))
    n_terms = next(k for k in count(1) if x**k / (math.factorial(k) * (k + 2)) < 1e-17)
    powers = _buffer("near_powers", (len(p), n_terms), complex)  # R^2 (-iA)^k
    powers[:, 0] = rr[t]
    powers[:, 1:] = -1j * a[:, None]
    np.cumprod(powers, axis=1, out=powers)
    sums = np.zeros((len(rate), n_terms), complex)
    first = np.flatnonzero(np.diff(p, prepend=-1))  # each row's run of pairs
    sums[p[first]] = np.add.reduceat(powers, first, axis=0)
    k = np.arange(n_terms)
    coef = np.power(rho.reshape(-1, 1), k, out=_buffer("near_coef", (rho.size, n_terms)))
    coef /= np.cumprod(np.maximum(k, 1.0)) * (k + 2)
    out = np.matmul(coef, sums.view(float).reshape(len(rate), n_terms, 2),  # re and im parts
                    out=_buffer("near_out", (len(rate), rho.size, 2)))
    return out.view(complex).reshape(len(rate), *rho.shape)


def _polar_blocks(e: StarSet, uphi: np.ndarray, radial_cut: float):
    """Yields ``(rho, half, norm, s)`` for each block of 16 panels of the polar
    GK15 mesh of [0, radial_cut]: nodes (panels, 15), half-width, and circle
    sums s (angles, panels, 15), 1_E^(rho u_phi) = norm s e^{-2 pi i rho
    u_phi.(t + M c)} for the translation t, the matrix M and the star center c.
    Per rule, group and chunk of _POLAR_PAIRS pairs (phi, theta), the steps, the
    offset phases O and the table [R^2/A^2 O | i R^2/A O] are built once; a block
    forms its anchor e^{-i mid A}, times the steps, and runs the matmul.  All
    arrays are the thread's ``_buffer``s: the next rule overwrites s."""
    # uniform panels of width <= 0.25: node rho = mid_j + half x_k, the
    # offsets half x_k being the nodes of a panel centred at 0
    n_panels = int(radial_cut / 0.25) + 1
    half = 0.5 * radial_cut / n_panels
    mid = (2 * np.arange(n_panels) + 1) * half
    offsets = gk15_panels(0.0, half)[0]
    rho = mid[:, None] + offsets
    # frequency rho u_phi meets the base body as eta = rho u_phi M; the
    # translation and the center only rotate the phase of 1_E^
    dirs = uphi @ e.affine.matrix
    scale = 2 * np.pi * e.affine.det
    for lo, hi in ((0, min(16, n_panels)), (16, n_panels)):
        if lo >= hi:
            break
        r, rate = _circle(e, dirs, 2 * half * hi)
        chunk = max(1, _POLAR_PAIRS // len(r))
        s = _buffer("polar_s", (len(uphi), hi - lo, 15), complex)
        # groups of panels with one set of near pairs: panel 0, the rest of block 0
        for g0, g1 in ((0, 1), (1, hi))[:hi] if lo == 0 else ((lo, hi),):
            far = np.abs(rate) >= 0.1 / rho[g0, 0]
            s[:, g0 - lo:g1 - lo] = _near_sums(rate, r * r, ~far, rho[g0:g1])
            if not far.any():  # panel 0, as a rule
                continue
            w1 = np.divide(r * r, rate, out=np.zeros_like(rate), where=far)
            w2 = np.divide(w1, rate, out=np.zeros_like(rate), where=far)
            for cs in (slice(c0, c0 + chunk) for c0 in range(0, len(uphi), chunk)):
                a = rate[cs]
                # O_k = e^{-i half x_k A}: eight by cos and sin, O_{14-k} = conj O_k
                table = _buffer("polar_table", (len(a), len(r), 30), complex)
                o = table[..., 15:]
                _expi(np.multiply(a[..., None], -offsets[7:], out=o[..., 7:].real), o[..., 7:])
                np.conjugate(o[..., 14:7:-1], out=o[..., :7])
                np.multiply(o, w2[cs, :, None], out=table[..., :15])
                o *= 1j * w1[cs, :, None]
                # steps e^{-2i half b A} = e^{-8i half c A} e^{-2i half d A}, b = 4c + d
                st = _buffer("polar_st", (len(a), 8, len(r)), complex)
                _expi(np.multiply(a[:, None], -2 * half * _STEPS, out=st.real), st)
                steps = np.multiply(st[:, 4:, None], st[:, None, :4], out=_buffer(
                    "polar_steps", (len(a), 4, 4, len(r)), complex)).reshape(len(a), 16, -1)
                for j0 in range(g0, g1, 16):
                    nb, x = min(16, g1 - j0), rho[j0:j0 + 16]
                    anchor = _buffer("polar_anchor", a.shape, complex)
                    _expi(np.multiply(a, -mid[j0], out=anchor.real), anchor)
                    ph = np.multiply(anchor[:, None], steps[:, :nb],
                                     out=_buffer("polar_ph", (len(a), nb, len(r)), complex))
                    m = np.matmul(ph, table, out=_buffer("polar_m", (len(a), nb, 30), complex))
                    # F(rho A) = P O (rho^-2 A^-2 + i rho^-1 A^-1) - rho^-2 A^-2
                    s[cs, j0 - lo:j0 - lo + nb] += ((m[..., :15] - w2[cs].sum(1)[:, None, None])
                                                    / x[:nb] ** 2 + m[..., 15:] / x[:nb])
        for b in range(lo, hi, 16):
            yield rho[b:b + 16], half, scale / len(r), s[:, b - lo:b - lo + 16]


def _ring_tail(e: StarSet, uphi: np.ndarray, q: float, cfg: QuadratureConfig, cut: float | None):
    """(cut, tail, error, route) of the ring route: ``cut`` or one chosen for
    ``cfg``; no tail is added, and the error is the bound on ||1_E^||_q^q past
    the cut from |1_E^| <= C rho^{-3/2}, C measured on a probe ring.

    The model fails near the normals at inflection points, where |1_E^|
    decays only as rho^{-4/3} (cubic contact; Stein, ch. VIII).  The factor
    1.5 on the C measured at rho = 6, 9 and 13 absorbs that gap only up to
    rho ~ 13 * 1.5^6 ~ 148, past every cut (<= 45): the bound rests on that
    margin, not on a proof."""
    expo = 1.5 * q - 2.0
    probe_rho = np.array([6.0, 9.0, 13.0])
    pts = (probe_rho[:, None, None] * uphi[None, :, :]).reshape(-1, 2)
    c_est = float(np.max(np.abs(_star_hat_points(e, pts)).reshape(3, -1)
                         * probe_rho[:, None] ** 1.5)) * 1.5
    if cut is None:
        tol = max(cfg.abs_tol, 1e-7)
        cut = (2 * np.pi * max(c_est, 1e-6) ** q / (expo * tol)) ** (1.0 / expo)
        cut = float(np.clip(cut, *_RING_CUT))
    return cut, 0.0, 2 * np.pi * c_est**q * cut ** (-expo) / expo, "polar_quadrature_2d"


def _curvature_table(e: StarSet):
    """At _SP_TABLE boundary points of the base star (about its center): the
    outer-normal angle alpha, the radius of curvature R, the support value h
    and g = |3 - R''/R + (4/3)(R'/R)^2| / (8R), R' = dR/dalpha; or None where
    the curvature is not certified positive (``_positive_on_circle``).  At
    frequency rho along the normal, the boundary point's stationary-phase
    term has a first omitted order of g / (2 pi rho) relative to it."""
    theta = np.linspace(0.0, 2 * np.pi, _SP_TABLE, endpoint=False)
    r, r1, r2 = e.radius_derivatives(theta)
    s2 = r * r + r1 * r1
    den = s2 + r1 * r1 - r * r2  # curvature times |x'|^3

    def den_at(t):
        r, r1, r2 = e.radius_derivatives(t)
        return r * r + 2.0 * r1 * r1 - r * r2

    # |den'| = |2 r r' + 3 r' r'' - r r'''| <= 2 S0 S1 + 3 S1 S2 + S0 S3
    b0, b1, b2, b3 = (e.derivative_bound(k) for k in range(4))
    if not _positive_on_circle(den_at, 2 * b0 * b1 + 3 * b1 * b2 + b0 * b3, den):
        return None
    rate = den / s2  # dalpha/dtheta

    def d_alpha(v):  # periodic central differences in theta
        return (np.roll(v, -1) - np.roll(v, 1)) * (_SP_TABLE / (4 * np.pi)) / rate

    big_r = s2**1.5 / den
    r_1 = d_alpha(big_r)
    g = np.abs(3.0 - d_alpha(r_1) / big_r + (4.0 / 3.0) * (r_1 / big_r) ** 2) / (8.0 * big_r)
    return theta - np.arctan(r1 / r), big_r, r * r / np.sqrt(s2), g


def _stationary_phase_tail(e: StarSet, uphi: np.ndarray, q: float, cfg: QuadratureConfig,
                           cut: float | None):
    """(cut, tail, error, route) past the cut from the leading stationary-phase
    term, or None where it does not hold: a curvature not positive, or a first
    omitted order above _SP_FLAT of the leading one at the cut (at
    _RING_CUT[0] where the cut is chosen here).

    Frequency rho u meets the base body as rho lam v, lam v = u M.  With
    R+- = R(+-v), w = h(v) + h(-v) and t = 2 pi rho lam w - 3 pi / 2, the
    leading term is 1_E^ ~ det (2 pi)^{-1} (rho lam)^{-3/2} S, |S| = |a + b e^{it}|,
    a, b = sqrt(R+-), so |1_E^|^q = det^q (2 pi)^{-q} (rho lam)^{-3q/2} f(t),
    f = |S|^q.  Its coefficients c_k (even in k) come from an FFT of
    _SP_SAMPLES samples, exact at even q; else _SP_HARMONICS are kept, and
    aliasing and truncation are bounded by |c_k| <= C / k^2,
    C = p (|p - 1| + 1/2) (a + b)^q, p = q/2, the bound on |f''|.  Each
    harmonic integrates past the cut X as X^{1-s} e^{-3 pi i k/2} e^{ic}
    _power_tail(s, c), c = 2 pi k lam w X, s = 3q/2 - 1, and
    |int_1^inf x^{-s} e^{icx} dx| <= 2/c.

    The first omitted order of 1_E^ adds i (a k+ e^{-iA} - b k- e^{iB})
    / (2 pi rho lam) to S, |k+-| <= g(+-v) (``_curvature_table``).  In |S|^q
    it is q |S|^{q-2} a b (k+ + k-) sin t / (2 pi rho lam), of mean zero in t,
    so past X it is at most its harmonics' 2/c bound (Cauchy-Schwarz on
    them); the next order is taken as q^2 |S|^{q-2} (a g+ + b g-)^2
    / (2 pi rho lam)^2.  The cut is the first multiple of 0.25 from 3, or
    from the lowest cut where the first omitted order is at most _SP_FLAT, to
    45 where the error meets cfg.abs_tol."""
    table = _curvature_table(e)
    if table is None:
        return None
    eta = uphi @ e.affine.matrix
    lam = np.hypot(eta[:, 0], eta[:, 1])
    ang = np.arctan2(eta[:, 1], eta[:, 0])
    big_r, h, g = (np.interp(np.concatenate([ang, ang + np.pi]), table[0], col,
                             period=2 * np.pi).reshape(2, -1) for col in table[1:])
    a, b = np.sqrt(big_r)
    amp = (a * g[0] + b * g[1]) / (2 * np.pi * lam)  # |first omitted order| rho
    flat = np.max(amp / (a + b)) / _SP_FLAT  # the lowest cut where the model holds
    if flat > (_RING_CUT[0] if cut is None else cut):
        return None
    s, p = 1.5 * q - 1.0, 0.5 * q
    t = np.arange(_SP_SAMPLES) * (2 * np.pi / _SP_SAMPLES)
    mod2 = ((a - b) ** 2)[:, None] + (2 * a * b)[:, None] * (1.0 + np.cos(t))  # |S|^2 >= 0
    even = q % 2 == 0 and q < _SP_SAMPLES
    n_harm = int(p) if even else _SP_HARMONICS
    coef = np.fft.rfft(mod2**p, axis=1).real[:, :n_harm + 1] / _SP_SAMPLES
    k = np.arange(n_harm + 1)
    beat = 2 * np.pi * lam * h.sum(axis=0)  # c = k beat X
    # per direction, in units of det^q (2 pi)^{-q} lam^{-3q/2} X^{1-s}, the
    # error is err[0] + err[1] / X + err[2] / X^2
    err = np.zeros((3, len(lam)))
    wq = mod2 ** (0.5 * q - 1.0)  # |S|^{q-2}
    first = np.sqrt(np.mean(wq * wq * np.sin(t) ** 2, axis=1)) * (2 * np.pi / math.sqrt(3.0))
    err[2] = q * (a * b * (g[0] + g[1]) / (2 * np.pi * lam) * first / beat
                  + q * np.mean(wq, axis=1) * amp**2 / (s + 1.0))
    if not even:
        big_c = p * (abs(p - 1.0) + 0.5) * (a + b) ** q
        alias = big_c * np.pi**2 / (3.0 * (_SP_SAMPLES - n_harm) ** 2)
        err[0] = alias / (s - 1.0)
        err[1] = (4.0 * alias * np.sum(1.0 / k[1:]) + 2.0 * big_c / n_harm**2) / beat
    norm = 2 * np.pi * e.affine.det**q * (2 * np.pi) ** -q * lam ** (-1.5 * q)
    err = np.mean(norm * err, axis=1)[::-1]  # np.polyval order, in 1/X
    if cut is None:
        grid = np.arange(max(_SP_CUT[0], math.ceil(4.0 * flat) / 4.0), _SP_CUT[1] + 0.125, 0.25)
        ok = grid ** (1.0 - s) * np.polyval(err, 1.0 / grid) <= cfg.abs_tol
        cut = float(grid[np.argmax(ok)] if ok.any() else grid[-1])
    c = k * (beat[:, None] * cut)
    terms = np.where(k == 0, 1.0, 2.0) * coef * (
        np.exp(1j * (c - 1.5 * np.pi * k)) * _power_tail(s, c)).real
    tail = float(np.mean(norm * terms.sum(axis=1))) * cut ** (1.0 - s)
    return cut, tail, cut ** (1.0 - s) * float(np.polyval(err, 1.0 / cut)), \
        "polar_stationary_phase_2d"


def _planar_tail(e: StarSet, uphi: np.ndarray, q: float, cfg: QuadratureConfig,
                 cut: float | None):
    """(cut, tail, error, route): the stationary-phase tail where it holds,
    else the ring route."""
    return (_stationary_phase_tail(e, uphi, q, cfg, cut)
            or _ring_tail(e, uphi, q, cfg, cut))


def _block_norm_q(rho: np.ndarray, half: float, norm: float, s: np.ndarray, q: float):
    """[value, rule error] of a ``_polar_blocks`` block of ||1_E^||_q^q; only the
    modulus enters."""
    kron, err = gk15_sums(((norm * np.abs(s)) ** q).mean(axis=0) * 2 * np.pi * rho, half)
    return np.array([np.sum(kron), np.sum(err)])


def _norm_q_2d(e: StarSet, q: float, cfg: QuadratureConfig, radial_cut: float | None):
    """||1_E^||_q^q, its error and the route: the polar mesh to the cut plus
    ``_planar_tail``."""
    uphi = _half_circle(e)
    radial_cut, tail, tail_err, route = _planar_tail(e, uphi, q, cfg, radial_cut)
    value, rule_err = sum(_block_norm_q(*b, q) for b in _polar_blocks(e, uphi, radial_cut)).tolist()
    return value + tail, rule_err + tail_err, route


def phi_q(e, q: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
          radial_cut: float | None = None) -> PhiResult:
    """Phi_q(E) on the frequency side: by quadrature, or in d = 1 at even q by
    the pair sum where its rounding bound meets the tolerance."""
    if not (q > 2) or not math.isfinite(q):
        raise DomainError("q must be a finite exponent > 2")
    measure = e.measure
    if measure <= 0:
        raise InvalidSetError("set must have positive measure")
    if e.dimension == 1:
        if radial_cut is not None:
            raise DomainError("radial_cut applies to planar sets only")
        return _phi_result(*_norm_q_1d(e, q, cfg), measure, q, 1, cfg)
    return _phi_result(*_norm_q_2d(e, q, cfg, radial_cut), measure, q, 2, cfg)


def _phi_result(value: float, err: float, method: str, measure: float, q: float, d: int,
                cfg: QuadratureConfig) -> PhiResult:
    """Phi_q from ||1_E'^||_q^q = value +- err, checked against the Babenko
    bound; E' = E in d = 2 and (E - c) / s of measure 2 in d = 1."""
    scale = 0.5 * measure if d == 1 else 1.0
    phi = value ** (1.0 / q) / (measure / scale) ** ((q - 1.0) / q)
    phi_err = err / max(value, 1e-300) * phi / q
    try:
        norm = value * scale ** (q - 1.0)
    except OverflowError:  # beyond the float range; Phi is scale-free
        norm = math.inf
    res = PhiResult(phi, norm, measure, phi_err, method,
                    converged=err <= max(cfg.abs_tol * 10, cfg.rel_tol * value))
    _babenko_guard(res, q, d)
    return res


def _babenko_guard(res: PhiResult, q: float, d: int) -> None:
    bound = babenko_bound(q, d)
    if res.phi >= bound + 10 * res.error_estimate:
        raise DomainError(
            f"computed Phi = {res.phi} violates the sharp Hausdorff-Young bound {bound}")


def phi_even_oracle(e, q: float, grid_resolution: int = 2048) -> PhiResult:
    """||1_E^||_q^q via the convolution identity (q/2 factors), even q >= 4: the
    space side's route, against which criterion 5 checks the frequency side's
    pair sum in d = 1.  There the float piecewise-polynomial arithmetic misses
    the exact rational value by at most 1.3e-14 relative on 150 seeded
    intervals:3 search candidates and on (0, 0.8) U (11, 12.2) at q = 4 and 6;
    1e-12 relative is reported."""
    if q % 2 or q < 4:
        raise DomainError(f"the convolution identity needs an even integer q >= 4; got q = {q}")
    q = int(q)
    measure = e.measure
    if e.dimension == 1:
        h = nfold_indicator_convolution(e.intervals, q // 2)
        value = float(h.integrate_square())
        err = 1e-12 * value
        method = "convolution_oracle"
    else:
        value, err = _grid_fft_norm(e, q, grid_resolution)
        method = "grid_fft"
    phi = value ** (1.0 / q) / measure ** ((q - 1.0) / q)
    res = PhiResult(phi, value, measure, err / max(value, 1e-300) * phi / q, method)
    _babenko_guard(res, q, e.dimension)
    return res


def _grid_fft_norm(e: StarSet, q: int, n: int):
    boundary = e.boundary()
    center = boundary.mean(axis=0)
    diam = float(np.max(np.linalg.norm(boundary - center, axis=1)))
    box = 4.0 * diam
    xs = center[0] + np.linspace(-box / 2, box / 2, n, endpoint=False)
    ys = center[1] + np.linspace(-box / 2, box / 2, n, endpoint=False)
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    ind = e.contains(np.stack([xx.ravel(), yy.ravel()], axis=1)).reshape(n, n)
    spect = np.abs(np.fft.fft2(ind.astype(float)) * cell) ** q
    value = float(np.sum(spect) / box**2)
    # discretization error scale: one boundary layer of cells
    err = 4.0 * diam * (box / n) * max(1.0, value / max(e.measure, 1e-12))
    return value, err


def phi_ball(d: int, q: float) -> PhiResult:
    """Phi_q of the unit ball through the radial norm integral."""
    from .radial_kernels import ball_norm_q, omega

    res = ball_norm_q(d, q)
    w = omega(d)
    phi = res.value ** (1.0 / q) / w ** ((q - 1.0) / q)
    return PhiResult(phi, res.value, w, res.error_estimate / max(res.value, 1e-300) * phi / q,
                     "radial_ball_norm", res.converged)
