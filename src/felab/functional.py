"""Direct evaluation of Phi_q(E) = |E|^{-1/q'} ||1_E^||_q.

Routes
------
* d = 1: the transform of an interval union is an exact finite sum,
  1_E^(xi) = P(xi)/(2 pi i xi) with P(xi) = sum_e s_e e^{-2 pi i xi e} over
  the endpoints (s = +1 left, -1 right).  ||1_E^||_q^q is integrated on
  uniform GK15 panels out to a cutoff chosen from the rigorous envelope
  |1_E^(xi)| <= m/(pi xi) (m = number of intervals), with the cutoff tail
  added to the error estimate.  The panels are grouped in blocks of 64, and
  a node is xi = base_b + loc_ik (block start plus offset in the block), so
  P is one small matrix product per chunk of blocks: U[b, e] =
  e^{-2 pi i base_b e} times W[e, (i, k)] = s_e e^{-2 pi i loc_ik e}.  That
  is 2m exps per block and per offset instead of 2m per node, and each
  phase is a product of two exps, so no error accumulates.  The endpoints
  are centered first: a translation only rotates the phase of 1_E^.
* d = 2: polar frequency coordinates.  Per angle, the transform of a
  star-shaped set is a circle sum of the closed-form radial factor
  R^2 F(rho A), F(a) = (e^{-ia}(1 + ia) - 1)/a^2, by a trapezoid rule whose
  order grows with the frequency (spectral accuracy for the band-limited
  boundaries used here).  The norm integrates over uniform GK15 panels in
  the radius, 16 to a block sharing one circle rule.  In a block A(phi,
  theta) is fixed and a node is rho = mid_j + half x_k, so e^{-i rho A} =
  P_j O_k, a product of panel and offset exp tables; no error accumulates.
  As F(rho A) = e^{-i rho A} (rho^-2 A^-2 + i rho^-1 A^-1) - rho^-2 A^-2,
  a block's circle sums are one batched matmul, rows P_j R^2/A^2 and
  P_j R^2/A against columns O_k over theta, less one sum of R^2/A^2.  The
  split cancels where |rho A| is small: a panel's pairs (phi, theta) with
  |A| rho_min < 0.1 leave the matmul and go node by node (closed form or
  Taylor series).  The translation and the star center only rotate the
  phase of 1_E^ and drop out of |1_E^|.  The radial tail bound comes from
  the |1_E^| <= C |xi|^{-3/2} decay, C estimated on a probe ring.
* even q: the Fourier transform can be eliminated;
  ||1_E^||_q^q = ||1_E * ... * 1_E||_2^2 with q/2 convolution factors.
  For interval unions the convolution is exact piecewise-polynomial
  arithmetic; for planar sets a grid rasterization + FFT fallback is
  provided.  This oracle is an independent code path used to cross-validate
  the quadrature route.

Every Phi value is checked against the sharp Hausdorff-Young (Babenko)
bound (p^{1/2p} q^{-1/2q})^d, which no indicator function can attain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._pwpoly import nfold_indicator_convolution
from .errors import DomainError, InvalidSetError
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, gk15_panels, gk15_sums
from .set_model import IntervalSet, StarSet

__all__ = [
    "PhiResult",
    "babenko_bound",
    "indicator_hat",
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


def _circle_rule_order(band: float) -> int:
    """Trapezoid order for e^{i z cos}-type integrands: Nyquist + Airy margin."""
    return int(max(48, band + 3.0 * band ** (1.0 / 3.0) + 12))


def _radius_bound(e: StarSet) -> float:
    """c0 + sum |a_n| + |b_n| >= max r(theta): scales the circle-rule band."""
    return abs(e.c0) + float(np.sum(np.abs(e.a_coeffs)) + np.sum(np.abs(e.b_coeffs)))


def _phase_rates(dirs: np.ndarray, theta: np.ndarray, r: np.ndarray) -> np.ndarray:
    """a_{jm} = 2 pi r(theta_m) (dirs_j . u(theta_m)): the radial phase rate."""
    a = 2 * np.pi * (np.outer(dirs[:, 0], np.cos(theta)) + np.outer(dirs[:, 1], np.sin(theta)))
    a *= r
    return a


def _radial_factor(ph: np.ndarray, a: np.ndarray, rr: np.ndarray) -> np.ndarray:
    """int_0^R e^{-i a s/R} s ds = R^2 (e^{-ia}(1 + ia) - 1)/a^2, given ph = e^{-ia}.

    ``rr`` = R^2 broadcasts against ``a``.  The closed
    form loses ~eps/a^2 to cancellation, so below |a| = 0.1 the Taylor series
    R^2 sum_k (-ia)^k / (k! (k + 2)) replaces it (ten terms: < 1e-17).
    """
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


def _star_hat_points(e: StarSet, pts: np.ndarray) -> np.ndarray:
    """Transform of a star set at an (n, 2) array of frequency points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    # affine reduction: (T E + v)^ (xi) = det T e^{-2 pi i v.xi} E^(T^t xi)
    det = e.affine.det
    eta = pts @ e.affine.matrix
    rho_max = float(np.max(np.hypot(eta[:, 0], eta[:, 1]), initial=0.0))
    n_theta = _circle_rule_order(2 * np.pi * rho_max * _radius_bound(e))
    theta = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    r = e.radius(theta)
    a = _phase_rates(eta, theta, r)
    vals = _radial_factor(np.exp(-1j * a), a, r * r).mean(axis=1) * 2 * np.pi
    shift = pts @ e.affine.translation + eta @ e.center
    if np.any(shift):
        vals = vals * np.exp(-2j * np.pi * shift)
    return det * vals


def indicator_hat(e, xi):
    """Fourier transform of the indicator of E at frequency xi."""
    arr = np.asarray(xi, dtype=float)
    out = _interval_hat(e, np.atleast_1d(arr)) if e.dimension == 1 else _star_hat_points(e, arr)
    return complex(out[0]) if arr.ndim == e.dimension - 1 else out


# ---------------------------------------------------------------------------
# Phi_q
# ---------------------------------------------------------------------------

# the d = 1 mesh is swept in chunks of blocks of panels
_MESH_BLOCK = 64   # panels per block: one row of the phase product
_MESH_CHUNK = 128  # blocks per chunk: ~120k nodes, a few MB
_MESH_NODES = 2e8  # ~3 s; diam/measure <= 167 at the 2e4 cut, 4x any criterion's union


def _signed_exp_mesh(ends: np.ndarray, signs: np.ndarray, cut: float, h: float):
    """P(xi) = sum_e s_e e^{-2 pi i xi e} on the uniform GK15 mesh of [0, cut].

    The panels have width <= h.  Returns ``(half, chunks)``: the panel
    half-width, and an iterator over ``(xi, P)`` arrays of shape (panels, 15)
    that walks the panels in order.  Block b of B panels starts at
    base_b = 2 half B b, so node (i, k) of the block is xi = base_b + loc_ik
    with loc_ik = (2i + 1 + x_k) half, and P = U @ W with
    U[b, e] = e^{-2 pi i base_b e} and W[e, (i, k)] = s_e e^{-2 pi i loc_ik e}.
    Each phase is a product of two exps, so no error accumulates.
    """
    n_panels = int(cut / h) + 1
    half = 0.5 * cut / n_panels
    loc = gk15_panels(2 * np.arange(_MESH_BLOCK) + 1.0, 1.0)[0] * half
    w = signs[:, None] * np.exp(-2j * np.pi * np.outer(ends, loc))
    n_blocks = -(-n_panels // _MESH_BLOCK)

    def chunks():
        for b0 in range(0, n_blocks, _MESH_CHUNK):
            base = 2 * half * _MESH_BLOCK * np.arange(b0, min(b0 + _MESH_CHUNK, n_blocks))
            n = min(len(base) * _MESH_BLOCK, n_panels - b0 * _MESH_BLOCK)
            p = (np.exp(-2j * np.pi * np.outer(base, ends)) @ w).reshape(-1, 15)
            xi = (base[:, None, None] + loc).reshape(-1, 15)
            yield xi[:n], p[:n]

    return half, chunks()


def _norm_q_1d(e: IntervalSet, q: float, cfg: QuadratureConfig):
    """||1_E'^||_q^q and its error for E' = (E - c) / s of measure 2, s = |E| / 2.

    ||1_E^||_q^q = s^{q-1} ||1_E'^||_q^q.  The node count grows with
    diam/measure, and a set that needs more than _MESH_NODES is refused.
    """
    m = len(e.intervals)
    tol = max(cfg.abs_tol, 1e-12)
    cut = ((m / np.pi) ** q / ((q - 1.0) * tol)) ** (1.0 / (q - 1.0))
    cut = float(np.clip(cut, 50.0, 2.0e4))
    # 1_E^ = P / (2 pi i xi) with signs +1 at left and -1 at right endpoints
    ends = e.endpoints()
    ends = (ends - 0.5 * (ends[0] + ends[-1])) / (0.5 * e.measure)
    # panels per unit xi, keyed to the fastest beat frequency (the diameter):
    # width 0.5 / diam, at most 0.05
    rate = max(20.0, 2.0 * (ends[-1] - ends[0]))
    if not 15.0 * cut * rate <= _MESH_NODES:
        raise DomainError(f"Phi_q needs ~{15.0 * cut * rate:.3g} > {_MESH_NODES:.0e} mesh nodes "
                          f"here: diam/measure is {0.5 * (ends[-1] - ends[0]):.3g}")
    half, chunks = _signed_exp_mesh(ends, np.resize([1.0, -1.0], 2 * m), cut, 1.0 / rate)
    value = 0.0
    rule_err = 0.0
    for xi, p in chunks:
        vals = np.abs(p)
        vals /= 2 * np.pi * xi
        vals **= q
        kron, err = gk15_sums(vals, 1.0)
        value += float(np.sum(kron))
        rule_err += float(np.sum(err))
    tail = 2.0 * (m / np.pi) ** q * cut ** (1.0 - q) / (q - 1.0)
    return 2.0 * half * value, 2.0 * half * rule_err + tail


def _norm_q_2d(e: StarSet, q: float, cfg: QuadratureConfig, radial_cut: float | None):
    # |1_E^(-xi)| = |1_E^(xi)|, so |1_E^|^q is pi-periodic in the frequency
    # angle: half the circle carries the full angular average
    n_phi = int(max(32, 8 * e.n_modes + 16)) // 2
    phi = np.linspace(0.0, np.pi, n_phi, endpoint=False)
    uphi = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    expo = 1.5 * q - 2.0
    # decay estimate |1_E^| ~ C rho^{-3/2} measured on a probe ring
    probe_rho = np.array([6.0, 9.0, 13.0])
    pts = (probe_rho[:, None, None] * uphi[None, :, :]).reshape(-1, 2)
    c_est = float(np.max(np.abs(_star_hat_points(e, pts)).reshape(3, -1)
                         * probe_rho[:, None] ** 1.5)) * 1.5
    if radial_cut is None:
        tol = max(cfg.abs_tol, 1e-7)
        radial_cut = (2 * np.pi * max(c_est, 1e-6) ** q / (expo * tol)) ** (1.0 / expo)
        radial_cut = float(np.clip(radial_cut, 15.0, 45.0))
    # uniform panels of width <= 0.25: node rho = mid_j + half x_k, the
    # offsets half x_k being the nodes of a panel centred at 0
    n_panels = int(radial_cut / 0.25) + 1
    half = 0.5 * radial_cut / n_panels
    mid = (2 * np.arange(n_panels) + 1) * half
    offsets = gk15_panels(0.0, half)[0]
    # frequency rho u_phi meets the base body as eta = rho u_phi M; the
    # translation and the center only rotate the phase of 1_E^, and the
    # modulus is all that enters the norm
    dirs = uphi @ e.affine.matrix
    scale = 2 * np.pi * e.affine.det
    r_bound = _radius_bound(e)
    value = 0.0
    rule_err = 0.0
    block = 16  # panels per circle rule
    for lo in range(0, n_panels, block):
        hi = min(lo + block, n_panels)
        nb = hi - lo
        n_theta = _circle_rule_order(2 * np.pi * (2 * half * hi) * r_bound)
        theta = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
        r = e.radius(theta)
        # e^{-i rho A} = P_j O_k, P_j = e^{-i mid_j A} built as e^{-i mid_4a A}
        # e^{-2i half b A} (j = 4a + b), O_k = e^{-i half x_k A} = conj O_{14-k}
        rate = _phase_rates(dirs, theta, r)
        base = np.exp(-1j * mid[lo:hi:4, None] * rate[:, None, :])
        step = np.exp(-2j * half * np.arange(4)[:, None] * rate[:, None, :])
        panel_ph = (base[:, :, None] * step[:, None]).reshape(n_phi, -1, n_theta)[:, :nb]
        offset_ph = np.exp(-1j * rate[:, :, None] * offsets[7:])
        offset_ph = np.concatenate([offset_ph[..., :0:-1].conj(), offset_ph], axis=2)
        rho = mid[lo:hi, None] + offsets
        # far pairs, |rho A| >= 0.1 all over panel j: one matmul for all (j, k).
        # Divide only on the last panel's far pairs, which hold every panel's
        far = np.abs(rate)[:, None, :] >= 0.1 / rho[:, :1]
        w1 = np.divide(r * r, rate, out=np.zeros_like(rate), where=far[:, -1])
        w2 = np.divide(w1, rate, out=np.zeros_like(rate), where=far[:, -1])
        w = np.stack([w2, w1], axis=1)[:, :, None, :]
        m = ((panel_ph * far)[:, None] * w).reshape(n_phi, 2 * nb, n_theta) @ offset_ph
        s = (m[:, :nb] - far @ w2[:, :, None]) / rho**2 + 1j * m[:, nb:] / rho
        # near pairs, node by node through the closed form or its series
        p, j, t = np.nonzero(~far)
        g = _radial_factor(panel_ph[p, j, t][:, None] * offset_ph[p, t],
                           rate[p, t][:, None] * rho[j], r[t, None] ** 2)
        first = np.flatnonzero(np.diff(p * nb + j, prepend=-1))  # (phi, j) runs
        s[p[first], j[first]] += np.add.reduceat(g, first, axis=0)
        integ = ((scale / n_theta * np.abs(s)) ** q).mean(axis=0) * 2 * np.pi * rho
        kron, err = gk15_sums(integ, half)
        value += float(np.sum(kron))
        rule_err += float(np.sum(err))
    tail = 2 * np.pi * c_est**q * radial_cut ** (-expo) / expo
    return value, rule_err + tail


def phi_q(e, q: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
          radial_cut: float | None = None) -> PhiResult:
    """Phi_q(E) by direct frequency-side quadrature."""
    if not (q > 2) or not math.isfinite(q):
        raise DomainError("q must be a finite exponent > 2")
    measure = e.measure
    if measure <= 0:
        raise InvalidSetError("set must have positive measure")
    if e.dimension == 1:
        if radial_cut is not None:
            raise DomainError("radial_cut applies to planar sets only")
        scale = 0.5 * measure  # value and err are of (E - c) / scale
        value, err = _norm_q_1d(e, q, cfg)
        method = "closed_form_1d"
    else:
        scale = 1.0
        value, err = _norm_q_2d(e, q, cfg, radial_cut)
        method = "polar_quadrature_2d"
    phi = value ** (1.0 / q) / (measure / scale) ** ((q - 1.0) / q)
    phi_err = err / max(value, 1e-300) * phi / q
    try:
        norm = value * scale ** (q - 1.0)
    except OverflowError:  # beyond the float range; Phi is scale-free
        norm = math.inf
    res = PhiResult(phi, norm, measure, phi_err, method,
                    converged=err <= max(cfg.abs_tol * 10, cfg.rel_tol * value))
    _babenko_guard(res, q, e.dimension)
    return res


def _babenko_guard(res: PhiResult, q: float, d: int) -> None:
    bound = babenko_bound(q, d)
    if res.phi >= bound + 10 * res.error_estimate:
        raise DomainError(
            f"computed Phi = {res.phi} violates the sharp Hausdorff-Young bound {bound}")


def phi_even_oracle(e, q: int, grid_resolution: int = 2048) -> PhiResult:
    """||1_E^||_q^q via the convolution identity (q/2 factors), even q >= 4."""
    if q % 2 or q < 4:
        raise DomainError("the convolution identity needs an even integer q >= 4")
    measure = e.measure
    if e.dimension == 1:
        h = nfold_indicator_convolution(e.intervals, q // 2)
        value = float(h.integrate_square())
        err = 1e-12 * max(1.0, abs(value))
        method = "convolution_oracle"
    else:
        value, err = _grid_fft_norm(e, q, grid_resolution)
        method = "grid_fft"
    phi = value ** (1.0 / q) / measure ** ((q - 1.0) / q)
    res = PhiResult(phi, value, measure, err / max(value, 1e-300) * phi / q, method)
    _babenko_guard(res, q, e.dimension)
    return res


def _grid_fft_norm(e: StarSet, q: int, n: int):
    theta = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    boundary = e.affine(e.center + e.radius(theta)[:, None] * u)
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
