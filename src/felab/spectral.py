"""Sphere-side second-variation spectrum and per-mode stability margins.

The quadratic form Q(F, G) = double integral of F(alpha) G(beta)
L_q(alpha - beta) over the sphere is rotation-invariant, hence diagonal in
circular harmonics (d = 2) / spherical harmonics (d >= 3).  Writing the
kernel through its frequency-side profile g = |B^|^{q-2} and using the
addition theorem for Bessel functions, the eigenvalue on degree-k
harmonics collapses to a single nonnegative-integrand radial integral

    lambda_k = 4 pi^2 int_0^inf g(rho) rho J_{k+(d-2)/2}(2 pi rho)^2 drho,

which this module evaluates to near machine precision (the periodic-tail
engine handles the rho^{-(d+1)(q-2)/2} envelope).  For d = 2 this equals
2 pi Lhat(k), the Fourier coefficient of the circle profile
Ltheta(t) = L_q(x), |x| = sqrt(2 - 2 cos t).

One pass.  Every mode shares g, whose |t|^{q-2} kinks at the zeros of B^ set
the fixed head mesh, so ``funk_hecke_eigenvalues`` integrates the modes 0..n
as one vector integrand of ``radial_head_tail``: g(rho) rho once per node, and
J_nu(x) of every order from the three-term recurrence (DLMF 10.6.1): run
forward, stable for x > nu, where x > nu_max + 20, and backward below that
(Miller's algorithm, scaled to the two lowest orders, which seed the forward
run).  The head is cut at the zeros of B^ up to max(25, 0.3 nu_max + 10): the
periodic tail then starts on a kink of g, and runs wholly on the forward
recurrence.
``funk_hecke_eigenvalue`` runs the same pass on one mode.

Margins.  The sphere-reduced second variation bounds the change of
||1_E^||_q^q for balanced corona perturbations by

    -(q/2) gamma int (a^2+b^2) dsigma
        + (q^2/4) Q(F,F) + (q(q-2)/4) Q(F,F~),

and int (a^2+b^2) >= int F^2 = sum over modes of ||F_k||^2.  The per-mode
margin is therefore

    margin(k) = (q/2) gamma - (q^2/4 + (q(q-2)/4)(-1)^k) lambda_k,

nonnegativity for every k >= 3 (k <= 2 is neutralized by balancing) being
the machine-checkable form of local maximality of the ball.  Dividing the
worst margin by 2 sigma(S^{d-1}) (the Cauchy-Schwarz constant linking
int(a^2+b^2) to |E triangle B|^2) gives the quadratic stability constant;
at d = 2, q = 4 it equals 8/(5 pi).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError
from .quadrature import IntegralResult, radial_head_tail
from .radial_kernels import (
    _ball_hat_zeros,
    _check_exponent,
    ball_hat,
    gamma_qd,
    kernel_values,
    omega,
)

__all__ = [
    "ModeSpectrum",
    "funk_hecke_eigenvalue",
    "funk_hecke_eigenvalues",
    "mode_margins",
]


def _bessel_rows(d: int, ks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_{k+(d-2)/2}(x) for the consecutive modes ks, shape (len(ks),) + x.shape:
    by the forward recurrence where x > nu_max + 20, by Miller's backward
    recurrence (DLMF 3.6(vi)) below that, and exactly at x = 0.

    Miller: from f_{N+1} = 0 and f_N = 1e-100 at an even N >= nu_max + max(x)
    + 40, f_{n-1} = (2 (nu0 + n) / x) f_n - f_{n+1} runs down to nu0 = (d-2)/2
    and gives J_{nu0+n}(x) = f_n / c with one factor c per x.  The two lowest
    orders, which seed the forward recurrence, fix it by least squares:
    c = (f_0 J_{nu0} + f_1 J_{nu0+1}) / (J_{nu0}^2 + J_{nu0+1}^2), whose
    denominator never vanishes, as J_nu and J_{nu+1} share no zero.  Below x ~ 1 the f grow
    like N! (2/x)^N, so an element past 1e100 is scaled down with its stored
    rows."""
    flat = x.ravel()
    nu0 = (d - 2.0) / 2.0
    out = np.zeros((len(ks), flat.size))
    out[:, flat == 0] = (nu0 + ks == 0)[:, None]
    far = flat > nu0 + ks[-1] + 20.0
    if far.any():
        out[:, far] = _bessel_recurrence(d, ks, flat[far])
    near = (flat > 0) & ~far
    if near.any():
        xs = flat[near]
        two_over_x = 2.0 / xs
        rows = np.zeros((len(ks), xs.size))
        hi, lo = np.zeros_like(xs), np.full_like(xs, 1e-100)  # f_{n+1}, f_n
        first, last = int(ks[0]), int(ks[-1])
        top = 2 * math.ceil((last + xs.max() + 40.0) / 2.0)
        for n in range(top, -1, -1):
            big = np.abs(lo) > 1e100
            if big.any():
                big = np.flatnonzero(big)
                lo[big] *= 1e-100
                hi[big] *= 1e-100
                rows[max(n + 1 - first, 0):, big] *= 1e-100  # the rows stored so far
            if first <= n <= last:
                rows[n - first] = lo
            if n:
                hi, lo = lo, (nu0 + n) * two_over_x * lo - hi
        j0, j1 = _bessel_seeds(d, xs)  # lo = f_0, hi = f_1
        out[:, near] = rows / ((lo * j0 + hi * j1) / (j0 * j0 + j1 * j1))
    return out.reshape((len(ks),) + x.shape)


def _bessel_seeds(d: int, x: np.ndarray):
    """J_nu0(x) and J_{nu0+1}(x), nu0 = (d-2)/2: j0 and j1 (d = 2) or the
    closed forms of J_{1/2} and J_{3/2} (d = 3)."""
    if d == 2:
        return special.j0(x), special.j1(x)
    half = np.sqrt(2.0 / (np.pi * x)) * np.sin(x)
    return half, half / x - np.sqrt(2.0 / (np.pi * x)) * np.cos(x)


def _bessel_recurrence(d: int, ks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_{nu+1} = (2 nu / x) J_nu - J_{nu-1} from nu0 = (d-2)/2, seeded by
    ``_bessel_seeds``; stable for x > nu (Gautschi 1967)."""
    nu0 = (d - 2.0) / 2.0
    lo, hi = _bessel_seeds(d, x)
    two_over_x = 2.0 / x
    rows = np.empty((len(ks), x.size))
    for k in range(ks[-1] + 1):  # lo = J_{nu0+k}, hi = J_{nu0+k+1}
        if k >= ks[0]:
            rows[k - ks[0]] = lo
        lo, hi = hi, (nu0 + k + 1.0) * two_over_x * hi - lo
    return rows


def _lambda_radial(d: int, q: float, ks: np.ndarray) -> IntegralResult:
    """4 pi^2 int g(rho) rho J_{k+(d-2)/2}(2 pi rho)^2 drho, g = |B^_d|^{q-2},
    for the consecutive modes ks in one pass: g rho is evaluated once per node."""
    _check_exponent("L", d, q)

    def f(rho):
        g = np.abs(ball_hat(d, rho)) ** (q - 2.0)
        jj = _bessel_rows(d, ks, 2 * np.pi * rho)
        jj *= jj
        jj *= np.where(rho > 0, g * rho, 0.0)
        return jj

    # head panels between the zeros of B^ (the kinks of g), tail from the last;
    # 2 pi zeros[-1] >= 1.88 nu_max + 59 keeps the tail on the recurrence
    zeros = _ball_hat_zeros(d, max(25.0, 0.3 * ((d - 2.0) / 2.0 + ks[-1]) + 10.0))
    out = radial_head_tail(f, zeros, (d + 1.0) * (q - 2.0) / 2.0, 1e-15, q - 2 if q % 2 else None)
    return IntegralResult(4 * np.pi**2 * out.value, 4 * np.pi**2 * out.error_estimate, out.converged)


def _eigenvalues(d: int, q: float, ks: np.ndarray) -> np.ndarray:
    if d == 1:
        # S^0 = {+-1}: eigenvalues L(0) +- L(2) on the even/odd functions
        vals, _ = kernel_values("L", 1, q, np.array([0.0, 2.0]))
        return np.where(ks % 2 == 0, vals[0] + vals[1], vals[0] - vals[1])
    if d < 1:
        raise DomainError("d must be >= 1")
    return _lambda_radial(d, q, ks).value


def _degree(n, name: str) -> int:
    """A harmonic degree as an int: 2.0 passes, 2.5 and -1 do not."""
    if not float(n).is_integer() or n < 0:
        raise DomainError(f"{name} must be an integer >= 0; got {n}")
    return int(n)


def funk_hecke_eigenvalue(d: int, q: float, k: int) -> float:
    """Eigenvalue of F -> integral of L_q(. - beta) F(beta) on degree-k harmonics."""
    return float(_eigenvalues(d, q, np.array([_degree(k, "k")]))[0])


def funk_hecke_eigenvalues(d: int, q: float, n_max: int) -> np.ndarray:
    """The eigenvalues of degrees 0..n_max in one radial pass."""
    return _eigenvalues(d, q, np.arange(_degree(n_max, "n_max") + 1))


@dataclass(frozen=True)
class ModeMargin:
    n: int
    lam: float          # Funk-Hecke eigenvalue on degree-n harmonics
    ell_hat: float      # circle Fourier coefficient (d = 2: lam / 2 pi)
    combined: float     # (q^2/4 + q(q-2)/4 (-1)^n) lam
    margin: float       # (q/2) gamma - combined


@dataclass(frozen=True)
class ModeSpectrum:
    dimension: int
    exponent: float
    gamma: float
    modes: tuple
    stability_constant: float
    neutral_modes: tuple
    worst_margin: float
    worst_mode: int

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n,ell_hat,combined,margin\n")
        for m in self.modes:
            buf.write(f"{m.n},{m.ell_hat:.17g},{m.combined:.17g},{m.margin:.17g}\n")
        buf.write(f"gamma,{self.gamma:.17g},stability_constant,{self.stability_constant:.17g}\n")
        return buf.getvalue()


def mode_margins(d: int, q: float, n_max: int) -> ModeSpectrum:
    """Per-harmonic margins of the sphere-reduced second variation."""
    if d < 2:
        raise DomainError("S^0 carries only modes 0 and 1, and the measure constraint "
                          "and translation neutralise both; the spectrum needs d >= 2")
    n_max = _degree(n_max, "n_max")
    if n_max < 3:
        raise DomainError("n_max must be >= 3 to see the non-affine modes")
    gamma = gamma_qd(d, q)
    budget = 0.5 * q * gamma
    modes = []
    for n, lam in enumerate(funk_hecke_eigenvalues(d, q, n_max).tolist()):
        combined = (q**2 / 4.0 + q * (q - 2.0) / 4.0 * (-1.0) ** n) * lam
        modes.append(ModeMargin(n, lam, lam / (2 * np.pi) if d == 2 else float("nan"),
                                combined, budget - combined))
    neutral = tuple(m.n for m in modes if 1 <= m.n <= 2)
    tail_modes = [m for m in modes if m.n >= 3]
    worst = min(tail_modes, key=lambda m: m.margin)
    stability = worst.margin / (2.0 * d * omega(d))
    return ModeSpectrum(d, q, gamma, tuple(modes), float(stability),
                        neutral, worst.margin, worst.n)

