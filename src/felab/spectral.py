"""Sphere-side second-variation spectrum and per-mode stability margins.

The quadratic form Q(F, G) = double integral of F(alpha) G(beta)
L_q(alpha - beta) over the sphere is rotation-invariant, hence diagonal in
circular harmonics (d = 2) / spherical harmonics (d >= 3).  Writing the
kernel through its frequency-side profile g = |B^|^{q-2} and using the
addition theorem for Bessel functions, the eigenvalue on degree-k
harmonics collapses to a single nonnegative-integrand radial integral

    lambda_k = 4 pi^2 int_0^inf g(rho) rho J_{k+(d-2)/2}(2 pi rho)^2 drho,

which this module evaluates to near machine precision (the periodic-tail
engine handles the rho^{-3(q-2)/2} envelope).  For d = 2 this equals
2 pi Lhat(k), the Fourier coefficient of the circle profile
Ltheta(t) = L_q(x), |x| = sqrt(2 - 2 cos t).

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
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, ThresholdError
from .quadrature import radial_head_tail
from .radial_kernels import (
    ball_hat,
    gamma_qd,
    kernel_values,
    omega,
    q_threshold,
)

__all__ = [
    "ModeSpectrum",
    "circle_coeff",
    "funk_hecke_eigenvalue",
    "mode_margins",
]


def _lambda_radial(d: int, q: float, order: float) -> float:
    """4 pi^2 int g(rho) rho J_order(2 pi rho)^2 drho with g = |B^_d|^{q-2}."""
    thr = q_threshold("L", d)
    if q == np.inf:
        raise DomainError("the sphere spectrum needs a finite exponent q")
    if not (q > thr):
        raise ThresholdError(
            f"the sphere spectrum needs q > q_d = {thr:.6g} in d={d}; got q = {q}", thr)

    def f(rho):
        rho = np.asarray(rho, dtype=float)
        g = np.abs(ball_hat(d, rho)) ** (q - 2.0)
        with np.errstate(invalid="ignore"):
            jj = special.jv(order, 2 * np.pi * rho)
        return np.where(rho > 0, g * rho, 0.0) * jj**2

    u0 = max(25.0, 0.3 * order + 10.0)
    return 4.0 * np.pi**2 * radial_head_tail(f, u0, (d + 1.0) * (q - 2.0) / 2.0, 1e-15).value


def circle_coeff(q: float, n: int) -> float:
    """Fourier coefficient Lhat(n) of the circle profile of L_q (d = 2)."""
    if n < 0:
        n = -n
    return _lambda_radial(2, q, float(n)) / (2.0 * np.pi)


def funk_hecke_eigenvalue(d: int, q: float, k: int) -> float:
    """Eigenvalue of F -> integral of L_q(. - beta) F(beta) on degree-k harmonics."""
    if k < 0:
        raise DomainError("k must be >= 0")
    if d == 1:
        # S^0 = {+-1}: eigenvalues L(0) +- L(2) on the even/odd functions
        vals, _ = kernel_values("L", 1, q, np.array([0.0, 2.0]))
        return float(vals[0] + vals[1]) if k % 2 == 0 else float(vals[0] - vals[1])
    if d < 1:
        raise DomainError("d must be >= 1")
    return _lambda_radial(d, q, k + (d - 2.0) / 2.0)


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
    if n_max < 3:
        raise DomainError("n_max must be >= 3 to see the non-affine modes")
    gamma = gamma_qd(d, q)
    budget = 0.5 * q * gamma
    modes = []
    for n in range(n_max + 1):
        lam = funk_hecke_eigenvalue(d, q, n)
        combined = (q**2 / 4.0 + q * (q - 2.0) / 4.0 * (-1.0) ** n) * lam
        modes.append(ModeMargin(n, lam, lam / (2 * np.pi) if d == 2 else float("nan"),
                                combined, budget - combined))
    neutral = tuple(m.n for m in modes if 1 <= m.n <= 2)
    tail_modes = [m for m in modes if m.n >= 3]
    worst = min(tail_modes, key=lambda m: m.margin)
    stability = worst.margin / (2.0 * d * omega(d))
    return ModeSpectrum(d, q, gamma, tuple(modes), float(stability),
                        neutral, worst.margin, worst.n)

