"""Piecewise-polynomial arithmetic for indicator convolutions.

A piecewise polynomial with compact support is kept in the truncated-power
("event") basis: f(x) = sum over events (e, P) of H(x - e) P(x), where H is
the Heaviside step.  In this basis the convolution of two events is a single
new event,

    [H(t-a) R(t)] * [H(t-b) S(t)]  =  H(x-a-b) * Integral_a^{x-b} R(t) S(x-t) dt,

so convolving whole functions is a double loop with no case analysis.  The
basis is exact for indicator functions of interval unions, which makes the
n-fold convolutions behind the even-exponent kernels and the convolution
oracle for ||1_E * ... * 1_E||_2^2 exact up to coefficient arithmetic
(Fraction coefficients are supported and give exact rationals).

Coefficients are global (not shifted per piece); supports here are a few
units wide, so float conditioning is a non-issue.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = ["PiecewisePoly", "indicator", "nfold_indicator_convolution"]


def _poly_add(p, q):
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] = out[i] + c
    for i, c in enumerate(q):
        out[i] = out[i] + c
    return out


def _poly_scale(p, s):
    return [c * s for c in p]


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def _poly_antideriv(p):
    one = Fraction(1) if any(isinstance(c, Fraction) for c in p) else 1.0
    return [0 * one] + [c * one / (i + 1) for i, c in enumerate(p)]


def _poly_eval(p, x):
    acc = np.zeros_like(x) if isinstance(x, np.ndarray) else 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_compose_affine(p, alpha, beta):
    """p(alpha*x + beta) as a polynomial in x (Horner in poly arithmetic)."""
    acc = [p[-1]]
    for c in reversed(p[:-1]):
        acc = _poly_add(_poly_mul(acc, [beta, alpha]), [c])
    return acc


def _trim(p):
    n = len(p)
    while n > 1 and p[n - 1] == 0:
        n -= 1
    return p[:n]


class PiecewisePoly:
    """Compactly supported piecewise polynomial in the truncated-power basis."""

    def __init__(self, events):
        # events: list of (position, coefficient list); positions need not be unique
        merged = {}
        for e, p in events:
            if e in merged:
                merged[e] = _poly_add(merged[e], p)
            else:
                merged[e] = list(p)
        self.events = sorted((e, _trim(p)) for e, p in merged.items())

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        # zero from the last event on: summing the events there only cancels
        inside = x < float(self.events[-1][0])
        for e, p in self.events:
            mask = inside & (x >= float(e))
            if np.any(mask):
                out[mask] += _poly_eval([float(c) for c in p], x[mask])
        return out

    def convolve(self, other: "PiecewisePoly") -> "PiecewisePoly":
        events = []
        for a, r in self.events:
            for b, s in other.events:
                # T(x) = Rint(x - b) - Rint(a), with Rint the t-antiderivative
                # of R(t) S(x - t) expanded as a bivariate polynomial in x
                conv = _convolve_events(a, r, b, s)
                events.append((a + b, conv))
        return PiecewisePoly(events)

    def to_breaks(self):
        """(breaks, polys): polys[i] is the cumulative polynomial on [breaks[i], breaks[i+1])."""
        breaks = [e for e, _ in self.events]
        polys = []
        acc = [0]
        for _, p in self.events:
            acc = _poly_add(acc, p)
            polys.append(_trim(acc))
        return breaks, polys

    def integrate_square(self):
        """Integral of f^2 over the whole line."""
        breaks, polys = self.to_breaks()
        total = 0
        for i in range(len(breaks) - 1):
            anti = _poly_antideriv(_poly_mul(polys[i], polys[i]))
            total += _poly_eval(anti, breaks[i + 1]) - _poly_eval(anti, breaks[i])
        return total


def _convolve_events(a, r, b, s):
    """Polynomial x -> int_a^{x-b} r(t) s(x-t) dt in the monomial basis."""
    # expand s(x - t) = sum_k s_k (x - t)^k as bivariate: rows = powers of t
    deg_r, deg_s = len(r) - 1, len(s) - 1
    # bivariate coefficient grid B[i][j]: coefficient of t^i x^j of r(t)*s(x-t)
    B = [[0] * (deg_s + 1) for _ in range(deg_r + deg_s + 1)]
    # (x - t)^k = sum_m C(k,m) x^m (-t)^(k-m)
    from math import comb

    for k, sk in enumerate(s):
        if sk == 0:
            continue
        for m in range(k + 1):
            c = sk * comb(k, m) * (-1) ** (k - m)
            for i, ri in enumerate(r):
                if ri == 0:
                    continue
                B[i + k - m][m] = B[i + k - m][m] + c * ri
    # antiderivative in t: t^i -> t^(i+1)/(i+1)
    one = Fraction(1) if any(isinstance(c, Fraction) for c in list(r) + list(s)) else 1.0
    nt = len(B)
    # evaluate antiderivative at t = x - b and t = a, both polynomials in x
    upper = [0 * one]
    lower = [0 * one]
    for i in range(nt):
        row = B[i]  # coefficients of x^j attached to t^i
        if all(c == 0 for c in row):
            continue
        scaled = [c * one / (i + 1) for c in row]
        tpow_up = _poly_compose_affine([0] * (i + 1) + [1], 1, -b)  # (x-b)^(i+1)
        upper = _poly_add(upper, _poly_mul(scaled, tpow_up))
        lower = _poly_add(lower, _poly_scale(scaled, a ** (i + 1)))
    return _poly_add(upper, _poly_scale(lower, -1))


def indicator(intervals, exact: bool = False) -> PiecewisePoly:
    """Indicator function of a union of disjoint intervals [(l, r), ...]."""
    one = Fraction(1) if exact else 1.0
    events = []
    for l, r in intervals:
        if exact:
            l, r = Fraction(l), Fraction(r)
        events.append((l, [one]))
        events.append((r, [-one]))
    return PiecewisePoly(events)


def nfold_indicator_convolution(intervals, n: int, exact: bool = False) -> PiecewisePoly:
    """n-fold convolution 1_E * 1_E * ... * 1_E (n >= 1 factors)."""
    base = indicator(intervals, exact=exact)
    out = base
    for _ in range(n - 1):
        out = out.convolve(base)
    return out
