"""Piecewise-polynomial arithmetic for indicator convolutions.

A piecewise polynomial with compact support is kept in the truncated-power
("event") basis: f(x) = sum over events (e, P) of H(x - e) P(x - e), where H
is the Heaviside step and each event's polynomial is in y = x - e, local to
it.  In this basis the convolution of two events is a single new event,

    [H(t-a) R(t-a)] * [H(t-b) S(t-b)]  =  H(y) * Integral_0^y R(u) S(y-u) du,

y = x - a - b, so convolving whole functions is a double loop with no case
analysis, and the new polynomial does not depend on a or b.  The basis is
exact for indicator functions of interval unions, which makes the n-fold
convolutions behind the even-exponent kernels and the convolution oracle for
||1_E * ... * 1_E||_2^2 exact up to coefficient arithmetic (Fraction
coefficients are supported and give exact rationals).

Float conditioning: global monomial coefficients lose what the events
cancel, about |x|^deg of the coefficients' scale: 1e-9 of the q = 6 oracle
on (0, 0.8) U (11, 12.2).  So the positions are exact rationals, every
polynomial is local to its event or piece, and ``to_breaks`` carries the
cumulative polynomial from one break to the next by a Taylor shift over the
gap between them; values and the square's integral are taken piece by
piece, never as a sum of events.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

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


def _poly_shift(p, delta):
    """p(y + delta) as a polynomial in y (Horner in poly arithmetic)."""
    acc = [p[-1]]
    for c in reversed(p[:-1]):
        acc = _poly_add(_poly_mul(acc, [delta, 1]), [c])
    return acc


def _trim(p):
    n = len(p)
    while n > 1 and p[n - 1] == 0:
        n -= 1
    return p[:n]


class PiecewisePoly:
    """Compactly supported piecewise polynomial in the truncated-power basis,
    each event's polynomial in y = x - e."""

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
        """f(x) from the cumulative polynomial of the piece holding x: zero before
        the first event and from the last on."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        breaks, polys = self.to_breaks()
        edges = np.array([float(e) for e in breaks])
        piece = np.searchsorted(edges, x, side="right") - 1
        for i, p in enumerate(polys[:-1]):
            mask = piece == i
            if np.any(mask):
                out[mask] = _poly_eval([float(c) for c in p], x[mask] - edges[i])
        return out

    def convolve(self, other: "PiecewisePoly") -> "PiecewisePoly":
        # [H(t-a) R(t-a)] * [H(t-b) S(t-b)] = H(y) int_0^y R(u) S(y-u) du, y = x-a-b
        return PiecewisePoly([(a + b, _convolve_local(r, s))
                              for a, r in self.events for b, s in other.events])

    def to_breaks(self):
        """(breaks, polys): polys[i] is the cumulative polynomial on [breaks[i],
        breaks[i+1]) in y = x - breaks[i], each event's polynomial shifted there."""
        breaks = [e for e, _ in self.events]
        polys = []
        acc = [0]
        for i, (e, p) in enumerate(self.events):
            if i:
                acc = _poly_shift(acc, e - breaks[i - 1])
            acc = _poly_add(acc, p)
            polys.append(_trim(acc))
        return breaks, polys

    def integrate_square(self):
        """Integral of f^2 over the whole line."""
        breaks, polys = self.to_breaks()
        total = 0
        for i in range(len(breaks) - 1):
            anti = _poly_antideriv(_poly_mul(polys[i], polys[i]))
            total += _poly_eval(anti, breaks[i + 1] - breaks[i])
        return total


def _convolve_local(r, s):
    """Polynomial y -> int_0^y r(u) s(y-u) du: u^i (y-u)^j integrates to
    i! j! / (i + j + 1)! y^(i+j+1) (the Beta integral)."""
    out = [0] * (len(r) + len(s))
    for i, ri in enumerate(r):
        for j, sj in enumerate(s):
            out[i + j + 1] = out[i + j + 1] + ri * sj / ((i + j + 1) * comb(i + j, i))
    return out


def indicator(intervals, exact: bool = False) -> PiecewisePoly:
    """Indicator function of a union of disjoint intervals [(l, r), ...].  The
    positions are exact rationals at either precision: every event position
    and every gap between two is then exact, and rounds once where a float
    coefficient meets it."""
    one = Fraction(1) if exact else 1.0
    events = []
    for l, r in intervals:
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
