"""The acceptance suite: every exit criterion as a machine check.

Each criterion is a function returning a CriterionResult; ``run`` executes
a selection and reports one line per criterion.  The same entry point
backs ``felab verify`` and tests/test_acceptance.py.  Tolerances are fixed
here, not configurable.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import FelabError
from .functional import babenko_bound, phi_even_oracle, phi_q
from .perturbation import (
    expansion_report,
    remainder_slope,
    sliver_family_1d,
    star_mode_family,
    translated_ball,
)
from .quadrature import QuadratureConfig
from .radial_kernels import (
    ball_hat,
    default_variation_grids,
    exact_kernel_1d,
    first_variation_check,
    gamma_1d_closed_form,
    gamma_qd,
    kernel_values,
    omega,
    rho_d,
)
from .search import SearchConfig, random_probe
from .set_model import (
    AffineMap,
    IntervalSet,
    StarSet,
    balance,
    boundary_profile,
    dist_to_ellipsoids,
    vanishing_check,
)
from .spectral import mode_margins

__all__ = ["CriterionResult", "CRITERIA", "run"]

STABILITY_42 = 8.0 / (5.0 * np.pi)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _random_interval_union(rng: np.random.Generator, max_pieces: int = 3) -> IntervalSet:
    k = int(rng.integers(1, max_pieces + 1))
    pts = np.sort(rng.uniform(-2.0, 2.0, 2 * k))
    ivs = []
    for i in range(k):
        l, r = pts[2 * i], pts[2 * i + 1]
        if r - l < 0.05:
            r = l + 0.05
        ivs.append((l, r))
    e = IntervalSet(ivs)
    return e.dilate(2.0 / e.measure)  # ball measure: relative tols at one scale


def _random_star(rng: np.random.Generator, n_modes: int = 4) -> StarSet:
    decay = 1.0 / (1.0 + np.arange(1, n_modes + 1)) ** 2
    a = rng.normal(0.0, 0.2, n_modes) * decay
    b = rng.normal(0.0, 0.2, n_modes) * decay
    return StarSet(1.0, a, b).with_measure(np.pi)


def crit_1() -> tuple:
    g = gamma_qd(2, 4.0)
    err = abs(g - 4.0)
    return err <= 1e-6, f"gamma(2,4) = {g:.12f}, |err| = {err:.2e} (tol 1e-6)"


def crit_2() -> tuple:
    from .spectral import funk_hecke_eigenvalues
    n = np.arange(1, 21)
    closed = 2.0 / (np.pi * (n * n - 1 + n % 2))  # 2/(pi n^2) odd, 2/(pi (n^2-1)) even
    ell_hat = funk_hecke_eigenvalues(2, 4.0, 20)[1:] / (2.0 * np.pi)
    worst = float(np.max(np.abs(ell_hat - closed)))
    return worst <= 1e-8, f"max |Lhat(n) - closed form|, n<=20: {worst:.2e} (tol 1e-8)"


def crit_3() -> tuple:
    spec = mode_margins(2, 4.0, 40)
    vals = {m.n: (4.0 + 2.0 * (-1.0) ** m.n) * m.ell_hat for m in spec.modes}
    neutral_err = max(abs(vals[1] - 4.0 / np.pi), abs(vals[2] - 4.0 / np.pi))
    tail = {n: v for n, v in vals.items() if 3 <= n <= 40}
    n_star = max(tail, key=tail.get)
    gap_err = abs(tail[n_star] - 4.0 / (5.0 * np.pi))
    ok = neutral_err <= 1e-9 and gap_err <= 1e-8 and n_star == 4
    return ok, (f"neutral err {neutral_err:.2e} (tol 1e-9); "
                f"tail max at n={n_star}, |err| = {gap_err:.2e} (tol 1e-8)")


def crit_4() -> tuple:
    g_spectral = gamma_qd(1, 4.0)
    g_closed = gamma_1d_closed_form(4.0)
    e1, e2 = abs(g_spectral - 2.0), abs(g_closed - 2.0)
    return max(e1, e2) <= 1e-7, (f"spectral {g_spectral:.12f} (err {e1:.2e}), "
                                 f"closed form {g_closed:.12f} (err {e2:.2e}), tol 1e-7")


def crit_5() -> tuple:
    res = phi_q(IntervalSet([(-1.0, 1.0)]), 4.0)
    target = (2.0 / 3.0) ** 0.25
    e0 = abs(res.phi - target)
    rng = np.random.default_rng(5)
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    worst = 0.0
    for _ in range(100):
        e = _random_interval_union(rng)
        a = phi_q(e, 4.0, cfg).phi
        b = phi_even_oracle(e, 4).phi
        worst = max(worst, abs(a - b) / b)
    ok = e0 <= 1e-8 and worst <= 1e-6
    return ok, (f"Phi_4(interval) err {e0:.2e} (tol 1e-8); "
                f"oracle agreement worst rel {worst:.2e} over 100 sets (tol 1e-6)")


def crit_6() -> tuple:
    r2 = rho_d(2)
    e0 = abs(r2 - np.pi / 2)
    r = np.logspace(-3, -1, 25)
    resid = np.abs(ball_hat(2, r) - omega(2) * (1.0 - np.pi * r2 * r**2))
    slope = float(np.polyfit(np.log(r), np.log(resid), 1)[0])
    ok = e0 <= 1e-9 and slope >= 3.9
    return ok, f"rho_2 err {e0:.2e} (tol 1e-9); small-r residual slope {slope:.3f} (>= 3.9)"


def crit_7() -> tuple:
    rng = np.random.default_rng(7)
    checked = 0
    for q in (3.0, 3.5, 4.0, 6.0):
        for _ in range(15):
            e = _random_interval_union(rng)
            res = phi_q(e, q)
            if not res.phi < babenko_bound(q, 1):
                return False, f"violation at q={q}: {res.phi}"
            checked += 1
    for _ in range(6):
        e = _random_star(rng)
        res = phi_q(e, 4.0)
        if not res.phi < babenko_bound(4.0, 2):
            return False, f"violation d=2: {res.phi}"
        checked += 1
    # a guard trip raises DomainError, which fails the criterion in run()
    return True, f"{checked} evaluations, all below C_q^d"


def crit_8() -> tuple:
    rng = np.random.default_rng(8)
    e1 = IntervalSet([(-0.4, 0.7), (1.0, 1.9)])
    base_phi = phi_q(e1, 4.0).phi
    base_dist = dist_to_ellipsoids(e1).distance
    worst_phi = worst_dist = 0.0
    for _ in range(50):
        a = math.exp(rng.uniform(-0.7, 0.7)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        t = rng.uniform(-2.0, 2.0)
        tm = AffineMap(np.array([[a]]), np.array([t])).normalized_measure_preserving()
        img = e1.apply(tm)
        worst_phi = max(worst_phi, abs(phi_q(img, 4.0).phi - base_phi))
        worst_dist = max(worst_dist, abs(dist_to_ellipsoids(img).distance - base_dist))
    if worst_phi > 1e-8 or worst_dist > 1e-8:
        return False, f"d=1 phi dev {worst_phi:.2e}, dist dev {worst_dist:.2e} (tol 1e-8)"
    e2 = StarSet(1.0, a_coeffs=[0.0, 0.05, 0.03]).with_measure(np.pi)
    base2 = phi_q(e2, 4.0).phi
    based2 = dist_to_ellipsoids(e2).distance
    worst_phi2 = worst_dist2 = 0.0
    for _ in range(50):
        ang = rng.uniform(0, 2 * np.pi)
        sh = rng.uniform(-0.4, 0.4)
        sc = math.exp(rng.uniform(-0.25, 0.25))
        rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        lin = rot @ np.array([[sc, sh], [0.0, 1.0 / sc]])
        tm = AffineMap(lin, rng.uniform(-0.3, 0.3, 2)).normalized_measure_preserving()
        img = e2.apply(tm)
        worst_phi2 = max(worst_phi2, abs(phi_q(img, 4.0).phi - base2))
        worst_dist2 = max(worst_dist2, abs(dist_to_ellipsoids(img).distance - based2))
    ok = worst_phi2 <= 1e-3 and worst_dist2 <= 1e-3
    return ok, (f"d=1 dev (phi {worst_phi:.1e}, dist {worst_dist:.1e}, tol 1e-8); "
                f"d=2 dev (phi {worst_phi2:.1e}, dist {worst_dist2:.1e}, tol 1e-3)")


def crit_9() -> tuple:
    worst = 0.0
    for q in (4, 6):
        r = np.linspace(0.0, float(q), 512)
        vals, _ = kernel_values("K", 1, float(q), r)
        worst = max(worst, float(np.max(np.abs(vals - exact_kernel_1d("K", q)(r)))))
    return worst <= 1e-6, f"max |K - exact convolution| over q in {{4,6}}: {worst:.2e} (tol 1e-6)"


def crit_10() -> tuple:
    details = []
    ok = True
    for d, q in ((1, 4.0), (1, 6.0), (2, 4.0)):
        inner, outer = default_variation_grids(d, q, n=256)
        res = first_variation_check(d, q, inner, outer)
        ok = ok and res.margin > 0
        details.append(f"(d={d},q={q}) margin {res.margin:.3e}")
    return ok, "; ".join(details) + " (all > 0)"


def crit_11() -> tuple:
    eps = [0.08, 0.04, 0.02, 0.01]
    s1 = remainder_slope(sliver_family_1d, 4.0, eps)["slope"]
    s2 = remainder_slope(sliver_family_1d, 3.0, eps)["slope"]
    s3 = remainder_slope(lambda t: star_mode_family(t, 4), 4.0, eps)["slope"]
    ok = s1 >= 2.1 and s2 >= 1.9 and s3 >= 2.1
    return ok, (f"slopes: d1 q4 {s1:.2f} (>=2.1), d1 q3 {s2:.2f} (>=1.9), "
                f"d2 q4 {s3:.2f} (>=2.1)")


def crit_12() -> tuple:
    worst_direct = worst_sum = 0.0
    for d, q, t in ((1, 4.0, 0.05), (1, 3.5, 0.07), (2, 4.0, 0.05)):
        rep = expansion_report(translated_ball(t, d), q)
        worst_direct = max(worst_direct, abs(rep.direct - rep.base))
        worst_sum = max(worst_sum, abs(rep.term_sum + rep.residual))
    ok = worst_direct <= 1e-7 and worst_sum <= 1e-7
    return ok, (f"translated balls: |direct - base| <= {worst_direct:.2e}, "
                f"|terms + residual| <= {worst_sum:.2e} (tol 1e-7)")


def crit_13() -> tuple:
    rng = np.random.default_rng(13)
    worst_iter = 0
    worst_res = 0.0
    worst_vanish = 0.0
    for _ in range(20):
        eps = rng.uniform(0.01, 0.05)
        decay = 1.0 / (1.0 + np.arange(1, 7)) ** 2
        a = rng.normal(0.0, eps, 6) * decay
        b = rng.normal(0.0, eps, 6) * decay
        e = StarSet(1.0, a, b).with_measure(np.pi)
        try:
            res = balance(e, max_iter=8, tol=1e-9)
        except FelabError as exc:
            return False, f"balance failed: {exc}"
        worst_iter = max(worst_iter, res.iterations)
        worst_res = max(worst_res, res.residual)
        prof = boundary_profile(res.balanced_set, n_grid=1024, n_modes=16)
        for k in (0, 1, 2):
            worst_vanish = max(worst_vanish, abs(vanishing_check(prof, k)))
    ok = worst_iter <= 8 and worst_res < 1e-9 and worst_vanish <= 1e-8
    return ok, (f"20 seeded discs: iterations <= {worst_iter} (<=8), residual <= "
                f"{worst_res:.1e} (<1e-9), vanishing <= {worst_vanish:.1e} (<=1e-8)")


def crit_14(threads: int = 1) -> tuple:
    details = []
    ok = True
    for d, q, family in ((1, 4.0, "intervals:3"), (1, 6.0, "intervals:3"),
                         (2, 4.0, "star:4")):
        cfg = SearchConfig(q, d, family, restarts=700, rng_seed=14,
                           budget=1000, threads=threads)
        res = random_probe(cfg)
        excess = res.best_phi - res.phi_ball
        ok = ok and excess <= 1e-6
        details.append(f"(d={d},q={q}) best-ball = {excess:.2e} over {res.evaluations} evals")
    return ok, "; ".join(details) + " (all <= 1e-6)"


def crit_15() -> tuple:
    details = []
    ok = True
    base = phi_q(StarSet.unit_disc(), 4.0,
                 QuadratureConfig(1e-12, 1e-11), radial_cut=45.0).norm_q_pow_q
    for n_mode, eps in ((3, 0.02), (4, 0.02), (5, 0.015)):
        e = star_mode_family(eps, n_mode)
        delta = float(np.pi * np.mean(np.abs(
            e.radius_about_origin(np.linspace(0, 2 * np.pi, 4096, endpoint=False)) ** 2 - 1.0)))
        direct = phi_q(e, 4.0, QuadratureConfig(1e-12, 1e-11), radial_cut=45.0).norm_q_pow_q
        drop = base - direct
        need = 0.5 * STABILITY_42 * delta**2
        ok = ok and drop >= need
        details.append(f"n={n_mode}: drop {drop:.3e} vs half-prediction {need:.3e}")
    return ok, "; ".join(details)


CRITERIA = {
    1: ("gamma(2,4) = 4", crit_1),
    2: ("circle coefficients vs closed forms", crit_2),
    3: ("mode neutrality and spectral gap", crit_3),
    4: ("gamma(1,4) = 2, two routes", crit_4),
    5: ("Phi_4 of an interval + even-q oracle agreement", crit_5),
    6: ("rho_2 and small-r ball-transform expansion", crit_6),
    7: ("Babenko guard: zero violations", crit_7),
    8: ("affine invariance of Phi and ellipsoid distance", crit_8),
    9: ("even-q kernel oracle uniform agreement", crit_9),
    10: ("first-variation condition margins", crit_10),
    11: ("expansion remainder slopes", crit_11),
    12: ("translation neutrality", crit_12),
    13: ("balance convergence + vanishing checks", crit_13),
    14: ("search null results at (1,4), (1,6), (2,4)", crit_14),
    15: ("local quadratic drop at d=2, q=4", crit_15),
}

_RUNTIME_LIMITS = {1: 10.0, 2: 60.0}


def run(numbers=None, threads: int = 1, log=None) -> list:
    """Run the selected criteria (all by default); returns CriterionResults."""
    numbers = sorted(numbers) if numbers else sorted(CRITERIA)
    results = []
    for num in numbers:
        name, fn = CRITERIA[num]
        t0 = time.perf_counter()
        try:
            passed, detail = fn(threads) if num == 14 else fn()
        except FelabError as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if passed and num in _RUNTIME_LIMITS and dt > _RUNTIME_LIMITS[num]:
            passed = False
            detail += f"; runtime {dt:.1f}s exceeds {_RUNTIME_LIMITS[num]:.0f}s"
        res = CriterionResult(num, name, passed, detail, dt)
        results.append(res)
        if log is not None:
            status = "PASS" if res.passed else "FAIL"
            log(f"[{status}] criterion {num:2d} ({name}): {detail} [{dt:.1f}s]")
    return results
