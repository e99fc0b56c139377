"""Optimization drives: local ascent and randomized probes of Phi_q.

Families are capped, explicitly parameterized set classes:

* ``intervals:k`` -- unions of up to k intervals (2k sorted endpoints);
* ``star:N``      -- star-shaped bodies r(theta) = 1 + sum of N cos/sin modes.

The measure constraint is enforced by dilation after every parameter step,
never by penalty, so every evaluated candidate has exactly the ball
measure.  All randomness flows from one seeded generator; a fixed seed
reproduces the whole trajectory bit for bit (restarts may be evaluated in
parallel, aggregation is by restart index).  Every evaluation passes
through the Babenko guard inside phi_q; global claims produced here are
probes, not proofs.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, InvalidSetError
from .functional import phi_ball, phi_q
from .quadrature import QuadratureConfig
from .set_model import IntervalSet, StarSet, dist_to_ellipsoids

__all__ = ["SearchConfig", "SearchResult", "random_probe", "q_sweep"]


# probe-grade tolerances: bias << the 1e-6 comparison scale of the null tests
PROBE_QUAD = QuadratureConfig(abs_tol=3e-7, rel_tol=1e-8)


@dataclass(frozen=True)
class SearchConfig:
    exponent: float
    dimension: int
    family: str = "intervals:4"
    restarts: int = 50
    rng_seed: int = 0
    step_initial: float = 0.15
    budget: int = 400
    threads: int = 1

    def __post_init__(self):
        if self.restarts < 1 or self.rng_seed < 0:
            raise DomainError("need restarts >= 1 and rng_seed >= 0")
        if self.budget < self.restarts:
            raise DomainError("budget must cover at least one evaluation per restart")
        kind, _, arg = self.family.partition(":")
        if kind not in ("intervals", "star") or not (arg == "" or arg.isdecimal()):
            raise DomainError(f"unknown family {self.family!r}; expected intervals[:N] or star[:N]")
        n = self.family_size
        cap = 6 if kind == "intervals" else 12
        if not (1 <= n <= cap):
            raise DomainError(f"family size must lie in [1, {cap}]")

    @property
    def family_kind(self) -> str:
        return self.family.partition(":")[0]

    @property
    def family_size(self) -> int:
        kind, _, arg = self.family.partition(":")
        return int(arg or (4 if kind == "intervals" else 6))


@dataclass(frozen=True)
class SearchResult:
    best_set: object
    best_phi: float
    phi_ball: float
    gap: float
    dist_ellipsoids: float
    trajectory: tuple
    evaluations: int

    def as_dict(self) -> dict:
        from .set_model import set_to_json
        import json
        return {
            "best_phi": self.best_phi,
            "phi_ball": self.phi_ball,
            "gap": self.gap,
            "dist_ellipsoids": self.dist_ellipsoids,
            "evaluations": self.evaluations,
            "best_set": json.loads(set_to_json(self.best_set)),
        }


def _ball_measure(d: int) -> float:
    return 2.0 if d == 1 else math.pi


def _params_to_set(params: np.ndarray, cfg: SearchConfig):
    d = cfg.dimension
    if cfg.family_kind == "intervals":
        pts = np.sort(params)
        ivs = [(pts[2 * i], pts[2 * i + 1]) for i in range(len(pts) // 2)
               if pts[2 * i + 1] - pts[2 * i] > 1e-9]
        if not ivs:
            raise InvalidSetError("degenerate interval candidate")
        e = IntervalSet(ivs)
        return e.dilate(_ball_measure(1) / e.measure)
    n = cfg.family_size
    e = StarSet(1.0, a_coeffs=params[:n], b_coeffs=params[n:])
    return e.with_measure(_ball_measure(2))


def _set_to_params(e, cfg: SearchConfig) -> np.ndarray:
    if cfg.family_kind == "intervals":
        return e.endpoints()
    n = cfg.family_size
    a = np.zeros(n)
    b = np.zeros(n)
    a[: len(e.a_coeffs)] = e.a_coeffs
    b[: len(e.b_coeffs)] = e.b_coeffs
    return np.concatenate([a, b])


def _normalized(params: np.ndarray, cfg: SearchConfig) -> np.ndarray:
    """The parameters of the candidate set that ``params`` describe."""
    return _set_to_params(_params_to_set(params, cfg), cfg).astype(float)


def _evaluate(params: np.ndarray, cfg: SearchConfig) -> float:
    try:
        e = _params_to_set(params, cfg)
        return phi_q(e, cfg.exponent, PROBE_QUAD).phi
    except InvalidSetError:
        return -math.inf


def _ascend(params: np.ndarray, cfg: SearchConfig, budget: int):
    """Coordinate-wise trial steps with halving, at most ``budget`` evaluations.

    Returns (params, best, trajectory, evals); the trajectory holds one
    (evaluation, best so far) pair per evaluation.
    """
    best = _evaluate(params, cfg)
    evals = 1
    trajectory = [(1, best)]
    step = cfg.step_initial
    while evals < budget and step >= 1e-6:
        improved = False
        for k in range(len(params)):
            if evals >= budget:
                break
            for sign in (1.0, -1.0):
                if evals >= budget:
                    break
                trial = params.copy()
                trial[k] += sign * step
                val = _evaluate(trial, cfg)
                evals += 1
                if val > best:
                    best = val
                    params = trial
                    improved = True
                trajectory.append((evals, best))
        if not improved:
            step *= 0.5
    return params, best, trajectory, evals


def _random_params(rng: np.random.Generator, cfg: SearchConfig) -> np.ndarray:
    if cfg.family_kind == "intervals":
        return rng.uniform(-2.5, 2.5, 2 * cfg.family_size)
    n = cfg.family_size
    decay = 1.0 / (1.0 + np.arange(1, n + 1)) ** 2
    return np.concatenate([rng.normal(0.0, 0.15, n) * decay,
                           rng.normal(0.0, 0.15, n) * decay])


def random_probe(cfg: SearchConfig) -> SearchResult:
    """Seeded random family members, then short ascent from the best few."""
    rng = np.random.default_rng(cfg.rng_seed)
    probes = [_random_params(rng, cfg) for _ in range(cfg.restarts)]
    threads = max(1, cfg.threads)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            values = list(pool.map(lambda p: _evaluate(p, cfg), probes))
    else:
        values = [_evaluate(p, cfg) for p in probes]
    phi_b = phi_ball(cfg.dimension, cfg.exponent).phi
    evals = len(probes)
    order = sorted(range(len(probes)), key=lambda i: -values[i])
    best_idx = order[0]
    best = values[best_idx]
    params = probes[best_idx]
    trajectory = []
    running = -math.inf
    for i, v in enumerate(values):
        running = max(running, v)
        trajectory.append((i + 1, running))
    # short ascent from the top few probes
    remaining = cfg.budget - evals
    tops = [i for i in order[:3] if values[i] > -math.inf]
    for idx in tops:
        share = remaining // max(1, len(tops))
        if share < 4:
            break
        sub_params, sub_best, sub_traj, _ = _ascend(_normalized(probes[idx], cfg), cfg, share)
        for _, v in sub_traj:
            evals += 1
            running = max(running, v)
            trajectory.append((evals, running))
        if sub_best > best:
            best = sub_best
            params = _normalized(sub_params, cfg)
    final = _params_to_set(params, cfg)
    fit = dist_to_ellipsoids(final)
    return SearchResult(final, best, phi_b, phi_b - best, fit.distance,
                        tuple(trajectory), evals)


def q_sweep(q_list, cfg: SearchConfig) -> list:
    """Per-exponent ball value, best probed value, and gap."""
    rows = []
    for q in q_list:
        res = random_probe(replace(cfg, exponent=float(q)))
        rows.append({"q": float(q), "phi_ball": res.phi_ball,
                     "best_phi": res.best_phi, "gap": res.gap,
                     "dist_ellipsoids": res.dist_ellipsoids})
    return rows
