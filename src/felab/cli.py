"""Command-line front end.

Standard output carries only data (CSV or JSON); diagnostics go to stderr
(silenced by --quiet).  Exit codes: 0 success, 1 domain/threshold error,
2 non-convergence, 3 usage error.  With --out-dir, every produced output
file is recorded in a run manifest written last.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError, FelabError, NonConvergenceError, UsageError
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

__all__ = ["dispatch", "main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="felab", description="numerical laboratory for the "
                "set-indicator Fourier extremization problem")
    p.add_argument("--tol", type=float, default=None,
                   help="absolute quadrature tolerance for phi; the other commands run "
                   "fixed settings and refuse it")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None,
                   help="thread budget (FELAB_THREADS as fallback)")
    p.add_argument("--out-dir", type=str, default=None)
    p.add_argument("--quiet", action="store_true")
    sub = p.add_subparsers(dest="command")

    k = sub.add_parser("kernel", help="sample a radial kernel profile as CSV")
    k.add_argument("--kind", required=True, choices=["K", "L"])
    k.add_argument("--d", required=True, type=int)
    k.add_argument("--q", required=True, type=float)
    k.add_argument("--r-max", type=float, default=None)
    k.add_argument("--samples", type=int, default=2048)

    g = sub.add_parser("gamma", help="boundary derivative -dK_q/dr at r=1")
    g.add_argument("--d", required=True, type=int)
    g.add_argument("--q", required=True, type=float)

    fv = sub.add_parser("first-variation", help="inner-min vs outer-max of K_q")
    fv.add_argument("--d", required=True, type=int)
    fv.add_argument("--q", required=True, type=float)
    fv.add_argument("--grid-n", type=int, default=256)
    fv.add_argument("--r-max", type=float, default=None)

    ph = sub.add_parser("phi", help="Phi_q of a set file")
    ph.add_argument("--set", required=True, dest="set_file")
    ph.add_argument("--q", required=True, type=float)
    ph.add_argument("--oracle", action="store_true",
                    help="use the even-exponent convolution oracle")

    ex = sub.add_parser("expand", help="Taylor-expansion report for a set file")
    ex.add_argument("--set", required=True, dest="set_file")
    ex.add_argument("--q", required=True, type=float)

    es = sub.add_parser("expand-sweep", help="expansion residuals over an epsilon family")
    es.add_argument("--family", required=True,
                    help="'sliver' (d=1) or 'star:N' (d=2, mode N)")
    es.add_argument("--q", required=True, type=float)
    es.add_argument("--eps", required=True, help="comma-separated epsilon values")

    sp = sub.add_parser("spectrum", help="per-mode margins as CSV")
    sp.add_argument("--d", required=True, type=int)
    sp.add_argument("--q", required=True, type=float)
    sp.add_argument("--modes", required=True, type=int)

    bal = sub.add_parser("balance", help="affine balancing of a set file")
    bal.add_argument("--set", required=True, dest="set_file")
    bal.add_argument("--max-iter", type=int, default=12)
    bal.add_argument("--bal-tol", type=float, default=1e-10)

    di = sub.add_parser("dist", help="normalized distance to equal-measure ellipsoids")
    di.add_argument("--set", required=True, dest="set_file")

    se = sub.add_parser("search", help="randomized probe + ascent over a family")
    se.add_argument("--d", required=True, type=int)
    se.add_argument("--q", required=True, type=float)
    se.add_argument("--family", default=None)
    se.add_argument("--restarts", type=int, default=50)
    se.add_argument("--budget", type=int, default=200)

    qs = sub.add_parser("q-sweep", help="ball value vs best probe across exponents")
    qs.add_argument("--d", required=True, type=int)
    qs.add_argument("--q-list", required=True)
    qs.add_argument("--family", default=None)
    qs.add_argument("--restarts", type=int, default=30)
    qs.add_argument("--budget", type=int, default=60)

    ver = sub.add_parser("verify", help="run the acceptance suite")
    ver.add_argument("--criteria", default=None, help="comma-separated subset, e.g. 1,4,6")
    return p


# the commands that take their quadrature settings from --tol
_TOL_COMMANDS = ("phi",)


def _threads(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("FELAB_THREADS")
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise UsageError(f"FELAB_THREADS must be an integer, got {env!r}") from None


def _floats(text: str, flag: str) -> list:
    try:
        return [float(t) for t in text.split(",") if t]
    except ValueError:
        raise UsageError(f"{flag} takes comma-separated numbers, got {text!r}") from None


def _load_set(path: str):
    from .set_model import set_from_json
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read set file {path!r}: {exc}") from None
    return set_from_json(text)


def _search_config(args, q: float):
    """The search settings of the command line; settings SearchConfig refuses
    (family, restarts, budget) are usage errors."""
    from .search import SearchConfig
    family = args.family or ("intervals:4" if args.d == 1 else "star:6")
    try:
        return SearchConfig(q, args.d, family, restarts=args.restarts, rng_seed=args.seed,
                            budget=args.budget, threads=_threads(args))
    except DomainError as exc:
        raise UsageError(str(exc)) from None


def _jdump(obj) -> str:
    def default(o):
        if isinstance(o, (np.floating, np.integer)):
            return float(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(type(o))
    return json.dumps(obj, indent=2, default=default, allow_nan=False)


class _Run:
    """Collects outputs and writes the manifest last."""

    def __init__(self, args, argv):
        self.args = args
        self.argv = argv
        self.t0 = time.perf_counter()
        self.outputs = []
        # the quadrature settings that ran, set by the commands that choose
        # one; the others run fixed settings and record none
        self.quad = None
        self.out_dir = Path(args.out_dir) if args.out_dir else None
        if self.out_dir:
            self.out_dir.mkdir(parents=True, exist_ok=True)

    def log(self, msg: str):
        if not self.args.quiet:
            print(msg, file=sys.stderr)

    def emit(self, text: str, filename: str):
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        if self.out_dir:
            path = self.out_dir / filename
            path.write_text(text if text.endswith("\n") else text + "\n")
            self.outputs.append(str(path))

    def finish(self):
        if self.out_dir:
            manifest = {
                "command_line": "felab " + " ".join(self.argv),
                "version": __version__,
                "seed": self.args.seed,
                "quadrature": None if self.quad is None else {
                    "abs_tol": self.quad.abs_tol,
                    "rel_tol": self.quad.rel_tol,
                    "max_subdivisions": self.quad.max_subdivisions,
                },
                "wall_time_s": time.perf_counter() - self.t0,
                "outputs": self.outputs,
            }
            (self.out_dir / "manifest.json").write_text(_jdump(manifest) + "\n")


def _cmd_kernel(run: _Run, args):
    from .radial_kernels import kernel_profile
    prof = kernel_profile(args.kind, args.d, args.q, r_max=args.r_max, n_samples=args.samples)
    run.emit(prof.to_csv(), f"kernel_{args.kind}_{args.d}_{args.q}.csv")


def _cmd_gamma(run: _Run, args):
    from .radial_kernels import gamma_qd_detailed
    res = gamma_qd_detailed(args.d, args.q)
    run.emit(f"{res.value:.6f} ± {res.error_estimate:.3g}", "gamma.txt")
    run.log(f"gamma({args.d},{args.q}) = {res.value:.17g}")


def _cmd_first_variation(run: _Run, args):
    from .radial_kernels import default_variation_grids, first_variation_check
    inner, outer = default_variation_grids(args.d, args.q, n=args.grid_n, r_max=args.r_max)
    res = first_variation_check(args.d, args.q, inner, outer)
    run.emit(_jdump({"inner_min": res.inner_min, "outer_max": res.outer_max,
                     "satisfied": res.satisfied, "margin": res.margin,
                     "error_bound": res.error_bound}), "first_variation.json")


def _cmd_phi(run: _Run, args):
    from .functional import phi_even_oracle, phi_q
    e = _load_set(args.set_file)
    if args.oracle:
        if args.tol is not None:
            raise UsageError("--tol has no effect on phi --oracle; the convolution oracle "
                             "takes no tolerance")
        if not math.isfinite(args.q):
            raise DomainError("q must be a finite exponent")
        res = phi_even_oracle(e, int(round(args.q)))
    else:
        run.quad = DEFAULT_CONFIG if args.tol is None else QuadratureConfig(
            abs_tol=args.tol, rel_tol=max(args.tol, 1e-12))
        res = phi_q(e, args.q, run.quad)
    run.emit(_jdump(res.as_dict()), "phi.json")


def _cmd_expand(run: _Run, args):
    from .perturbation import _TIGHT, expansion_report
    run.quad = _TIGHT
    rep = expansion_report(_load_set(args.set_file), args.q, run.quad)
    run.emit(_jdump(rep.as_dict()), "expand.json")


def _family(spec_text: str):
    from .perturbation import sliver_family_1d, star_mode_family
    if spec_text == "sliver":
        return sliver_family_1d
    kind, _, n = spec_text.partition(":")
    if kind != "star" or not (n == "" or n.isdecimal()):
        raise UsageError(f"unknown family {spec_text!r}; expected sliver or star[:N]")
    return lambda t: star_mode_family(t, int(n or 4))


def _cmd_expand_sweep(run: _Run, args):
    from .perturbation import _TIGHT, expansion_report
    run.quad = _TIGHT
    fam = _family(args.family)
    eps = _floats(args.eps, "--eps")
    if not eps:
        raise UsageError("--eps needs at least one value")
    lines = ["eps,direct,base,term_K,term_LL,term_Lrefl,residual"]
    for t in eps:
        run.log(f"expanding eps = {t}")
        rep = expansion_report(fam(t), args.q, run.quad)
        lines.append(",".join(f"{v:.17g}" for v in (
            t, rep.direct, rep.base, rep.term_K, rep.term_LL, rep.term_Lrefl, rep.residual)))
    run.emit("\n".join(lines), "expand_sweep.csv")


def _cmd_spectrum(run: _Run, args):
    from .spectral import mode_margins
    spec = mode_margins(args.d, args.q, args.modes)
    run.emit(spec.to_csv(), "spectrum.csv")


def _cmd_balance(run: _Run, args):
    from .set_model import balance, set_to_json
    res = balance(_load_set(args.set_file), max_iter=args.max_iter, tol=args.bal_tol)
    doc = {
        "map": {"matrix": res.map.matrix.tolist(),
                "translation": res.map.translation.tolist()},
        "residual": res.residual,
        "iterations": res.iterations,
        "converged": res.converged,
        "balanced_set": json.loads(set_to_json(res.balanced_set)),
    }
    run.emit(_jdump(doc), "balance.json")


def _cmd_dist(run: _Run, args):
    from .set_model import dist_to_ellipsoids
    fit = dist_to_ellipsoids(_load_set(args.set_file))
    run.emit(_jdump({"distance": fit.distance, "converged": fit.converged,
                     "best": {"matrix": fit.best.matrix.tolist(),
                              "translation": fit.best.translation.tolist()}}), "dist.json")


def _cmd_search(run: _Run, args):
    from .search import PROBE_QUAD, random_probe
    cfg = _search_config(args, args.q)
    run.quad = PROBE_QUAD
    res = random_probe(cfg)
    doc = res.as_dict()
    doc["trajectory"] = [[i, v] for i, v in res.trajectory]
    run.emit(_jdump(doc), "search.json")
    if run.out_dir:
        traj = "evaluation,best_phi\n" + "\n".join(
            f"{i},{v:.17g}" for i, v in res.trajectory)
        path = run.out_dir / "trajectory.csv"
        path.write_text(traj + "\n")
        run.outputs.append(str(path))


def _cmd_q_sweep(run: _Run, args):
    from .search import PROBE_QUAD, q_sweep
    qs = _floats(args.q_list, "--q-list")
    if not qs:
        raise UsageError("--q-list needs at least one exponent")
    cfg = _search_config(args, qs[0])
    run.quad = PROBE_QUAD
    rows = q_sweep(qs, cfg)
    lines = ["q,phi_ball,best_phi,gap,dist_ellipsoids"]
    for row in rows:
        lines.append(",".join(f"{row[k]:.17g}" for k in
                              ("q", "phi_ball", "best_phi", "gap", "dist_ellipsoids")))
    run.emit("\n".join(lines), "q_sweep.csv")


def _cmd_verify(run: _Run, args) -> int:
    from .acceptance import CRITERIA, run as run_acceptance
    numbers = None
    if args.criteria:
        try:
            numbers = [int(t) for t in args.criteria.split(",") if t]
        except ValueError:
            raise UsageError(f"--criteria takes comma-separated numbers, got "
                             f"{args.criteria!r}") from None
        unknown = sorted(set(numbers) - set(CRITERIA))
        if unknown:
            raise UsageError(f"unknown criteria {unknown}; they are numbered "
                             f"{min(CRITERIA)}-{max(CRITERIA)}")
    results = run_acceptance(numbers, threads=_threads(args), log=run.log)
    lines = ["criterion,name,passed,seconds"]
    for r in results:
        lines.append(f"{r.number},\"{r.name}\",{str(r.passed).lower()},{r.seconds:.2f}")
    run.emit("\n".join(lines), "verify.csv")
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "kernel": _cmd_kernel,
    "gamma": _cmd_gamma,
    "first-variation": _cmd_first_variation,
    "phi": _cmd_phi,
    "expand": _cmd_expand,
    "expand-sweep": _cmd_expand_sweep,
    "spectrum": _cmd_spectrum,
    "balance": _cmd_balance,
    "dist": _cmd_dist,
    "search": _cmd_search,
    "q-sweep": _cmd_q_sweep,
    "verify": _cmd_verify,
}


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("missing subcommand")
        if args.tol is not None and args.command not in _TOL_COMMANDS:
            raise UsageError(f"--tol has no effect on {args.command}; it applies to "
                             + ", ".join(_TOL_COMMANDS))
        run = _Run(args, list(argv))
        code = _COMMANDS[args.command](run, args)
        run.finish()
        return int(code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 3
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc} (last residual {exc.residual:.3g})", file=sys.stderr)
        return 2
    except FelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
