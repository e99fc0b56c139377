"""Source layout: one GK15 panel rule, one adaptive loop that no module calls,
one radial head-plus-tail integral, one builder of every radial mesh's edges,
one kernel mesh sum, one d = 2 harmonic tail bound, one reader of the d = 1
exponential-sum tails, one planar norm integrand, one circle rule and one
near-pair series for the planar transforms, one kernel slack, one parity
rule for the pieces of interval unions, one pair of Bessel seeds for the
spectrum's two recurrences, one star boundary, one crossing search for the
planar fits, one L-threshold check, no per-mode loop over the Funk-Hecke
eigenvalues, no jv call in the spectrum,
expansion terms without the spectrum, a quadrature config only where a
tolerance runs, no test-only routine inside the package, no global
statement, and only the pinned module caches."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

from felab.quadrature import QuadratureConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "felab"
MODULES = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}

# routines that only the tests use; they live in tests/oracles.py
TEST_ONLY = {"bessel_j", "bessel_zeros", "gegenbauer", "integrate_composite",
             "circle_coeff_from_profile", "CircleProfile", "SplineKernel",
             "gamma_asymptotic_fit",
             "empirical_holder_exponent", "q_continuity_probe",
             "sphere_reduced_prediction", "local_ascent", "norm_q_2d_per_panel",
             "circle_coeff", "indicator_hat", "_interval_hat", "_radial_factor",
             "ellipse_ray_overlap"}
# methods that only the tests used; free functions in tests/oracles.py now
TEST_ONLY_METHODS = {"integral_a2_b2", "integral_f", "derivative_at", "cumulative",
                     "deviation_from_identity", "translate"}

# the public functions whose results depend on the tolerances they are given
CONFIGURABLE = {"phi_q", "integrate_adaptive", "integrate_oscillatory_tail",
                "tail_power_periodic"}


def test_gk15_tables_stay_in_quadrature():
    for name, text in MODULES.items():
        for table in ("_GK_NODES", "_GK_WEIGHTS", "_G_WEIGHTS"):
            assert name == "quadrature.py" or table not in text, (name, table)


def test_one_adaptive_loop():
    # the worst-first heap lives in integrate_adaptive alone
    for name, text in MODULES.items():
        modules = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                modules |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                modules.add(node.module)
        assert ("heapq" in modules) == (name == "quadrature.py"), name


def test_no_per_mode_eigenvalue_loop():
    # all modes of one (d, q) come from one funk_hecke_eigenvalues pass
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    for name, text in MODULES.items():
        for loop in (n for n in ast.walk(ast.parse(text)) if isinstance(n, loops)):
            for node in ast.walk(loop):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                    assert callee != "funk_hecke_eigenvalue", (name, node.lineno)


def test_spectrum_makes_no_jv_call():
    # the Funk-Hecke Bessel rows come from two recurrences, not one jv call an order
    calls = {getattr(node.func, "attr", getattr(node.func, "id", None))
             for node in ast.walk(ast.parse(MODULES["spectral.py"])) if isinstance(node, ast.Call)}
    assert "jv" not in calls


def _callers(text: str, callee: str) -> set:
    """Names of the top-level functions of a module that call ``callee``."""
    found = set()
    for top in ast.parse(text).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == callee):
                found.add(getattr(top, "name", "<module>"))
    return found


def test_periodic_tail_called_from_two_places():
    callers = {(name, fn) for name, text in MODULES.items()
               for fn in _callers(text, "tail_power_periodic")}
    assert {name for name, _ in callers} <= {"quadrature.py", "radial_kernels.py"}
    assert {fn for name, fn in callers if name == "radial_kernels.py"} == set()


def test_oscillatory_tail_has_no_caller():
    # the Aitken segment tail serves no module: the a_0 part of the d = 2 L
    # tail is summed in closed form, and the tests keep the segment tail as
    # its reference
    callers = {(name, fn) for name, text in MODULES.items()
               for fn in _callers(text, "integrate_oscillatory_tail")}
    assert callers == set()


def test_one_d2_harmonic_tail_bound():
    # the second-mean-value bound on the table's harmonics past the mesh is one
    # routine, which both d = 2 kernels call; only it reads the J_0 amplitude
    text = MODULES["radial_kernels.py"]
    defined = {name for name, t in MODULES.items() for node in ast.parse(t).body
               if isinstance(node, ast.FunctionDef) and node.name == "_harmonic_tail_bound"}
    assert defined == {"radial_kernels.py"}
    assert _callers(text, "_harmonic_tail_bound") == {"_kernel_values_2d_K", "_kernel_values_2d_L"}
    readers = {getattr(top, "name", "<module>") for top in ast.parse(text).body
               for node in ast.walk(top) if isinstance(node, ast.Attribute) and node.attr == "y0"}
    assert readers == {"_harmonic_tail_bound"}


def test_radial_kernels_run_no_adaptive_loop():
    # every radial integral (kernels, gamma, ball norms, moments and the
    # Funk-Hecke eigenvalues) runs on fixed panels, the periodic tail or the
    # segment tail: no module calls or imports the adaptive loop, which the
    # tests keep as their reference, and the kernels take no config
    for name, text in MODULES.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                assert callee != "integrate_adaptive", (name, node.lineno)
            elif isinstance(node, ast.ImportFrom):
                assert "integrate_adaptive" not in {alias.name for alias in node.names}, name
    imported = {alias.name for node in ast.walk(ast.parse(MODULES["radial_kernels.py"]))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "QuadratureConfig" not in imported


def test_one_radial_edge_builder():
    # the head of radial_head_tail takes its edges from zero_segment_edges;
    # the d = 1 kernel head and the d = 2, 3 kernel meshes take their panels
    # and rules from kink_mesh and kink_rules, in _radial_sum alone
    for builder, owner in (("zero_segment_edges", ("quadrature.py", "radial_head_tail")),
                           ("kink_mesh", ("radial_kernels.py", "_radial_sum")),
                           ("kink_rules", ("radial_kernels.py", "_radial_sum"))):
        callers = {(name, fn) for name, text in MODULES.items() for fn in _callers(text, builder)}
        assert callers == {owner}, builder
    defined = {node.name for text in MODULES.values() for node in ast.parse(text).body
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_graded_edges", "_zero_edges", "_gk15_mesh", "_panel_counts"}


def test_exp_sum_tail_called_from_one_place():
    # every d = 1 exponential-sum tail, even q's included, is read through the
    # bracket, so one stop rule serves every q
    callers = {(name, fn) for name, text in MODULES.items()
               for fn in _callers(text, "_exp_sum_tail")}
    assert callers == {("functional.py", "_tail_bracket")}


def test_one_near_pair_series():
    # the planar norm and the transform at points take their near pairs from
    # one power table; the node-by-node series is the tests' reference
    callers = {(name, fn) for name, text in MODULES.items()
               for fn in _callers(text, "_near_sums")}
    assert callers == {("functional.py", "_polar_blocks"), ("functional.py", "_star_hat_points")}


def test_one_circle_rule():
    # the planar norm and the transform at points size their circle rule,
    # radii and phase rates in one helper
    callers = {(name, fn) for name, text in MODULES.items() for fn in _callers(text, "_circle")}
    assert callers == {("functional.py", "_polar_blocks"), ("functional.py", "_star_hat_points")}
    defined = {node.name for text in MODULES.values() for node in ast.parse(text).body
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_circle_rule_order", "_radius_bound", "_phase_rates"}


def test_one_thread_workspace():
    # the d = 1 mesh, the planar sweep and its near-pair series keep their
    # working arrays in one per-thread helper
    assert sum(text.count("threading.local(") for text in MODULES.values()) == 1
    callers = {(name, fn) for name, text in MODULES.items() for fn in _callers(text, "_buffer")}
    assert callers == {("functional.py", "_signed_exp_mesh"), ("functional.py", "_near_sums"),
                       ("functional.py", "_polar_blocks")}


def test_one_kernel_slack():
    # every kernel value's error takes the fixed slack once, in kernel_values;
    # the d = 1 expansion terms read the same constant, and the d = 2 K mesh
    # ends where its tail bound is a tenth of it
    text = MODULES["radial_kernels.py"]
    readers = {getattr(top, "name", "<module>") for top in ast.parse(text).body
               for node in ast.walk(top)
               if isinstance(node, ast.Name) and node.id == "_KERNEL_SLACK"
               and isinstance(node.ctx, ast.Load)}
    assert readers == {"kernel_values", "_kernel_values_2d_K"}
    literals = [node for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.Constant) and node.value == 1e-11]
    assert len(literals) == 1


def test_one_interval_parity():
    # the d = 1 symmetric difference and the d = 1 expansion terms take the
    # signed pieces of two interval unions from one parity rule
    callers = {(name, fn) for name, text in MODULES.items()
               for fn in _callers(text, "_signed_pieces")}
    assert callers == {("set_model.py", "symdiff_measure"), ("perturbation.py", "_terms_1d")}


def test_one_pair_of_bessel_seeds():
    # the two lowest orders seed the forward recurrence and scale Miller's rows
    callers = {(name, fn) for name, text in MODULES.items()
               for fn in _callers(text, "_bessel_seeds")}
    assert callers == {("spectral.py", "_bessel_rows"), ("spectral.py", "_bessel_recurrence")}


def test_one_star_boundary():
    # the grid-FFT oracle sizes its box from one boundary sample
    callers = {(name, getattr(top, "name", "<module>")) for name, text in MODULES.items()
               for top in ast.parse(text).body for node in ast.walk(top)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "boundary"}
    assert callers == {("functional.py", "_grid_fft_norm")}


def test_planar_fits_on_the_base_curve():
    # the ellipse fit and the symmetric difference run no Nelder-Mead and take
    # no ray-grid count; one crossing search bounds the arcs of both, on the
    # bracketed Newton of the ray radius
    text = MODULES["set_model.py"]
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call):
            assert "Nelder-Mead" not in {getattr(k.value, "value", None)
                                         for k in node.keywords}, node.lineno
        if isinstance(node, ast.FunctionDef):
            names = {a.arg for a in node.args.args + node.args.kwonlyargs}
            assert not names & {"n_theta", "grid_resolution"}, node.name
    assert _callers(text, "_crossings") == {"_ellipse_overlap", "_intersection"}
    assert _callers(text, "_bracketed_newton") == {"StarSet", "_crossings"}
    defined = {getattr(node, "name", None) or getattr(node, "id", None)
               for module in MODULES.values() for node in ast.walk(ast.parse(module))
               if isinstance(node, ast.FunctionDef)
               or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store))}
    assert not defined & {"_ellipse_ray_overlap", "_FIT_NM", "_FIT_MAX_PASSES", "_grid_symdiff"}


def test_one_l_threshold_check():
    # the spectrum and the d = 2 quadratic terms refuse q through the kernels' check
    for name in ("spectral.py", "perturbation.py"):
        assert "ThresholdError" not in MODULES[name], name
    assert _callers(MODULES["spectral.py"], "_check_exponent") == {"_lambda_radial"}
    assert _callers(MODULES["perturbation.py"], "_check_exponent") == {"quadratic_terms",
                                                                      "expansion_report"}


def test_duplicate_computations_gone():
    defined = {node.name for text in MODULES.values() for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_moment_residual", "_interval_symdiff", "_common_box",
                          "_signed_pieces_1d", "_check_planar_exponent"}


def test_power_tail_called_from_two_places():
    # E(c) = int_1^inf t^{-s} e^{ict} dt lives in the quadrature layer; the
    # d = 1 kernels and the even-q d = 1 norm call it
    defined = {name for name, text in MODULES.items() for node in ast.parse(text).body
               if isinstance(node, ast.FunctionDef) and node.name == "_power_tail"}
    assert defined == {"quadrature.py"}
    callers = {name for name, text in MODULES.items() if _callers(text, "_power_tail")}
    assert callers == {"radial_kernels.py", "functional.py"}


def test_perturbation_reads_no_spectrum_or_boundary_profile():
    # the d = 2 expansion terms come from the polar mesh of Phi_q, not from
    # the Funk-Hecke eigenvalues of a boundary profile
    for node in ast.walk(ast.parse(MODULES["perturbation.py"])):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            assert node.module not in ("spectral", "felab.spectral"), node.lineno
            assert not names & {"spectral", "boundary_profile"}, node.lineno
        elif isinstance(node, ast.Import):
            assert not any("spectral" in alias.name for alias in node.names), node.lineno


def test_perturbation_reads_no_kernel_profile():
    # the d = 1 expansion terms are exact kernel antiderivatives, not integrals
    # of a sampled profile (and no module interpolates one, see below)
    for node in ast.walk(ast.parse(MODULES["perturbation.py"])):
        if isinstance(node, ast.ImportFrom):
            assert "kernel_profile" not in {alias.name for alias in node.names}, node.lineno


def test_no_interpolated_profiles_in_package():
    # kernels are evaluated where they are needed; the spline over a sampled
    # profile is a test oracle
    for name, text in MODULES.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("scipy.interpolate"), (name, node.lineno)
            elif isinstance(node, ast.Import):
                assert not any(alias.name.startswith("scipy.interpolate")
                               for alias in node.names), (name, node.lineno)


def test_one_kernel_mesh_sum():
    # every kernel mesh is swept by _radial_sum: the d = 1 head per part and
    # the d = 2 and 3 meshes, each called with its cuts and their kink flags
    assert _callers(MODULES["radial_kernels.py"], "_radial_sum") == {
        "_kernel_values_1d", "_kernel_values_2d_K", "_kernel_values_2d_L", "_kernel_values_3d"}


def test_one_planar_norm_integrand():
    # phi_q and the d = 2 expansion report sum |1_E^|^q on a polar block
    # through one helper
    counts = {name: text.count("(norm * np.abs(s)) ** q") for name, text in MODULES.items()}
    assert {name: n for name, n in counts.items() if n} == {"functional.py": 1}


def test_no_test_only_routines_in_package():
    for name, text in MODULES.items():
        defined = {node.name for node in ast.parse(text).body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not defined & TEST_ONLY, (name, defined & TEST_ONLY)


def test_no_test_only_methods_in_package():
    for name, text in MODULES.items():
        for top in ast.parse(text).body:
            if isinstance(top, ast.ClassDef):
                methods = {node.name for node in top.body if isinstance(node, ast.FunctionDef)}
                assert not methods & TEST_ONLY_METHODS, (name, top.name, methods & TEST_ONLY_METHODS)


def test_quadrature_config_only_where_a_tolerance_runs():
    taking = set()
    for name in MODULES.keys() - {"__init__.py"}:
        mod = importlib.import_module(f"felab.{name[:-3]}")
        for fname, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not fname.startswith("_")
                    and any("QuadratureConfig" in str(p.annotation)
                            for p in inspect.signature(fn).parameters.values())):
                taking.add(fname)
    assert taking == CONFIGURABLE


def test_quadrature_config_fields():
    assert [f.name for f in dataclasses.fields(QuadratureConfig)] == ["abs_tol", "rel_tol"]


def test_no_global_statements():
    for name, text in MODULES.items():
        assert not any(isinstance(node, ast.Global) for node in ast.walk(ast.parse(text))), name


# the module-level caches, each global state that must earn its place: the
# ball's Phi_q that every expansion report at one (d, q) shares
CACHED = {"_ball_phi"}


def test_module_caches_are_pinned():
    cached = set()
    for text in MODULES.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = getattr(target, "attr", getattr(target, "id", None))
                    if name in ("lru_cache", "cache"):
                        cached.add(node.name)
    assert cached == CACHED
