"""Source layout: one GK15 panel rule, one radial head-plus-tail integral,
a quadrature config only where a tolerance runs, no test-only routine
inside the package, and no global statement."""

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
             "circle_coeff_from_profile", "CircleProfile", "gamma_asymptotic_fit",
             "empirical_holder_exponent", "q_continuity_probe",
             "sphere_reduced_prediction", "local_ascent", "norm_q_2d_per_panel"}
# methods that only the tests used; free functions in tests/oracles.py now
TEST_ONLY_METHODS = {"integral_a2_b2", "integral_f", "derivative_at", "cumulative",
                     "deviation_from_identity", "translate"}

# the public functions whose results depend on the tolerances they are given
CONFIGURABLE = {"phi_q", "expansion_report", "remainder_slope", "integrate_adaptive",
                "integrate_oscillatory_tail", "tail_power_periodic"}


def test_gk15_tables_stay_in_quadrature():
    for name, text in MODULES.items():
        for table in ("_GK_NODES", "_GK_WEIGHTS", "_G_WEIGHTS"):
            assert name == "quadrature.py" or table not in text, (name, table)


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
    assert {fn for name, fn in callers if name == "radial_kernels.py"} == {"_kernel_values_2d_L"}


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
    assert [f.name for f in dataclasses.fields(QuadratureConfig)] == [
        "abs_tol", "rel_tol", "max_subdivisions"]


def test_no_global_statements():
    for name, text in MODULES.items():
        assert not any(isinstance(node, ast.Global) for node in ast.walk(ast.parse(text))), name
