"""The acceptance gate: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run pytest with -s to stream them);
``felab verify`` runs the same checks from the command line.
"""

import pytest

from felab import acceptance


def _run(number: int) -> acceptance.CriterionResult:
    res = acceptance.run([number], log=None)[0]
    status = "PASS" if res.passed else "FAIL"
    print(f"[{status}] criterion {number:2d} ({res.name}): {res.detail} [{res.seconds:.1f}s]")
    return res


def test_criterion_01_gamma_d2_q4():
    assert _run(1).passed


def test_criterion_02_circle_coefficients():
    assert _run(2).passed


def test_criterion_03_mode_neutrality_and_gap():
    assert _run(3).passed


def test_criterion_04_gamma_d1_q4_two_ways():
    assert _run(4).passed


def test_criterion_05_phi_interval_and_oracle():
    assert _run(5).passed


def test_criterion_06_rho2_and_small_r_expansion():
    assert _run(6).passed


def test_criterion_07_babenko_guard():
    assert _run(7).passed


def test_criterion_07_ignores_an_earlier_trip():
    # a trip raises where it happens; it leaves nothing behind that a later
    # run of the criterion could count
    from felab.errors import DomainError
    from felab.functional import PhiResult, _babenko_guard
    with pytest.raises(DomainError):
        _babenko_guard(PhiResult(1.0, 1.0, 2.0, 0.0, "test"), 4.0, 1)
    assert acceptance.crit_7()[0]


@pytest.mark.slow
def test_criterion_08_affine_invariance():
    assert _run(8).passed


def test_criterion_09_even_q_kernel_oracle():
    assert _run(9).passed


def test_criterion_10_first_variation_margins():
    assert _run(10).passed


@pytest.mark.slow
def test_criterion_11_remainder_slopes():
    assert _run(11).passed


def test_criterion_12_translation_neutrality():
    assert _run(12).passed


def test_criterion_13_balance_and_vanishing():
    assert _run(13).passed


@pytest.mark.slow
def test_criterion_14_search_null_results():
    assert _run(14).passed


@pytest.mark.slow
def test_criterion_15_quadratic_drop():
    assert _run(15).passed
