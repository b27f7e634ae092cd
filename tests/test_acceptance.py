"""One test per acceptance criterion, each printing a pass/fail line."""
import pytest

from twohilb import acceptance


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.check_id} ({result.name}): {status} "
          f"[deviation {result.deviation:.3e}, tol {result.tolerance:.1e}, "
          f"{result.runtime:.2f}s]")


def test_criterion_1_hstar_axioms():
    result = acceptance.check_hstar_axioms()
    _report(result)
    assert result.passed
    assert result.runtime < 10.0


def test_criterion_2_ambrose_roundtrip():
    result = acceptance.check_ambrose_roundtrip()
    _report(result)
    assert result.details["sizes_exact"]
    assert result.passed


def test_criterion_3_adjoint_duality():
    result = acceptance.check_adjoint_duality()
    _report(result)
    assert result.details["mismatches"] == 0
    assert result.passed


def test_criterion_4_tangle_moves():
    result = acceptance.check_tangle_moves()
    _report(result)
    assert result.details["misscaled-zigzag-passes"]
    assert result.details["misscaled-framed-r1-deviation"] == pytest.approx(3.0, abs=1e-6)
    assert result.passed


def test_criterion_5_falling_factorial():
    result = acceptance.check_falling_factorial()
    _report(result)
    assert result.details["lambda3_of_dim2_vanishes"]
    assert result.passed


def test_criterion_6_dimension_spectrum():
    result = acceptance.check_dimension_spectrum()
    _report(result)
    assert result.passed


def test_criterion_7_self_duality():
    result = acceptance.check_self_duality()
    _report(result)
    assert result.passed


def test_criterion_8_fourier():
    result = acceptance.check_fourier()
    _report(result)
    assert result.details["irrep_fibers_exact"]
    assert result.passed


def test_criterion_9_tannaka():
    result = acceptance.check_tannaka()
    _report(result)
    assert result.details["S3"] == 6
    # the worst residual of the reconstruction, not a constant
    assert result.tolerance == 1e-6 and 0.0 < result.deviation <= result.tolerance
    assert result.passed


def test_criterion_10_balancing_laws():
    result = acceptance.check_balancing_laws()
    _report(result)
    assert result.passed


def test_full_suite_runtime_budget():
    import time
    start = time.perf_counter()
    results = acceptance.run_all()
    elapsed = time.perf_counter() - start
    for result in results:
        _report(result)
    assert all(r.passed for r in results)
    assert elapsed < 120.0
