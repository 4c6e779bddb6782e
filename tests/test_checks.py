import json

import pytest

from ptalgebra.checks import (HOM_TOL, CheckReport, check_adjoint_transport,
                              check_dimensions, check_irreps,
                              check_matrix_operators, check_mul_rule,
                              check_reduced_matrix_units, check_spectra,
                              check_u_structure, check_unit_of_m, run_suite)
from ptalgebra.irreps import all_irreps
from ptalgebra.partitions import Partition


def test_individual_checks_pass():
    assert check_mul_rule(3, 2).passed
    assert check_spectra(3, 2).passed
    assert check_irreps(3, 2).passed
    assert check_dimensions(3, 2).passed
    assert check_matrix_operators(3, 2).passed
    assert check_reduced_matrix_units(3, 2).passed
    assert check_adjoint_transport(3, 2).passed
    assert check_unit_of_m(3, 2).passed


def test_u_structure_same_and_cross_labels():
    assert check_u_structure(Partition([1]), Partition([1]), 3, 2).passed
    assert check_u_structure(Partition([2]), Partition([1, 1]), 4, 3).passed
    assert check_u_structure(Partition([1, 1]), Partition([1, 1]), 4, 3).passed


def test_check_irreps_covers_every_block():
    for n, d in [(3, 2), (4, 2), (3, 3)]:
        report = check_irreps(n, d)
        assert report.passed is True, report
        assert report.max_residual < HOM_TOL
        assert report.details == "; ".join(
            f"{rep.kind}:{rep.label}(dim {rep.dimension})"
            for rep in all_irreps(n, d))


def test_run_suite_all_green():
    reports = run_suite(3, 2, "all")
    assert reports and all(r.passed for r in reports)
    names = {r.check for r in reports}
    assert {"mul_rule", "spectra", "irreps", "dimensions",
            "matrix_operators", "reduced_matrix_units",
            "u_structure", "unit_of_M"} <= names


def test_run_suite_subset():
    reports = run_suite(4, 2, "dims")
    assert len(reports) == 1 and reports[0].check == "dimensions"
    assert reports[0].passed
    with pytest.raises(ValueError):
        run_suite(3, 2, "bogus")


def test_run_suite_n2():
    reports = run_suite(2, 2, "all")
    assert reports and all(r.passed for r in reports)


def test_report_roundtrip():
    report = check_dimensions(3, 2)
    back = CheckReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert back == report


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_associativity_invariant_grid(n, d):
    from ptalgebra.checks import check_associativity

    report = check_associativity(n, d, triples=200)
    assert report.passed and report.max_residual < 1e-9


def test_check_irreps_reports_a_broken_image(monkeypatch):
    import ptalgebra.checks as checks

    def broken(n, d):
        reps = all_irreps(n, d)
        rep = reps[0]
        image_fn = rep._image_fn
        rep._image_fn = lambda sigma: (
            image_fn(sigma) * 1.5 if sigma.is_identity() else image_fn(sigma))
        return reps

    monkeypatch.setattr(checks, "all_irreps", broken)
    report = check_irreps(4, 2)
    assert report.passed is False and report.max_residual > 0.1
