"""Acceptance suite: every certification criterion at its stated scale.

One campaign sized by acceptance_config (seed 42, 200 random models at
d in {2, 3, 4}, the full power/KMS/BKM suite) drives twelve criteria;
each test asserts its property and prints a pass/fail line with the worst
observed defect measured in units of the criterion tolerance.
"""

import time

import pytest

from qmsgap.harness import acceptance_config, run_campaign

from references import property_result

_ELAPSED = {}


@pytest.fixture(scope="module")
def report():
    cfg = acceptance_config(seed=42)
    start = time.perf_counter()
    result = run_campaign(cfg)
    _ELAPSED["total"] = time.perf_counter() - start
    return result


def _check(report, number, name, title, n_cases=None):
    result = property_result(report, name)
    verdict = "PASS" if result.passed else "FAIL"
    print(
        f"ACCEPTANCE {number:02d} {title}: {verdict} "
        f"(cases={result.n_cases}, worst defect={result.worst_defect:.3g} "
        f"of tolerance {result.tolerance:.1e})"
    )
    if n_cases is not None:
        assert result.n_cases == n_cases
    assert result.passed
    return result


def test_01_gap_comparison(report):
    # lambda_f >= lambda_gns - 1e-7 max(1, lambda_gns) over 200 models,
    # d in {2,3,4}, f in {t^0, t^0.1, ..., t^1, sqrt t, (t-1)/log t}
    _check(report, 1, "gap_comparison", "gap comparison", n_cases=200)
    assert _ELAPSED["total"] < 120.0  # single-threaded runtime budget


def test_02_contractivity(report):
    # f-operator norm of Phi_t <= 1 + 1e-8 on the same models, t in {0.1, 1, 10}
    _check(report, 2, "contractivity", "contractivity", n_cases=200)


def test_03_decay_equivalence(report):
    # decay rate of |Phi_t|_f on ker E, extrapolated to t = 0, matches the
    # eigenvalue gap to 1e-6 relative, on models of every configured dim
    result = _check(report, 3, "decay_equivalence", "decay equivalence", n_cases=20)
    assert {c.dim for c in result.cases} == set(report.config.dims)


def test_04_transpose_symmetry(report):
    # |lambda_f - lambda_f~| <= 1e-7 max(1, lambda_f) on 50 models
    _check(report, 4, "transpose_symmetry", "transpose symmetry", n_cases=50)


def test_05_alpha_curve(report):
    # power-family curve nondecreasing on [0, 1/2] and symmetric about 1/2
    _check(report, 5, "alpha_curve", "alpha-curve structure", n_cases=50)


def test_06_moreau_identity(report):
    # closed form vs direct minimization within 1e-8 on 50 triples, d <= 5
    _check(report, 6, "moreau_identity", "Moreau identity", n_cases=50)


def test_07_om1_bounds(report):
    # f(t) <= t + 1 for every suite member; Gram sandwich on 50 states
    result = _check(report, 7, "om1_bounds", "normalized monotone bounds")
    suite_cases = [c for c in result.cases if c.case_id.startswith("bounds")]
    sandwich_cases = [c for c in result.cases if c.case_id.startswith("sandwich")]
    assert len(suite_cases) == 13
    assert len(sandwich_cases) == 50


def test_08_loewner_order(report):
    # A <= B propagates to resolvents and to f(A) <= f(B), 50 pairs
    _check(report, 8, "loewner_order", "Loewner order stability", n_cases=50)


def test_09_metric_closed_forms(report):
    # KMS matches its trace form to 1e-11 and BKM its quadrature to 1e-9
    _check(report, 9, "metric_closed_forms", "metric closed forms", n_cases=100)


def test_10_detailed_balance_collapse(report):
    # balanced models: all f-gaps within 1e-7 * lambda_gns of each other
    _check(
        report, 10, "detailed_balance_collapse", "detailed-balance collapse",
        n_cases=20,
    )


def test_11_strict_gap_exists(report):
    # 500 draws at d = 2 find lambda_kms - lambda_gns > 1e-3 lambda_gns
    result = _check(report, 11, "strict_gap", "strict inequality exists")
    assert result.cases[0].case_id == "search-500draws"


def test_strict_gap_ratio_is_not_set_by_round_off(report):
    # draws with an exact zero GNS gap (single-jump d = 2 models) are
    # skipped even when round-off makes that gap positive, so the largest
    # separation is a real one (5.1 at seed 42, not a rounded zero's 1e16)
    result = property_result(report, "strict_gap")
    max_ratio = result.tolerance / result.cases[0].defect
    assert result.tolerance < max_ratio < 1e3


def test_12_degenerate_ground_state(report):
    # block models with dim N > 1: comparison and contractivity on ker E
    _check(report, 12, "degenerate_gap", "degenerate ground state", n_cases=10)


def test_report_is_fully_green(report):
    assert report.all_passed
    print(report.render_text())
