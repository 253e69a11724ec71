import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmsgap.errors import (
    BoundViolationError,
    NegativeArgumentError,
    PostconditionError,
    QmsGapError,
)
from qmsgap import monotone
from qmsgap.gap import gap_sweep
from qmsgap.metric import f_metric, f_metrics
from qmsgap.monotone import (
    MonotoneFunction,
    anti_gns,
    bkm,
    builtin_functions,
    check_om1_bounds,
    from_measure,
    gns,
    h_kernel,
    kms,
    power,
    transpose,
)
from qmsgap.qms import density_matrix, invariant_state, thermal_qubit

from references import bkm_masked

positive_t = st.floats(min_value=1e-8, max_value=1e8)

# discrete Loewner measures with a 0 atom, an inf atom and finite atoms,
# whose transposes are the pushforwards under lam -> 1/lam
MEASURES = (
    from_measure([(0.0, 0.25), (49.0, 0.5), (math.inf, 0.25)]),
    from_measure([(0.0, 0.3), (0.2, 0.7)]),
    from_measure([(1.0 / 3.0, 0.4), (math.inf, 0.6)]),
    from_measure([(1e-3, 0.5), (7.0, 0.5)]),
)


def test_h_kernel_endpoints():
    for t in (0.0, 0.3, 1.0, 42.0):
        assert h_kernel(t, 0.0) == 1.0
        assert h_kernel(t, math.inf) == t


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(min_value=0.0, max_value=1e6))
def test_h_kernel_normalized_at_one(lam):
    assert abs(h_kernel(1.0, lam) - 1.0) <= 1e-14


def test_h_kernel_rejects_negative():
    with pytest.raises(NegativeArgumentError):
        h_kernel(-1.0, 2.0)
    for lam in (-2.0, math.nan):
        with pytest.raises(NegativeArgumentError):
            h_kernel(1.0, lam)


def test_h_kernel_is_normalized_monotone():
    # each kernel slice is itself a normalized operator monotone function
    grid = np.geomspace(1e-6, 1e6, 121)
    for lam in (0.0, 1e-3, 1.0, 50.0, math.inf):
        vals = h_kernel(grid, lam)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(vals <= grid + 1.0 + 1e-9)


def test_eval_named_values():
    assert kms()(4.0) == 2.0
    assert bkm()(1.0) == 1.0
    assert bkm()(0.0) == 0.0
    assert anti_gns()(7.5) == 7.5
    assert gns()(123.0) == 1.0


def test_bkm_taylor_branch_is_smooth():
    f = bkm()
    for s in (1e-9, -1e-9, 5e-9):
        # (t-1)/log t = 1 + s/2 - s^2/12 + O(s^3)
        assert abs(f(1.0 + s) - (1.0 + s / 2.0)) < 1e-12


def test_bkm_matches_the_masked_reference_bit_for_bit():
    rng = np.random.default_rng(5)
    edges = [0.0, 5e-324, 1e-300, 1.0, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 + 2e-16,
             1.0 - 1e-16, 1e-8, 1e300]
    t = np.concatenate([
        edges,
        np.exp(rng.uniform(-700.0, 690.0, 20_000)),
        1.0 + rng.uniform(-1e-7, 1e-7, 20_000),
    ])
    assert np.array_equal(bkm()(t), bkm_masked(t))
    stack = t[:450].reshape(50, 3, 3)  # the shape of stacked modular ratios
    assert np.array_equal(bkm()(stack), bkm_masked(stack))


def test_point_mass_at_zero_is_gns():
    f = from_measure([(0.0, 1.0)])
    assert f(7.0) == 1.0
    np.testing.assert_allclose(f(np.geomspace(1e-3, 1e3, 10)), 1.0)


def test_normalization_of_builtins():
    for f in builtin_functions():
        assert abs(f(1.0) - 1.0) <= 1e-12


def test_power_domain_is_validated():
    with pytest.raises(QmsGapError):
        power(-0.1)
    with pytest.raises(QmsGapError):
        power(1.5)


def test_closed_form_is_an_unknown_kind():
    # every function is a named member or a discrete Loewner measure, so
    # operator monotone by construction; there is no arbitrary evaluator
    with pytest.raises(QmsGapError, match="unknown monotone function kind"):
        MonotoneFunction(kind="closed-form")


def test_transpose_named_mappings():
    assert transpose(gns()).kind == "anti-gns"
    assert transpose(anti_gns()).kind == "gns"
    assert transpose(kms()).kind == "kms"
    assert transpose(bkm()).kind == "bkm"
    t = transpose(power(0.3))
    assert t.kind == "power" and abs(t.alpha - 0.7) < 1e-15
    # a measure goes to its atoms' pushforward under lam -> 1/lam, and back
    # only up to round-off: 1 / (1 / 49) != 49 in floating point
    pairs = [(transpose(MEASURES[0]), [(math.inf, 0.25), (1.0 / 49.0, 0.5), (0.0, 0.25)])]
    pairs += [(transpose(transpose(f)), f.atoms) for f in MEASURES]
    for got, want in pairs:
        assert got.kind == "measure" and len(got.atoms) == len(want)
        for (lam, w), (lam_want, w_want) in zip(got.atoms, want):
            assert lam == pytest.approx(lam_want, rel=1e-15, abs=0.0) and w == w_want


@settings(max_examples=30, deadline=None)
@given(t=positive_t)
def test_transpose_is_an_involution(t):
    for f in builtin_functions() + MEASURES:
        twice = transpose(transpose(f))
        assert abs(twice(t) - f(t)) <= 1e-10 * max(abs(f(t)), 1e-300)


@settings(max_examples=30, deadline=None)
@given(t=positive_t)
def test_transpose_formula(t):
    for f in builtin_functions() + MEASURES:
        assert abs(transpose(f)(t) - t * f(1.0 / t)) <= 1e-10 * max(
            t * f(1.0 / t), 1e-300
        )


@settings(max_examples=30, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=1e8))
def test_om1_upper_bound(t):
    for f in builtin_functions():
        assert f(t) <= t + 1.0 + 1e-9


def test_om1_bounds_kms_margin():
    report = check_om1_bounds(kms())
    # independent grid evaluation of min(t + 1 - sqrt(t))
    grid = np.geomspace(1e-6, 1e6, 241)
    expected = np.min(grid + 1.0 - np.sqrt(grid))
    assert abs(report.upper_margin - expected) <= 1e-12
    assert report.upper_margin == pytest.approx(0.75, abs=1e-3)


def test_om1_bounds_pass_for_builtins():
    for f in builtin_functions() + MEASURES:
        check_om1_bounds(f)


def test_om1_bounds_reject_square():
    # the probe only calls f on its grid, so a plain callable reaches it
    with pytest.raises(BoundViolationError):
        check_om1_bounds(lambda t: t**2)


@pytest.mark.parametrize(
    "atoms",
    [[(1.0, math.nan)], [(math.nan, 1.0)], [(-math.inf, 1.0)], [(1.0, math.inf)],
     [(0.0, 0.5), (1.0, -0.5), (2.0, 1.0)], [(0.0, 0.5), (math.nan, 0.5)]],
)
def test_from_measure_rejects_each_bad_atom(atoms):
    with pytest.raises(QmsGapError):
        from_measure(atoms)


def test_infinite_atom_is_allowed():
    assert from_measure([(math.inf, 1.0)])(3.0) == 3.0


def test_closed_form_giving_nan_fails_its_checks(monkeypatch):
    # BKM's closed form (t - 1) / log t, broken to give NaN: the weight
    # table's positivity postcondition names it
    monkeypatch.setattr(monotone, "_bkm_values", lambda t: np.full_like(t, math.nan))
    rho = density_matrix(np.diag([0.3, 0.7]).astype(complex))
    with pytest.raises(PostconditionError, match="strictly positive"):
        f_metric(rho, bkm())


def test_each_measure_has_its_own_label():
    assert from_measure([(0.5, 0.4), (math.inf, 0.6)]).label == "measure(0.5:0.4;inf:0.6)"
    labels = [f.label for f in MEASURES]
    assert len(set(labels)) == len(labels)
    assert not any("," in label for label in labels)  # CSV case ids are unquoted
    model = thermal_qubit(0.3, 0.9)
    rho = invariant_state(model)
    reports = gap_sweep(model, rho, f_metrics(rho, MEASURES))
    assert [r.f_label for r in reports] == labels


def test_measure_weights_must_sum_to_one():
    with pytest.raises(QmsGapError):
        from_measure([(0.0, 0.4), (1.0, 0.4)])
