import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmsgap.errors import (
    BoundViolationError,
    NegativeArgumentError,
    QmsGapError,
)
from qmsgap.monotone import (
    anti_gns,
    bkm,
    builtin_functions,
    check_om1_bounds,
    closed_form,
    from_measure,
    gns,
    h_kernel,
    kms,
    power,
    transpose,
)

positive_t = st.floats(min_value=1e-8, max_value=1e8)


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
    with pytest.raises(NegativeArgumentError):
        h_kernel(1.0, -2.0)


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
    with pytest.raises(QmsGapError):
        closed_form(lambda t: 2.0 * np.ones_like(t))  # f(1) != 1


def test_transpose_named_mappings():
    assert transpose(gns()).kind == "anti-gns"
    assert transpose(anti_gns()).kind == "gns"
    assert transpose(kms()).kind == "kms"
    assert transpose(bkm()).kind == "bkm"
    t = transpose(power(0.3))
    assert t.kind == "power" and abs(t.alpha - 0.7) < 1e-15


@settings(max_examples=30, deadline=None)
@given(t=positive_t)
def test_transpose_is_an_involution(t):
    for f in builtin_functions():
        twice = transpose(transpose(f))
        assert abs(twice(t) - f(t)) <= 1e-10 * max(abs(f(t)), 1e-300)


@settings(max_examples=30, deadline=None)
@given(t=positive_t)
def test_transpose_formula(t):
    for f in builtin_functions():
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
    for f in builtin_functions():
        check_om1_bounds(f)


def test_om1_bounds_reject_square():
    square = closed_form(lambda t: t**2, name="square")
    with pytest.raises(BoundViolationError):
        check_om1_bounds(square)


def test_measure_weights_must_sum_to_one():
    with pytest.raises(QmsGapError):
        from_measure([(0.0, 0.4), (1.0, 0.4)])
