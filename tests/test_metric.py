import dataclasses
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from qmsgap import harness, metric
from qmsgap.errors import (
    DimensionMismatchError,
    IllConditionedWarning,
    NotFaithfulError,
    NotPSDError,
    OrderViolationError,
    PostconditionError,
    QmsGapError,
)
from qmsgap.linalg import dag, vec
from qmsgap.metric import (
    FMetric,
    f_adjoint,
    f_gram,
    f_inner,
    f_metric,
    f_metric_table,
    f_metrics,
    _loewner_order_probes,
    loewner_order_probe,
    moreau_form,
    moreau_forms,
)
from qmsgap.monotone import (
    anti_gns,
    bkm,
    builtin_functions,
    from_measure,
    gns,
    kms,
    power,
    transpose,
)
from qmsgap.qms import Superoperator, density_matrix, random_density

from references import psd_function


def diag_state(*populations):
    return density_matrix(np.diag(np.asarray(populations, dtype=complex)))


# ---------------------------------------------------------------------------
# Weights and inner products
# ---------------------------------------------------------------------------


def test_weight_closed_forms(rng):
    rho = random_density(rng, 4)
    p = f_metric(rho, gns()).state.eigenvalues
    np.testing.assert_allclose(
        f_metric(rho, gns()).weights, np.tile(p, (4, 1)), atol=1e-12
    )
    np.testing.assert_allclose(
        f_metric(rho, anti_gns()).weights, np.tile(p[:, None], (1, 4)), atol=1e-12
    )
    np.testing.assert_allclose(
        f_metric(rho, kms()).weights, np.sqrt(np.outer(p, p)), atol=1e-12
    )
    logs = np.log(p)
    with np.errstate(invalid="ignore"):
        expected_bkm = (p[:, None] - p[None, :]) / (logs[:, None] - logs[None, :])
    np.fill_diagonal(expected_bkm, p)
    np.testing.assert_allclose(f_metric(rho, bkm()).weights, expected_bkm, atol=1e-12)


def test_transpose_weights_are_transposed(rng):
    rho = random_density(rng, 3)
    for f in builtin_functions():
        w = f_metric(rho, f).weights
        wt = f_metric(rho, transpose(f)).weights
        np.testing.assert_allclose(wt, w.T, atol=1e-10 * w.max())


def test_gns_inner_product_is_trace_form(rng, random_complex):
    rho = random_density(rng, 3)
    metric = f_metric(rho, gns())
    for _ in range(10):
        x, y = random_complex(3, 3), random_complex(3, 3)
        direct = np.trace(dag(x) @ y @ rho.rho)
        assert abs(f_inner(metric, x, y) - direct) <= 1e-11 * max(1, abs(direct))


def test_kms_inner_product_closed_form(rng, random_complex):
    rho = random_density(rng, 4)
    metric = f_metric(rho, kms())
    u, p = rho.basis, rho.eigenvalues
    root = (u * np.sqrt(p)) @ dag(u)
    for _ in range(10):
        x, y = random_complex(4, 4), random_complex(4, 4)
        direct = np.trace(dag(x) @ root @ y @ root)
        assert abs(f_inner(metric, x, y) - direct) <= 1e-11 * max(1, abs(direct))


def test_bkm_inner_product_matches_quadrature(rng, random_complex):
    # 64-point Gauss-Legendre quadrature of the integral of
    # tr(x^H rho^s y rho^(1-s)) over s in [0, 1]
    rho = random_density(rng, 3)
    metric = f_metric(rho, bkm())
    u, p = rho.basis, rho.eigenvalues
    nodes, weights = np.polynomial.legendre.leggauss(64)
    s_nodes, s_weights = (nodes + 1.0) / 2.0, weights / 2.0
    for _ in range(10):
        x, y = random_complex(3, 3), random_complex(3, 3)
        direct = sum(
            w * np.trace(dag(x) @ (u * p**s) @ dag(u) @ y @ (u * p ** (1 - s)) @ dag(u))
            for s, w in zip(s_nodes, s_weights)
        )
        assert abs(f_inner(metric, x, y) - direct) <= 1e-9 * max(1, abs(direct))


def test_f_inner_is_sesquilinear_and_positive(rng, random_complex):
    rho = random_density(rng, 3)
    metric = f_metric(rho, bkm())
    x, y, z = (random_complex(3, 3) for _ in range(3))
    a = 0.7 - 0.2j
    lhs = f_inner(metric, x, a * y + z)
    rhs = a * f_inner(metric, x, y) + f_inner(metric, x, z)
    assert abs(lhs - rhs) <= 1e-11
    lhs = f_inner(metric, a * x, y)
    rhs = np.conj(a) * f_inner(metric, x, y)
    assert abs(lhs - rhs) <= 1e-11
    assert f_inner(metric, x, x).real > 0


def _f_norm(metric, x):
    return float(np.sqrt(f_inner(metric, x, x).real))


def test_anti_gns_norm_is_swapped_trace(rng, random_complex):
    # |x|_id^2 = tr(rho x x^H)
    rho = random_density(rng, 3)
    metric = f_metric(rho, anti_gns())
    for _ in range(10):
        x = random_complex(3, 3)
        direct = np.trace(rho.rho @ x @ dag(x)).real
        assert abs(_f_norm(metric, x) ** 2 - direct) <= 1e-10 * max(1, direct)


def test_star_transpose_norm_identity(rng, random_complex):
    # |x^H|_f = |x|_{f~}
    rho = random_density(rng, 3)
    for f in builtin_functions():
        metric = f_metric(rho, f)
        metric_t = f_metric(rho, transpose(f))
        for _ in range(5):
            x = random_complex(3, 3)
            assert abs(_f_norm(metric, dag(x)) - _f_norm(metric_t, x)) <= 1e-10


# ---------------------------------------------------------------------------
# Gram superoperators and adjoints
# ---------------------------------------------------------------------------


def test_f_metrics_share_one_split_and_equal_f_metric(rng):
    rho = random_density(rng, 4)
    functions = builtin_functions()
    metrics = f_metrics(rho, functions)
    first = metrics[0]
    for name in ("eigenvalues", "basis", "rotation"):
        assert not getattr(first.state, name).flags.writeable
    for f, m in zip(functions, metrics):
        assert m.f is f
        assert m.state.eigenvalues is first.state.eigenvalues
        assert m.state.basis is first.state.basis
        assert m.state.rotation is first.state.rotation
        single = f_metric(rho, f)
        for name in ("eigenvalues", "basis", "rotation"):
            want = getattr(single.state, name)
            assert getattr(m.state, name).tobytes() == want.tobytes()
        assert m.weights.tobytes() == single.weights.tobytes()
    assert f_metrics(rho, []) == []


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_eigenbasis_rotation_equals_numpy_kron(rng, d):
    # the state's W, formed on first use, is np.kron's bit for bit
    metric = f_metric(random_density(rng, d), kms())
    want = np.kron(metric.state.basis.conj(), metric.state.basis)
    assert metric.state.rotation.tobytes() == want.tobytes()
    assert not metric.state.rotation.flags.writeable


def test_gram_of_trace_state_is_half_identity():
    rho = diag_state(0.5, 0.5)
    for f in builtin_functions():
        np.testing.assert_allclose(
            f_gram(f_metric(rho, f)).matrix, np.eye(4) / 2.0, atol=1e-12
        )


def test_gns_gram_is_right_multiplication(rng):
    rho = random_density(rng, 3)
    gram = f_gram(f_metric(rho, gns()))
    np.testing.assert_allclose(
        gram.matrix, np.kron(rho.rho.T, np.eye(3)), atol=1e-11
    )


def test_gram_is_positive_definite(rng):
    for _ in range(50):
        rho = random_density(rng, int(rng.integers(2, 5)))
        gram = f_gram(f_metric(rho, bkm()))
        assert np.linalg.eigvalsh(gram.matrix).min() > 0


def test_gram_reproduces_inner_product(rng, random_complex):
    rho = random_density(rng, 3)
    for f in (kms(), power(0.25)):
        metric = f_metric(rho, f)
        gram = f_gram(metric)
        x, y = random_complex(3, 3), random_complex(3, 3)
        via_gram = vec(x).conj() @ gram.matrix @ vec(y)
        assert abs(via_gram - f_inner(metric, x, y)) <= 1e-11


def test_gram_sandwich(rng):
    # f <= t + 1 transported through the Gram construction:
    # G_f <= G_gns + G_anti-gns
    for _ in range(20):
        rho = random_density(rng, int(rng.integers(2, 5)))
        total = (
            f_gram(f_metric(rho, gns())).matrix
            + f_gram(f_metric(rho, anti_gns())).matrix
        )
        for f in builtin_functions():
            diff = total - f_gram(f_metric(rho, f)).matrix
            assert np.linalg.eigvalsh((diff + dag(diff)) / 2.0).min() >= -1e-9


def test_f_adjoint_of_identity(rng):
    rho = random_density(rng, 3)
    metric = f_metric(rho, bkm())
    adj = f_adjoint(metric, Superoperator.identity(3))
    np.testing.assert_allclose(adj.matrix, np.eye(9), atol=1e-11)


def test_f_adjoint_reduces_to_conjugate_transpose(rng, random_complex):
    rho = diag_state(*[1 / 3.0] * 3)
    metric = f_metric(rho, kms())
    mat = random_complex(9, 9)
    adj = f_adjoint(metric, Superoperator(dim=3, matrix=mat))
    np.testing.assert_allclose(adj.matrix, dag(mat), atol=1e-11)


def test_f_adjoint_property(rng, random_complex):
    rho = random_density(rng, 3)
    mat = random_complex(9, 9)
    s = Superoperator(dim=3, matrix=mat)
    for f in (gns(), kms(), power(0.7)):
        metric = f_metric(rho, f)
        adj = f_adjoint(metric, s)
        for _ in range(5):
            x, y = random_complex(3, 3), random_complex(3, 3)
            lhs = f_inner(metric, adj.apply(x), y)
            rhs = f_inner(metric, x, s.apply(y))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


@pytest.mark.parametrize(
    "call",
    [
        lambda m: f_adjoint(m, Superoperator.identity(2)),
        lambda m: f_inner(m, np.eye(2), np.eye(3)),
        lambda m: f_inner(m, np.eye(3, 2), np.eye(3)),
        lambda m: f_inner(m, np.ones(9), np.eye(3)),
    ],
    ids=["adjoint", "inner-y", "inner-x-not-square", "inner-x-flat"],
)
def test_input_of_another_dimension_is_named(rng, call):
    # as f_operator_norm names it, not as a numpy matmul error
    metric = f_metric(random_density(rng, 3), kms())
    with pytest.raises(DimensionMismatchError, match="metric of dimension 3 for a"):
        call(metric)


def test_f_adjoint_warns_when_ill_conditioned():
    rho = density_matrix(
        np.diag([1.0 - 2e-13, 1e-13, 1e-13]), faithfulness_threshold=1e-16
    )
    metric = f_metric(rho, gns())
    with pytest.warns(IllConditionedWarning):
        f_adjoint(metric, Superoperator.identity(3))


# ---------------------------------------------------------------------------
# Moreau regularization
# ---------------------------------------------------------------------------


def test_moreau_scalar_value():
    assert moreau_form(np.eye(1), 1.0, np.array([1.0])) == pytest.approx(0.5, abs=1e-14)


def test_moreau_of_zero_form():
    xi = np.array([1.0, 2.0, -1.0j])
    for lam in (0.3, 1.0, 7.0):
        assert moreau_form(np.zeros((3, 3)), lam, xi) == pytest.approx(0.0, abs=1e-14)


def _descend(a, lam, xi):
    """Independent oracle: L-BFGS descent on Q(eta) + |xi - eta|^2 / lam."""
    n = xi.size

    def objective(z):
        eta = z[:n] + 1j * z[n:]
        diff = xi - eta
        val = float(np.real(eta.conj() @ a @ eta)) + float(
            np.real(diff.conj() @ diff)
        ) / lam
        grad = 2.0 * (a @ eta) - 2.0 * diff / lam
        return val, np.concatenate([grad.real, grad.imag])

    res = minimize(
        objective,
        np.concatenate([xi.real, xi.imag]),
        jac=True,
        method="L-BFGS-B",
        options={"gtol": 1e-14, "ftol": 1e-16, "maxiter": 2000},
    )
    return float(res.fun)


def test_moreau_matches_direct_minimization(rng, random_complex):
    for _ in range(10):
        z = random_complex(3, 3)
        a = z @ dag(z) / 3.0
        xi = random_complex(3)
        xi /= np.linalg.norm(xi)
        lam = float(np.exp(rng.uniform(-2, 2)))
        closed = moreau_form(a, lam, xi)
        assert abs(closed - _descend(a, lam, xi)) <= 1e-8 * max(1.0, closed)


def test_exact_moreau_oracle_matches_the_descent(rng, random_complex):
    # the campaign's oracle solves (A + 1/lam) eta = xi / lam; the L-BFGS
    # descent above is the reference it replaced
    for _ in range(20):
        d = int(rng.integers(2, 6))
        z = random_complex(d, d)
        a = z @ dag(z) / d
        xi = random_complex(d)
        xi /= np.linalg.norm(xi)
        lam = float(np.exp(rng.uniform(np.log(1e-2), np.log(10.0))))
        (value,), (eta,) = harness._minimize_moreau(a[None], [lam], xi[None])
        want = _descend(a, lam, xi)
        assert abs(value - want) <= 1e-10 * abs(want)
        gradient = 2.0 * (a @ eta) - 2.0 * (xi - eta) / lam
        assert np.linalg.norm(gradient) <= 1e-12


def test_moreau_increases_to_the_form(rng, random_complex):
    z = random_complex(4, 4)
    a = z @ dag(z) / 4.0
    xi = random_complex(4)
    form = float(np.vdot(xi, a @ xi).real)  # Q(xi) = <xi, A xi>
    values = [moreau_form(a, lam, xi) for lam in (1.0, 0.1, 0.01, 0.001)]
    assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))
    assert values[-1] <= form + 1e-9
    assert values[-1] == pytest.approx(form, rel=1e-2)


def test_moreau_needs_positive_lambda(rng, random_complex):
    with pytest.raises(OrderViolationError):
        moreau_form(np.eye(2), 0.0, np.array([1.0, 0.0]))


def test_moreau_rejects_a_lambda_that_is_nan():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OrderViolationError):
            moreau_form(np.eye(2), float("nan"), np.array([1.0, 0.0]))


def test_stacked_moreau_forms_equal_one_form_at_a_time(rng, random_psd, random_complex):
    a = np.array([random_psd(3) for _ in range(4)])
    xis = random_complex(4, 3)
    lams = np.exp(rng.uniform(-3, 2, (4, 5)))
    got = moreau_forms(a, lams, xis)
    for m, row, xi, values in zip(a, lams, xis, got):
        assert [moreau_form(m, lam, xi) for lam in row] == values.tolist()


def test_moreau_rejects_a_matrix_that_is_not_psd(random_psd):
    a = np.array([random_psd(3) for _ in range(3)])
    a[1] = -(random_psd(3) + 0.1 * np.eye(3))  # every eigenvalue <= -0.1
    xis, lams = np.ones((3, 3)), np.ones((3, 1))
    with pytest.raises(NotPSDError, match="quadratic form requires a PSD matrix"):
        moreau_forms(a, lams, xis)
    with pytest.raises(NotPSDError, match="quadratic form requires a PSD matrix"):
        moreau_form(a[1], 1.0, xis[1])
    moreau_forms(a[[0, 2]], lams[:2], xis[:2])  # the PSD ones pass


def test_moreau_forms_decomposes_a_stack_with_one_herm_eigs(monkeypatch, rng, random_psd):
    a = np.array([random_psd(3) for _ in range(4)])
    calls = []
    real = metric.herm_eigs

    def counted(x):
        calls.append(x.shape)
        return real(x)

    monkeypatch.setattr(metric, "herm_eigs", counted)
    moreau_forms(a, np.exp(rng.uniform(-3, 2, (4, 5))), np.ones((4, 3)))
    assert calls == [(4, 3, 3)]


# ---------------------------------------------------------------------------
# Loewner order probe
# ---------------------------------------------------------------------------


def test_order_probe_equal_matrices(random_psd):
    a = random_psd(3)
    report = loewner_order_probe(a, a)
    assert abs(report.base_margin) <= 1e-10
    for _, margin in report.resolvent_margins + report.function_margins:
        assert margin >= -1e-9


def test_order_probe_scalar_case():
    report = loewner_order_probe(np.eye(3), 2.0 * np.eye(3))
    for label, margin in report.function_margins:
        assert margin >= -1e-12  # f(2) >= f(1) = 1 for monotone f


def test_order_probe_random_pairs(rng, random_complex):
    for _ in range(10):
        z1, z2 = random_complex(4, 4), random_complex(4, 4)
        a = z1 @ dag(z1) / 4.0
        b = a + z2 @ dag(z2) / 4.0
        loewner_order_probe(a, b)


def test_order_probe_decomposes_each_operand_once(monkeypatch, random_psd):
    a = random_psd(4)
    b = a + random_psd(4)
    want = []
    for f in builtin_functions():
        diff = psd_function(b, f) - psd_function(a, f)
        want.append(float(np.linalg.eigvalsh((diff + dag(diff)) / 2.0)[0]))
    calls = []
    eigh = np.linalg.eigh

    def counted(x, *args, **kwargs):
        calls.append(x)
        return eigh(x, *args, **kwargs)

    norm = np.linalg.norm

    def no_two_norm(x, ord=None, *args, **kwargs):
        # the 2-norm of f(B), an SVD, is read off the spectrum of B instead
        assert ord != 2, "2-norm taken"
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(np.linalg, "norm", no_two_norm)
    report = loewner_order_probe(a, b)
    assert len(calls) == 2
    assert [m for _, m in report.function_margins] == want


def test_order_probe_rejects_wrong_order():
    with pytest.raises(OrderViolationError):
        loewner_order_probe(2.0 * np.eye(2), np.eye(2))


@pytest.mark.parametrize("floor", [float("nan"), float("inf"), -1.0])
def test_order_probe_rejects_a_floor_that_is_not_finite_and_nonnegative(floor):
    a, b = np.diag([1.0, 0.0]), np.array([[2.0, 1.0], [1.0, 1.0]])
    loewner_order_probe(a, b)  # a valid pair: A <= B
    with pytest.raises(QmsGapError, match="order floor must be finite") as info:
        loewner_order_probe(a, b, floor=floor)
    assert not isinstance(info.value, OrderViolationError)


def _order_pairs(random_psd, d, n):
    a = np.array([random_psd(d) for _ in range(n)])
    return a, a + np.array([random_psd(d) for _ in range(n)])


@pytest.mark.parametrize("d", [2, 3, 5])
def test_stacked_order_probes_equal_one_pair_at_a_time(random_psd, d):
    a, b = _order_pairs(random_psd, d, 6)
    got = _loewner_order_probes(a, b, 1e-9)
    assert got.shape == (6, 14)
    for row, x, y in zip(got.tolist(), a, b):
        report = loewner_order_probe(x, y)
        margins = report.resolvent_margins + report.function_margins
        assert row == [report.base_margin] + [m for _, m in margins]


@pytest.mark.parametrize(
    "first, later",
    [
        (lambda a, b: (b, a), lambda a, b: (2.0 * b, a)),  # precondition A <= B
        (lambda a, b: (a, -b), lambda a, b: (2.0 * b, a)),  # B not PSD
    ],
)
def test_stacked_order_probes_raise_the_error_of_the_first_failing_pair(
    random_psd, first, later
):
    a, b = _order_pairs(random_psd, 3, 5)
    a[1], b[1] = first(a[1].copy(), b[1].copy())
    a[3], b[3] = later(a[3].copy(), b[3].copy())
    with pytest.raises(QmsGapError) as want:
        loewner_order_probe(a[1], b[1])
    with pytest.raises(type(want.value)) as got:
        _loewner_order_probes(a, b, 1e-9)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# Internal consistency of the closed-form minimizer
# ---------------------------------------------------------------------------


def test_moreau_postcondition_catches_tampering(monkeypatch, random_psd):
    a, xi = random_psd(3), np.array([1.0, -1.0j, 0.5])
    # sanity: the shipped implementation satisfies its own identity
    moreau_form(a, 0.5, xi)
    real = metric.herm_eigs

    def shifted(x):  # eigendata of x + 0.1, not of x
        values, vectors, rebuilt = real(x)
        return values + 0.1, vectors, rebuilt

    monkeypatch.setattr(metric, "herm_eigs", shifted)
    with pytest.raises(PostconditionError):
        moreau_form(a, 0.5, xi)


def test_metrics_of_one_state_point_at_it(rng):
    rho = random_density(rng, 3)
    row = f_metrics(rho, (gns(), kms())) + f_metric_table([rho], (bkm(),))[0]
    assert all(m.state is rho for m in row + [f_metric(rho, kms())])
    twin = density_matrix(rho.rho)  # equal arrays, another state
    assert f_metric(twin, kms()).state is twin and row[0].dim == 3
    assert [f.name for f in dataclasses.fields(FMetric)] == ["f", "state", "weights"]


def test_metric_table_equals_one_state_at_a_time(rng):
    rhos = [random_density(rng, d) for d in (2, 3, 2, 4, 3)]
    functions = builtin_functions() + (from_measure([(0.5, 0.4), (3.0, 0.6)]),)
    table = f_metric_table(rhos, functions)
    for rho, row in zip(rhos, table):
        assert [m.f for m in row] == list(functions)
        assert all(m.state.basis is row[0].state.basis for m in row)
        for got, want in zip(row, f_metrics(rho, functions)):
            np.testing.assert_array_equal(got.state.eigenvalues, want.state.eigenvalues)
            np.testing.assert_array_equal(got.state.basis, want.state.basis)
            np.testing.assert_array_equal(got.weights, want.weights)
    assert f_metric_table([], functions) == []


def test_metrics_of_one_state_share_its_kept_split(rng):
    # metrics of separate calls point at the one state, so they read the
    # same read-only arrays (and the gap routines recognize the state)
    rho = random_density(rng, 3)
    first, second = f_metric(rho, kms()), f_metric(rho, kms())
    (other,) = f_metric_table([rho], [bkm()])[0]
    for name in ("eigenvalues", "basis", "rotation"):
        assert (getattr(first.state, name) is getattr(second.state, name)
                is getattr(other.state, name))
        assert not getattr(first.state, name).flags.writeable
    stranger = f_metric(random_density(rng, 3), kms())
    assert stranger.state.basis is not first.state.basis
    assert stranger.state.rotation is not first.state.rotation
