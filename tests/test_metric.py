import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from qmsgap import harness
from qmsgap.errors import (
    DimensionMismatchError,
    IllConditionedWarning,
    NotFaithfulError,
    OrderViolationError,
    PostconditionError,
    QmsGapError,
)
from qmsgap.linalg import dag, vec
from qmsgap.metric import (
    QuadraticForm,
    eigenbasis_rotation,
    f_adjoint,
    f_gram,
    f_inner,
    f_metric,
    f_metric_table,
    f_metrics,
    _loewner_order_probes,
    f_grams,
    loewner_order_probe,
    moreau_form,
    moreau_forms,
)
from qmsgap.monotone import (
    anti_gns,
    bkm,
    builtin_functions,
    closed_form,
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
    p = f_metric(rho, gns()).eigenvalues
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
    u, p = rho.eigen.vectors, rho.eigen.values
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
    u, p = rho.eigen.vectors, rho.eigen.values
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
    assert not first.eigenvalues.flags.writeable and not first.basis.flags.writeable
    for f, m in zip(functions, metrics):
        assert m.f is f
        assert m.eigenvalues is first.eigenvalues and m.basis is first.basis
        single = f_metric(rho, f)
        for name in ("eigenvalues", "basis", "weights"):
            assert getattr(m, name).tobytes() == getattr(single, name).tobytes()
    assert f_metrics(rho, []) == []


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_eigenbasis_rotation_equals_numpy_kron(rng, d):
    metric = f_metric(random_density(rng, d), kms())
    want = np.kron(metric.basis.conj(), metric.basis)
    assert eigenbasis_rotation(metric).tobytes() == want.tobytes()


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
    form = QuadraticForm(matrix=np.eye(1, dtype=complex))
    assert moreau_form(form, 1.0, np.array([1.0])) == pytest.approx(0.5, abs=1e-14)


def test_moreau_of_zero_form():
    form = QuadraticForm(matrix=np.zeros((3, 3), dtype=complex))
    xi = np.array([1.0, 2.0, -1.0j])
    for lam in (0.3, 1.0, 7.0):
        assert moreau_form(form, lam, xi) == pytest.approx(0.0, abs=1e-14)


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
        closed = moreau_form(QuadraticForm(matrix=a), lam, xi)
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
    form = QuadraticForm(matrix=a)
    xi = random_complex(4)
    values = [moreau_form(form, lam, xi) for lam in (1.0, 0.1, 0.01, 0.001)]
    assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))
    assert values[-1] <= form(xi) + 1e-9
    assert values[-1] == pytest.approx(form(xi), rel=1e-2)


def test_moreau_needs_positive_lambda(rng, random_complex):
    form = QuadraticForm(matrix=np.eye(2, dtype=complex))
    with pytest.raises(OrderViolationError):
        moreau_form(form, 0.0, np.array([1.0, 0.0]))


def test_moreau_rejects_a_lambda_that_is_nan():
    form = QuadraticForm(matrix=np.eye(2, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OrderViolationError):
            moreau_form(form, float("nan"), np.array([1.0, 0.0]))


def test_stacked_moreau_forms_equal_one_form_at_a_time(rng, random_psd, random_complex):
    forms = [QuadraticForm(matrix=random_psd(3)) for _ in range(4)]
    xis = random_complex(4, 3)
    lams = np.exp(rng.uniform(-3, 2, (4, 5)))
    got = moreau_forms(forms, lams, xis)
    for form, row, xi, values in zip(forms, lams, xis, got):
        assert [moreau_form(form, lam, xi) for lam in row] == values.tolist()


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
    assert got == [loewner_order_probe(x, y) for x, y in zip(a, b)]


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


def test_stacked_grams_equal_one_metric_at_a_time(rng):
    metrics = f_metrics(random_density(rng, 3), builtin_functions())
    for got, metric in zip(f_grams(metrics), metrics):
        np.testing.assert_array_equal(got, f_gram(metric).matrix)


# ---------------------------------------------------------------------------
# Internal consistency of the closed-form minimizer
# ---------------------------------------------------------------------------


def test_moreau_postcondition_catches_tampering(random_psd):
    form = QuadraticForm(matrix=random_psd(3))
    # sanity: the shipped implementation satisfies its own identity
    moreau_form(form, 0.5, np.array([1.0, -1.0j, 0.5]))
    with pytest.raises(PostconditionError):
        tampered = QuadraticForm(matrix=random_psd(3))
        object.__setattr__(
            tampered, "matrix", tampered.matrix + 0.1 * np.eye(3)
        )  # break the cached eigendecomposition
        moreau_form(tampered, 0.5, np.array([1.0, -1.0j, 0.5]))


def test_metric_table_equals_one_state_at_a_time(rng):
    rhos = [random_density(rng, d) for d in (2, 3, 2, 4, 3)]
    functions = builtin_functions() + (from_measure([(0.5, 0.4), (3.0, 0.6)]),)
    table = f_metric_table(rhos, functions)
    for rho, row in zip(rhos, table):
        assert [m.f for m in row] == list(functions)
        assert all(m.basis is row[0].basis for m in row)
        for got, want in zip(row, f_metrics(rho, functions)):
            np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
            np.testing.assert_array_equal(got.basis, want.basis)
            np.testing.assert_array_equal(got.weights, want.weights)
    assert f_metric_table([], functions) == []


def test_metrics_of_one_state_share_its_kept_split(rng):
    # the state keeps its descending eigen split, so metrics of separate
    # calls carry the same read-only arrays (which is how the gap routines
    # recognize one state)
    rho = random_density(rng, 3)
    first, second = f_metric(rho, kms()), f_metric(rho, kms())
    assert first.eigenvalues is second.eigenvalues
    assert first.basis is second.basis
    (other,) = f_metric_table([rho], [bkm()])[0]
    assert other.eigenvalues is first.eigenvalues and other.basis is first.basis
    assert not first.eigenvalues.flags.writeable and not first.basis.flags.writeable
    assert f_metric(random_density(rng, 3), kms()).basis is not first.basis


def test_f_that_is_not_entrywise_is_named():
    rho = diag_state(0.7, 0.3)
    flat = closed_form(lambda t: 1.0, name="flat")
    with pytest.raises(DimensionMismatchError, match=r"flat gives shape \(\)"):
        f_metrics(rho, [kms(), flat])
    with pytest.raises(DimensionMismatchError, match="flat"):
        f_metric_table([rho, diag_state(0.4, 0.6)], [flat])
