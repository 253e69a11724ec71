import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmsgap.errors import (
    DimensionMismatchError,
    FunctionDomainError,
    NotHermitianError,
    NotPSDError,
)
from qmsgap.linalg import (
    Superoperator,
    choi_matrix,
    expm,
    herm_eigs,
    kron,
    unvec,
    vec,
)

from references import psd_function

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _herm_eig(a):
    """herm_eigs of the stack of one matrix: its values and vectors."""
    values, vectors, _ = herm_eigs(np.asarray(a, dtype=complex)[None])
    return values[0], vectors[0]


def test_herm_eig_identity():
    values, _ = _herm_eig(np.eye(2))
    np.testing.assert_allclose(values, [1.0, 1.0])


def test_herm_eig_sorts_ascending():
    values, _ = _herm_eig(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(values, [1.0, 3.0])


def test_herm_eig_pauli_x():
    # closed form: eigenvalues -1, +1 with eigenvectors (|0> -+ |1>)/sqrt(2)
    values, vectors = _herm_eig(SIGMA_X)
    np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-14)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    # compare projectors to be phase-free
    np.testing.assert_allclose(
        np.outer(vectors[:, 0], vectors[:, 0].conj()),
        np.outer(minus, minus),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        np.outer(vectors[:, 1], vectors[:, 1].conj()),
        np.outer(plus, plus),
        atol=1e-12,
    )


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        _herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_stacked_eigh_equals_one_matrix_at_a_time_and_names_the_first_failure(
    random_psd,
):
    a = np.array([random_psd(4) for _ in range(5)])
    values, vectors, rebuilt = herm_eigs(a)
    for x, w, v, r in zip(a, values, vectors, rebuilt):
        alone = herm_eigs(x[None])
        np.testing.assert_array_equal(alone[0][0], w)
        np.testing.assert_array_equal(alone[1][0], v)
        np.testing.assert_array_equal(alone[2][0], r)
    a[1, 0, 1] += 1e-3
    a[3, 0, 1] += 1.0
    with pytest.raises(NotHermitianError) as want:
        _herm_eig(a[1])
    with pytest.raises(NotHermitianError) as got:
        herm_eigs(a)
    assert str(got.value) == str(want.value)


def test_herm_eig_takes_a_matrix_without_a_contiguous_last_axis():
    a = np.array([[2.0, 1j], [-1j, 3.0]]).T
    _, _, rebuilt = herm_eigs(a[None])
    np.testing.assert_allclose(rebuilt[0], a, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6))
def test_herm_eig_reconstructs(seed, d):
    gen = np.random.default_rng(seed)
    z = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    a = (z + z.conj().T) / 2.0
    values, vectors = _herm_eig(a)
    scale = max(1.0, np.linalg.norm(a))
    assert np.linalg.norm((vectors * values) @ vectors.conj().T - a) <= 1e-10 * scale
    assert np.linalg.norm(vectors @ vectors.conj().T - np.eye(d)) <= 1e-10
    assert np.all(np.diff(values) >= 0)


def _psd_function(a, g):
    """g(a) = U g(L) U^H for a PSD a, round-off negatives clipped: the
    reference the order probe tests check against."""
    return psd_function(a, g)


def test_matrix_function_sqrt():
    out = _psd_function(np.diag([4.0, 9.0]), np.sqrt)
    np.testing.assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-12)


def test_matrix_function_identity(random_psd):
    a = random_psd(4)
    np.testing.assert_allclose(_psd_function(a, lambda t: t), a, atol=1e-12)


def test_matrix_function_resolvent_value():
    # t / (1 + t) at t = 1
    out = _psd_function(np.eye(3), lambda t: t / (1.0 + t))
    np.testing.assert_allclose(out, np.eye(3) / 2.0, atol=1e-14)


def test_matrix_function_rejects_negative():
    with pytest.raises(NotPSDError):
        _psd_function(np.diag([1.0, -0.5]), np.sqrt)


def test_matrix_function_domain_error():
    with pytest.raises(FunctionDomainError):
        _psd_function(np.diag([1.0, 0.0]), np.log)


def test_matrix_function_composition(random_psd):
    a = random_psd(4)
    via_two = _psd_function(_psd_function(a, np.sqrt), np.exp)
    direct = _psd_function(a, lambda t: np.exp(np.sqrt(t)))
    assert np.linalg.norm(via_two - direct) <= 1e-9 * max(1, np.linalg.norm(direct))


def test_vec_column_stacking():
    np.testing.assert_array_equal(vec(np.diag([1.0, 2.0])), [1.0, 0.0, 0.0, 2.0])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6))
def test_vec_unvec_roundtrip(seed, d):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    np.testing.assert_array_equal(unvec(vec(x)), x)


def test_unvec_rejects_non_square_length():
    with pytest.raises(DimensionMismatchError):
        unvec(np.arange(3.0))


def test_vec_kron_identity(random_complex):
    # vec(a x b) = (b^T kron a) vec(x)
    for _ in range(10):
        a, b, x = (random_complex(2, 2) for _ in range(3))
        np.testing.assert_allclose(
            vec(a @ x @ b), np.kron(b.T, a) @ vec(x), atol=1e-12
        )


def test_superop_identity_map(random_complex):
    s = Superoperator.identity(3)
    np.testing.assert_allclose(s.matrix, np.eye(9), atol=1e-14)
    x = random_complex(3, 3)
    np.testing.assert_allclose(s(x), x, atol=1e-14)


def test_superop_apply_matches_action(random_complex):
    a, b = random_complex(4, 4), random_complex(4, 4)

    def action(x):
        return a @ x @ b + 0.5j * x

    s = Superoperator(dim=4, matrix=np.kron(b.T, a) + 0.5j * np.eye(16))
    for _ in range(50):
        x = random_complex(4, 4)
        assert np.linalg.norm(s.apply(x) - action(x)) <= 1e-11 * np.linalg.norm(x)


def test_choi_of_identity_map():
    s = Superoperator(dim=2, matrix=np.eye(4, dtype=complex))
    choi = choi_matrix(s)
    vals = np.linalg.eigvalsh(choi)
    # rank-one maximally entangled projector with eigenvalue d
    np.testing.assert_allclose(vals, [0.0, 0.0, 0.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_choi_matrix_equals_the_matrix_unit_loop(random_complex, d):
    s = Superoperator(dim=d, matrix=random_complex(d * d, d * d))
    loop = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            loop[i * d : (i + 1) * d, j * d : (j + 1) * d] = s.apply(unit)
    assert choi_matrix(s).tobytes() == loop.tobytes()


def test_kron_equals_numpy_kron(random_complex):
    for n, m in ((2, 2), (3, 2), (2, 4), (8, 8)):
        a, b = random_complex(n, n), random_complex(m, m)
        assert kron(a, b).tobytes() == np.kron(a, b).tobytes()


@pytest.mark.parametrize("n", [1, 4, 9, 16, 64])
def test_expm_matches_scipy(random_complex, n):
    from scipy.linalg import expm as scipy_expm

    a = random_complex(n, n)
    for scale in (0.0, 1e-4, 0.3, 3.0, 30.0):
        want = scipy_expm(scale * a)
        got = expm(scale * a)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_expm_of_stack_equals_each_matrix(random_complex):
    # each matrix keeps its own squarings, so batching changes no bit
    a = random_complex(9, 9)
    times = np.array([0.0, 1e-4, 0.05, 1.0, 10.0])
    stacked = expm(times[:, None, None] * a)
    for t, phi in zip(times, stacked):
        np.testing.assert_array_equal(phi, expm(t * a))
    np.testing.assert_allclose(stacked[0], np.eye(9), atol=1e-15)
    # a (model, time) stack, as semigroups builds it: each squaring round
    # takes only the matrices with squarings left, on both leading axes
    pair = np.stack([a, 0.3 * random_complex(9, 9)])
    grid = expm(times[None, :, None, None] * pair[:, None])
    for g, t in np.ndindex(*grid.shape[:2]):
        np.testing.assert_array_equal(grid[g, t], expm(times[t] * pair[g]))


def test_expm_names_non_finite_input(random_complex):
    a = random_complex(4, 4)
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        b = a.copy()
        b[1, 2] = bad
        with pytest.raises(FunctionDomainError, match="finite entries"):
            expm(b)
        with pytest.raises(FunctionDomainError):
            expm(np.stack([a, b]))


def test_kron_and_choi_of_stacks_equal_each_pair(random_complex):
    a, b = random_complex(5, 3, 3), random_complex(5, 2, 2)
    stacked = kron(a, b)
    for k in range(5):
        assert stacked[k].tobytes() == np.kron(a[k], b[k]).tobytes()
    maps = random_complex(2, 3, 9, 9)
    chois = choi_matrix(maps)
    assert chois.shape == (2, 3, 9, 9)
    for i in range(2):
        for j in range(3):
            s = Superoperator(dim=3, matrix=maps[i, j])
            assert chois[i, j].tobytes() == choi_matrix(s).tobytes()
