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
    herm_eig,
    matrix_function,
    unvec,
    vec,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_herm_eig_identity():
    eig = herm_eig(np.eye(2))
    np.testing.assert_allclose(eig.values, [1.0, 1.0])


def test_herm_eig_sorts_ascending():
    eig = herm_eig(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(eig.values, [1.0, 3.0])


def test_herm_eig_pauli_x():
    # closed form: eigenvalues -1, +1 with eigenvectors (|0> -+ |1>)/sqrt(2)
    eig = herm_eig(SIGMA_X)
    np.testing.assert_allclose(eig.values, [-1.0, 1.0], atol=1e-14)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    # compare projectors to be phase-free
    np.testing.assert_allclose(
        np.outer(eig.vectors[:, 0], eig.vectors[:, 0].conj()),
        np.outer(minus, minus),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        np.outer(eig.vectors[:, 1], eig.vectors[:, 1].conj()),
        np.outer(plus, plus),
        atol=1e-12,
    )


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6))
def test_herm_eig_reconstructs(seed, d):
    gen = np.random.default_rng(seed)
    z = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    a = (z + z.conj().T) / 2.0
    eig = herm_eig(a)
    scale = max(1.0, np.linalg.norm(a))
    assert np.linalg.norm(eig.reconstruct() - a) <= 1e-10 * scale
    assert np.linalg.norm(eig.vectors @ eig.vectors.conj().T - np.eye(d)) <= 1e-10
    assert np.all(np.diff(eig.values) >= 0)


def test_matrix_function_sqrt():
    out = matrix_function(np.diag([4.0, 9.0]), np.sqrt)
    np.testing.assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-12)


def test_matrix_function_identity(random_psd):
    a = random_psd(4)
    np.testing.assert_allclose(matrix_function(a, lambda t: t), a, atol=1e-12)


def test_matrix_function_resolvent_value():
    # t / (1 + t) at t = 1
    out = matrix_function(np.eye(3), lambda t: t / (1.0 + t))
    np.testing.assert_allclose(out, np.eye(3) / 2.0, atol=1e-14)


def test_matrix_function_rejects_negative():
    with pytest.raises(NotPSDError):
        matrix_function(np.diag([1.0, -0.5]), np.sqrt)


def test_matrix_function_domain_error():
    with pytest.raises(FunctionDomainError):
        matrix_function(np.diag([1.0, 0.0]), np.log)


def test_matrix_function_composition(random_psd):
    a = random_psd(4)
    via_two = matrix_function(matrix_function(a, np.sqrt), np.exp)
    direct = matrix_function(a, lambda t: np.exp(np.sqrt(t)))
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
