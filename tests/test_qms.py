import ast
import dataclasses

import numpy as np
import pytest

from qmsgap.errors import (
    DimensionMismatchError,
    FunctionDomainError,
    KernelDecisionError,
    NoFaithfulInvariantStateError,
    NonUniqueInvariantStateError,
    NotHermitianError,
    PostconditionError,
    QmsGapError,
)
from qmsgap import qms
from qmsgap.linalg import choi_matrix, dag, frobenius, unvec, vec
from qmsgap.qms import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    GKSLModel,
    check_invariance,
    density_matrix,
    depolarizing_qubit,
    fixed_point_structure,
    fixed_point_structures,
    generator,
    invariant_state,
    random_density,
    random_faithful_model,
    random_model,
    semigroup,
    semigroups,
    thermal_qubit,
)

from references import (
    gksl_generator_matrix,
    gns_gram_matrix,
    projector,
    random_model_by_matrix,
    with_generator,
)

GAMMA = 0.35


def free_model(d=2):
    return GKSLModel(hamiltonian=np.zeros((d, d), dtype=complex))


def test_generator_of_trivial_model_is_zero():
    gen = generator(free_model())
    np.testing.assert_allclose(gen.matrix, 0.0, atol=1e-14)


def test_generator_is_unital_and_star_preserving(rng, random_complex):
    for d in (2, 3, 4):
        model = random_model(rng, d)
        gen = generator(model)
        assert frobenius(gen.apply(np.eye(d))) <= 1e-10
        for _ in range(20):
            x = random_complex(d, d)
            defect = frobenius(gen.apply(dag(x)) - dag(gen.apply(x)))
            assert defect <= 1e-11 * max(1.0, frobenius(x))


def test_depolarizing_generator_closed_form(random_complex):
    # symbolic 2x2 oracle: sum_j sigma_j x sigma_j = 2 tr(x) 1 - x gives
    # L(x) = gamma tr(x) 1 - 2 gamma x, i.e. rate 2 gamma on traceless x
    gen = generator(depolarizing_qubit(GAMMA))
    for _ in range(10):
        x = random_complex(2, 2)
        expected = GAMMA * np.trace(x) * np.eye(2) - 2.0 * GAMMA * x
        np.testing.assert_allclose(gen.apply(x), expected, atol=1e-12)


def test_thermal_generator_rate_equation():
    # oracle: L(sigma_z) = -(g_down + g_up) sigma_z + (g_up - g_down) 1,
    # verified through the assembled 4x4 superoperator matrix
    g_up, g_down = 0.3, 0.9
    gen = generator(thermal_qubit(g_up, g_down))
    out = gen.apply(SIGMA_Z)
    expected = -(g_down + g_up) * SIGMA_Z + (g_up - g_down) * np.eye(2)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_semigroup_at_zero_is_identity(rng):
    model = random_model(rng, 3)
    np.testing.assert_allclose(semigroup(model, 0.0).matrix, np.eye(9), atol=1e-14)
    with pytest.raises(QmsGapError):
        semigroup(model, -0.1)


def test_semigroup_composition(rng):
    for d in (2, 3):
        model = random_model(rng, d)
        s, t = 0.4, 1.3
        lhs = semigroup(model, s).matrix @ semigroup(model, t).matrix
        rhs = semigroup(model, s + t).matrix
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(rhs))


def test_depolarizing_semigroup_closed_form(random_complex):
    model = depolarizing_qubit(GAMMA)
    t = 0.7
    phi = semigroup(model, t)
    for _ in range(5):
        x = random_complex(2, 2)
        expected = np.exp(-2.0 * GAMMA * t) * (
            x - np.trace(x) * np.eye(2) / 2.0
        ) + np.trace(x) * np.eye(2) / 2.0
        np.testing.assert_allclose(phi.apply(x), expected, atol=1e-12)


def test_semigroup_is_completely_positive(rng):
    for d in (2, 3):
        model = random_model(rng, d)
        for t in (0.1, 1.0, 10.0):
            choi = choi_matrix(semigroup(model, t))
            vals = np.linalg.eigvalsh((choi + dag(choi)) / 2.0)
            assert vals.min() >= -1e-9


def test_invariant_state_depolarizing():
    rho = invariant_state(depolarizing_qubit(GAMMA))
    np.testing.assert_allclose(rho.rho, np.eye(2) / 2.0, atol=1e-12)
    assert rho.faithful


def test_invariant_state_thermal_rate_equation():
    # classical 2-level oracle: kernel of [[-g_down, g_up], [g_down, -g_up]]
    g_up, g_down = 0.3, 0.9
    rho = invariant_state(thermal_qubit(g_up, g_down))
    rates = np.array([[-g_down, g_up], [g_down, -g_up]])
    kernel = np.linalg.svd(rates)[2][-1]
    populations = np.abs(kernel) / np.abs(kernel).sum()
    np.testing.assert_allclose(np.diagonal(rho.rho).real, populations, atol=1e-12)
    np.testing.assert_allclose(
        rho.rho, np.diag([g_up, g_down]) / (g_up + g_down), atol=1e-12
    )


def test_amplitude_damping_has_no_faithful_state():
    with pytest.raises(NoFaithfulInvariantStateError):
        invariant_state(thermal_qubit(0.0, 1.0))


def test_trivial_model_state_is_not_unique():
    with pytest.raises(NonUniqueInvariantStateError):
        invariant_state(free_model())


def test_check_invariance_values():
    model = depolarizing_qubit(GAMMA)
    assert check_invariance(model, np.eye(2) / 2.0) <= 1e-12

    thermal = thermal_qubit(0.3, 0.9)
    assert check_invariance(thermal, np.eye(2) / 2.0) > 1e-3
    assert check_invariance(thermal, invariant_state(thermal)) <= 1e-9


def test_fixed_point_structure_depolarizing():
    model = depolarizing_qubit(GAMMA)
    rho = invariant_state(model)
    fps = fixed_point_structure(model, rho)
    assert fps.dim == 1 and not fps.degenerate
    # E(x) = tr(rho x) 1 has the rank-one matrix vec(1) vec(rho)^H
    oracle = np.outer(vec(np.eye(2)), vec(rho.rho).conj())
    np.testing.assert_allclose(projector(fps).matrix, oracle, atol=1e-10)


def test_fixed_point_structure_trivial_model():
    rho = density_matrix(np.eye(3) / 3.0)
    fps = fixed_point_structure(free_model(3), rho)
    assert fps.dim == 9 and fps.degenerate
    np.testing.assert_allclose(projector(fps).matrix, np.eye(9), atol=1e-10)


def test_fixed_point_structure_block_model(random_complex):
    # single jump sigma_z (x) 1 on d = 4: fixed algebra is its commutant,
    # the two diagonal blocks, so dim N = 8 and E averages over {1, V}
    v = np.kron(SIGMA_Z, np.eye(2))
    model = GKSLModel(hamiltonian=np.zeros((4, 4), dtype=complex), jumps=(v,))
    rho = density_matrix(np.eye(4) / 4.0)
    fps = fixed_point_structure(model, rho)
    assert fps.dim == 8 and fps.degenerate
    for _ in range(5):
        x = random_complex(4, 4)
        oracle = (x + v @ x @ v) / 2.0
        np.testing.assert_allclose(projector(fps).apply(x), oracle, atol=1e-9)


def test_conditional_expectation_identities(rng, random_complex):
    model, rho, _ = random_faithful_model(rng, 3)
    fps = fixed_point_structure(model, rho)
    e = projector(fps)
    d = 3
    np.testing.assert_allclose(
        e.matrix @ e.matrix, e.matrix, atol=1e-9
    )
    np.testing.assert_allclose(e.apply(np.eye(d)), np.eye(d), atol=1e-9)
    for _ in range(20):
        x = random_complex(d, d)
        ex = e.apply(x)
        # state-preserving and a GNS contraction
        assert abs(np.trace(rho.rho @ ex) - np.trace(rho.rho @ x)) <= 1e-9
        lhs = np.trace(rho.rho @ dag(ex) @ ex).real
        rhs = np.trace(rho.rho @ dag(x) @ x).real
        assert lhs <= rhs + 1e-9
        np.testing.assert_allclose(e.apply(dag(x)), dag(ex), atol=1e-9)


def schwarz_defect(model, rho, t, trials, rng):
    """Min over random x of tr(rho Phi_t(x^H x)) - tr(rho Phi_t(x)^H Phi_t(x)),
    nonnegative for any unital completely positive map."""
    phi = semigroup(model, t)
    worst = np.inf
    for _ in range(trials):
        x = rng.standard_normal((model.dim,) * 2) + 1j * rng.standard_normal(
            (model.dim,) * 2
        )
        x /= frobenius(x)
        out = phi.apply(x)
        lhs = np.trace(rho.rho @ phi.apply(dag(x) @ x)).real
        rhs = np.trace(rho.rho @ dag(out) @ out).real
        worst = min(worst, float(lhs - rhs))
    return worst


def test_kadison_schwarz_zero_time(rng):
    model = depolarizing_qubit(GAMMA)
    worst = schwarz_defect(model, invariant_state(model), 0.0, 10, rng)
    assert abs(worst) <= 1e-12


def test_kadison_schwarz_depolarizing_closed_form():
    # x = sigma_x: tr(rho Phi(x^H x)) = 1 and Phi(x) = exp(-2 gamma t) x,
    # so the defect is 1 - exp(-4 gamma t)
    model = depolarizing_qubit(GAMMA)
    t = 1.0
    phi = semigroup(model, t)
    rho = invariant_state(model)
    lhs = np.trace(rho.rho @ phi.apply(SIGMA_X @ SIGMA_X)).real
    out = phi.apply(SIGMA_X)
    rhs = np.trace(rho.rho @ dag(out) @ out).real
    assert lhs - rhs == pytest.approx(1.0 - np.exp(-4.0 * GAMMA * t), abs=1e-12)


def test_kadison_schwarz_random_models(rng):
    for i in range(12):
        model, rho, _ = random_faithful_model(rng, [2, 3][i % 2])
        worst = schwarz_defect(model, rho, 0.8, 5, rng)
        assert worst >= -1e-9


def test_random_model_is_seed_deterministic():
    m1 = random_model(np.random.default_rng(5), 3)
    m2 = random_model(np.random.default_rng(5), 3)
    np.testing.assert_array_equal(m1.hamiltonian, m2.hamiltonian)
    assert len(m1.jumps) == len(m2.jumps)
    for a, b in zip(m1.jumps, m2.jumps):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_random_model_draws_the_stream_of_one_matrix_at_a_time(d):
    rng, reference = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(6):
        got, want = random_model(rng, d), random_model_by_matrix(reference, d)
        np.testing.assert_array_equal(got.hamiltonian, want.hamiltonian)
        assert len(got.jumps) == len(want.jumps)
        for x, y in zip(got.jumps, want.jumps):
            np.testing.assert_array_equal(x, y)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_random_faithful_model_conditioning(rng):
    for d in (2, 3, 4):
        _, rho, _ = random_faithful_model(rng, d)
        assert rho.faithful
        assert rho.eigenvalues.min() > 1e-4


def test_random_faithful_model_rejects_a_kernel_too_close_to_call(monkeypatch):
    real, calls = qms.invariant_state, []

    def undecided_first(model):
        calls.append(model)
        if len(calls) == 1:
            raise KernelDecisionError("too close to call")
        return real(model)

    monkeypatch.setattr(qms, "invariant_state", undecided_first)
    model, _, rejected = random_faithful_model(np.random.default_rng(3), 2)
    assert rejected >= 1 and model is calls[-1] and len(calls) == rejected + 1


def _one_model_loop(rng, dims):
    """random_faithful_model as a plain loop: one draw, one decision, at a
    time; yields (model, rho, rejected) per d."""
    for d in dims:
        for rejected in range(qms.MAX_DRAWS):
            model = qms.random_model(rng, d)
            try:
                rho = invariant_state(model)
            except (KernelDecisionError, NonUniqueInvariantStateError,
                    NoFaithfulInvariantStateError):
                continue
            if rho.eigenvalues.min() > qms.DRAW_EIG_FLOOR:
                yield model, rho, rejected
                break
        else:
            raise QmsGapError(f"{qms.MAX_DRAWS} draws rejected at d={d}")


def _no_unique_state(d):
    return GKSLModel(hamiltonian=np.zeros((d, d)))


def _state_below_the_draw_floor(d):
    return thermal_qubit(1e-5, 1.0)  # min eigenvalue 1e-5: faithful, too thin


def _rejecting_draws(monkeypatch, bad_calls, bad_model=_no_unique_state):
    """Make the random_model calls numbered bad_calls (from 0) return
    bad_model(d), and from then on every draw taken from the same stream
    state as one of them: a rejection tied to the stream, which a replay
    meets again.  Returns the switch that stops numbering."""
    real, bad, count = qms.random_model, set(), [0]

    def draw(rng, d):
        key = repr(rng.bit_generator.state)
        model = real(rng, d)
        if count[0] in bad_calls:
            bad.add(key)
        count[0] += 1
        return bad_model(d) if key in bad else model

    monkeypatch.setattr(qms, "random_model", draw)
    return lambda: bad_calls.clear()


def _delivered(draws):
    """The (model, rho, rejected) draws taken before an error, and the error."""
    out = []
    try:
        for x in draws:
            out.append(x)
    except QmsGapError as exc:
        return out, exc
    return out, None


def _assert_same_draws(got, want):
    assert len(got) == len(want)
    for (model, rho, rejected), (model_w, rho_w, rejected_w) in zip(got, want):
        assert rejected == rejected_w
        for a, b in zip((model.hamiltonian, *model.jumps, rho.rho, rho.eigenvalues,
                         rho.basis),
                        (model_w.hamiltonian, *model_w.jumps, rho_w.rho,
                         rho_w.eigenvalues, rho_w.basis)):
            assert a.tobytes() == b.tobytes()


def test_stacked_draws_without_a_rejection_are_one_stack(monkeypatch):
    dims = (2, 3, 4, 2, 3, 4)
    loop_rng = np.random.default_rng(11)
    want = list(_one_model_loop(loop_rng, dims))
    assert [r for _, _, r in want] == [0] * len(dims)

    stacks, real = [], qms._invariant_states

    def counted(models):
        stacks.append(len(models))
        return real(models)

    monkeypatch.setattr(qms, "_invariant_states", counted)
    rng = np.random.default_rng(11)
    _assert_same_draws(list(qms.random_faithful_models(rng, dims)), want)
    assert rng.bit_generator.state == loop_rng.bit_generator.state
    assert stacks == [len(dims)]


@pytest.mark.parametrize("bad_calls, rejected, bad_model", [
    ({0}, [1, 0, 0, 0, 0, 0], _no_unique_state),  # the first slot of the stack
    ({3}, [0, 0, 0, 1, 0, 0], _no_unique_state),  # a middle slot
    ({5}, [0, 0, 0, 0, 0, 1], _no_unique_state),  # the last slot
    ({0, 4, 7, 8}, [1, 0, 0, 1, 0, 2], _no_unique_state),
    ({3}, [0, 0, 0, 1, 0, 0], _state_below_the_draw_floor),  # solved, then refused
], ids=["first", "middle", "last", "several", "floor"])
def test_stacked_draws_replay_a_one_model_loop_at_every_rejection(
    monkeypatch, bad_calls, rejected, bad_model
):
    dims = (2, 3, 4, 2, 3, 4)
    stop_numbering = _rejecting_draws(monkeypatch, set(bad_calls), bad_model)
    loop_rng = np.random.default_rng(11)
    want = list(_one_model_loop(loop_rng, dims))
    stop_numbering()
    assert [r for _, _, r in want] == rejected

    rng = np.random.default_rng(11)
    _assert_same_draws(list(qms.random_faithful_models(rng, dims)), want)
    assert rng.bit_generator.state == loop_rng.bit_generator.state


def test_stacked_draws_run_out_on_the_same_index_after_the_earlier_ones(monkeypatch):
    dims = (3, 2, 4, 2)
    stop_numbering = _rejecting_draws(
        monkeypatch, set(range(2, 2 + qms.MAX_DRAWS))  # every draw for index 2
    )
    loop_rng = np.random.default_rng(5)
    want, loop_error = _delivered(_one_model_loop(loop_rng, dims))
    stop_numbering()
    assert len(want) == 2 and "at d=4" in str(loop_error)

    rng = np.random.default_rng(5)
    got, error = _delivered(qms.random_faithful_models(rng, dims))
    _assert_same_draws(got, want)
    assert str(error) == (
        f"no well-conditioned invariant state in {qms.MAX_DRAWS} draws at d=4"
    )
    assert rng.bit_generator.state == loop_rng.bit_generator.state


def test_density_matrix_validation():
    with pytest.raises(QmsGapError):
        density_matrix(np.eye(2))  # trace 2
    with pytest.raises(QmsGapError):
        density_matrix(np.diag([1.5, -0.5]))
    pure = density_matrix(np.diag([1.0, 0.0]))
    assert not pure.faithful


def test_a_state_keeps_its_descending_eigen_split(rng):
    # p descending, U matching, both read-only; U diag(p) U^H is rho
    states = [random_density(rng, 4), density_matrix(np.diag([0.2, 0.5, 0.3]))]
    states.append(random_faithful_model(rng, 3)[1])
    for state in states:
        p, u = state.eigenvalues, state.basis
        assert (np.diff(p) <= 0).all()
        assert not p.flags.writeable and not u.flags.writeable
        np.testing.assert_allclose((u * p) @ dag(u), state.rho, atol=1e-14)
    assert [f.name for f in dataclasses.fields(qms.DensityMatrix)] == [
        "rho", "eigenvalues", "basis", "faithful"
    ]


def test_stacked_random_states_equal_a_two_dimensional_construction():
    rng, loop = np.random.default_rng(3), np.random.default_rng(3)
    got = qms._random_states([qms._state_draw(rng, 3) for _ in range(5)])
    for state in got:
        raw = loop.dirichlet(np.ones(3))
        p = (raw + 2.0 * qms.DENSITY_EIG_FLOOR) / (1.0 + 6.0 * qms.DENSITY_EIG_FLOOR)
        q, r = np.linalg.qr(loop.standard_normal((3, 3)) + 1j * loop.standard_normal((3, 3)))
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        rho = (u * p) @ dag(u)
        values, vectors = np.linalg.eigh((rho + dag(rho)) / 2.0)
        np.testing.assert_array_equal(state.eigenvalues, values[::-1])
        np.testing.assert_array_equal(state.basis, vectors[:, ::-1])
        np.testing.assert_array_equal(state.rho, (vectors * values) @ dag(vectors))
        assert state.faithful
    assert rng.bit_generator.state == loop.bit_generator.state


def test_stacked_states_raise_for_the_first_that_is_not_a_state():
    stack = np.array([np.eye(2) / 2.0, np.diag([1.5, -0.5]), np.eye(2)])
    with pytest.raises(QmsGapError, match="negative eigenvalue -5.000e-01"):
        qms.density_matrices(stack)


def test_model_requires_hermitian_hamiltonian():
    with pytest.raises(NotHermitianError):
        GKSLModel(hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("where", ["Hamiltonian", "jump"])
def test_model_with_non_finite_entries_is_named(where, bad):
    broken = np.zeros((2, 2), dtype=complex)
    broken[1, 0] = bad
    if where == "Hamiltonian":
        parts = {"hamiltonian": broken + broken.T.conj()}
    else:
        parts = {"hamiltonian": SIGMA_Z, "jumps": (SIGMA_MINUS, broken)}
    with pytest.raises(FunctionDomainError, match=f"{where} contains non-finite"):
        GKSLModel(**parts)


def test_pauli_constants():
    np.testing.assert_array_equal(SIGMA_X @ SIGMA_X, np.eye(2))
    np.testing.assert_array_equal(SIGMA_Y @ SIGMA_Y, np.eye(2))
    np.testing.assert_allclose(SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z)


def test_generator_is_built_once_per_model(rng, monkeypatch):
    # random_faithful_model built the generator to find the state; later
    # calls return that object instead of rebuilding it from np.kron terms
    model, _, _ = random_faithful_model(rng, 3)

    def no_kron(*args, **kwargs):
        raise AssertionError("generator rebuilt")

    monkeypatch.setattr(np, "kron", no_kron)
    gen = generator(model)
    assert generator(model) is gen


def test_generator_rejects_a_map_that_is_not_star_preserving():
    # an anti-Hermitian Hamiltonian, let past the model's own check, gives
    # L(x^H) = -L(x)^H while L(1) = 0 still holds
    model = depolarizing_qubit(GAMMA)
    object.__setattr__(model, "hamiltonian", 1j * SIGMA_Z)
    with pytest.raises(PostconditionError, match=r"not \*-preserving"):
        generator(model)


@pytest.mark.parametrize("eps", [1e-6, 1e-3])
def test_a_star_defect_no_fixed_probe_sees_is_refused(monkeypatch, eps):
    # L of the depolarizing qubit plus eps b a^H, with a orthogonal to vec(1),
    # vec(x) and vec(x^H) for the probe x a single-probe check would read:
    # the map is unital and passes that check, but its Choi matrix is not
    # Hermitian, so it is not *-preserving
    d = 2
    x = unvec(np.arange(1, d * d + 1) - 0.25j * np.arange(d * d))
    probes = np.column_stack([vec(np.eye(d)), vec(x), vec(dag(x))])
    a = np.linalg.svd(dag(probes))[2][-1].conj()
    b = vec(SIGMA_X)
    bump = eps * np.outer(b, a.conj())
    assert np.abs(dag(probes) @ a).max() < 1e-14
    real = qms._generator_stack
    monkeypatch.setattr(qms, "_generator_stack", lambda models: real(models) + bump)
    model = depolarizing_qubit(0.3)
    with pytest.raises(PostconditionError, match=r"^generator is not \*-preserving$"):
        generator(model)
    assert model._generator is None


def test_generator_rejects_a_map_that_is_not_conditionally_completely_positive(
    monkeypatch,
):
    # -L of an H = 0 model is unital and *-preserving, but off vec(1) its
    # Choi matrix is minus that of x -> sum_j V_j^H x V_j
    real = np.kron
    monkeypatch.setattr(np, "kron", lambda a, b: -real(a, b))
    model = thermal_qubit(0.3, 0.9)
    with pytest.raises(
        PostconditionError, match="not conditionally completely positive"
    ):
        generator(model)
    assert model._generator is None


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_conditional_complete_positivity_floor_is_round_off(rng, d):
    # off Omega = vec(1) / sqrt(d) the Choi matrix of a GKSL generator is
    # that of x -> sum_j V_j^H x V_j, so its floor is 0 up to round-off,
    # far inside the 1e-9 * max(1, max |L|) margin the generator allows
    omega = np.eye(d).reshape(-1) / np.sqrt(d)
    off = np.eye(d * d) - np.outer(omega, omega)
    for _ in range(5):
        choi = choi_matrix(generator(random_model(rng, d)))
        floor = np.linalg.eigvalsh(off @ ((choi + dag(choi)) / 2.0) @ off)[0]
        assert abs(floor) < 1e-13


def test_stacked_generators_equal_one_model_builds(rng):
    models = [random_model(rng, d) for d in (2, 3, 2, 4)]
    twins = [GKSLModel(m.hamiltonian, m.jumps) for m in models]
    gens = qms._generators(models)
    for model, twin, gen in zip(models, twins, gens):
        assert gen is model._generator
        assert gen.matrix.tobytes() == generator(twin).matrix.tobytes()
    bad = depolarizing_qubit(GAMMA)
    object.__setattr__(bad, "hamiltonian", 1j * SIGMA_Z)  # not *-preserving
    good = random_model(rng, 2)
    with pytest.raises(PostconditionError, match=r"not \*-preserving"):
        qms._generators([good, bad])
    assert good._generator is None and bad._generator is None  # one stack


def test_stacked_generators_equal_the_term_by_term_oracle(rng, random_complex):
    # one call on a shuffled mix of d = 2, 3, 4, 8 and 0-5 jumps, with one
    # model whose generator is already set
    models = [
        GKSLModel(random_model(rng, d).hamiltonian,
                  tuple(random_complex(d, d) for _ in range(n)))
        for d in (2, 3, 4, 8) for n in (1, 2, 3, 2, 0, 4, 5)
    ]
    cached = generator(models[5])
    shuffled = [models[i] for i in rng.permutation(len(models))]
    for model, gen in zip(shuffled, qms._generators(shuffled)):
        assert gen is model._generator
        assert gen.matrix.tobytes() == gksl_generator_matrix(model).tobytes()
    assert models[5]._generator is cached
    # 1 then 2 jumps: jump 1 updates the second row alone
    pair = [GKSLModel(m.hamiltonian, m.jumps) for m in models[:2]]
    for model, gen in zip(pair, qms._generators(pair)):
        assert gen.matrix.tobytes() == gksl_generator_matrix(model).tobytes()


def test_a_stack_takes_2_plus_2_max_n_plus_sum_n_kron_calls(
    rng, random_complex, monkeypatch
):
    # two identity-side terms for H and for each jump index, one cross term
    # per model and jump: 2 + 2 * 5 + 11 = 23 for the counts (2, 0, 5, 1, 3)
    models = [
        GKSLModel(random_model(rng, 3).hamiltonian,
                  tuple(random_complex(3, 3) for _ in range(n)))
        for n in (2, 0, 5, 1, 3)
    ]
    real, calls = np.kron, []

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(np, "kron", counted)
    qms._generators(models)
    assert len(calls) == 23


def test_a_stack_raises_its_first_failing_model_in_the_given_order(rng, monkeypatch):
    # the check reads a stack in the caller's order: the 1-jump model at 1
    # fails before the 2-jump model at 3, and then no model of the stack
    # keeps a generator
    models = [GKSLModel(random_model(rng, 2).hamiltonian, random_model(rng, 2).jumps[:1])
              for _ in range(5)]
    models[3] = GKSLModel(models[3].hamiltonian, (SIGMA_MINUS, SIGMA_PLUS))
    object.__setattr__(models[1], "hamiltonian", 1j * SIGMA_Z)  # not *-preserving
    real, bad = qms._generator_stack, models[3]

    def negated(stack):  # -L for bad: unital, *-preserving, not CCP
        mats = real(stack)
        for mat, model in zip(mats, stack):
            if model is bad:
                mat *= -1.0
        return mats

    monkeypatch.setattr(qms, "_generator_stack", negated)
    with pytest.raises(PostconditionError, match=r"not \*-preserving"):
        qms._generators(models)
    assert all(m._generator is None for m in models)
    with pytest.raises(PostconditionError, match="not conditionally completely positive"):
        qms._generators(models[2:])
    assert all(m._generator is None for m in models)


def test_model_and_generator_arrays_are_read_only(random_complex):
    h = random_complex(3, 3)
    h = (h + dag(h)) / 2.0
    v = random_complex(3, 3)
    model = GKSLModel(hamiltonian=h, jumps=(v,))
    for a in (model.hamiltonian, *model.jumps, generator(model).matrix):
        assert not a.flags.writeable
    # the caller's arrays stay writable, and the model does not share them
    assert h.flags.writeable and v.flags.writeable
    before = model.hamiltonian.copy()
    h[0, 0] += 1.0
    np.testing.assert_array_equal(model.hamiltonian, before)


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_gns_gram_matrix_equals_numpy_kron(rng, d):
    rho = random_density(rng, d)
    want = np.kron(rho.rho.T, np.eye(d, dtype=complex))
    assert gns_gram_matrix(rho).tobytes() == want.tobytes()


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_semigroup_rejects_a_time_that_is_not_finite_and_nonnegative(t):
    model = depolarizing_qubit(GAMMA)
    with pytest.raises(QmsGapError, match=f"t must be finite and nonnegative, got {t!r}"):
        semigroup(model, t)
    with pytest.raises(QmsGapError, match="finite and nonnegative"):
        semigroups([model], (1.0, t))


def test_semigroup_of_a_generator_with_non_finite_entries_is_named():
    model = depolarizing_qubit(GAMMA)
    nan_diagonal = np.where(np.eye(4) > 0, np.nan, generator(model).matrix)
    broken = with_generator(model, nan_diagonal)
    with pytest.raises(FunctionDomainError, match="finite entries"):
        semigroup(broken, 1.0)


def test_stacked_semigroups_and_fixed_points_equal_one_model_calls(rng):
    models = [random_faithful_model(rng, d)[0] for d in (2, 3, 2, 4)]
    models.append(GKSLModel(hamiltonian=np.diag([0.3, -0.2]).astype(complex)))
    rhos = [invariant_state(m) for m in models[:4]]
    rhos.append(density_matrix(np.diag([0.6, 0.4]).astype(complex)))
    times = (0.0, 0.1, 1.0, 10.0)
    for model, phis in zip(models, semigroups(models, times)):
        for t, phi in zip(times, phis):
            np.testing.assert_array_equal(phi, semigroup(model, t).matrix)
    for model, rho, fps in zip(models, rhos, fixed_point_structures(models, rhos)):
        alone = fixed_point_structure(model, rho)
        assert fps.dim == alone.dim and fps.degenerate == alone.degenerate
        np.testing.assert_array_equal(projector(fps).matrix, projector(alone).matrix)
        for a, b in zip(fps.basis, alone.basis):
            np.testing.assert_array_equal(a, b)


def test_stacked_fixed_points_raise_for_the_first_failing_model(rng):
    model, rho, _ = random_faithful_model(rng, 2)
    unfaithful = density_matrix(np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(QmsGapError, match="faithful state"):
        fixed_point_structures([model, model], [rho, unfaithful])
    assert fixed_point_structures([], []) == []


def test_projection_that_is_not_an_expectation_is_named(rng):
    # N = M_2 (x) 1 and a correlated state that is not invariant: the
    # GNS-orthogonal projection onto N is then not *-preserving, and
    # fixed_point_structures refuses the state before it solves for it
    eye = np.eye(2, dtype=complex)
    h = 0.4 * SIGMA_X + 0.1 * SIGMA_Z
    jumps = (SIGMA_MINUS, 0.5 * SIGMA_PLUS, 0.3 * (SIGMA_X + 0.4 * SIGMA_Z))
    model = GKSLModel(
        hamiltonian=np.kron(eye, h), jumps=tuple(np.kron(eye, j) for j in jumps)
    )
    rho = random_density(np.random.default_rng(1), 4)
    units = [np.kron(np.outer(a, b), eye) for a in eye for b in eye]
    with pytest.raises(PostconditionError, match="star-preserving"):
        qms._check_expectations(
            *(part[None] for part in _gns_factors(rho.rho, *units)), vec(rho.rho)[None]
        )
    residual = check_invariance(model, rho)
    with pytest.raises(QmsGapError, match="state is not invariant") as alone:
        fixed_point_structure(model, rho)
    assert f"{residual:.3e}" in str(alone.value)
    good = depolarizing_qubit(GAMMA)
    half = invariant_state(good)
    with pytest.raises(QmsGapError) as batched:
        fixed_point_structures([good, model, good], [half, rho, half])
    assert str(batched.value) == str(alone.value)


def _gns_factors(rho, *basis):
    # E = B R for orthonormal columns B and R = (B^H G B)^{-1} (G B)^H
    columns = np.linalg.qr(np.column_stack([vec(b) for b in basis]))[0]
    weighted = np.column_stack([vec(unvec(c) @ rho) for c in columns.T])
    return columns, np.linalg.solve(dag(columns) @ weighted, dag(weighted))


def _expectation_factors(case):
    rho = np.diag([0.7, 0.3]).astype(complex)
    eye = np.eye(2, dtype=complex)
    if case == "idempotent":  # coefficients doubled
        columns, coeffs = _gns_factors(rho, eye)
        coeffs = 2.0 * coeffs
    elif case == "unital":  # N = span{sigma_z} lacks the identity
        columns, coeffs = _gns_factors(rho, SIGMA_Z)
    elif case == "state-preserving":  # Euclidean, not GNS, projection
        columns = np.column_stack([vec(eye), vec(SIGMA_X)]) / np.sqrt(2.0)
        coeffs = dag(columns)
    else:  # GNS projection onto span{1, sigma_x}: not Delta-invariant
        columns, coeffs = _gns_factors(rho, eye, SIGMA_X)
    return columns[None], coeffs[None], vec(rho)[None]


@pytest.mark.parametrize(
    "identity", ["idempotent", "unital", "state-preserving", "star-preserving"]
)
def test_each_expectation_identity_is_checked_on_the_factors(identity):
    with pytest.raises(PostconditionError) as raised:
        qms._check_expectations(*_expectation_factors(identity))
    row = ast.literal_eval(str(raised.value).split(": ", 1)[1])
    assert row[identity] > 1e-9


def test_state_and_fixed_points_share_one_kernel_split(rng, monkeypatch):
    # ker L_* and ker L come from one SVD of L_*, kept on the model
    svds = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        svds.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    model = random_model(rng, 3)
    rho = invariant_state(model)
    fps = fixed_point_structure(model, rho)
    assert len(svds) == 1
    assert fps.dim == 1


def test_a_state_of_another_dimension_is_named(monkeypatch):
    rho = density_matrix(np.eye(3) / 3.0)
    message = "state of dimension 3 for a model of dimension 2"

    def no_kron(*args, **kwargs):
        raise AssertionError("generator built before the dimension check")

    monkeypatch.setattr(np, "kron", no_kron)
    for state in (rho, rho.rho):
        with pytest.raises(DimensionMismatchError, match=message):
            check_invariance(depolarizing_qubit(GAMMA), state)
    with pytest.raises(DimensionMismatchError, match=message):
        fixed_point_structure(depolarizing_qubit(GAMMA), rho)
