import inspect
import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from qmsgap import gap, linalg, qms
from qmsgap import metric as metric_module
from qmsgap.errors import (
    DimensionMismatchError,
    IllConditionedWarning,
    KernelDecisionError,
    NegativeGapWarning,
    NonUniqueInvariantStateError,
    PostconditionError,
    QmsGapError,
    RankDeficiencyError,
)
from qmsgap.gap import (
    decaying_subspace,
    empirical_decay_rate,
    f_operator_norm,
    f_operator_norms,
    function_norms,
    function_sweeps,
    gap_curve,
    gap_curves,
    gap_sweep,
    spectral_gap_f,
)
from qmsgap.config import function_from_descriptor
from qmsgap.harness import default_f_suite, degenerate_block_model
from qmsgap.linalg import Superoperator, dag, unvec, vec
from qmsgap.metric import (
    f_adjoint,
    f_gram,
    f_gram_sqrt,
    f_inner,
    f_metric,
    f_metric_table,
    f_metrics,
)
from qmsgap.monotone import anti_gns, bkm, gns, kms, power, transpose
from qmsgap.qms import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    FixedPointStructure,
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
    semigroup,
    semigroups,
    thermal_qubit,
)

from references import gns_gram_matrix, projector, solved_for, with_generator

GAMMA = 0.35
G_UP, G_DOWN = 0.3, 0.9


@pytest.fixture(scope="module")
def thermal():
    model = thermal_qubit(G_UP, G_DOWN)
    rho = invariant_state(model)
    return model, rho


def test_decaying_subspace_dimension_and_orthogonality():
    model = depolarizing_qubit(GAMMA)
    rho = invariant_state(model)
    fps = fixed_point_structure(model, rho)
    for f in (gns(), kms(), bkm(), power(0.2)):
        metric = f_metric(rho, f)
        basis = decaying_subspace(metric, fps)
        assert basis.shape == (4, 3)
        for k in range(basis.shape[1]):
            b = unvec(basis[:, k])
            # basis vectors are mean-zero and f-orthogonal to the identity
            assert abs(np.trace(rho.rho @ b)) <= 1e-10
            assert abs(f_inner(metric, b, np.eye(2))) <= 1e-10


def test_decaying_subspace_empty_for_trivial_model():
    model = GKSLModel(hamiltonian=np.zeros((2, 2), dtype=complex))
    rho = density_matrix(np.eye(2) / 2.0)
    fps = fixed_point_structure(model, rho)
    basis = decaying_subspace(f_metric(rho, kms()), fps)
    assert basis.shape == (4, 0)
    report = spectral_gap_f(model, rho, f_metric(rho, kms()), fps=fps)
    assert report.empty and math.isinf(report.lambda_f)
    assert report.kernel_dim == 4


def test_depolarizing_gap_is_rate_for_every_f():
    # rho = 1/2 makes every weight equal, so all metrics coincide
    model = depolarizing_qubit(GAMMA)
    rho = invariant_state(model)
    fps = fixed_point_structure(model, rho)
    for f in (gns(), anti_gns(), kms(), bkm(), power(0.1), power(0.9)):
        report = spectral_gap_f(model, rho, f_metric(rho, f), fps=fps)
        assert report.lambda_f == pytest.approx(2.0 * GAMMA, abs=1e-12)
        assert report.kernel_dim == 1


def _tail_fit_decay_rate(model, rho, metric, rng, n_vectors=200, t_max=5.0):
    """Per-sample regression oracle: slope of log |Phi_t x|_f on the tail
    window, minimized over random mean-zero x.  Valid when the restricted
    generator is normal, e.g. for detailed-balanced models."""
    fps = fixed_point_structure(model, rho)
    basis = decaying_subspace(metric, fps)
    coeffs = rng.standard_normal((basis.shape[1], n_vectors))
    samples = basis @ coeffs
    ts = np.linspace(t_max / 2.0, t_max, 12)
    logs = np.empty((ts.size, n_vectors))
    for k, t in enumerate(ts):
        phi = semigroup(model, float(t))
        evolved = phi.matrix @ samples
        for j in range(n_vectors):
            logs[k, j] = np.log(
                max(
                    np.sqrt(
                        f_inner(
                            metric, unvec(evolved[:, j]), unvec(evolved[:, j])
                        ).real
                    ),
                    1e-300,
                )
            )
    slopes = np.polyfit(ts, logs, 1)[0]
    return float(-slopes.max())  # slowest decaying sample


def test_thermal_gap_matches_decay_fit_oracle(thermal, rng):
    # thermal qubit is detailed balanced: matrix units diagonalize the
    # generator, the slowest mode is the coherence sector at (up+down)/2,
    # and every f-gap coincides
    model, rho = thermal
    expected = (G_UP + G_DOWN) / 2.0
    for f in (gns(), kms(), bkm()):
        metric = f_metric(rho, f)
        report = spectral_gap_f(model, rho, metric)
        assert report.lambda_f == pytest.approx(expected, rel=1e-12)
        fitted = _tail_fit_decay_rate(model, rho, metric, rng)
        assert fitted == pytest.approx(report.lambda_f, rel=1e-4)


def test_gap_spectrum_invariants(thermal):
    model, rho = thermal
    report = spectral_gap_f(model, rho, f_metric(rho, kms()))
    assert report.lambda_f == report.spectrum[0]
    assert np.all(np.diff(report.spectrum) >= 0)
    assert report.spectrum.min() >= -1e-9
    assert max(report.residuals.values()) <= 1e-9


def test_decay_certificate_on_random_models(rng):
    # |Phi_t x|_f <= exp(-(lambda - 1e-6) t) |x|_f for sampled x
    for i in range(4):
        model, rho, _ = random_faithful_model(rng, [2, 3][i % 2])
        fps = fixed_point_structure(model, rho)
        for f in (gns(), kms(), power(0.4)):
            metric = f_metric(rho, f)
            report = spectral_gap_f(model, rho, metric, fps=fps)
            basis = decaying_subspace(metric, fps)
            samples = basis @ (
                rng.standard_normal((basis.shape[1], 100))
                + 1j * rng.standard_normal((basis.shape[1], 100))
            )
            for t in (0.5, 1.0, 2.0):
                phi = semigroup(model, t)
                evolved = phi.matrix @ samples
                for j in range(samples.shape[1]):
                    x0 = unvec(samples[:, j])
                    x1 = unvec(evolved[:, j])
                    n0 = np.sqrt(f_inner(metric, x0, x0).real)
                    n1 = np.sqrt(f_inner(metric, x1, x1).real)
                    assert n1 <= np.exp(-(report.lambda_f - 1e-6) * t) * n0


def _assert_decay_matches_gap(model, rho, functions, rel=1e-8):
    fps = fixed_point_structure(model, rho)
    metrics = [f_metric(rho, f) for f in functions]
    reports = gap_sweep(model, rho, metrics, fps=fps)
    for metric, report in zip(metrics, reports):
        assert report.lambda_f > 1e-3  # a relative check needs a real gap
        measured = empirical_decay_rate(model, rho, metric, fps=fps)
        assert measured == pytest.approx(report.lambda_f, rel=rel)


def test_empirical_decay_matches_eigenvalue_gap(rng):
    checked = 0
    while checked < 3:
        model, rho, _ = random_faithful_model(rng, 3)
        metrics = [f_metric(rho, f) for f in (gns(), kms(), bkm())]
        if min(r.lambda_f for r in gap_sweep(model, rho, metrics)) < 1e-3:
            continue  # relative comparison needs gaps away from zero
        checked += 1
        _assert_decay_matches_gap(model, rho, (gns(), kms(), bkm()))


def test_empirical_decay_on_degenerate_fixed_points(rng):
    # dim N = 2: the rate is measured on ker E, not on the mean-zero space
    model, rho = degenerate_block_model(rng)
    fps = fixed_point_structure(model, rho)
    assert fps.dim == 2
    _assert_decay_matches_gap(model, rho, (gns(), kms(), bkm(), power(0.3)))


def test_empirical_decay_at_dimension_8(rng):
    model, rho, _ = random_faithful_model(rng, 8)
    _assert_decay_matches_gap(model, rho, (gns(), kms(), power(0.3)))


def test_empirical_decay_is_deterministic(thermal):
    model, rho = thermal
    metric = f_metric(rho, bkm())
    first = empirical_decay_rate(model, rho, metric)
    assert empirical_decay_rate(model, rho, metric) == first
    assert first == pytest.approx((G_UP + G_DOWN) / 2.0, rel=1e-8)


def test_empirical_decay_of_trivial_model_is_infinite():
    model = GKSLModel(hamiltonian=np.zeros((2, 2), dtype=complex))
    rho = density_matrix(np.eye(2) / 2.0)
    assert math.isinf(empirical_decay_rate(model, rho, f_metric(rho, gns())))


def test_contractivity_at_zero_time(thermal):
    model, rho = thermal
    norm = f_operator_norm(f_metric(rho, bkm()), semigroup(model, 0.0))
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_unitary_semigroup_has_norm_one():
    # no jumps, H commuting with rho: Phi_t is a *-automorphism fixing rho,
    # an f-isometry for every f (rho supplied: the kernel is degenerate)
    h = np.diag([0.9, -0.4, 0.1]).astype(complex)
    model = GKSLModel(hamiltonian=h)
    gibbs = np.exp(-np.diag(h).real)
    rho = density_matrix(np.diag(gibbs / gibbs.sum()).astype(complex))
    for f in (gns(), kms(), bkm(), power(0.8)):
        for t in (0.1, 1.0, 10.0):
            norm = f_operator_norm(f_metric(rho, f), semigroup(model, t))
            assert norm == pytest.approx(1.0, abs=1e-9)


def test_contractivity_on_random_models(rng):
    for i in range(6):
        model, rho, _ = random_faithful_model(rng, [2, 3, 4][i % 3])
        for f in (gns(), kms(), bkm(), power(0.25)):
            for t in (0.1, 1.0, 10.0):
                norm = f_operator_norm(f_metric(rho, f), semigroup(model, t))
                assert norm <= 1.0 + 1e-8


def test_gap_curve_is_flat_for_depolarizing():
    model = depolarizing_qubit(GAMMA)
    rho = invariant_state(model)
    curve = gap_curve(model, rho, [0.1 * k for k in range(11)])
    lambdas = [lam for _, lam in curve.points]
    np.testing.assert_allclose(lambdas, 2.0 * GAMMA, atol=1e-10)
    assert curve.symmetric and curve.monotone


def test_gap_curve_structure_on_random_models(rng):
    for i in range(4):
        model, rho, _ = random_faithful_model(rng, [2, 3][i % 2])
        curve = gap_curve(model, rho, [round(0.05 * k, 10) for k in range(21)])
        assert curve.symmetry_defect <= curve.tolerance
        assert curve.monotonicity_defect <= curve.tolerance
        lambdas = {round(a, 10): lam for a, lam in curve.points}
        assert abs(lambdas[0.3] - lambdas[0.7]) <= curve.tolerance
        assert lambdas[0.0] <= lambdas[0.25] + curve.tolerance
        assert lambdas[0.25] <= lambdas[0.5] + curve.tolerance


def test_gap_comparison_on_random_models(rng):
    for i in range(8):
        model, rho, _ = random_faithful_model(rng, [2, 3, 4][i % 3])
        fps = fixed_point_structure(model, rho)
        lam_gns = spectral_gap_f(
            model, rho, f_metric(rho, gns()), fps=fps
        ).lambda_f
        for f in [power(0.1 * k) for k in range(11)] + [kms(), bkm()]:
            lam = spectral_gap_f(
                model, rho, f_metric(rho, f), fps=fps
            ).lambda_f
            assert lam >= lam_gns - 1e-7 * max(1.0, lam_gns)


def test_transpose_gap_equality(rng):
    for i in range(5):
        model, rho, _ = random_faithful_model(rng, [2, 3][i % 2])
        fps = fixed_point_structure(model, rho)
        for f in (gns(), power(0.3), bkm()):
            lam = spectral_gap_f(
                model, rho, f_metric(rho, f), fps=fps
            ).lambda_f
            lam_t = spectral_gap_f(
                model, rho, f_metric(rho, transpose(f)), fps=fps
            ).lambda_f
            assert abs(lam - lam_t) <= 1e-7 * max(1.0, lam)


def test_degenerate_mode_uses_kernel_of_expectation(rng):
    # sigma_z (x) 1 dephasing on d = 4: dim N = 8, decay happens on ker E
    v = np.kron(SIGMA_Z, np.eye(2))
    model = GKSLModel(hamiltonian=np.zeros((4, 4), dtype=complex), jumps=(v,))
    rho = density_matrix(np.eye(4) / 4.0)
    fps = fixed_point_structure(model, rho)
    assert fps.degenerate and fps.dim == 8
    lam_gns = None
    for f in (gns(), kms(), bkm()):
        metric = f_metric(rho, f)
        basis = decaying_subspace(metric, fps)
        assert basis.shape == (16, 8)
        # every basis vector is annihilated by the conditional expectation
        assert np.linalg.norm(projector(fps).matrix @ basis) <= 1e-9
        report = spectral_gap_f(model, rho, metric, fps=fps)
        # off-block coherences decay at rate 2 g_z = 2 for the unit jump
        assert report.lambda_f == pytest.approx(2.0, rel=1e-12)
        if lam_gns is None:
            lam_gns = report.lambda_f
        assert report.lambda_f >= lam_gns - 1e-7 * max(1.0, lam_gns)


# ---------------------------------------------------------------------------
# The eigen-frame engine against the kron-based route in original coordinates
# ---------------------------------------------------------------------------

SUITE = [power(round(0.1 * k, 10)) for k in range(11)]
SUITE += [kms(), bkm(), gns(), anti_gns()]


def _reference_spectrum(rho, metric, fps, gen):
    """Independent oracle: ker E from the SVD of B_N^H G_gns in column-stacking
    coordinates, f-orthonormalized through the materialized f-Gram, then the
    spectrum of minus the symmetrized compressed generator."""
    n_fixed = fps.dim
    if n_fixed == rho.dim**2:
        return np.empty(0)
    fixed = np.column_stack([vec(m) for m in fps.basis])
    _, _, vh = np.linalg.svd(dag(fixed) @ gns_gram_matrix(rho))
    raw = dag(vh[n_fixed:])
    gram = f_gram(metric).matrix
    vals, vecs = np.linalg.eigh(dag(raw) @ gram @ raw)
    basis = raw @ vecs / np.sqrt(vals)
    compressed = dag(basis) @ gram @ gen.matrix @ basis
    return np.linalg.eigvalsh(-(compressed + dag(compressed)) / 2.0)


def _assert_sweep_matches_reference(model, rho):
    gen = generator(model)
    fps = fixed_point_structure(model, rho)
    metrics = [f_metric(rho, f) for f in SUITE]
    reports = gap_sweep(model, rho, metrics, fps=fps)
    assert [r.f_label for r in reports] == [f.label for f in SUITE]
    for metric, report in zip(metrics, reports):
        expected = _reference_spectrum(rho, metric, fps, gen)
        assert report.kernel_dim == fps.dim
        if expected.size == 0:
            assert math.isinf(report.lambda_f) and report.spectrum.size == 0
            continue
        scale = np.abs(expected).max()
        np.testing.assert_allclose(
            report.spectrum, expected, rtol=1e-10, atol=1e-10 * scale
        )
        assert report.lambda_f == pytest.approx(expected[0], rel=1e-10)
        assert max(report.residuals.values()) <= 1e-9


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_gap_sweep_matches_reference_on_random_models(dim):
    model, rho, _ = random_faithful_model(np.random.default_rng(100 + dim), dim)
    _assert_sweep_matches_reference(model, rho)


def test_gap_sweep_matches_reference_on_degenerate_blocks(rng):
    for _ in range(2):
        model, rho = degenerate_block_model(rng)
        assert fixed_point_structure(model, rho).dim == 2
        _assert_sweep_matches_reference(model, rho)


# ---------------------------------------------------------------------------
# One basis V of ker E for every f: B_f = diag(w_f)^{-1/2} V
# ---------------------------------------------------------------------------


def _half_state_model():
    # rho = 1/2: every modular ratio is 1, so every f-weight is 1/2
    model = depolarizing_qubit(GAMMA)
    return model, invariant_state(model)


def _block_model():
    return degenerate_block_model(np.random.default_rng(6))


def _matrix_algebra_model():
    # N = M_2 (x) 1 is non-commutative; every sigma (x) tau is invariant,
    # tau the invariant state of the ergodic second factor
    eye = np.eye(2, dtype=complex)
    h = 0.4 * SIGMA_X + 0.1 * SIGMA_Z
    jumps = (SIGMA_MINUS, 0.5 * SIGMA_PLUS, 0.3 * (SIGMA_X + 0.4 * SIGMA_Z))
    tau = invariant_state(GKSLModel(hamiltonian=h, jumps=jumps)).rho
    sigma = np.array([[0.7, 0.1 + 0.05j], [0.1 - 0.05j, 0.3]])
    model = GKSLModel(
        hamiltonian=np.kron(eye, h), jumps=tuple(np.kron(eye, j) for j in jumps)
    )
    return model, density_matrix(np.kron(sigma, tau))


def _geometric_model():
    # truncated damped mode at d = 8: its invariant state has the spectrum
    # p_n ~ 0.2^n, a weight spread near 8e4
    d = 8
    a = np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)
    model = GKSLModel(hamiltonian=dag(a) @ a, jumps=(a, np.sqrt(0.2) * dag(a)))
    p = 0.2 ** np.arange(d)
    rho = density_matrix(np.diag(p / p.sum()))
    assert check_invariance(model, rho) <= 1e-10
    return model, rho


SHARED_BASIS_STATES = {
    "half": _half_state_model,
    "blocks": _block_model,
    "matrix_algebra": _matrix_algebra_model,
    "geometric_d8": _geometric_model,
}


@pytest.mark.parametrize("state", sorted(SHARED_BASIS_STATES))
def test_decaying_subspace_is_f_orthonormal_in_ker_e(state):
    model, rho = SHARED_BASIS_STATES[state]()
    fps = fixed_point_structure(model, rho)
    n = rho.dim**2 - fps.dim
    for f in SUITE:
        metric = f_metric(rho, f)
        basis = decaying_subspace(metric, fps)
        assert basis.shape == (rho.dim**2, n)
        gram = dag(basis) @ f_gram(metric).matrix @ basis
        np.testing.assert_allclose(gram, np.eye(n), atol=1e-12)
        assert np.linalg.norm(projector(fps).matrix @ basis) <= 1e-12


@pytest.mark.parametrize("state", ["matrix_algebra", "geometric_d8"])
def test_gap_sweep_matches_reference_on_shared_basis_states(state):
    model, rho = SHARED_BASIS_STATES[state]()
    if state == "matrix_algebra":
        assert fixed_point_structure(model, rho).dim == 4
    _assert_sweep_matches_reference(model, rho)


def test_basis_leaving_ker_e_is_named():
    # E onto span{1, sigma_x} preserves rho = diag(p) but not its modular
    # group: its kernel is not Delta-invariant, so diag(w_f)^{-1/2} V leaves
    # it for every f but gns, whose rescaling needs no invariance
    model = thermal_qubit(G_UP, G_DOWN)
    rho = invariant_state(model)
    fixed = np.column_stack([vec(np.eye(2)), vec(SIGMA_X)])
    gram = gns_gram_matrix(rho)
    fps = solved_for(FixedPointStructure(
        columns=fixed,
        coefficients=np.linalg.solve(dag(fixed) @ gram @ fixed, dag(fixed) @ gram),
    ), model, rho)
    (report,) = gap_sweep(model, rho, [f_metric(rho, gns())], fps=fps)
    assert report.residuals["kernel_membership"] <= 1e-12
    decaying_subspace(f_metric(rho, gns()), fps)
    for call in (
        lambda: gap_sweep(model, rho, [f_metric(rho, kms())], fps=fps),
        lambda: decaying_subspace(f_metric(rho, kms()), fps),
    ):
        with pytest.raises(PostconditionError, match="leaves ker E"):
            call()


def test_engine_makes_no_eigh_and_the_oracle_its_own(monkeypatch):
    model, rho, _ = random_faithful_model(np.random.default_rng(8), 8)
    fps = fixed_point_structure(model, rho)
    metrics = [f_metric(rho, f) for f in SUITE]
    calls = []
    real_eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(args[0].shape)
        return real_eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    gap_sweep(model, rho, metrics, fps=fps)
    decaying_subspace(metrics[0], fps)
    assert calls == []
    empirical_decay_rate(model, rho, metrics[0], fps=fps)
    assert len(calls) == 1


def test_gap_sweep_of_frozen_model_is_all_inf():
    model = GKSLModel(hamiltonian=np.zeros((3, 3), dtype=complex))
    rho = density_matrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
    reports = gap_sweep(model, rho, [f_metric(rho, f) for f in SUITE])
    assert all(r.empty and r.kernel_dim == 9 for r in reports)
    _assert_sweep_matches_reference(model, rho)


def test_f_operator_norms_match_gram_square_roots(rng):
    for d in range(2, 9):
        model, rho, _ = random_faithful_model(rng, d)
        metrics = [f_metric(rho, f) for f in SUITE]
        n = d * d
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for s in (semigroup(model, 0.7), Superoperator(dim=d, matrix=z)):
            norms = f_operator_norms(metrics, s)
            assert norms.shape == (len(metrics),)
            for metric, norm in zip(metrics, norms):
                root, inv_root = f_gram_sqrt(metric)
                expected = np.linalg.norm(root @ s.matrix @ inv_root, 2)
                assert norm == pytest.approx(expected, rel=1e-13)


def test_a_kept_rotation_serves_only_metrics_of_its_state(rng):
    model, rho, _ = random_faithful_model(rng, 3)
    other = random_density(rng, 3)
    phi = semigroup(model, 0.7)
    assert not phi.matrix.flags.writeable
    ours = f_operator_norms(f_metrics(rho, SUITE), phi)
    kept = phi._rotated
    assert kept is not None
    # metrics of another f_metrics call on the same state take the kept S~
    np.testing.assert_array_equal(f_operator_norms(f_metrics(rho, SUITE), phi), ours)
    assert phi._rotated is kept
    theirs = f_operator_norms(f_metrics(other, SUITE), phi)
    fresh = Superoperator(dim=3, matrix=phi.matrix.copy())
    want = f_operator_norms(f_metrics(other, SUITE), fresh)
    np.testing.assert_array_equal(theirs, want)
    assert np.abs(theirs - ours).max() > 1e-6


def test_a_state_forms_its_rotation_once(rng, monkeypatch):
    # W = conj(U) (x) U is formed by DensityMatrix.rotation on first use and
    # nowhere else: every gap, norm, Gram and adjoint of the state reads it
    assert not hasattr(gap, "kron") and not hasattr(metric_module, "kron")
    builds = _count_calls(monkeypatch, qms, "kron")
    model, rho, _ = random_faithful_model(rng, 3)
    metrics = f_metrics(rho, SUITE[:13])
    gap_sweep(model, rho, metrics)
    for t in (0.1, 1.0, 10.0):
        f_operator_norms(metrics, semigroup(model, t))
    for m in metrics:
        f_gram(m)
    f_adjoint(metrics[0], generator(model))
    assert len(builds) == 1
    assert all(m.state.rotation is rho.rotation for m in metrics)


def test_metrics_and_inner_products_form_no_rotation(rng, monkeypatch):
    # W is lazy: weights and f_inner read p and U alone, and one gap call
    # then forms exactly one W per state
    builds = _count_calls(monkeypatch, qms, "kron")
    draws = [random_faithful_model(rng, d) for d in (2, 3, 3)]
    rhos = [rho for _, rho, _ in draws]
    table = f_metric_table(rhos, SUITE[:4])
    for rho, row in zip(rhos, table):
        x = rng.standard_normal((rho.dim, rho.dim))
        for m in row:
            f_inner(m, x, x)
    assert builds == [] and all("rotation" not in vars(rho) for rho in rhos)
    for (model, rho, _), row in zip(draws, table):
        gap_sweep(model, rho, row)
    assert len(builds) == len(rhos)
    function_sweeps([model for model, _, _ in draws], rhos, SUITE[:4])
    assert len(builds) == len(rhos)


def test_a_writable_matrix_is_never_kept(rng):
    _, rho, _ = random_faithful_model(rng, 3)
    metrics = f_metrics(rho, SUITE)
    z = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    s = Superoperator(dim=3, matrix=z)
    before = f_operator_norms(metrics, s)
    assert s._rotated is None
    z *= 2.0
    np.testing.assert_allclose(f_operator_norms(metrics, s), 2.0 * before, rtol=1e-13)


def test_one_call_takes_metrics_of_one_state(rng):
    model, rho, _ = random_faithful_model(rng, 2)
    _, other, _ = random_faithful_model(rng, 2)
    metrics = [f_metric(rho, kms()), f_metric(other, kms())]
    with pytest.raises(QmsGapError):
        gap_sweep(model, rho, metrics)
    with pytest.raises(QmsGapError):
        f_operator_norms(metrics, semigroup(model, 1.0))


def test_empty_inputs_give_empty_results(thermal):
    model, rho = thermal
    assert gap_sweep(model, rho, []) == []
    assert f_operator_norms([], semigroup(model, 1.0)).shape == (0,)
    with pytest.raises(QmsGapError, match="at least one alpha"):
        gap_curve(model, rho, [])


def test_metric_of_another_dimension_is_named(rng, thermal):
    model, rho = thermal
    _, rho3, _ = random_faithful_model(rng, 3)
    metric = f_metric(rho3, kms())
    fps = fixed_point_structure(model, rho)
    calls = (
        lambda: gap_sweep(model, rho3, [metric]),
        lambda: spectral_gap_f(model, rho, metric, fps=fps),
        lambda: empirical_decay_rate(model, rho3, metric),
        lambda: decaying_subspace(metric, fps),
        lambda: f_operator_norms([metric], semigroup(model, 1.0)),
    )
    for call in calls:
        with pytest.raises(DimensionMismatchError, match="dimension 3 for a .* 2"):
            call()


# ---------------------------------------------------------------------------
# Guards kept by the engine
# ---------------------------------------------------------------------------


def test_gap_sweep_raises_on_rank_drop(monkeypatch, thermal):
    model, rho = thermal
    monkeypatch.setattr(gap, "SUBSPACE_DROP_TOL", 1.0)
    with pytest.raises(RankDeficiencyError):
        gap_sweep(model, rho, [f_metric(rho, kms())])


def _flipped_thermal():
    # the thermal qubit and its state, and a model whose generator is -L
    model = thermal_qubit(G_UP, G_DOWN)
    rho = invariant_state(model)
    return model, rho, with_generator(model, -generator(model).matrix)


def test_gap_sweep_warns_on_negative_gap():
    _, rho, flipped = _flipped_thermal()
    fps = fixed_point_structure(flipped, rho)
    with pytest.warns(NegativeGapWarning):
        (report,) = gap_sweep(flipped, rho, [f_metric(rho, gns())], fps=fps)
    assert report.lambda_f == pytest.approx(-(G_UP + G_DOWN), rel=1e-12)


# each public entry point reaches the warning at another depth in gap.py
NEGATIVE_GAP_CALLS = {
    "function_sweeps": lambda m, r: function_sweeps([m], [r], [gns()]),
    "gap_sweep": lambda m, r: gap_sweep(m, r, [f_metric(r, gns())]),
    "spectral_gap_f": lambda m, r: spectral_gap_f(m, r, f_metric(r, gns())),
    "gap_curve": lambda m, r: gap_curve(m, r, [0.5]),
    "gap_curves": lambda m, r: gap_curves([m], [r], [0.5]),
}


@pytest.mark.parametrize("entry", sorted(NEGATIVE_GAP_CALLS))
def test_negative_gap_warning_names_the_callers_line(entry):
    _, rho, flipped = _flipped_thermal()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        NEGATIVE_GAP_CALLS[entry](flipped, rho)
    (warned,) = caught
    assert issubclass(warned.category, NegativeGapWarning)
    assert warned.filename == __file__


def test_ill_conditioned_warning_names_the_callers_line():
    rho = density_matrix(
        np.diag([1.0 - 2e-13, 1e-13, 1e-13]), faithfulness_threshold=1e-16
    )
    model = GKSLModel(hamiltonian=np.zeros((3, 3), dtype=complex))
    for call in (
        lambda: gap_sweep(model, rho, [f_metric(rho, gns())]),
        lambda: function_sweeps([model], [rho], [gns()]),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        (warned,) = caught
        assert issubclass(warned.category, IllConditionedWarning)
        assert warned.filename == __file__


def test_gap_sweep_warns_on_ill_conditioned_weights():
    rho = density_matrix(
        np.diag([1.0 - 2e-13, 1e-13, 1e-13]), faithfulness_threshold=1e-16
    )
    model = GKSLModel(hamiltonian=np.zeros((3, 3), dtype=complex))
    with pytest.warns(IllConditionedWarning):
        (report,) = gap_sweep(model, rho, [f_metric(rho, gns())])
    assert report.empty


def test_well_conditioned_sweep_warns_nothing(thermal):
    model, rho = thermal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gap_sweep(model, rho, [f_metric(rho, f) for f in SUITE])


def test_gap_curve_memory_does_not_grow_with_the_grid():
    # d = 8 batches one function at a time; stacking all 101 would peak
    # near 60 MB
    model, rho, _ = random_faithful_model(np.random.default_rng(8), 8)
    fps = fixed_point_structure(model, rho)
    tracemalloc.start()
    try:
        gap_curve(model, rho, [k / 100 for k in range(101)], fps=fps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# ---------------------------------------------------------------------------
# Batches of models: each model gets exactly what it gets alone
# ---------------------------------------------------------------------------

TIMES = (0.1, 1.0, 10.0)
ALPHAS = [round(0.05 * k, 10) for k in range(21)]


def _mixed_stack():
    # d = 2, 3, 4 draws, a degenerate block model (d = 4 with dim N = 2, so
    # the d = 4 models split into two stacks) and the depolarizing qubit
    rng = np.random.default_rng(77)
    cases = [random_faithful_model(rng, d)[:2] for d in (2, 3, 4, 3, 2, 4)]
    cases.insert(3, degenerate_block_model(rng))
    model = depolarizing_qubit(GAMMA)
    cases.append((model, invariant_state(model)))
    return cases


def _assert_same_reports(got, want):
    assert [r.f_label for r in got] == [r.f_label for r in want]
    for a, b in zip(got, want):
        assert a.lambda_f == b.lambda_f and a.kernel_dim == b.kernel_dim
        assert np.array_equal(a.spectrum, b.spectrum)
        assert a.residuals == b.residuals


def _reports(sweeps, functions):
    # the GapReports a one-model gap_sweep gives, from function_sweeps' arrays
    return [sweep.reports([f.label for f in functions]) for sweep in sweeps]


def test_mixed_stack_gives_what_one_model_calls_give():
    cases = _mixed_stack()
    models = [model for model, _ in cases]
    rhos = [rho for _, rho in cases]
    assert sorted({fps.dim for fps in fixed_point_structures(models, rhos)}) == [1, 2]
    table = f_metric_table(rhos, SUITE)
    fpss = fixed_point_structures(models, rhos)
    sweeps = _reports(function_sweeps(models, rhos, SUITE), SUITE)
    norms = function_norms(models, rhos, SUITE, TIMES)
    curves = gap_curves(models, rhos, ALPHAS)
    for (model, rho), fps_b, metrics_b, reports, norm, curve in zip(
        cases, fpss, table, sweeps, norms, curves
    ):
        fps = fixed_point_structure(model, rho)  # a frame of its own
        np.testing.assert_array_equal(projector(fps_b).matrix, projector(fps).matrix)
        metrics = f_metrics(rho, SUITE)
        for a, b in zip(metrics_b, metrics):
            np.testing.assert_array_equal(a.weights, b.weights)
        _assert_same_reports(reports, gap_sweep(model, rho, metrics, fps=fps))
        alone = [f_operator_norms(metrics, semigroup(model, t)) for t in TIMES]
        np.testing.assert_array_equal(norm, np.array(alone))
        assert curve == gap_curve(model, rho, ALPHAS, fps=fps)


def test_one_matrix_per_chunk_changes_nothing(monkeypatch):
    cases = _mixed_stack()
    models = [model for model, _ in cases]
    rhos = [rho for _, rho in cases]
    sweeps = _reports(function_sweeps(models, rhos, SUITE), SUITE)
    norms = function_norms(models, rhos, SUITE, TIMES)
    monkeypatch.setattr(linalg, "CHUNK_BYTES", 1)
    for got, want in zip(_reports(function_sweeps(models, rhos, SUITE), SUITE), sweeps):
        _assert_same_reports(got, want)
    for got, want in zip(function_norms(models, rhos, SUITE, TIMES), norms):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("routine", ["semigroups", "function_norms"])
def test_an_empty_time_grid_gives_empty_arrays(routine):
    cases = _mixed_stack()
    models = [model for model, _ in cases]
    if routine == "semigroups":
        got = semigroups(models, ())
        want = [(0, m.dim**2, m.dim**2) for m in models]
    else:
        got = function_norms(models, [rho for _, rho in cases], SUITE, ())
        want = [(0, len(SUITE))] * len(models)
    assert [a.shape for a in got] == want


def _length_cases():
    # fresh models, so a generator built before the check would show
    models = [depolarizing_qubit(GAMMA), depolarizing_qubit(2 * GAMMA)]
    rho = density_matrix(np.eye(2) / 2.0)
    functions = (gns(), kms())
    return {
        "sweeps-rhos": (lambda: function_sweeps(models, [rho], functions),
                        "models 2, rhos 1"),
        "norms": (lambda: function_norms(models, [rho], functions, (1.0,)),
                  "models 2, rhos 1"),
        "structures-rhos": (lambda: fixed_point_structures(models[:1], [rho, rho]),
                            "models 1, rhos 2"),
        "structures-models": (lambda: fixed_point_structures(models, [rho]),
                              "models 2, rhos 1"),
        "curves-rhos": (lambda: gap_curves(models, [rho], [0.5]), "models 2, rhos 1"),
    }


@pytest.mark.parametrize("case", sorted(_length_cases()))
def test_batched_lists_of_different_lengths_are_named(case, monkeypatch):
    call, lengths = _length_cases()[case]

    def no_kron(*args, **kwargs):
        raise AssertionError("work done before the length check")

    monkeypatch.setattr(np, "kron", no_kron)
    with pytest.raises(DimensionMismatchError) as raised:
        call()
    assert str(raised.value) == f"per-model lists differ in length: {lengths}"


def _bad_expectation_case():
    # the model and E of test_basis_leaving_ker_e_is_named: the kms basis
    # leaves ker E, which the sweep finds after the frame is built
    model = thermal_qubit(G_UP, G_DOWN)
    rho = invariant_state(model)
    fixed = np.column_stack([vec(np.eye(2)), vec(SIGMA_X)])
    gram = gns_gram_matrix(rho)
    fps = solved_for(FixedPointStructure(
        columns=fixed,
        coefficients=np.linalg.solve(dag(fixed) @ gram @ fixed, dag(fixed) @ gram),
    ), model, rho)
    return model, rho, fps


def _sweeps_given(monkeypatch, models, rhos, functions, fpss):
    # function_sweeps with the fixed-point structures given (None: computed)
    real = gap.fixed_point_structures

    def given(*args):
        computed = real(*args)
        return [fps if fps is not None else own for fps, own in zip(fpss, computed)]

    monkeypatch.setattr(gap, "fixed_point_structures", given)
    return function_sweeps(models, rhos, functions)


def test_batch_raises_the_error_of_a_failing_model(monkeypatch):
    # a batched call runs each stage for all models before the next, so it
    # raises the error of the first failing stage; the campaign restores
    # model order (tests/test_harness.py)
    good = random_faithful_model(np.random.default_rng(5), 2)[:2]
    model, rho, fps = _bad_expectation_case()
    with pytest.raises(PostconditionError) as alone:
        gap_sweep(model, rho, f_metrics(rho, SUITE), fps=fps)
    with pytest.raises(PostconditionError) as batched:
        _sweeps_given(
            monkeypatch, [good[0], model, good[0]], [good[1], rho, good[1]], SUITE,
            [None, fps, None],
        )
    assert str(batched.value) == str(alone.value)


def test_batch_gives_the_warnings_and_reports_of_one_model_calls(thermal):
    # the second model warns in the sweep (a flipped generator), the third
    # before it (ill-conditioned weights)
    rng = np.random.default_rng(6)
    _, rho, flipped = _flipped_thermal()
    ill = density_matrix(
        np.diag([1.0 - 2e-13, 1e-13, 1e-13]), faithfulness_threshold=1e-16
    )
    frozen = GKSLModel(hamiltonian=np.zeros((3, 3), dtype=complex))
    cases = [random_faithful_model(rng, 3)[:2], (flipped, rho), (frozen, ill)]
    models = [m for m, _ in cases]
    rhos = [r for _, r in cases]
    functions = (gns(), kms())

    def run(call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = call()
        return out, sorted((w.category.__name__, str(w.message)) for w in caught)

    batched, got = run(
        lambda: _reports(function_sweeps(models, rhos, functions), functions)
    )
    alone, want = run(lambda: [gap_sweep(m, r, f_metrics(r, functions)) for m, r in cases])
    assert got == want
    assert [category for category, _ in want] == ["IllConditionedWarning"] * 2 + [
        "NegativeGapWarning"
    ] * 2
    for a, b in zip(batched, alone):
        _assert_same_reports(a, b)


# ---------------------------------------------------------------------------
# Equal weight rows: one slice each, reported under each label
# ---------------------------------------------------------------------------

# gns and power(0) always give equal weight rows, and so do bkm and
# transpose(bkm); kms and power(0.5) do where numpy takes t^0.5 as sqrt t
DUPLICATES = (gns(), power(0.0), kms(), power(0.5), bkm(), transpose(bkm()))


def test_duplicate_weights_get_the_bits_they_get_alone():
    cases = _mixed_stack()
    models = [model for model, _ in cases]
    rhos = [rho for _, rho in cases]
    sweeps = _reports(function_sweeps(models, rhos, DUPLICATES), DUPLICATES)
    norms = function_norms(models, rhos, DUPLICATES, TIMES)
    labels = [f.label for f in DUPLICATES]
    for (model, rho), reports, norm in zip(cases, sweeps, norms):
        assert [r.f_label for r in reports] == labels
        for f, report, column in zip(DUPLICATES, reports, norm.T):
            alone = f_metric(rho, f)
            _assert_same_reports([report], gap_sweep(model, rho, [alone]))
            want = [f_operator_norm(alone, semigroup(model, t)) for t in TIMES]
            np.testing.assert_array_equal(column, want)


def test_each_weight_row_is_one_slice(monkeypatch):
    # equal rows too: one stacked eigvalsh serves all of a model's slices
    model, rho, _ = random_faithful_model(np.random.default_rng(12), 3)
    fps = fixed_point_structure(model, rho)
    metrics = f_metrics(rho, DUPLICATES)
    slices = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        slices.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    gap_sweep(model, rho, metrics, fps=fps)
    function_norms([model], [rho], DUPLICATES, TIMES)
    # one chunk each at d = 3
    assert slices == [len(DUPLICATES), len(DUPLICATES) * len(TIMES)]


def _caught(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    return [(w.category, str(w.message)) for w in caught]


def test_duplicate_weights_warn_once_per_label_in_order():
    # a flipped generator gives negative gaps; a frozen model on an
    # ill-conditioned state warns before finding nothing to decay
    _, rho, flipped = _flipped_thermal()
    ill = density_matrix(
        np.diag([1.0 - 2e-13, 1e-13, 1e-13]), faithfulness_threshold=1e-16
    )
    frozen = GKSLModel(hamiltonian=np.zeros((3, 3), dtype=complex))
    for case, state, category in (
        (flipped, rho, NegativeGapWarning),
        (frozen, ill, IllConditionedWarning),
    ):
        metrics = f_metrics(state, DUPLICATES)
        got = _caught(lambda: gap_sweep(case, state, metrics))
        want = [
            warned for m in metrics
            for warned in _caught(lambda: gap_sweep(case, state, [m]))
        ]
        assert got == want
        assert [c for c, _ in got] == [category] * len(DUPLICATES)
    labels = [message.split(" for ")[1].split(":")[0] for _, message in _caught(
        lambda: gap_sweep(flipped, rho, f_metrics(rho, DUPLICATES))
    )]
    assert labels == [f.label for f in DUPLICATES]


def test_a_failing_duplicate_raises_what_a_model_by_model_run_raises(monkeypatch):
    # the kms basis leaves ker E of _bad_expectation_case; power(0.5) comes
    # first, with the weights of kms or ones that fail the same way
    functions = (power(0.5), kms(), gns(), power(0.0), transpose(bkm()), bkm())
    good = random_faithful_model(np.random.default_rng(5), 2)[:2]
    model, rho, fps = _bad_expectation_case()
    with pytest.raises(PostconditionError) as alone:
        gap_sweep(model, rho, f_metrics(rho, functions), fps=fps)
    assert "for power(0.5)" in str(alone.value)
    with pytest.raises(PostconditionError) as batched:
        _sweeps_given(
            monkeypatch, [good[0], model, good[0]], [good[1], rho, good[1]], functions,
            [None, fps, None],
        )
    assert str(batched.value) == str(alone.value)


# ---------------------------------------------------------------------------
# The frame kept on the FixedPointStructure
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _fresh(fps, model, rho):
    # the factors of fps on a structure that keeps no frame yet
    return solved_for(FixedPointStructure(fps.columns, fps.coefficients), model, rho)


def test_frame_is_built_once_per_model_and_state(monkeypatch):
    model, rho, _ = random_faithful_model(np.random.default_rng(9), 4)
    fps = fixed_point_structure(model, rho)
    svds = _count_calls(monkeypatch, np.linalg, "svd")
    first = spectral_gap_f(model, rho, f_metric(rho, kms()), fps=fps)
    assert len(svds) == 1  # the kernel SVD of the frame
    for f in SUITE:  # metrics of other f_metrics calls on the same state
        spectral_gap_f(model, rho, f_metric(rho, f), fps=fps)
    gap_curve(model, rho, ALPHAS, fps=fps)
    decaying_subspace(f_metric(rho, bkm()), fps)
    assert len(svds) == 1
    again = spectral_gap_f(model, rho, f_metric(rho, kms()), fps=fps)
    _assert_same_reports([again], [first])


def test_a_one_model_call_keeps_exactly_one_frame():
    model, rho, _ = random_faithful_model(np.random.default_rng(9), 3)
    fps = fixed_point_structure(model, rho)
    assert fps._frame is None
    gap_curve(model, rho, ALPHAS, fps=fps)
    kept = fps._frame
    assert kept is not None and kept.gen.shape[0] == 1  # one model
    spectral_gap_f(model, rho, f_metric(rho, kms()), fps=fps)
    assert fps._frame is kept


def test_a_batch_keeps_no_frame_and_takes_one_stacked_svd_per_shape(monkeypatch):
    dims = (2, 2, 3, 2, 3)
    draws = [random_faithful_model(np.random.default_rng(40 + i), d)[:2]
             for i, d in enumerate(dims)]
    models, rhos = map(list, zip(*draws))
    fpss = fixed_point_structures(models, rhos)
    stacks = []
    real = np.linalg.svd

    def counting(a, *args, **kwargs):
        stacks.append(a.shape[:-2])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    _sweeps_given(monkeypatch, models, rhos, SUITE, fpss)
    assert sorted(stacks) == [(2,), (3,)]  # one per (d, dim N) group
    assert all(fps._frame is None for fps in fpss)


def test_a_batch_of_d8_models_keeps_no_frame(monkeypatch):
    # at d = 8 a chunk holds one model, so each model is a group of its own
    rng = np.random.default_rng(8)
    draws = [random_faithful_model(rng, 8)[:2] for _ in range(3)]
    models, rhos = map(list, zip(*draws))
    fpss = fixed_point_structures(models, rhos)
    _sweeps_given(monkeypatch, models, rhos, (gns(), kms()), fpss)
    assert all(fps._frame is None for fps in fpss)


def test_frame_reads_the_expectation_instead_of_solving_for_it(monkeypatch):
    # E is solved once, in fixed_point_structure; the frame reads R~ = R W
    model, rho, _ = random_faithful_model(np.random.default_rng(9), 3)
    fps = fixed_point_structure(model, rho)
    solves = _count_calls(monkeypatch, np.linalg, "solve")
    spectral_gap_f(model, rho, f_metric(rho, kms()), fps=fps)
    assert solves == []



def _dephasing():
    # diagonal dephasing: N is the diagonal algebra and every diagonal state
    # is invariant; E takes the diagonal part under each of the two below,
    # whose eigenbases order the levels differently
    model = GKSLModel(
        hamiltonian=np.diag([0.9, -0.4, 0.1]).astype(complex),
        jumps=(np.diag([1.0, 0.3, -0.5]).astype(complex),),
    )
    rho = density_matrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
    other = density_matrix(np.diag([0.2, 0.5, 0.3]).astype(complex))
    return model, rho, other


def test_an_fps_solved_under_another_state_is_refused(monkeypatch):
    # the fps of rho has the E of other's, but serves rho alone
    model, rho, other = _dephasing()
    fps = fixed_point_structure(model, rho)
    theirs = fixed_point_structure(model, other)
    assert fps.dim == 3
    np.testing.assert_allclose(projector(fps).matrix, projector(theirs).matrix,
                               atol=1e-12)
    spectral_gap_f(model, rho, f_metric(rho, kms()), fps=fps)
    kept = fps._frame
    svds = _count_calls(monkeypatch, np.linalg, "svd")
    metric = f_metric(other, kms())
    with pytest.raises(QmsGapError, match="fps must be"):
        spectral_gap_f(model, other, metric, fps=fps)
    assert svds == [] and fps._frame is kept
    _assert_same_reports([spectral_gap_f(model, other, metric, fps=theirs)],
                         [spectral_gap_f(model, other, metric)])


def test_an_fps_of_another_model_is_refused():
    # the model and a twin whose generator is -L share N, E and rho, but
    # each takes only its own fps
    model, rho, flipped = _flipped_thermal()
    fps = fixed_point_structure(model, rho)
    metric = f_metric(rho, gns())
    with pytest.raises(QmsGapError, match="fps must be"):
        spectral_gap_f(flipped, rho, metric, fps=fps)
    assert fps._frame is None
    with pytest.warns(NegativeGapWarning):
        negative = spectral_gap_f(flipped, rho, metric,
                                  fps=fixed_point_structure(flipped, rho))
    positive = spectral_gap_f(model, rho, metric, fps=fps)
    assert negative.lambda_f < 0 < positive.lambda_f
    _assert_same_reports([positive], [spectral_gap_f(model, rho, metric)])


def _foreign_fps(case):
    """A call's model and state, an fps fixed_point_structure did not
    return for them, and the state decaying_subspace (which takes no model)
    gets its metric from."""
    rng = np.random.default_rng(1)
    model, rho, _ = random_faithful_model(rng, 3)
    other_model, other_rho, _ = random_faithful_model(rng, 3)
    fps = fixed_point_structure(model, rho)
    if case == "another_model":
        # rho is not other_model's state either, but the fps is refused
        # first; decaying_subspace takes its metric from other_rho
        return other_model, rho, fps, other_rho
    if case == "another_state":
        dephasing, state, other = _dephasing()
        return dephasing, other, fixed_point_structure(dephasing, state), other
    return model, rho, FixedPointStructure(fps.columns, fps.coefficients), rho


ONE_MODEL_ROUTINES = {
    "spectral_gap_f": lambda m, r, fps: spectral_gap_f(m, r, f_metric(r, kms()), fps=fps),
    "gap_sweep": lambda m, r, fps: gap_sweep(m, r, f_metrics(r, SUITE), fps=fps),
    "gap_curve": lambda m, r, fps: gap_curve(m, r, ALPHAS, fps=fps),
    "empirical_decay_rate": lambda m, r, fps: empirical_decay_rate(
        m, r, f_metric(r, kms()), fps=fps
    ),
}


@pytest.mark.parametrize("case", ["another_model", "another_state", "hand_built"])
def test_only_the_fps_of_the_calls_model_and_state_is_taken(case):
    model, rho, fps, state = _foreign_fps(case)
    calls = [partial(call, model, rho, fps) for call in ONE_MODEL_ROUTINES.values()]
    calls.append(partial(decaying_subspace, f_metric(state, kms()), fps))
    for call in calls:
        with pytest.raises(QmsGapError, match="fps must be"):
            call()
        assert fps._frame is None


def test_a_foreign_fps_gives_no_gap_of_another_model():
    # seed 1: the first d = 3 draw's E and state, swept with the second
    # draw's generator, would read a negative KMS gap (-0.0219); the second
    # draw's own KMS gap is 0.1347
    model, rho, fps, other_rho = _foreign_fps("another_model")
    with pytest.raises(QmsGapError, match=r"fixed_point_structure\(model, rho\)"):
        spectral_gap_f(model, rho, f_metric(rho, kms()), fps=fps)
    own = spectral_gap_f(model, other_rho, f_metric(other_rho, kms()))
    assert own.lambda_f == pytest.approx(0.1347, abs=1e-4)
    # a foreign fps cannot carry a state past the invariance check either
    a, b = thermal_qubit(0.25, 1.0), thermal_qubit(0.6, 0.9, 0.3)
    rho_a = invariant_state(a)
    metric = f_metric(rho_a, kms())
    with pytest.raises(QmsGapError, match="state is not invariant"):
        spectral_gap_f(b, rho_a, metric)
    with pytest.raises(QmsGapError, match="fps must be"):
        spectral_gap_f(b, rho_a, metric, fps=fixed_point_structure(a, rho_a))


def _count_decompositions(monkeypatch):
    kernels = ((np, "kron"), (np.linalg, "svd"), (np.linalg, "eigh"),
               (np.linalg, "eigvalsh"), (np.linalg, "solve"), (np.linalg, "cholesky"))
    return {name: _count_calls(monkeypatch, owner, name) for owner, name in kernels}


def _counted(calls):
    return {name: len(made) for name, made in calls.items() if made}


def test_a_scan_item_makes_a_fixed_set_of_decompositions(monkeypatch):
    # a fresh draw, its fixed points and its gns, kms and bkm gaps, as
    # strict_gap_search and perfbench's scan take them: the generator's
    # 2 + 3 n_jumps np.kron terms and Choi cholesky, one SVD for both
    # kernels, one eigh for the state, one solve for E, one SVD for the
    # frame and one eigvalsh per gap
    calls = _count_decompositions(monkeypatch)
    model, rho, rejected = random_faithful_model(np.random.default_rng(3), 3)
    fps = fixed_point_structure(model, rho, gen=generator(model))
    for f in (gns(), kms(), bkm()):
        spectral_gap_f(model, rho, f_metric(rho, f), fps=fps)
    assert rejected == 0
    assert _counted(calls) == {"kron": 2 + 3 * len(model.jumps), "svd": 2, "eigh": 1,
                               "solve": 1, "cholesky": 1, "eigvalsh": 3}
    for made in calls.values():
        made.clear()
    spectral_gap_f(model, rho, f_metric(rho, power(0.3)), fps=fps)  # kept frame
    assert _counted(calls) == {"eigvalsh": 1}


def _sixty_draws():
    # 60 seeded random faithful models, 20 each at d = 2, 3 and 4
    draws = list(qms.random_faithful_models(np.random.default_rng(42), [2, 3, 4] * 20))
    return [m for m, _, _ in draws], [r for _, r, _ in draws]


def test_one_jump_models_have_a_zero_gns_gap():
    # x = V - tr(rho V) 1 lies in ker E and commutes with the one jump V, so
    # the GNS Dirichlet form (1/2) tr(rho [x, V]^H [x, V]) vanishes on it;
    # on this sample every draw with more jumps has a gap above 1e-3, far
    # above strict_gap's GNS_GAP_FLOOR
    models, rhos = _sixty_draws()
    lambdas = [sweep.lambdas[0] for sweep in function_sweeps(models, rhos, [gns()])]
    one = [abs(lam) for m, lam in zip(models, lambdas) if len(m.jumps) == 1]
    other = [lam for m, lam in zip(models, lambdas) if len(m.jumps) > 1]
    assert one and other
    assert max(one) <= 1e-12
    assert min(other) > 1e-3


def _commutator_gns_gap(model, rho):
    # The carre du champ of L is sum_k [x, V_k]^H [x, V_k] and tr(rho L(y)) = 0,
    # so -Re <x, L x>_gns = (1/2) sum_k tr(rho [x, V_k]^H [x, V_k]): lambda_gns
    # is its minimum over tr(rho x^H x) = 1 on ker E, with no L, E or frame.
    # C_k = V_k^T (x) 1 - 1 (x) V_k maps vec(x) to vec([x, V_k]) and
    # B = rho^T (x) 1 is the GNS Gram; whitened by B = F F^H, ker E is the
    # complement of F^H vec(1), on which A = (1/2) sum_k C_k^H B C_k is >= 0
    d = model.dim
    eye = np.eye(d)
    gram = np.kron(rho.rho.T, eye)
    commutators = [np.kron(v.T, eye) - np.kron(eye, v) for v in model.jumps]
    form = sum(dag(c) @ gram @ c for c in commutators) / 2.0
    factor = np.linalg.cholesky(gram)
    unwhiten = np.linalg.inv(factor)
    one = dag(factor) @ vec(eye)
    off = np.eye(d * d) - np.outer(one, one.conj()) / np.vdot(one, one).real
    return np.linalg.eigvalsh(off @ (unwhiten @ form @ dag(unwhiten)) @ off)[1]


def test_gns_gap_matches_the_commutator_oracle():
    # the projected form's lowest eigenvalue, 0, is on F^H vec(1) itself, so
    # the second-smallest is the minimum on ker E
    models, rhos = _sixty_draws()
    for model, rho in zip(models, rhos):
        lam = spectral_gap_f(model, rho, f_metric(rho, gns())).lambda_f
        oracle = _commutator_gns_gap(model, rho)
        assert abs(lam - oracle) <= 1e-12 * max(1.0, lam)
        if len(model.jumps) == 1:
            assert max(abs(lam), abs(oracle)) <= 1e-12
    assert any(len(m.jumps) == 1 for m in models)


def test_every_gap_is_at_most_the_slowest_decay_rate_of_l():
    # if L x = mu x with mu != 0, x lies in ker E and Re <x, L x>_f =
    # Re mu |x|_f^2, so every lambda_f <= a(L), the least -Re mu over the
    # nonzero eigenvalues of L; the kernel_dim smallest |mu| are its zeros,
    # which the oracle decides itself at 1e3 eps max |mu|
    models, rhos = _sixty_draws()
    functions = [gns()] + [function_from_descriptor(doc) for doc in default_f_suite()]
    edge = 1e3 * np.finfo(float).eps
    for model, sweep in zip(models, function_sweeps(models, rhos, functions)):
        mu = np.linalg.eigvals(generator(model).matrix)
        mu = mu[np.argsort(np.abs(mu))]
        zero, rest = mu[: sweep.kernel_dim], mu[sweep.kernel_dim :]
        top = np.abs(mu).max()
        assert np.abs(zero).max() <= edge * top < np.abs(rest).min()
        assert sweep.lambdas.max() <= (-rest.real).min()


def _not_invariant():
    # rho = 1/2 for the thermal qubit, |L_*(rho)|_F = 0.53
    model = thermal_qubit(0.25, 1.0)
    rho = density_matrix(np.eye(2) / 2.0)
    return model, rho, f"{check_invariance(model, rho):.3e}"


@pytest.mark.parametrize("route", ["spectral_gap_f", "gap_curve", "function_sweeps",
                                   "empirical_decay_rate"])
def test_a_state_the_model_does_not_keep_is_refused(route):
    model, rho, residual = _not_invariant()
    call = {
        "spectral_gap_f": lambda: spectral_gap_f(model, rho, f_metric(rho, kms())),
        "gap_curve": lambda: gap_curve(model, rho, ALPHAS),
        "function_sweeps": lambda: function_sweeps([model], [rho], SUITE),
        "empirical_decay_rate": lambda: empirical_decay_rate(
            model, rho, f_metric(rho, kms())
        ),
    }[route]
    with pytest.raises(QmsGapError, match="state is not invariant") as raised:
        call()
    assert residual in str(raised.value)


def test_decay_rates_share_one_semigroup_stack(monkeypatch):
    model, rho, _ = random_faithful_model(np.random.default_rng(11), 3)
    fps = fixed_point_structure(model, rho)
    metrics = f_metrics(rho, (gns(), kms(), bkm(), power(0.3)))
    want = [empirical_decay_rate(model, rho, m, fps=_fresh(fps, model, rho))
            for m in metrics]
    expms = _count_calls(monkeypatch, gap, "expm")
    got = [empirical_decay_rate(model, rho, m, fps=fps) for m in metrics]
    assert got == want
    assert len(expms) == 1


def _coupled_blocks(eps):
    """A block dephaser sigma_z (x) 1 and a thermal pair on the second
    qubit, with invariant state 1/2 (x) diag(0.2, 0.8), coupled by the jump
    eps sigma_x (x) 1.  The block observable decays at
    eps^2 (sigma_x sigma_z sigma_x - sigma_z) = -2 eps^2 sigma_z, slower
    than every other mode, so the GNS gap is 2 eps^2."""
    eye = np.eye(2, dtype=complex)
    jumps = (
        np.kron(SIGMA_Z, eye),
        np.kron(eye, SIGMA_MINUS),
        0.5 * np.kron(eye, SIGMA_PLUS),
        eps * np.kron(SIGMA_X, eye),
    )
    model = GKSLModel(hamiltonian=np.zeros((4, 4), dtype=complex), jumps=jumps)
    return model, density_matrix(np.kron(eye / 2.0, np.diag([0.2, 0.8])))


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_weakly_coupled_blocks_have_gap_two_eps_squared(eps):
    model, rho = _coupled_blocks(eps)
    lam = spectral_gap_f(model, rho, f_metric(rho, gns())).lambda_f
    assert lam == pytest.approx(2.0 * eps**2, rel=1e-6)


@pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6])
def test_nearly_decoupled_blocks_get_their_gap_or_a_named_error(eps):
    # the slow mode's singular value 2 eps^2-ish lies between the round-off
    # edge and KERNEL_TOL: too close to call, so the kernel cut refuses it
    model, rho = _coupled_blocks(eps)
    with pytest.raises(KernelDecisionError, match="too close to call"):
        spectral_gap_f(model, rho, f_metric(rho, gns()))


def test_invariant_state_is_unique_exactly_when_the_fixed_points_are_scalars():
    cases = [_coupled_blocks(eps) for eps in (1e-2, 1e-3)]
    cases.append(degenerate_block_model(np.random.default_rng(6)))
    dims = []
    for model, rho in cases:
        try:
            invariant_state(model)
            unique = True
        except NonUniqueInvariantStateError:
            unique = False
        dims.append(fixed_point_structure(model, rho).dim)
        assert unique == (dims[-1] == 1)
    assert min(dims) == 1 < max(dims)
    for eps in (1e-4, 1e-5):  # the cut cannot decide these
        model, rho = _coupled_blocks(eps)
        with pytest.raises(KernelDecisionError):
            invariant_state(model)
        with pytest.raises(KernelDecisionError):
            fixed_point_structure(model, rho)


# ---------------------------------------------------------------------------
# The deflation against a compression onto ker E
# ---------------------------------------------------------------------------


def _random_case(d):
    return random_faithful_model(np.random.default_rng(300 + d), d)[:2]


DEFLATION_CASES = [
    pytest.param(partial(_random_case, d), 1, id=f"random_d{d}") for d in (2, 3, 4, 8)
] + [
    pytest.param(_block_model, 2, id="degenerate_blocks"),
    pytest.param(partial(_coupled_blocks, 1e-2), 1, id="coupled_blocks_1e-2"),
    pytest.param(partial(_coupled_blocks, 1e-3), 1, id="coupled_blocks_1e-3"),
]


def _compressed_spectrum(metric, fps, gen):
    """Minus the symmetrized C = B^H G_f L B, B = decaying_subspace: the
    generator compressed to ker E, with no deflation."""
    basis = decaying_subspace(metric, fps)
    compressed = dag(basis) @ f_gram(metric).matrix @ gen.matrix @ basis
    return np.linalg.eigvalsh(-(compressed + dag(compressed)) / 2.0)


@pytest.mark.parametrize("case, n_fixed", DEFLATION_CASES)
def test_deflated_spectrum_matches_a_compression_onto_ker_e(case, n_fixed):
    model, rho = case()
    gen = generator(model)
    fps = fixed_point_structure(model, rho)
    assert fps.dim == n_fixed
    metrics = [f_metric(rho, f) for f in SUITE]
    reports = gap_sweep(model, rho, metrics, fps=fps)
    for metric, report in zip(metrics, reports):
        expected = _compressed_spectrum(metric, fps, gen)
        assert report.spectrum.shape == expected.shape == (rho.dim**2 - n_fixed,)
        assert np.abs(report.spectrum - expected).max() <= 1e-12 * max(
            1.0, report.lambda_f
        )


def _deflation_reports(case, n_fixed):
    model, rho = case()
    fps = fixed_point_structure(model, rho)
    assert fps.dim == n_fixed
    metrics = [f_metric(rho, f) for f in SUITE]
    return fps, metrics, gap_sweep(model, rho, metrics, fps=fps)


@pytest.mark.parametrize("case, n_fixed", DEFLATION_CASES)
def test_kernel_membership_from_factors_matches_the_materialized_projector(
    case, n_fixed
):
    # the frame checks E B_f through E's rank-dim N factors; the d^2 x d^2
    # projector of the fixed-point structure must give the same defect
    fps, metrics, reports = _deflation_reports(case, n_fixed)
    for metric, report in zip(metrics, reports):
        basis = decaying_subspace(metric, fps)
        expected = np.linalg.norm(projector(fps).matrix @ basis) / np.linalg.norm(basis)
        assert abs(report.residuals["kernel_membership"] - expected) <= 1e-12


@pytest.mark.parametrize("case, n_fixed", DEFLATION_CASES)
def test_invariance_defect_never_exceeds_the_adjoint_defect(case, n_fixed):
    # both are norms of one product Z = Y^H M_f, the second of Z V with V
    # orthonormal: |Z V| <= |Z|
    _, _, reports = _deflation_reports(case, n_fixed)
    for report in reports:
        residuals = report.residuals
        assert residuals["subspace_invariance"] <= residuals["adjoint_consistency"]


def test_subspace_invariance_bounds_what_the_deflation_neglects(thermal):
    # L + delta vec(1) vec(sigma_x)^H still annihilates N = C 1 but maps
    # sigma_x in ker E partly onto N: with the coupling K = |Y^H M_f V| the
    # deflated gap moves from the compressed one by at most (K / 2)^2 over
    # the shift's margin, which is at least 1
    model, rho = thermal
    coupling_map = np.outer(vec(np.eye(2)), vec(SIGMA_X).conj())
    coupled = generator(model).matrix + 0.1 * coupling_map
    twin = with_generator(model, coupled)
    fps = solved_for(fixed_point_structure(model, rho), twin, rho)
    for f in (gns(), kms(), power(0.2)):
        metric = f_metric(rho, f)
        (report,) = gap_sweep(twin, rho, [metric], fps=fps)
        root, inv_root = f_gram_sqrt(metric)
        size = np.linalg.norm(root @ coupled @ inv_root)
        coupling = report.residuals["subspace_invariance"] * max(1.0, size)
        assert coupling > 1e-2
        assert report.residuals["adjoint_consistency"] >= report.residuals[
            "subspace_invariance"
        ]
        moved = abs(report.lambda_f - _compressed_spectrum(metric, fps, generator(twin))[0])
        assert 0.0 < moved <= (coupling / 2.0) ** 2


# ---------------------------------------------------------------------------
# One generator per model, one state per call
# ---------------------------------------------------------------------------

GEN_KEYWORDS = {
    "spectral_gap_f": lambda m, r, g: spectral_gap_f(m, r, f_metric(r, kms()), gen=g),
    "gap_curve": lambda m, r, g: gap_curve(m, r, ALPHAS, gen=g),
    "invariant_state": lambda m, r, g: invariant_state(m, gen=g),
    "fixed_point_structure": lambda m, r, g: fixed_point_structure(m, r, gen=g),
    "semigroup": lambda m, r, g: semigroup(m, 0.7, gen=g),
}


def test_only_five_routines_take_gen_and_none_takes_gens_or_fpss():
    from qmsgap import cli, config, harness, metric, monotone

    takes_gen = set()
    for module in (qms, gap, metric, linalg, monotone, harness, config, cli):
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            parameters = inspect.signature(obj).parameters
            assert not {"gens", "fpss"} & set(parameters), name
            if "gen" in parameters:
                takes_gen.add(name)
    assert takes_gen == set(GEN_KEYWORDS)


def _as_bytes(out):
    # what a kept-gen routine returns, as comparable bytes
    if isinstance(out, gap.GapReport):
        return (out.lambda_f, out.spectrum.tobytes(), out.residuals)
    if isinstance(out, gap.GapCurve):
        return out
    if isinstance(out, FixedPointStructure):
        return out.columns.tobytes(), out.coefficients.tobytes()
    if isinstance(out, Superoperator):
        return out.matrix.tobytes()
    return out.rho.tobytes(), out.eigenvalues.tobytes()


@pytest.mark.parametrize("entry", sorted(GEN_KEYWORDS))
def test_a_kept_gen_keyword_takes_only_the_models_own_generator(entry):
    call = GEN_KEYWORDS[entry]
    model, rho, _ = random_faithful_model(np.random.default_rng(1), 3)
    gen = generator(model)
    assert _as_bytes(call(model, rho, gen)) == _as_bytes(call(model, rho, None))
    same_numbers = Superoperator(dim=3, matrix=gen.matrix.copy())
    twin = GKSLModel(model.hamiltonian, model.jumps)
    for foreign in (same_numbers, generator(twin)):
        with pytest.raises(QmsGapError, match=r"generator\(model\)"):
            call(model, rho, foreign)
    # a model that keeps no generator yet takes none, and builds none
    fresh = GKSLModel(model.hamiltonian, model.jumps)
    with pytest.raises(QmsGapError, match=r"generator\(model\)"):
        call(fresh, rho, gen)
    assert fresh._generator is None


def test_a_metric_of_another_state_is_named():
    # rho2 has the model's d, but the call's state is rho
    model, rho, _ = random_faithful_model(np.random.default_rng(1), 3)
    foreign = f_metric(density_matrix(np.eye(3) / 3), kms())
    fps = fixed_point_structure(model, rho)
    for call in (
        lambda: gap_sweep(model, rho, [foreign]),
        lambda: spectral_gap_f(model, rho, foreign),
        lambda: spectral_gap_f(model, rho, foreign, fps=fps),
        lambda: empirical_decay_rate(model, rho, foreign),
        lambda: empirical_decay_rate(model, rho, foreign, fps=fps),
    ):
        with pytest.raises(QmsGapError, match="come from its state rho"):
            call()
    own = f_metric(rho, kms())
    # a metric of rho's twin, equal arrays but another state, is foreign too
    twin = f_metric(density_matrix(rho.rho), kms())
    one_state = "metrics of one call must come from one state"
    for call, message in (
        (lambda: gap_sweep(model, rho, [twin]), "come from its state rho"),
        (lambda: gap_sweep(model, rho, [own, twin]), one_state),
        (lambda: f_operator_norms([own, twin], semigroup(model, 1.0)), one_state),
        (lambda: decaying_subspace(twin, fps), "solved under the metric's state"),
    ):
        with pytest.raises(QmsGapError, match=message):
            call()
    assert decaying_subspace(own, fps).shape == (9, 9 - fps.dim)
    assert empirical_decay_rate(model, rho, own) == pytest.approx(
        spectral_gap_f(model, rho, own).lambda_f, rel=1e-8
    )


def test_an_empty_function_list_gives_each_model_an_empty_sweep():
    cases = _mixed_stack()
    cases.append((GKSLModel(hamiltonian=np.zeros((3, 3), dtype=complex)),
                  density_matrix(np.diag([0.5, 0.3, 0.2]).astype(complex))))
    models = [model for model, _ in cases]
    rhos = [rho for _, rho in cases]
    for (model, rho), sweep, fps in zip(
        cases, function_sweeps(models, rhos, ()), fixed_point_structures(models, rhos)
    ):
        decaying = model.dim**2 - fps.dim
        assert sweep.kernel_dim == fps.dim
        assert sweep.lambdas.shape == (0,)
        assert sweep.spectra.shape == (0, decaying)
        assert sweep.residuals.shape == (0, 4 if decaying else 0)
        assert sweep.reports([]) == []
    (alone,) = function_sweeps(models[:1], rhos[:1], ())
    assert alone.lambdas.shape == (0,) and alone.residuals.shape == (0, 4)
