import math

import numpy as np
import pytest

from qmsgap.gap import (
    decaying_subspace,
    empirical_decay_rate,
    f_operator_norm,
    gap_curve,
    spectral_gap_f,
)
from qmsgap.linalg import unvec
from qmsgap.metric import f_inner, f_metric
from qmsgap.monotone import anti_gns, bkm, gns, kms, power, transpose
from qmsgap.qms import (
    SIGMA_Z,
    GKSLModel,
    density_matrix,
    depolarizing_qubit,
    fixed_point_structure,
    generator,
    invariant_state,
    random_faithful_model,
    semigroup,
    thermal_qubit,
)

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
    gen = generator(model)
    fps = fixed_point_structure(model, rho, gen=gen)
    basis = decaying_subspace(metric, fps)
    coeffs = rng.standard_normal((basis.shape[1], n_vectors))
    samples = basis @ coeffs
    ts = np.linspace(t_max / 2.0, t_max, 12)
    logs = np.empty((ts.size, n_vectors))
    for k, t in enumerate(ts):
        phi = semigroup(model, float(t), gen=gen)
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
        gen = generator(model)
        fps = fixed_point_structure(model, rho, gen=gen)
        for f in (gns(), kms(), power(0.4)):
            metric = f_metric(rho, f)
            report = spectral_gap_f(model, rho, metric, fps=fps, gen=gen)
            basis = decaying_subspace(metric, fps)
            samples = basis @ (
                rng.standard_normal((basis.shape[1], 100))
                + 1j * rng.standard_normal((basis.shape[1], 100))
            )
            for t in (0.5, 1.0, 2.0):
                phi = semigroup(model, t, gen=gen)
                evolved = phi.matrix @ samples
                for j in range(samples.shape[1]):
                    x0 = unvec(samples[:, j])
                    x1 = unvec(evolved[:, j])
                    n0 = np.sqrt(f_inner(metric, x0, x0).real)
                    n1 = np.sqrt(f_inner(metric, x1, x1).real)
                    assert n1 <= np.exp(-(report.lambda_f - 1e-6) * t) * n0


def test_empirical_decay_matches_eigenvalue_gap(rng):
    checked = 0
    while checked < 3:
        model, rho, _ = random_faithful_model(rng, 3)
        gen = generator(model)
        fps = fixed_point_structure(model, rho, gen=gen)
        metrics = [f_metric(rho, f) for f in (gns(), kms(), bkm())]
        reports = [
            spectral_gap_f(model, rho, m, fps=fps, gen=gen) for m in metrics
        ]
        if min(r.lambda_f for r in reports) < 1e-3:
            continue  # relative comparison needs gaps away from zero
        checked += 1
        for metric, report in zip(metrics, reports):
            measured = empirical_decay_rate(
                model, rho, metric, rng, fps=fps, gen=gen
            )
            assert measured == pytest.approx(report.lambda_f, rel=1e-4)


def test_empirical_decay_of_trivial_model_is_infinite(rng):
    model = GKSLModel(hamiltonian=np.zeros((2, 2), dtype=complex))
    rho = density_matrix(np.eye(2) / 2.0)
    assert math.isinf(
        empirical_decay_rate(model, rho, f_metric(rho, gns()), rng)
    )


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
        gen = generator(model)
        fps = fixed_point_structure(model, rho, gen=gen)
        lam_gns = spectral_gap_f(
            model, rho, f_metric(rho, gns()), fps=fps, gen=gen
        ).lambda_f
        for f in [power(0.1 * k) for k in range(11)] + [kms(), bkm()]:
            lam = spectral_gap_f(
                model, rho, f_metric(rho, f), fps=fps, gen=gen
            ).lambda_f
            assert lam >= lam_gns - 1e-7 * max(1.0, lam_gns)


def test_transpose_gap_equality(rng):
    for i in range(5):
        model, rho, _ = random_faithful_model(rng, [2, 3][i % 2])
        gen = generator(model)
        fps = fixed_point_structure(model, rho, gen=gen)
        for f in (gns(), power(0.3), bkm()):
            lam = spectral_gap_f(
                model, rho, f_metric(rho, f), fps=fps, gen=gen
            ).lambda_f
            lam_t = spectral_gap_f(
                model, rho, f_metric(rho, transpose(f)), fps=fps, gen=gen
            ).lambda_f
            assert abs(lam - lam_t) <= 1e-7 * max(1.0, lam)


def test_degenerate_mode_uses_kernel_of_expectation(rng):
    # sigma_z (x) 1 dephasing on d = 4: dim N = 8, decay happens on ker E
    v = np.kron(SIGMA_Z, np.eye(2))
    model = GKSLModel(hamiltonian=np.zeros((4, 4), dtype=complex), jumps=(v,))
    rho = density_matrix(np.eye(4) / 4.0)
    fps = fixed_point_structure(model, rho)
    assert fps.degenerate and fps.dim == 8
    gen = generator(model)
    lam_gns = None
    for f in (gns(), kms(), bkm()):
        metric = f_metric(rho, f)
        basis = decaying_subspace(metric, fps)
        assert basis.shape == (16, 8)
        # every basis vector is annihilated by the conditional expectation
        assert np.linalg.norm(fps.projector.matrix @ basis) <= 1e-9
        report = spectral_gap_f(model, rho, metric, fps=fps, gen=gen)
        # off-block coherences decay at rate 2 g_z = 2 for the unit jump
        assert report.lambda_f == pytest.approx(2.0, rel=1e-12)
        if lam_gns is None:
            lam_gns = report.lambda_f
        assert report.lambda_f >= lam_gns - 1e-7 * max(1.0, lam_gns)
