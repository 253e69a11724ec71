import json

import numpy as np
import pytest

from qmsgap import harness
from qmsgap.config import model_from_dict, model_to_dict
from qmsgap.errors import (
    ConfigError,
    PropertyFailureError,
    QmsGapError,
    RateMismatchError,
)
from qmsgap.gap import spectral_gap_f
from qmsgap.harness import (
    PROPERTY_ORDER,
    CampaignConfig,
    acceptance_config,
    degenerate_block_model,
    detailed_balance_model,
    random_detailed_balance,
    run_campaign,
    strict_gap_search,
)
from qmsgap.metric import f_adjoint, f_metric
from qmsgap.monotone import builtin_functions, gns, kms, power
from qmsgap.qms import (
    SIGMA_X,
    GKSLModel,
    check_invariance,
    density_matrix,
    depolarizing_qubit,
    fixed_point_structure,
    generator,
    invariant_state,
    thermal_qubit,
)


def small_config(seed=7, **overrides):
    base = dict(
        seed=seed,
        n_models=4,
        dims=(2, 3),
        counts={
            "decay_equivalence": 2,
            "transpose_symmetry": 3,
            "alpha_curve": 2,
            "moreau_identity": 5,
            "om1_bounds": 3,
            "loewner_order": 4,
            "metric_closed_forms": 5,
            "detailed_balance_collapse": 3,
            "strict_gap": 30,
            "degenerate_gap": 2,
        },
    )
    base.update(overrides)
    return CampaignConfig(**base)


@pytest.fixture(scope="module")
def small_report():
    return run_campaign(small_config())


def test_campaign_passes_and_covers_every_property(small_report):
    assert small_report.all_passed
    assert [r.name for r in small_report.results] == list(PROPERTY_ORDER)
    assert all(r.n_cases >= 1 for r in small_report.results)


def test_campaign_is_deterministic(small_report):
    again = run_campaign(small_config())
    assert json.dumps(small_report.canonical_dict(), sort_keys=True) == json.dumps(
        again.canonical_dict(), sort_keys=True
    )
    assert small_report.to_csv() == again.to_csv()


def test_campaign_csv_shape(small_report):
    lines = small_report.to_csv().strip().split("\n")
    assert lines[0] == "property,case,dim,defect,passed"
    assert len(lines) == 1 + sum(r.n_cases for r in small_report.results)


def test_depolarizing_override_passes():
    override = model_to_dict(depolarizing_qubit(0.35))
    cfg = small_config(seed=1, n_models=1, dims=(2,), model_override=override)
    report = run_campaign(cfg)
    assert report.all_passed
    # the override pins the pooled properties to a single model
    assert report.result("gap_comparison").n_cases == 1


def test_failed_property_raises_with_counterexamples():
    cfg = small_config(seed=3, tolerances={"gap_comparison": 1e-18})
    report = run_campaign(cfg)
    failing = report.result("gap_comparison")
    if failing.passed:  # numerically exact draws; force via transpose too
        pytest.skip("all margins below 1e-18, astronomically unlikely")
    assert not report.all_passed
    with pytest.raises(PropertyFailureError) as err:
        report.raise_on_failure()
    assert err.value.counterexamples
    doc = err.value.counterexamples[0]
    model, rho = model_from_dict(doc["model"])
    assert model.dim == doc["model"]["dim"]
    if rho is not None:
        assert check_invariance(model, rho) <= 1e-8


def test_every_failed_case_has_one_replayable_counterexample():
    tight = {
        "gap_comparison": 1e-18,
        "transpose_symmetry": 1e-18,
        "detailed_balance_collapse": 1e-18,
    }
    report = run_campaign(small_config(tolerances=tight))
    model_free = {
        "moreau_identity", "om1_bounds", "loewner_order",
        "metric_closed_forms", "strict_gap",
    }
    for result in report.results:
        failed = [c for c in result.cases if not c.passed]
        if result.name in tight:
            assert failed, result.name
        assert len(result.counterexamples) == len(failed)
        for case in failed:
            docs = [d for d in result.counterexamples if d["case"] == case.case_id]
            assert len(docs) == 1
            doc = docs[0]
            assert doc["property"] == result.name
            assert doc["defect"] == case.defect
            assert doc["seed"] == report.config.seed
            if result.name not in model_free:
                model, rho = model_from_dict(doc["model"])
                assert model.dim == case.dim
                assert check_invariance(model, rho) <= 1e-8


def test_non_degenerate_block_draw_fails_with_counterexample(monkeypatch):
    model = thermal_qubit(0.25, 1.0)
    rho = invariant_state(model)
    monkeypatch.setattr(harness, "degenerate_block_model", lambda rng: (model, rho))
    result = run_campaign(small_config(properties=("degenerate_gap",))).result(
        "degenerate_gap"
    )
    assert not result.passed
    assert len(result.counterexamples) == result.n_cases == 2
    assert all("model" in doc for doc in result.counterexamples)


def test_decay_equivalence_raises_when_draw_budget_runs_out(monkeypatch):
    monkeypatch.setattr(harness, "_DECAY_GAP_FLOOR", 1e9)
    cfg = small_config(
        properties=("decay_equivalence",), counts={"decay_equivalence": 1}
    )
    with pytest.raises(QmsGapError) as err:
        run_campaign(cfg)
    assert not isinstance(err.value, ConfigError)  # not the zero-case check
    assert "decay_equivalence: 20 draws produced 0 of 1 cases" in str(err.value)


def test_config_validation():
    with pytest.raises(ConfigError):
        CampaignConfig(seed=1, n_models=0)
    with pytest.raises(ConfigError):
        CampaignConfig(seed=1, dims=(9,))
    with pytest.raises(ConfigError):
        CampaignConfig(seed=1, counts={"alpha_curve": 0})
    with pytest.raises(ConfigError):
        CampaignConfig(seed=1, properties=("no_such_property",))
    with pytest.raises(ConfigError):
        CampaignConfig(seed=1, t_grid=())
    with pytest.raises(ConfigError):
        CampaignConfig(seed=1, f_suite=())
    with pytest.raises(ConfigError):
        CampaignConfig.from_dict({"n_models": 3})  # no seed anywhere
    cfg = CampaignConfig.from_dict({"n_models": 3}, seed=9)
    assert cfg.seed == 9 and cfg.n_models == 3


def test_config_roundtrip():
    cfg = small_config(seed=11)
    again = CampaignConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert acceptance_config().n_models == 200


def test_detailed_balance_model_is_self_adjoint_for_every_f():
    rho = density_matrix(np.diag([0.25, 0.75]).astype(complex))
    # thermal balance: rate(e<-g) p_g = rate(g<-e) p_e
    model = detailed_balance_model(rho, {(1, 0): 0.9, (0, 1): 0.3})
    gen = generator(model)
    assert check_invariance(model, rho) <= 1e-12
    for f in builtin_functions():
        adj = f_adjoint(f_metric(rho, f), gen)
        assert np.abs(adj.matrix - gen.matrix).max() <= 1e-8


def test_detailed_balance_flat_state_symmetric_rates():
    rho = density_matrix(np.eye(3) / 3.0)
    rates = {(i, j): 0.5 for i in range(3) for j in range(3) if i != j}
    model = detailed_balance_model(rho, rates)
    assert len(model.jumps) == 6


def test_detailed_balance_rejects_broken_rates():
    rho = density_matrix(np.diag([0.25, 0.75]).astype(complex))
    with pytest.raises(RateMismatchError):
        detailed_balance_model(rho, {(1, 0): 0.5, (0, 1): 0.5})
    with pytest.raises(RateMismatchError):
        detailed_balance_model(
            density_matrix(np.array([[0.5, 0.2], [0.2, 0.5]]).astype(complex)),
            {(1, 0): 0.5, (0, 1): 0.5},
        )


def test_detailed_balance_collapses_the_gap_family(rng):
    model, rho = random_detailed_balance(rng, 3)
    gen = generator(model)
    fps = fixed_point_structure(model, rho, gen=gen)
    lambdas = [
        spectral_gap_f(model, rho, f_metric(rho, f), fps=fps, gen=gen).lambda_f
        for f in builtin_functions() + (power(0.15),)
    ]
    spread = max(lambdas) - min(lambdas)
    assert spread <= 1e-7 * min(lambdas)


def test_degenerate_block_model_structure(rng):
    model, rho = degenerate_block_model(rng)
    assert check_invariance(model, rho) <= 1e-10
    fps = fixed_point_structure(model, rho)
    assert fps.degenerate and fps.dim == 2


def test_strict_gap_search_finds_separation():
    cfg = CampaignConfig(seed=2024, n_models=4, counts={"strict_gap": 60})
    result = strict_gap_search(cfg, dims=(2,))
    assert result.found
    assert result.best_margin > 1e-3 * result.best_lambda_gns
    assert result.best_model is not None
    # the reported best model replays standalone
    model, rho = model_from_dict(result.best_model)
    gen = generator(model)
    fps = fixed_point_structure(model, rho, gen=gen)
    lam_gns = spectral_gap_f(
        model, rho, f_metric(rho, gns()), fps=fps, gen=gen
    ).lambda_f
    lam_kms = spectral_gap_f(
        model, rho, f_metric(rho, kms()), fps=fps, gen=gen
    ).lambda_f
    assert lam_kms - lam_gns == pytest.approx(result.best_margin, rel=1e-9)


def test_strict_gap_search_is_deterministic():
    cfg = CampaignConfig(seed=77, n_models=4, counts={"strict_gap": 25})
    r1 = strict_gap_search(cfg, dims=(2,))
    r2 = strict_gap_search(cfg, dims=(2,))
    assert r1 == r2


def test_driven_thermal_qubit_separates_kms_from_gns():
    # transverse drive on thermal jumps: a known strict-separation family
    thermal = thermal_qubit(0.25, 1.0)
    model = GKSLModel(hamiltonian=0.8 * SIGMA_X, jumps=thermal.jumps)
    rho = invariant_state(model)
    fps = fixed_point_structure(model, rho)
    lam_gns = spectral_gap_f(model, rho, f_metric(rho, gns()), fps=fps).lambda_f
    lam_kms = spectral_gap_f(model, rho, f_metric(rho, kms()), fps=fps).lambda_f
    assert lam_kms - lam_gns > 1e-3 * lam_gns
    # balanced models have no separation: transverse drive is essential
    undriven = thermal_qubit(0.25, 1.0)
    rho_u = invariant_state(undriven)
    fps_u = fixed_point_structure(undriven, rho_u)
    g = spectral_gap_f(undriven, rho_u, f_metric(rho_u, gns()), fps=fps_u).lambda_f
    k = spectral_gap_f(undriven, rho_u, f_metric(rho_u, kms()), fps=fps_u).lambda_f
    assert abs(k - g) <= 1e-9


def test_model_serialization_roundtrip(rng):
    model, rho = random_detailed_balance(rng, 3)
    doc = model_to_dict(model, rho)
    again, rho_again = model_from_dict(doc)
    np.testing.assert_allclose(again.hamiltonian, model.hamiltonian, atol=1e-16)
    assert len(again.jumps) == len(model.jumps)
    for a, b in zip(again.jumps, model.jumps):
        np.testing.assert_allclose(a, b, atol=1e-16)
    np.testing.assert_allclose(rho_again.rho, rho.rho, atol=1e-12)


def test_render_text_mentions_every_property(small_report):
    text = small_report.render_text(include_timing=False)
    for name in PROPERTY_ORDER:
        assert name in text
    assert "all properties passed" in text
