import gc
import warnings
import weakref
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from qmsgap import gap, harness, linalg, qms
from qmsgap.config import load_json, model_from_dict, model_to_dict
from qmsgap.errors import (
    ConfigError,
    NoFaithfulInvariantStateError,
    NonUniqueInvariantStateError,
    PostconditionError,
    QmsGapError,
    RateMismatchError,
)
from qmsgap.gap import GapReport, gap_sweep, spectral_gap_f
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
from qmsgap.metric import FMetric, f_adjoint, f_metric, f_metrics
from qmsgap.monotone import builtin_functions, gns, kms, power
from qmsgap.qms import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    GKSLModel,
    check_invariance,
    density_matrix,
    depolarizing_qubit,
    fixed_point_structure,
    generator,
    invariant_state,
    thermal_qubit,
)

from references import campaign_config_to_dict, property_result


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
    assert small_report.to_csv() == again.to_csv()
    assert small_report.n_rejected_draws == again.n_rejected_draws
    assert small_report.config == again.config


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
    assert property_result(report, "gap_comparison").n_cases == 1


def test_an_override_model_is_one_case_of_each_property_that_draws_models(monkeypatch):
    # decay_equivalence too: an override never varies, so it is one case;
    # the config parses the override once and every drawing property runs
    # that one model, so its generator is built once
    calls = {"parse": 0, "build": 0}
    parse, build = harness.cfgmod.model_from_dict, qms._generator_stack

    def counted(name, real, *args):
        calls[name] += 1
        return real(*args)

    monkeypatch.setattr(harness.cfgmod, "model_from_dict", partial(counted, "parse", parse))
    monkeypatch.setattr(qms, "_generator_stack", partial(counted, "build", build))
    doc = load_json(ROOT / "tests" / "data" / "campaign_override.json")
    cfg = CampaignConfig.from_dict(doc)
    report = run_campaign(cfg)
    assert report.all_passed
    assert [r.n_cases for r in report.results] == [1] * len(doc["properties"])
    assert calls == {"parse": 1, "build": 1}
    # the kept model is no config key
    with pytest.raises(ConfigError, match=r"unknown keys in campaign config: \['_override'\]"):
        CampaignConfig.from_dict({**doc, "_override": None})


def _counted(monkeypatch, module, name):
    """The calls of module.name, counted from here on."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_campaign_parses_its_functions_once_when_the_config_is_built(monkeypatch):
    # the 13 descriptors of the f_suite, and no descriptor during the run
    calls = _counted(monkeypatch, harness.cfgmod, "function_from_descriptor")
    cfg = acceptance_config(42)
    assert len(calls) == len(cfg.f_suite) == 13
    assert run_campaign(cfg).all_passed
    assert len(calls) == 13


def test_an_override_state_is_solved_once_when_the_config_is_built(monkeypatch):
    calls = _counted(monkeypatch, harness, "invariant_state")
    doc = load_json(ROOT / "tests" / "data" / "campaign_override.json")
    cfg = CampaignConfig.from_dict(doc)
    assert calls == ["invariant_state"]
    assert run_campaign(cfg).all_passed
    assert calls == ["invariant_state"]


@pytest.mark.parametrize("jump, error", [
    (SIGMA_Z, NonUniqueInvariantStateError),
    (SIGMA_MINUS, NoFaithfulInvariantStateError),
])
def test_an_ill_posed_override_fails_when_the_config_is_built(jump, error):
    # no property draws a model, yet the override's state is solved at build
    override = model_to_dict(GKSLModel(hamiltonian=np.zeros((2, 2)), jumps=(jump,)))
    with pytest.raises(error):
        CampaignConfig(seed=1, properties=("moreau_identity",), model_override=override)


@pytest.mark.parametrize(
    "properties",
    [("moreau_identity", "om1_bounds"),  # no property draws a model
     ("moreau_identity", "strict_gap", "gap_comparison")],
)
def test_a_malformed_override_fails_when_the_config_is_built(monkeypatch, properties):
    def no_run(*args):
        raise AssertionError("a property ran")

    monkeypatch.setattr(harness, "_run_property", no_run)
    override = {**model_to_dict(depolarizing_qubit(0.35)), "jump": []}
    with pytest.raises(ConfigError, match=r"unknown keys in model config: \['jump'\]"):
        run_campaign(CampaignConfig(seed=1, properties=properties,
                                    model_override=override))


def test_failed_property_reports_replayable_counterexamples():
    cfg = small_config(seed=3, tolerances={"gap_comparison": 1e-18})
    report = run_campaign(cfg)
    failing = property_result(report, "gap_comparison")
    if failing.passed:  # numerically exact draws; force via transpose too
        pytest.skip("all margins below 1e-18, astronomically unlikely")
    assert not report.all_passed
    counterexamples = report.counterexamples()
    assert counterexamples
    doc = counterexamples[0]
    model, rho = model_from_dict(doc["model"])
    assert model.dim == doc["model"]["dim"]
    if rho is not None:
        assert check_invariance(model, rho) <= 1e-8


def test_every_failed_case_has_one_replayable_counterexample(monkeypatch):
    # GNS ties with power(0) bit-exactly and with anti-GNS up to round-off
    # of either sign, so a 1e-18 tolerance alone need not fail any
    # gap_comparison case; against KMS every generic draw fails it.
    monkeypatch.setattr(harness, "gns", kms)
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
    result = property_result(
        run_campaign(small_config(properties=("degenerate_gap",))), "degenerate_gap"
    )
    assert not result.passed
    assert len(result.counterexamples) == result.n_cases == 2
    assert all("model" in doc for doc in result.counterexamples)


def test_every_model_family_reaches_the_complete_positivity_check(monkeypatch):
    # qms._generators sets each generator qms.generator returns, after its
    # Choi check (qms.choi_matrix, on a stack of the generators of one d);
    # every model a family draws must hold a generator matrix set so
    checked, stacks = {}, []
    real_choi, real_generators = qms.choi_matrix, qms._generators

    def choi(stack):
        stacks.append(np.array(stack))
        return real_choi(stack)

    def generators(models):
        unset = [model for model in models if model._generator is None]
        stacks.clear()
        out = real_generators(models)
        for model in unset:
            m = model._generator.matrix
            assert any(
                (stack == m).all(axis=(1, 2)).any()
                for stack in stacks if stack.shape[1:] == m.shape
            )
            checked[id(m)] = m  # kept alive, so no other array takes its id
        return out

    monkeypatch.setattr(qms, "_generators", generators)
    monkeypatch.setattr(qms, "choi_matrix", choi)
    drawn = {}

    def recording(name, real):
        def keep(out):
            model = out.model if isinstance(out, harness.PoolEntry) else out[0]
            drawn.setdefault(name, []).append(model)
            return out

        def draw(*args):
            out = real(*args)
            if isinstance(out, (tuple, harness.PoolEntry)):
                return keep(out)
            return map(keep, out)  # the entries of a batch, as they come

        monkeypatch.setattr(harness, name, draw)

    # _draws: the shared pool, the transpose, alpha and decay draws and the
    # override; _random_draws: the strict-gap scan (and _draws' random models)
    names = ("_draws", "_random_draws", "random_detailed_balance",
             "degenerate_block_model")
    for name in names:
        recording(name, getattr(harness, name))
    assert run_campaign(small_config()).all_passed
    override = load_json(ROOT / "configs" / "thermal_qubit.json")
    run_campaign(small_config(model_override=override))
    assert sorted(drawn) == sorted(names)  # every family drew a model
    for models in drawn.values():
        for model in models:
            assert id(model._generator.matrix) in checked


def test_degenerate_gap_reads_the_sweep_not_decaying_subspace(monkeypatch):
    def no_basis(*args, **kwargs):
        raise AssertionError("decaying_subspace called")

    for module in (gap, harness):
        monkeypatch.setattr(module, "decaying_subspace", no_basis, raising=False)
    report = run_campaign(small_config(properties=("degenerate_gap",)))
    assert report.all_passed
    assert property_result(report, "degenerate_gap").n_cases == 2


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


@pytest.mark.parametrize("name", ["gap_comparison", "contractivity"])
def test_a_count_of_a_shared_pool_property_is_refused(name):
    # both run on n_models shared models and read no count of their own
    with pytest.raises(ConfigError, match=f"{name!r}: it runs on all n_models"):
        CampaignConfig(seed=1, n_models=6, dims=(2,), counts={name: 2},
                       properties=("gap_comparison", "contractivity"))
    readers = {name for name, row in harness._PROPERTIES.items() if row.count is None}
    assert readers == {"gap_comparison", "contractivity"}


def test_a_shared_pool_property_counts_the_n_models_models():
    cfg = acceptance_config(42)
    assert cfg.count("gap_comparison") == cfg.count("contractivity") == 200
    assert cfg.count("strict_gap") == 500


def test_config_roundtrip():
    cfg = small_config(seed=11)
    again = CampaignConfig.from_dict(campaign_config_to_dict(cfg))
    assert again == cfg
    assert acceptance_config().n_models == 200


def test_acceptance_config_file_is_the_acceptance_campaign():
    # configs/campaign_acceptance.json is what `qmsgap verify` runs in CI
    doc = load_json(ROOT / "configs" / "campaign_acceptance.json")
    assert CampaignConfig.from_dict(doc) == acceptance_config(42)


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
    fps = fixed_point_structure(model, rho)
    lambdas = [
        spectral_gap_f(model, rho, f_metric(rho, f), fps=fps).lambda_f
        for f in builtin_functions() + (power(0.15),)
    ]
    spread = max(lambdas) - min(lambdas)
    assert spread <= 1e-7 * min(lambdas)


def _chain_oracle(p, rates):
    """min(lambda_rev, min over i != j of (Gamma_i + Gamma_j) / 2) for the
    chain in which rates[(i, j)] moves weight from level j to level i.

    (Qf)_j = sum_i r_ij (f_i - f_j) and Gamma_j = sum_i r_ij is the total
    rate out of j.  With H = 0 each coherence |i><j| is an eigenvector of L
    of eigenvalue -(Gamma_i + Gamma_j) / 2, and the diagonal decays as Q
    does; Q is self-adjoint in L^2(p), so lambda_rev is the second-smallest
    eigenvalue of -D^(1/2) Q D^(-1/2), D = diag(p).  No eigen frame of rho
    or of L is used."""
    d = len(p)
    q = np.zeros((d, d))
    for (i, j), rate in rates.items():
        q[j, i] += rate
        q[j, j] -= rate
    out = -np.diagonal(q)
    root = np.sqrt(p)
    sym = -(root[:, None] * q / root[None, :])
    lam_rev = np.linalg.eigvalsh((sym + sym.T) / 2.0)[1]
    coherences = min(out[i] + out[j] for i in range(d) for j in range(d) if i != j)
    return min(lam_rev, coherences / 2.0)


def test_classical_chains_out_to_the_faithfulness_edge_match_their_oracle():
    # every f-gap of a detailed-balanced chain is the oracle's, down to a
    # least eigenvalue of rho of 1.02e-8, just above FAITHFULNESS_THRESHOLD
    rng = np.random.default_rng(2024)
    models, rhos, oracles = [], [], []
    for d in (2, 3, 4, 6, 8):
        for p_min in (1e-2, 1e-4, 1e-6, 1e-7, 1.1e-8):
            p = np.geomspace(1.0, p_min, d)
            p /= p.sum()
            rates = {}
            for i in range(d):  # as random_detailed_balance draws them
                for j in range(i + 1, d):
                    down = float(rng.uniform(0.2, 1.5))
                    rates[(i, j)] = down
                    rates[(j, i)] = down * p[j] / p[i]
            rho = density_matrix(np.diag(p.astype(complex)))
            models.append(detailed_balance_model(rho, rates))
            rhos.append(rho)
            oracles.append(_chain_oracle(p, rates))
    assert min(rho.eigenvalues.min() for rho in rhos) < 1e-7
    sweeps = gap.function_sweeps(models, rhos, builtin_functions())
    for sweep, oracle in zip(sweeps, oracles):
        assert np.abs(sweep.lambdas - oracle).max() <= 1e-12 * oracle


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
    fps = fixed_point_structure(model, rho)
    lam_gns = spectral_gap_f(
        model, rho, f_metric(rho, gns()), fps=fps
    ).lambda_f
    lam_kms = spectral_gap_f(
        model, rho, f_metric(rho, kms()), fps=fps
    ).lambda_f
    assert lam_kms - lam_gns == pytest.approx(result.best_margin, rel=1e-9)


def test_strict_gap_search_is_deterministic():
    cfg = CampaignConfig(seed=77, n_models=4, counts={"strict_gap": 25})
    r1 = strict_gap_search(cfg, dims=(2,))
    r2 = strict_gap_search(cfg, dims=(2,))
    assert r1 == r2


@pytest.mark.parametrize("dims, message", [
    ((), "dims must be a nonempty subset"),
    ((1,), "dims must be a nonempty subset"),
    ((2, 9), "dims must be a nonempty subset"),
    ((2.0,), "dims entry must be an integer"),
])
def test_strict_gap_search_checks_its_dims(dims, message):
    # the rule CampaignConfig holds its dims to, before any draw
    cfg = CampaignConfig(seed=77, n_models=4, counts={"strict_gap": 2})
    with pytest.raises(ConfigError, match=message):
        CampaignConfig(seed=77, dims=dims)
    with pytest.raises(ConfigError, match=message):
        strict_gap_search(cfg, dims=dims)


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
    text = small_report.render_text()
    for name in PROPERTY_ORDER:
        assert name in text
    assert "all properties passed" in text


def test_exact_moreau_oracle_passes_far_inside_the_tightened_tolerance():
    for seed in (0, 1, 2, 3, 42, 1234):
        cfg = small_config(seed=seed, counts={}, properties=("moreau_identity",))
        assert cfg.tolerance("moreau_identity") == 1e-12
        (result,) = run_campaign(cfg).results
        assert result.n_cases == 50
        assert result.worst_defect <= 1e-2


# ---------------------------------------------------------------------------
# Draws in stream order, post-draw work batched
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def test_d8_campaign_passes_every_property():
    # configs/campaign_d8.json: every generator build at d = 8 is a stack of
    # one (linalg.chunks); six properties draw at the config's dims, the
    # matrix-analysis ones, strict_gap and degenerate_gap at their own d
    cfg = CampaignConfig.from_dict(load_json(ROOT / "configs" / "campaign_d8.json"))
    report = run_campaign(cfg)
    assert [r.name for r in report.results] == list(PROPERTY_ORDER)
    assert report.all_passed
    at_d8 = {r.name for r in report.results if {c.dim for c in r.cases} == {8}}
    assert at_d8 == {
        "gap_comparison", "contractivity", "decay_equivalence",
        "transpose_symmetry", "alpha_curve", "detailed_balance_collapse",
    }


def test_campaign_csv_does_not_depend_on_the_chunk_size(monkeypatch):
    cfg = CampaignConfig.from_dict(load_json(ROOT / "configs" / "campaign_small.json"))
    want = run_campaign(cfg).to_csv()
    monkeypatch.setattr(linalg, "CHUNK_BYTES", 1)  # one matrix per batch
    assert run_campaign(cfg).to_csv() == want


def _counted_inits(monkeypatch, *classes):
    """Count the objects of each class built from here on, by name."""
    counts = dict.fromkeys((cls.__name__ for cls in classes), 0)
    for cls in classes:
        def init(self, *args, _real=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    return counts


def test_pooled_properties_build_no_metric_or_report_objects(monkeypatch):
    # the pooled properties read weight tables and gap arrays; only
    # decay_equivalence and metric_closed_forms use the FMetric API
    cfg = CampaignConfig.from_dict(load_json(ROOT / "configs" / "campaign_small.json"))
    api_users = ("decay_equivalence", "metric_closed_forms")
    pooled = tuple(name for name in PROPERTY_ORDER if name not in api_users)
    counts = _counted_inits(monkeypatch, FMetric, GapReport)
    assert run_campaign(replace(cfg, properties=pooled)).all_passed
    assert counts == {"FMetric": 0, "GapReport": 0}
    run_campaign(replace(cfg, properties=api_users))
    assert counts["FMetric"] > 0 and counts["GapReport"] > 0


def test_table_gaps_of_a_pool_batch_equal_those_of_gap_sweep():
    cfg = acceptance_config(42)
    entries = list(harness._draws(cfg, harness._rng_for(cfg, 0), range(harness._BATCH)))
    functions = (gns(),) + cfg.functions()  # gap_comparison's, with duplicates
    models, rhos = harness._columns(entries)
    want = [
        [r.lambda_f for r in gap_sweep(model, rho, f_metrics(rho, functions))]
        for model, rho in zip(models, rhos)
    ]
    assert harness._gaps(functions, entries) == want


def _fail_in_order(monkeypatch, sweep_fails=None, table_fails=None, draw_fails=None):
    """Make the sweep, the weight table before it or the draw of the given
    pool model fail, so that a stage-by-stage batch would meet them in
    another order than a model-by-model run."""
    drawn = {}
    real_draws = harness._draws

    def draws(cfg, rng, indices):
        for index, entry in zip(indices, real_draws(cfg, rng, indices)):
            if index == draw_fails:
                raise QmsGapError(f"draw {index} fails")
            drawn[index] = entry
            yield entry

    real_table = gap.weight_table

    def weight_table(rhos, functions):
        bad = drawn.get(table_fails)
        if bad and any(rho is bad.rho for rho in rhos):
            raise QmsGapError(f"metrics of model {table_fails} fail")
        return real_table(rhos, functions)

    real_sweeps = gap._sweeps

    def sweeps(models, *args, **kwargs):
        bad = drawn.get(sweep_fails)
        if bad and any(m is bad.model for m in models):
            raise PostconditionError(f"sweep of model {sweep_fails} fails")
        return real_sweeps(models, *args, **kwargs)

    monkeypatch.setattr(harness, "_draws", draws)
    monkeypatch.setattr(gap, "weight_table", weight_table)
    monkeypatch.setattr(gap, "_sweeps", sweeps)


def test_pool_raises_the_error_a_model_by_model_run_meets_first(monkeypatch):
    cfg = small_config(properties=("transpose_symmetry",))
    _fail_in_order(monkeypatch, sweep_fails=1, table_fails=2)
    with pytest.raises(PostconditionError, match="sweep of model 1 fails"):
        run_campaign(cfg)
    monkeypatch.undo()
    _fail_in_order(monkeypatch, table_fails=2)
    with pytest.raises(QmsGapError, match="metrics of model 2 fail"):
        run_campaign(cfg)


def test_failing_draw_is_raised_after_the_models_before_it(monkeypatch):
    cfg = small_config(properties=("transpose_symmetry",))
    _fail_in_order(monkeypatch, sweep_fails=1, draw_fails=2)
    with pytest.raises(PostconditionError, match="sweep of model 1 fails"):
        run_campaign(cfg)
    monkeypatch.undo()
    _fail_in_order(monkeypatch, draw_fails=2)
    with pytest.raises(QmsGapError, match="draw 2 fails"):
        run_campaign(cfg)


def _warn_for_model(monkeypatch, module, name, index, message):
    """Make module.name warn when it runs on the pool model drawn at index
    (its first argument lists the models or states it runs on).  Returns
    the lengths of those lists, one per call."""
    drawn = {}
    real_draws = harness._draws

    def draws(cfg, rng, indices):
        for i, entry in zip(indices, real_draws(cfg, rng, indices)):
            drawn[i] = entry
            yield entry

    calls = []
    real = getattr(module, name)

    def stage(items, *args, **kwargs):
        calls.append(len(items))
        bad = drawn.get(index)
        if bad and any(x is bad.model or x is bad.rho for x in items):
            warnings.warn(message)
        return real(items, *args, **kwargs)

    monkeypatch.setattr(harness, "_draws", draws)
    monkeypatch.setattr(module, name, stage)
    return calls


def test_pool_warns_in_the_order_of_a_model_by_model_run(monkeypatch):
    # model 1 warns in the sweep and model 2 in the weight table before it,
    # so a stage-by-stage batch would warn for model 2 first
    cfg = small_config(properties=("transpose_symmetry",))
    want = run_campaign(cfg).to_csv()
    _warn_for_model(monkeypatch, gap, "_sweeps", 1, "sweep of model 1")
    _warn_for_model(monkeypatch, gap, "weight_table", 2, "metrics of model 2")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = run_campaign(cfg).to_csv()
    assert [str(w.message) for w in caught] == [
        "sweep of model 1", "metrics of model 2"
    ]
    assert got == want


def test_a_warned_batch_reruns_its_stages_once_per_draw(monkeypatch):
    # the batch runs weight_table once, then each of its n draws once more:
    # 1 + n calls, with no replay nested inside the batched routines
    n = 5
    cfg = small_config(properties=("alpha_curve",), counts={"alpha_curve": n})
    calls = _warn_for_model(monkeypatch, gap, "weight_table", 2, "metrics of model 2")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_campaign(cfg)
    assert [str(w.message) for w in caught] == ["metrics of model 2"]
    assert calls == [n] + [1] * n


# ---------------------------------------------------------------------------
# The matrix-analysis properties, decided a stack at a time
# ---------------------------------------------------------------------------

MATRIX_ANALYSIS = ("moreau_identity", "om1_bounds", "loewner_order", "metric_closed_forms")


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", MATRIX_ANALYSIS)
def test_matrix_analysis_cases_equal_those_of_a_case_by_case_run(monkeypatch, name, seed):
    cfg = replace(acceptance_config(seed), properties=(name,))
    (want,) = run_campaign(cfg).results
    monkeypatch.setattr(harness, "_BATCH", 1)
    (got,) = run_campaign(cfg).results
    assert got.n_cases == want.n_cases >= 50
    assert got.cases == want.cases  # ids, dims and defects bit for bit


def test_an_order_violation_gives_inf_to_its_own_pair_only(monkeypatch):
    cfg = replace(acceptance_config(), properties=("loewner_order",))
    (want,) = run_campaign(cfg).results
    real_pool = harness._pool
    stacks = []

    def pool(draw, n, then):
        def violating(indices):  # the middle pair of the first batch: B = A / 2
            return ((i, d, a, a / 2.0 if i == 8 else b) for i, d, a, b in draw(indices))

        def recorded(pairs):
            stacks.append(len(pairs))
            return then(pairs)

        return real_pool(violating, n, recorded)

    monkeypatch.setattr(harness, "_pool", pool)
    (got,) = run_campaign(cfg).results
    assert stacks[:2] == [harness._BATCH, 1]  # the first batch is replayed
    assert got.cases[8].defect == np.inf and not got.cases[8].passed
    assert got.cases[:8] + got.cases[9:] == want.cases[:8] + want.cases[9:]


def test_powers_that_print_alike_under_g_get_their_own_bounds_rows():
    # 0.1234567 and 0.1234568 both read 0.123457 under :g, and 0.1 * 3
    # reads 0.3: each label falls back to repr where :g does not round-trip
    suite = tuple({"kind": "power", "alpha": a} for a in (0.1234567, 0.1234568, 0.1 * 3))
    cfg = CampaignConfig(seed=1, n_models=1, f_suite=suite, properties=("om1_bounds",))
    rows = [row for row in run_campaign(cfg).to_csv().splitlines()
            if row.startswith("om1_bounds,bounds[")]
    assert [row.split(",")[1] for row in rows] == [
        "bounds[power(0.1234567)]", "bounds[power(0.1234568)]",
        "bounds[power(0.30000000000000004)]",
    ]
    assert [f.label for f in acceptance_config().functions()] == [
        *(f"power({a})" for a in ("0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6",
                                  "0.7", "0.8", "0.9", "1")), "kms", "bkm",
    ]


def test_acceptance_csv_equals_that_of_a_draw_by_draw_run(monkeypatch):
    cfg = acceptance_config(7)
    want = run_campaign(cfg).to_csv()
    monkeypatch.setattr(harness, "_BATCH", 1)
    assert run_campaign(cfg).to_csv() == want


# ---------------------------------------------------------------------------
# The shared pool, dropped after its last reader
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("readers", [
    ("gap_comparison", "contractivity"), ("contractivity", "gap_comparison"),
])
def test_the_pool_is_drawn_once_and_dropped_after_its_last_reader(monkeypatch, readers):
    rows = dict(harness._PROPERTIES)
    refs, shared, alive = [], [], []

    def reader(cfg, rng, pool, name):
        models = [entry.model for entry in pool]
        if refs:  # the second reader gets the first one's models, not a redraw
            shared.append(all(ref() is model for ref, model in zip(refs, models)))
        else:
            refs.extend(map(weakref.ref, models))
        yield from rows[name].cases(cfg, rng, pool)

    def later(cfg, rng, pool):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        yield from rows["transpose_symmetry"].cases(cfg, rng, pool)

    def patch(name, cases):
        monkeypatch.setitem(harness._PROPERTIES, name, rows[name]._replace(cases=cases))

    for name in readers:
        patch(name, partial(reader, name=name))
    patch("transpose_symmetry", later)
    report = run_campaign(small_config(properties=readers + ("transpose_symmetry",)))
    assert report.all_passed
    assert len(refs) == 4 and shared == [True] and alive == [0]


def test_the_pool_readers_give_the_same_cases_in_any_order(small_report):
    # contractivity reads the pool first and gap_comparison last, after
    # alpha_curve; the pool is drawn once and dropped after gap_comparison
    order = (
        "contractivity", "decay_equivalence", "transpose_symmetry",
        "alpha_curve", "gap_comparison",
    ) + PROPERTY_ORDER[5:]
    report = run_campaign(small_config(properties=order))
    assert report.n_rejected_draws == small_report.n_rejected_draws
    for name in PROPERTY_ORDER:
        got, want = property_result(report, name), property_result(small_report, name)
        assert got.cases == want.cases and got.n_rejected == want.n_rejected
