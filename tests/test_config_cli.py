"""Config loading, digests, CLI verbs, and output files."""

import csv
import dataclasses
import json
import math
import os
import re
import time

import numpy as np
import pytest

from afflsim.cli import cmd_bench, cmd_compare, cmd_run, cmd_validate_config, main
from afflsim.config import (
    MAX_FEATURE_SCALE,
    MAX_STEP_FACTOR,
    AttackBlock,
    ConfigError,
    FederationBlock,
    PrivacyParams,
    ProtocolBlock,
    RunConfig,
    config_from_dict,
    load_config,
    preset_convex,
    preset_default,
    preset_multimodal,
    preset_privacy,
    preset_smoke,
)
from afflsim.harness import load_summary, run_experiment


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_minimal_config_applies_defaults_with_stable_digest(tmp_path):
    path = write_cfg(tmp_path, {"seed": 5})
    cfg1 = load_config(path)
    cfg2 = load_config(path)
    assert cfg1.seed == 5
    assert cfg1.max_rounds == 25  # default materialized
    assert cfg1.digest() == cfg2.digest()
    resolved = cfg1.to_dict()
    assert resolved["protocol"]["lambda_kl"] == 1.0


def test_unknown_key_is_named_in_error(tmp_path):
    path = write_cfg(tmp_path, {"protocol": {"lamda1": 0.1}})
    with pytest.raises(ConfigError, match="lamda1"):
        load_config(path)
    with pytest.raises(ConfigError, match="not_a_key"):
        config_from_dict({"not_a_key": 1})


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"protocol": {"algorithm": "fedsgd"}})
    with pytest.raises(ConfigError):
        config_from_dict({"protocol": {"sample_rate": 0.0}})
    with pytest.raises(ConfigError):
        config_from_dict({"attack": {"kind": "gradient_theft"}})
    with pytest.raises(ConfigError):
        config_from_dict({"max_rounds": -1})


@pytest.mark.parametrize(
    "key, value",
    [
        ("sample_rate", 0.2),  # 0.2 * 4 clients < 1
        ("shapley_perms", 0),
        ("adapt_interval", 0),
        ("curriculum_tiers", 0),
        ("local_lr", -0.1),
        ("inject_lr", 0.0),
        ("distill_lr", -0.5),
        ("probe_lr", 0.0),
        ("grid_hidden", [8, 4]),
        ("grid_hidden", [4, 4]),
        ("grid_hidden", [-1, 4]),
        ("grid_hidden", []),
        ("initial_capacity_index", 2),  # the grid has two templates
    ],
)
def test_value_that_would_fail_mid_run_is_rejected_naming_field(key, value):
    d = preset_smoke(7)
    d["protocol"][key] = value
    with pytest.raises(ConfigError, match=f"protocol.{key}"):
        config_from_dict(d)


STEP_FACTORS = ("local_lr", "inject_lr", "distill_lr", "probe_lr", "lambda_kl")


@pytest.mark.parametrize("key", STEP_FACTORS)
@pytest.mark.parametrize("value", [1e77, 1e200, 1e300, float("inf")])
def test_step_factor_above_its_ceiling_is_rejected_naming_field(key, value):
    """Each of these made preset_smoke overflow in a matmul mid-run, except
    probe_lr 1e77, which shares the ceiling of the other step factors. From
    1e160 probe_lr overflowed the capacity probe, and its NaN scores chose
    the capacities [0, 0, 0] where 1e150 chose [0, 1, 1] (adapt_interval 1,
    3 rounds).

    inf is caught as non-finite before the ceiling is checked.
    """
    d = preset_smoke(7)
    d["protocol"][key] = value
    message = "must be a finite number" if math.isinf(value) else "must be at most 1e"
    with pytest.raises(ConfigError, match=f"protocol.{key} {message}"):
        config_from_dict(d)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("preset", [preset_smoke, preset_default, preset_privacy])
def test_step_factors_all_at_their_ceiling_run(preset):
    """Over 2 rounds at 1e78, smoke and default overflow in a matmul.

    adapt_interval 1 runs the capacity probe, and with it probe_lr, each round.
    """
    d = {**preset(7), "max_rounds": 2}
    d["protocol"].update({key: MAX_STEP_FACTOR for key in STEP_FACTORS}, adapt_interval=1)
    log = run_experiment(config_from_dict(d))
    assert len(log.records) == 2
    assert all(math.isfinite(r.global_pool_loss) for r in log.records)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("preset", [preset_smoke, preset_default, preset_convex, preset_privacy])
def test_feature_scales_both_at_their_ceiling_run(preset):
    """Over 2 rounds at 1e155, convex and privacy overflow in a matmul."""
    d = {**preset(7), "max_rounds": 2}
    d["federation"].update(class_separation=MAX_FEATURE_SCALE, feature_noise=MAX_FEATURE_SCALE)
    log = run_experiment(config_from_dict(d))
    assert len(log.records) == 2
    assert all(math.isfinite(r.global_pool_loss) for r in log.records)


def with_value(data: dict, path: str, value) -> dict:
    """data with the dotted key path (e.g. "protocol.robust_f") set to value."""
    *blocks, key = path.split(".")
    target = data
    for block in blocks:
        target = target.setdefault(block, {})
    target[key] = value
    return data


@pytest.mark.parametrize(
    "path, value",
    [
        ("max_rounds", 2.5),
        ("seed", "x"),
        ("protocol.shapley_perms", 2.5),
        ("protocol.local_steps", True),
        ("federation.rural", 4.0),
    ],
)
def test_non_integer_in_integer_field_is_rejected_naming_field(path, value):
    with pytest.raises(ConfigError, match=f"{path} must be an integer"):
        config_from_dict(with_value(preset_smoke(7), path, value))


@pytest.mark.parametrize(
    "path, value",
    [
        ("privacy.enabled", "no"),  # ran with DP on: any truthy value enabled it
        ("protocol.load_aware_sampling", 1),
        ("protocol.sample_rate", "x"),
        ("protocol.lambda2", True),
        ("energy_coefficient", "0"),
    ],
)
def test_wrong_scalar_type_is_rejected_naming_field(path, value):
    with pytest.raises(ConfigError, match=f"{re.escape(path)} must be"):
        config_from_dict(with_value(preset_smoke(7), path, value))


def test_every_field_declares_its_rule_or_is_checked_by_its_block():
    """A field added without a rule would skip the single-field checks."""
    blocks = [
        (f"{f.name}.", f.default_factory)
        for f in dataclasses.fields(RunConfig)
        if dataclasses.is_dataclass(f.default_factory)
    ]
    undeclared = {
        prefix + f.name
        for prefix, cls in [*blocks, ("", RunConfig)]
        for f in dataclasses.fields(cls)
        if "kind" not in f.metadata and not dataclasses.is_dataclass(f.default_factory)
    }
    assert undeclared == {"federation.modalities_by_class", "protocol.robust_f"}


@pytest.mark.parametrize(
    "cls, kwargs, message",
    [
        # each was built without complaint: only parsing checked the types
        (FederationBlock, {"rural": 4.0}, "federation.rural must be an integer"),
        (ProtocolBlock, {"grid_hidden": [2, 8]}, "protocol.grid_hidden must be a list"),
        (PrivacyParams, {"enabled": "no"}, "privacy.enabled must be true or false"),
        (AttackBlock, {"scale": float("nan")}, "attack.scale must be a finite number"),
    ],
)
def test_direct_construction_checks_each_field_like_parsing(cls, kwargs, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        cls(**kwargs)


def smoke_trimmed_mean(seed):
    d = preset_smoke(seed)
    d["protocol"]["robust_method"] = "trimmed_mean"
    return d


def smoke_fedavg(seed):
    d = preset_smoke(seed)
    d["protocol"]["algorithm"] = "fedavg"
    return d


@pytest.mark.parametrize(
    "preset, path, value",
    [
        (preset_smoke, "protocol.curriculum_tiers", 2001),  # rural shards hold <= 2000 rows
        (preset_multimodal, "protocol.fusion_weights", [0.0, 1.0]),  # three modalities
        (preset_multimodal, "protocol.active_modalities", []),
        (preset_multimodal, "protocol.active_modalities", [3]),
        (smoke_trimmed_mean, "protocol.robust_f", -1),
        (preset_smoke, "validation_samples", 0),
        (preset_smoke, "probe_samples", 0),
        (preset_smoke, "privacy.clip_norm", 0.0),
        (preset_smoke, "privacy.delta", 1.0),
        (preset_smoke, "privacy.noise_multiplier", -1.0),
        (preset_smoke, "federation.num_classes", 1),
        (preset_smoke, "federation.concentration", 0.0),
        (preset_smoke, "federation.radial_scale", 1.0),
        (preset_smoke, "federation.num_modalities", 0),
        (preset_smoke, "federation.feature_dim", 0),
        (preset_smoke, "federation.radial_pairs", -1),
        (preset_smoke, "federation.radial_pairs", 2),  # two pairs need four classes
        (preset_smoke, "federation.rural_hidden", -2),
        (preset_smoke, "protocol.warmup_steps", -1),
        (preset_smoke, "protocol.local_steps", -1),
        (preset_smoke, "protocol.lambda1", -0.1),
        (preset_smoke, "protocol.lambda2", 0.0),
        (preset_smoke, "protocol.eps_smooth", -0.1),
        (preset_smoke, "protocol.delta_size", -0.1),
        (preset_smoke, "protocol.fused_dim", 2.5),
        (smoke_fedavg, "protocol.fedavg_hidden", -1),
        (preset_smoke, "protocol.het_alpha", 2.0),  # weights sum to 2 2/3
        (preset_smoke, "protocol.het_beta", -0.1),
        (preset_smoke, "protocol.het_gamma", 0.5),
        # logistic regression's (d+1)*C parameters outnumber a 1-unit MLP's
        (preset_smoke, "protocol.grid_hidden", [0, 1]),
        # at fused_dim 16 a 4-unit MLP has fewer parameters than logistic
        # regression (98 < 102); at the widest block, 8, it has more
        (preset_multimodal, "protocol.grid_hidden", [0, 4]),
        # empty and duplicate templates
        (preset_smoke, "protocol.grid_hidden", []),
        (preset_smoke, "protocol.grid_hidden", [8, 8]),
        (preset_multimodal, "federation.modalities_by_class", {"rural": [5]}),
        (preset_multimodal, "federation.modalities_by_class", {"rural": []}),
        (preset_multimodal, "federation.modalities_by_class", {"rural": 1}),
        (preset_multimodal, "federation.modalities_by_class", [0]),
    ],
)
def test_config_that_would_fail_in_run_experiment_is_rejected(preset, path, value):
    d = with_value(preset(7), path, value)
    if path.startswith("privacy."):
        d["privacy"]["enabled"] = True
    with pytest.raises(ConfigError, match=path.split(".")[-1]):
        config_from_dict(d)


@pytest.mark.parametrize(
    "path, value",
    [
        # each of these ran on preset_smoke, as a no-op or with a silent
        # substitute; negative energy_coefficient logged negative energy
        ("federation.academic", -1),
        ("federation.academic_hidden", -1),  # smoke has no academic clients
        ("federation.regional_hidden", -1),
        ("protocol.inject_steps", -1),
        ("protocol.distill_steps", -1),
        ("protocol.probe_steps", -1),
        ("protocol.fused_dim", 0),  # was replaced by the widest modality block
        ("energy_coefficient", -1.0),
        # a negative lambda_kl pushed distillation away from the client, and a
        # negative theta_fair made every round a breach that grew lambda2
        ("protocol.lambda_kl", -1.0),
        ("protocol.theta_fair", -1.0),
        ("federation.class_separation", -1.0),
        ("federation.feature_noise", -1.0),
        # an unknown class was ignored, and modality 3 of one zeroed every feature
        ("federation.modalities_by_class", {"hospital": [0]}),
        ("federation.modalities_by_class", {"rural": [3]}),
        ("federation.modalities_by_class", {"rural": [0, 0]}),
        ("federation.modalities_by_class", {"rural": [True]}),
        # NaN with a large_norm attack raised FloatingPointError in distillation
        ("attack.scale", float("nan")),
        ("attack.scale", float("inf")),
        # "x" was rejected without naming the field; bools and NaN are not numbers here
        ("target_accuracy", "x"),
        ("target_accuracy", True),
        ("target_accuracy", float("nan")),
        # the metrics block had no checks: cei_alpha=-5.0 ran
        ("metrics.cei_alpha", -5.0),
        ("metrics.cei_beta", -0.1),
        ("metrics.put_lambda", -0.1),
        ("metrics.clinical_w1", -0.1),
        ("metrics.clinical_w2", 0.4),  # weights sum to 1.1
        ("metrics.clinical_w3", 0.1),  # weights sum to 0.9
        ("metrics.physician_acceptance", 1.5),
        ("metrics.regulatory_compliance", -0.1),
        ("metrics.cei_beta", float("inf")),
        ("metrics.put_lambda", float("nan")),
        ("metrics.physician_acceptance", float("nan")),
        # JSON reads NaN, Infinity and 1e400 as floats. At inf these failed
        # mid-run (seed 7, 2 rounds); NaN clip_norm failed too, and NaN
        # noise_multiplier ran with DP silently off and eps_total 0
        ("protocol.eps_smooth", float("inf")),
        ("protocol.delta_size", float("inf")),
        ("privacy.clip_norm", float("inf")),
        ("privacy.noise_multiplier", float("inf")),
        ("federation.class_separation", float("inf")),
        ("federation.feature_noise", float("inf")),
        ("federation.concentration", float("inf")),
        ("privacy.clip_norm", float("nan")),
        ("privacy.noise_multiplier", float("nan")),
        # these two at inf wrote Infinity into rounds.jsonl
        ("protocol.lambda2", float("inf")),
        ("energy_coefficient", float("inf")),
        # an int past the float range has no float value
        ("protocol.delta_size", 10**400),
        # validate-config said ok to these; run then failed after the last
        # round, writing its outputs, with TypeError or FileNotFoundError
        ("output_dir", 5),
        ("output_dir", None),
        ("output_dir", ["a"]),
        ("output_dir", ""),
        # these were rejected by messages that did not name the block
        ("protocol.sample_rate", 2.0),
        ("protocol.dropout_rate", 1.0),
        ("protocol.algorithm", "fedsgd"),
        ("protocol.shapley_mode", "owen"),
        ("protocol.robust_method", "krum"),
        ("attack.kind", "gradient_theft"),
        ("attack.attacker_fraction", 0.5),
        ("privacy.clip_norm", -1.0),
        ("privacy.noise_multiplier", -1.0),
        ("privacy.delta", 2.0),
        # preset_privacy overflowed in a matmul mid-run (seed 7, 2 rounds)
        ("federation.class_separation", 1e300),
        ("federation.feature_noise", 1e300),
        # 10**400 clients raised OverflowError, and 10**30 feature columns a
        # ConfigError from numpy that named no field
        ("federation.rural", 10**400),
        ("federation.feature_dim", 10**30),
        # these parsed, then failed mid-run in numpy with errors that named no
        # field: fused_dim at round 1, the grid entry at the first capacity probe
        ("protocol.fused_dim", 10**30),
        ("protocol.grid_hidden", [4, 10**30]),
        # on preset_privacy this delta logged eps_round inf, and this multiplier
        # overflowed in the epsilon divide mid-run
        ("privacy.delta", 5e-324),
        ("privacy.noise_multiplier", 5e-324),
        # with theta_fair 0 fairness escalation logged lambda2 inf from round 2,
        # and round 3 chose its capacity from an inf * 0 = NaN score
        ("protocol.lambda2", 1.7e308),
    ],
)
def test_out_of_range_value_is_rejected_naming_its_path(path, value):
    d = with_value(preset_smoke(7), path, value)
    with pytest.raises(ConfigError, match=re.escape(path)):
        config_from_dict(d)


@pytest.mark.parametrize(
    "preset, path, value",
    [
        (preset_smoke, "protocol.grid_hidden", [4.5, 8]),  # crashed in init_state
        (preset_smoke, "protocol.grid_hidden", 8),
        (preset_multimodal, "protocol.active_modalities", [1.0]),
        (preset_multimodal, "protocol.fusion_weights", ["a", "b", "c"]),  # crashed
        (preset_multimodal, "protocol.fusion_weights", [True, 0.0, 0.0]),
        (preset_multimodal, "protocol.fusion_weights", [float("nan"), 0.0, 0.0]),
    ],
)
def test_list_entry_of_the_wrong_type_is_rejected_naming_its_path(preset, path, value):
    with pytest.raises(ConfigError, match=re.escape(path)):
        config_from_dict(with_value(preset(7), path, value))


@pytest.mark.parametrize(
    "tau, sigma",
    [
        ([0.0, 1.0, 2.0], None),  # tau alone was ignored
        (None, [1.0, 1.0, 1.0]),
        ([0.0, 1.0], [1.0, 1.0]),  # three tiers; crashed in init_state
        ([0.0, 1.0, 2.0], [1.0, 0.5, 0.0]),  # crashed in init_state
        ([0.0, 1.0, 2.0], [1.0, -0.5, 0.5]),
        (["0", "1", "2"], [1.0, 1.0, 1.0]),
        # these overflowed in the curriculum logits and failed mid-run with
        # "non-finite distillation loss"
        ([0.0, 1.0, 2.0], [5e-324, 1.0, 1.0]),
        ([-1e308, 1e308, 0.0], [0.01, 0.01, 1.0]),
    ],
)
def test_curriculum_tau_and_sigma_are_checked_at_parse_time(tau, sigma):
    d = preset_smoke(7)
    d["protocol"].update(curriculum_tau=tau, curriculum_sigma=sigma)
    with pytest.raises(ConfigError, match="protocol.curriculum_(tau|sigma)"):
        config_from_dict(d)


@pytest.mark.parametrize(
    "path, value",
    [
        ("protocol.warmup_steps", 0),
        ("protocol.local_steps", 0),
        ("protocol.lambda1", 0.0),
        ("protocol.fused_dim", 4),
        ("energy_coefficient", 0.0),
        ("protocol.lambda_kl", 0.0),
        ("protocol.theta_fair", 0.0),
        ("protocol.grid_hidden", [0, 8]),
        ("protocol.grid_hidden", [0, 3]),  # 45 > 33 parameters; [0, 2] has 30
        ("federation.modalities_by_class", {"rural": [0], "regional": None}),
    ],
)
def test_values_at_the_range_limits_run(path, value):
    d = with_value(preset_smoke(7), path, value)
    d["max_rounds"] = 1
    log = run_experiment(config_from_dict(d))
    assert len(log.records) == 1
    if path == "energy_coefficient":
        assert log.records[0].energy_kwh == 0.0


def test_huge_finite_attack_scale_runs_with_finite_logs():
    d = preset_smoke(7)
    d["attack"] = {"kind": "large_norm", "attacker_fraction": 0.25, "scale": 1e300}
    d["max_rounds"] = 2
    log = run_experiment(config_from_dict(d))
    assert log.rounds_run == 2
    assert all(
        np.isfinite([r.global_val_loss, r.global_val_accuracy, r.fairness_gap]).all()
        for r in log.records
    )


def test_metrics_block_at_its_limits_parses():
    d = preset_smoke(7)
    d["metrics"] = {
        "cei_alpha": 0.0, "cei_beta": 0.0, "put_lambda": 0.0,
        "clinical_w1": 1.0, "clinical_w2": 0.0, "clinical_w3": 0.0,
        "physician_acceptance": 0.0, "regulatory_compliance": 1.0,
    }
    assert config_from_dict(d).metrics.clinical_w1 == 1.0
    d["metrics"] = {"clinical_w1": 0.1, "clinical_w2": 0.2, "clinical_w3": 0.7}
    config_from_dict(d)  # sums to 1 within rounding


def test_heterogeneity_weights_on_one_component_run():
    d = preset_smoke(7)
    d["protocol"].update(het_alpha=0.0, het_beta=1.0, het_gamma=0.0)
    d["max_rounds"] = 1
    assert run_experiment(config_from_dict(d)).rounds_run == 1


def test_active_modalities_leaving_a_class_no_modality_is_rejected():
    d = preset_multimodal(7, active_modalities=(1, 2))
    d["federation"]["modalities_by_class"] = {"rural": [0]}
    with pytest.raises(ConfigError, match="protocol.active_modalities"):
        config_from_dict(d)


@pytest.mark.parametrize(
    "robust_f, protocol",
    [
        (2, {}),  # 4 clients, 2f = 4
        (1, {"sample_rate": 0.625}),  # uniform cohort round(2.5) = 2
        (1, {"sample_rate": 0.625, "load_aware_sampling": True}),  # floor(2.5) = 2
        (1, {"dropout_rate": 0.5}),  # dropout can leave one live client
    ],
)
def test_trimmed_mean_f_too_large_for_smallest_cohort_is_rejected(robust_f, protocol):
    d = smoke_trimmed_mean(7)
    d["protocol"].update(robust_f=robust_f, **protocol)
    with pytest.raises(ConfigError, match="protocol.robust_f"):
        config_from_dict(d)


@pytest.mark.parametrize("robust_f", ["auto", 0])
def test_trimmed_mean_under_dropout_runs_with_auto_or_zero(robust_f):
    d = smoke_trimmed_mean(7)
    d["protocol"].update(robust_f=robust_f, dropout_rate=0.5)
    d["max_rounds"] = 3
    assert run_experiment(config_from_dict(d)).rounds_run == 3


def test_grid_check_uses_the_widest_block_without_fused_dim():
    d = preset_multimodal(7)
    d["protocol"].update(grid_hidden=[0, 4], fused_dim=None)
    d["max_rounds"] = 1
    assert run_experiment(config_from_dict(d)).rounds_run == 1


def test_curriculum_schedule_from_the_config_runs():
    d = preset_smoke(7)
    d["protocol"].update(curriculum_tau=[0, 2, 4], curriculum_sigma=[3.0, 2.0, 1.0])
    d["max_rounds"] = 1
    assert run_experiment(config_from_dict(d)).rounds_run == 1


@pytest.mark.parametrize("load_aware", [False, True])
def test_trimmed_mean_f_at_the_limit_runs(load_aware):
    d = smoke_trimmed_mean(7)
    d["protocol"].update(robust_f=1, sample_rate=0.75, load_aware_sampling=load_aware)
    d["max_rounds"] = 2
    assert run_experiment(config_from_dict(d)).rounds_run == 2


def test_curriculum_tiers_bound_is_the_smallest_possible_shard():
    d = preset_smoke(7)  # rural only: shards of 500 to 2000 rows
    d["protocol"]["curriculum_tiers"] = 500
    assert config_from_dict(d).protocol.curriculum_tiers == 500
    d["protocol"]["curriculum_tiers"] = 501
    with pytest.raises(ConfigError, match="protocol.curriculum_tiers"):
        config_from_dict(d)


def test_zero_clients_rejected():
    d = preset_smoke(7)
    d["federation"]["rural"] = 0
    with pytest.raises(ConfigError, match="federation"):
        config_from_dict(d)


@pytest.mark.parametrize("load_aware", [False, True])
def test_sample_rate_of_one_client_runs(load_aware):
    d = preset_smoke(7)
    d["protocol"].update(sample_rate=0.25, load_aware_sampling=load_aware)  # 4 clients
    d["max_rounds"] = 1
    assert run_experiment(config_from_dict(d)).rounds_run == 1


def exact_shapley_config(rate, load_aware=False):
    d = preset_smoke(7)
    d["federation"]["rural"] = 12
    d["protocol"].update(
        shapley_mode="exact", sample_rate=rate, load_aware_sampling=load_aware
    )
    d["max_rounds"] = 1
    return d


def test_exact_shapley_rejected_when_cohort_can_exceed_limit():
    with pytest.raises(ConfigError, match="protocol.shapley_mode"):
        config_from_dict(exact_shapley_config(1.0))


@pytest.mark.parametrize("load_aware", [False, True])
def test_exact_shapley_runs_when_cohort_fits(load_aware):
    log = run_experiment(config_from_dict(exact_shapley_config(0.5, load_aware)))
    assert log.rounds_run == 1
    assert 1 <= len(log.records[0].phi) <= 6


def test_unreadable_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))


@pytest.mark.parametrize(
    "block, key, literal",
    [("privacy", "noise_multiplier", "NaN"), ("protocol", "delta_size", "1e400"),
     ("federation", "feature_noise", "-Infinity")],
)
def test_validate_config_rejects_non_finite_json_numbers(tmp_path, capsys, block, key, literal):
    """Python's json reads these literals as NaN and inf; validate-config said ok to them."""
    text = json.dumps({block: {key: 0.5}}).replace("0.5", literal)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert cmd_validate_config(str(path)) == 2
    assert f"{block}.{key} must be a finite number" in capsys.readouterr().err


def test_digest_changes_with_content():
    a = config_from_dict({"seed": 1})
    b = config_from_dict({"seed": 2})
    assert a.digest() != b.digest()


def test_cmd_run_smoke_under_60s(tmp_path):
    path = write_cfg(tmp_path, preset_smoke(7))
    out = str(tmp_path / "out")
    start = time.perf_counter()
    assert cmd_run(path, out) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert os.path.exists(os.path.join(out, "rounds.jsonl"))
    assert os.path.exists(os.path.join(out, "summary.json"))
    with open(os.path.join(out, "metrics.csv")) as fh:
        assert next(csv.reader(fh)) == [
            "schema_version", "suite", "cei", "hfi", "put", "mis", "statistical_parity",
            "mia_success", "transfer_effectiveness", "scaling_exponent",
            "clinical_readiness", "gini_accuracy", "fairness_gap_final",
        ]


def test_cmd_run_missing_config_nonzero():
    assert cmd_run("/nonexistent/config.json") == 2


def test_cmd_run_outputs_reproducible(tmp_path):
    path = write_cfg(tmp_path, preset_smoke(3))
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cmd_run(path, a) == 0
    assert cmd_run(path, b) == 0
    for name in ("rounds.jsonl", "summary.json"):
        assert open(os.path.join(a, name), "rb").read() == open(os.path.join(b, name), "rb").read()


def test_cmd_compare_self_has_identical_rows(tmp_path, capsys):
    path = write_cfg(tmp_path, preset_smoke(7))
    run_dir = str(tmp_path / "run")
    assert cmd_run(path, run_dir) == 0
    out_csv = str(tmp_path / "cmp.csv")
    assert cmd_compare([run_dir, run_dir], out_csv) == 0
    with open(out_csv, newline="") as fh:
        text = fh.read()
    rows = list(csv.DictReader(text.splitlines()))
    assert len(rows) == 2
    assert rows[0] == rows[1]
    assert list(rows[0].keys()) == [
        "method", "rounds_to_target", "final_accuracy", "gini",
        "kwh_per_round", "bytes_per_round", "fairness_gap",
    ]
    capsys.readouterr()
    assert cmd_compare([run_dir, run_dir]) == 0
    assert capsys.readouterr().out == text  # without --out the same CSV goes to stdout


def test_cmd_compare_needs_two_runs(tmp_path):
    assert cmd_compare([str(tmp_path)]) == 2


def test_schema_version_mismatch_is_error(tmp_path):
    summary = {"schema_version": 999}
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(summary))
    with pytest.raises(ValueError, match="schema version"):
        load_summary(str(path))


def test_cmd_validate_config(tmp_path, capsys):
    good = write_cfg(tmp_path, {"seed": 9})
    assert cmd_validate_config(good) == 0
    assert "digest=" in capsys.readouterr().out
    bad = write_cfg(tmp_path, {"protocol": {"lamda1": 1}}, name="bad.json")
    assert cmd_validate_config(bad) == 2


def test_cmd_bench_unknown_suite():
    assert cmd_bench("nonexistent-suite") == 2


def test_cmd_bench_scale_sweeps_sizes(tmp_path):
    out = str(tmp_path / "scale")
    assert cmd_bench("scale", out) == 0
    with open(os.path.join(out, "scaling_curve.csv")) as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ["n_clients", "messenger_bytes", "fedavg_bytes"]
    assert [int(r["n_clients"]) for r in rows] == [10, 20, 40, 80]
    for row in rows:
        assert float(row["fedavg_bytes"]) > float(row["messenger_bytes"])
    report = open(os.path.join(out, "metrics_report.txt")).read()
    assert "scaling_exponent=" in report


def test_main_dispatch(tmp_path):
    path = write_cfg(tmp_path, preset_smoke(7))
    assert main(["validate-config", path]) == 0
    assert main(["run", path, "--output-dir", str(tmp_path / "o")]) == 0


def test_output_dir_env_override(tmp_path, monkeypatch):
    from afflsim.harness import OUTPUT_DIR_ENV

    target = str(tmp_path / "env-out")
    monkeypatch.setenv(OUTPUT_DIR_ENV, target)
    path = write_cfg(tmp_path, preset_smoke(7))
    assert cmd_run(path) == 0
    assert os.path.exists(os.path.join(target, "summary.json"))


def test_default_preset_is_twelve_institutions():
    cfg = config_from_dict(preset_default(7))
    counts = cfg.federation.counts()
    assert counts == {"academic": 2, "regional": 4, "rural": 6}
    assert cfg.protocol.algorithm == "affl"
