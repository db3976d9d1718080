"""Round loop: sampling, attacks, composition, determinism, baselines."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from afflsim import messenger as msg
from afflsim.config import config_from_dict, preset_default, preset_scale, preset_smoke
from afflsim.fairness import (
    _stack_variants,
    aggregate_messengers,
    fair_weights,
    fairness_gap,
    monitor_and_adjust,
    shapley_estimate,
)
from afflsim.federation import ClientProfile
from afflsim.harness import (
    COALITION_BLOCK,
    THREADS_ENV,
    AttackBlock,
    apply_attack_flags,
    coalition_value_fn,
    compute_load,
    flip_labels,
    init_state,
    inject_attack,
    probe_teacher_logits,
    run_experiment,
    run_round,
    sample_clients,
    write_run_outputs,
)
from afflsim.models import Arch, ModelParams, evaluate, train_local
from afflsim.rng import stream, subseed


def profile(pid, capacity=2.0, delay=1.0, samples=1000, cls="rural"):
    return ClientProfile(
        id=pid,
        institution_class=cls,
        sample_count=samples,
        compute_capacity=capacity,
        network_delay=delay,
        modalities=(0,),
        honesty="honest",
        arch=Arch(4, 3, 4),
    )


def smoke_cfg(seed=7, **over):
    d = preset_smoke(seed)
    d.update(over)
    return config_from_dict(d)


# -- load and sampling --------------------------------------------------------


def test_compute_load_examples():
    assert compute_load(profile(0, capacity=4.0, delay=1.0), 4.0) == pytest.approx(1.0)
    assert compute_load(profile(0, capacity=4.0, delay=2.0), 10.0) == pytest.approx(5.0)
    assert compute_load(profile(0, capacity=4.0, delay=2.0), 0.0) == 0.0


def test_sample_rate_one_returns_everyone():
    pop = [profile(i) for i in range(7)]
    assert sample_clients(pop, 1.0, False, seed=0, round_index=1) == list(range(7))


def test_sample_deterministic_per_seed_and_round():
    pop = [profile(i) for i in range(10)]
    a = sample_clients(pop, 0.5, False, seed=3, round_index=2)
    b = sample_clients(pop, 0.5, False, seed=3, round_index=2)
    c = sample_clients(pop, 0.5, False, seed=3, round_index=3)
    assert a == b
    assert len(a) == 5
    assert a != c or a == c  # different rounds may draw differently; just no error


def test_load_aware_inclusion_tracks_inverse_load():
    # client 0 carries half the load of client 1: ~2x inclusion frequency;
    # rate kept low enough that no inclusion probability saturates at 1
    pop = [profile(0, capacity=2.0, delay=1.0), profile(1, capacity=1.0, delay=1.0)]
    pop += [profile(i, capacity=1.0, delay=1.0) for i in range(2, 8)]
    counts = np.zeros(8)
    for r in range(10_000):
        for i in sample_clients(pop, 0.25, True, seed=5, round_index=r):
            counts[i] += 1
    ratio = counts[0] / counts[1]
    assert ratio == pytest.approx(2.0, rel=0.10)
    sizes = [len(sample_clients(pop, 0.25, True, seed=6, round_index=r)) for r in range(200)]
    assert all(1 <= s <= 3 for s in sizes)  # expected size 2, within one client


def test_sample_guards():
    pop = [profile(0), profile(1)]
    with pytest.raises(ValueError):
        sample_clients(pop, 0.0, False, 0, 1)
    with pytest.raises(ValueError):
        sample_clients(pop, 0.2, False, 0, 1)  # rate*N < 1


# -- attacks -------------------------------------------------------------------


def test_attack_flags_assigned_to_largest():
    pop = [profile(i, samples=500 + 100 * i) for i in range(6)]
    flagged = apply_attack_flags(pop, AttackBlock("sign_flip", 0.4))
    attackers = [p.id for p in flagged if p.honesty != "honest"]
    assert attackers == [4, 5]  # floor(0.4*6)=2 largest
    one = apply_attack_flags(pop, AttackBlock("sign_flip", 0.33))
    assert [p.id for p in one if p.honesty != "honest"] == [5]  # floor(0.33*6)=1


def test_attack_fraction_zero_is_identity():
    pop = [profile(i) for i in range(4)]
    base = ModelParams(Arch(4, 3, 4), np.zeros(Arch(4, 3, 4).param_count))
    variants = [ModelParams(base.arch, np.full(base.param_count, float(i))) for i in range(4)]
    out = inject_attack(variants, base, pop, AttackBlock(None, 0.0))
    for a, b in zip(out, variants):
        assert np.array_equal(a.theta, b.theta)
        assert a is not b


def test_sign_flip_negates_delta_exactly():
    pop = [profile(0), profile(1)]
    pop[1] = ClientProfile(**{**pop[1].__dict__, "honesty": "sign_flip"})
    arch = Arch(4, 3, 4)
    rng = stream(0, "atk")
    base = ModelParams(arch, rng.normal(0, 1, arch.param_count))
    delta = rng.normal(0, 1, arch.param_count)
    variants = [ModelParams(arch, base.theta + delta), ModelParams(arch, base.theta + delta)]
    out = inject_attack(variants, base, pop, AttackBlock("sign_flip", 0.4))
    assert np.array_equal(out[0].theta, base.theta + delta)
    assert out[1].theta == pytest.approx(base.theta - delta, abs=1e-12)


def test_large_norm_scales_delta():
    pop = [profile(0)]
    pop[0] = ClientProfile(**{**pop[0].__dict__, "honesty": "large_norm"})
    arch = Arch(4, 3, 4)
    base = ModelParams(arch, np.zeros(arch.param_count))
    delta = stream(1, "atk").normal(0, 1, arch.param_count)
    out = inject_attack(
        [ModelParams(arch, delta)], base, pop, AttackBlock("large_norm", 0.4, scale=100.0)
    )
    assert np.linalg.norm(out[0].theta - base.theta) == pytest.approx(
        100.0 * np.linalg.norm(delta), rel=1e-9
    )


def test_label_flip_permutes_cyclically():
    cfg = smoke_cfg()
    state = init_state(cfg)
    shard = state.shards[0]
    flipped = flip_labels(shard)
    assert np.array_equal(flipped.labels, (shard.labels + 1) % shard.num_classes)


# -- round loop ----------------------------------------------------------------


def test_empty_round_leaves_state_unchanged():
    cfg = smoke_cfg()
    # find a (dropout seed, round) where every client drops in round 1
    d = preset_smoke(7)
    d["protocol"]["dropout_rate"] = 0.9
    seed = None
    for s in range(200):
        drops = [stream(s, "dropout", 1, i).random() < 0.9 for i in range(4)]
        if all(drops):
            seed = s
            break
    assert seed is not None
    d["seed"] = seed
    cfg = config_from_dict(d)
    state = init_state(cfg)
    theta_before = state.messenger.theta.copy()
    new_state, record = run_round(state)
    assert record.empty
    assert record.cohort == []
    assert len(record.dropped) == 4
    assert new_state.round_index == 1
    assert np.array_equal(new_state.messenger.theta, theta_before)


def first_round_variants(cfg, state):
    """(cohort, messenger variants) of round 1, composed from public operations."""
    p = cfg.protocol
    t = 1
    cohort = sample_clients(state.profiles, p.sample_rate, p.load_aware_sampling, cfg.seed, t)
    pi = msg.curriculum_weights(t, state.schedule)
    variants = []
    for i in cohort:
        params = train_local(state.client_params[i], state.train_shards[i], p.local_steps, p.local_lr)
        params = msg.inject_knowledge(
            params, state.messenger, state.train_shards[i], pi, p.inject_steps, p.inject_lr
        )
        variants.append(
            msg.distill_to_messenger(
                state.messenger, params, state.train_shards[i], p.lambda_kl, p.distill_steps, p.distill_lr
            )
        )
    return cohort, variants


def product_values(variants, base, validation, members):
    """Coalition values as the harness defines them, one coalition at a time.

    Each block of COALITION_BLOCK non-empty membership rows is averaged in
    one product (rows / sizes) @ stacked and each mean evaluated on its
    own; an empty row is worth base. The product sums every cohort
    position in cohort order, so a mean may differ in its last bits from
    aggregate_messengers over the members alone, and this oracle, not
    aggregate-then-evaluate, is what the values equal bit for bit.
    """
    arch, stacked = _stack_variants(variants)
    values = [evaluate(base, validation)[1]] * len(members)
    filled = [k for k, row in enumerate(members) if row.any()]
    for start in range(0, len(filled), COALITION_BLOCK):
        block = filled[start : start + COALITION_BLOCK]
        rows = members[block]
        for k, theta in zip(block, (rows / rows.sum(axis=1, keepdims=True)) @ stacked):
            values[k] = evaluate(ModelParams(arch, theta), validation)[1]
    return values


def test_coalition_value_equals_the_product_then_evaluate():
    cfg = smoke_cfg()
    state = init_state(cfg)
    cohort, variants = first_round_variants(cfg, state)
    value_fn = coalition_value_fn(cohort, variants, state.messenger, state.validation)
    n = len(cohort)
    empty = np.zeros((1, n), dtype=bool)
    assert value_fn(empty)[0] == evaluate(state.messenger, state.validation)[1]
    rng = stream(0, "coalitions")
    members = np.vstack([np.ones((1, n), dtype=bool), np.eye(n, dtype=bool)] + [empty] * 30)
    for row in members[n + 1 :]:
        row[rng.choice(n, int(rng.integers(1, n + 1)), replace=False)] = True
    values = value_fn(members)
    assert list(values) == product_values(variants, state.messenger, state.validation, members)
    # the means are aggregate_messengers' to a few ulp
    _, stacked = _stack_variants(variants)
    for row in members:
        picked = [v for v, member in zip(variants, row) if member]
        agg = aggregate_messengers(picked, np.full(len(picked), 1.0 / len(picked)))
        np.testing.assert_allclose((row / row.sum()) @ stacked, agg.theta, rtol=1e-13, atol=1e-15)


def test_round_matches_scripted_composition_of_public_ops():
    """One run_round equals the same phases composed from public operations."""
    d = preset_smoke(7)
    d["protocol"]["shapley_perms"] = 10
    cfg = config_from_dict(d)
    state = init_state(cfg)
    new_state, record = run_round(state)

    p = cfg.protocol
    t = 1
    cohort, variants = first_round_variants(cfg, state)

    def value_fn(members):
        return product_values(variants, state.messenger, state.validation, members)

    phi = shapley_estimate(
        cohort, value_fn, mode=p.shapley_mode, num_perms=p.shapley_perms,
        seed=subseed(cfg.seed, "shapley", t),
    )
    counts = np.array([state.profiles[i].sample_count for i in cohort])
    weights = fair_weights(phi, counts, p.eps_smooth, p.delta_size)
    expected = aggregate_messengers(variants, weights)
    assert np.array_equal(new_state.messenger.theta, expected.theta)
    assert record.phi == pytest.approx(list(phi))
    gap = fairness_gap(np.array([a for _, _, a in record.per_client]))
    assert record.fairness_gap == pytest.approx(gap)
    assert new_state.lambda2 == pytest.approx(monitor_and_adjust(gap, p.theta_fair, p.lambda2))


@pytest.mark.parametrize("algorithm", ["affl", "static_messenger", "fedavg"])
def test_client_scores_equal_evaluate_on_true_labels(algorithm):
    """Clients are scored from the client step's forward, exactly as evaluate would."""
    d = preset_smoke(7)
    d["protocol"]["algorithm"] = algorithm
    d["attack"] = {"kind": "label_flip", "attacker_fraction": 0.25}
    cfg = config_from_dict(d)
    state = init_state(cfg)
    assert any(p.honesty == "label_flip" for p in state.profiles)
    new_state, record = run_round(state)
    assert [i for i, _, _ in record.per_client] == record.cohort
    for i, loss, acc in record.per_client:
        assert (loss, acc) == evaluate(new_state.client_params[i], state.shards[i])


def test_run_identical_at_different_thread_counts(monkeypatch, tmp_path):
    cfg = smoke_cfg()
    outputs = {}
    for threads in ("1", "8"):
        monkeypatch.setenv(THREADS_ENV, threads)
        log = run_experiment(cfg)
        paths = write_run_outputs(log, str(tmp_path / f"t{threads}"))
        outputs[threads] = (
            open(paths["rounds"], "rb").read(),
            open(paths["summary"], "rb").read(),
        )
    assert outputs["1"][0] == outputs["8"][0]
    assert outputs["1"][1] == outputs["8"][1]


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# prints the sha256 of rounds.jsonl of preset_default(1007) run for 2 rounds
DEFAULT_DIGEST_SCRIPT = """
import hashlib, sys, tempfile
from afflsim.config import config_from_dict, preset_default
from afflsim.harness import run_experiment, write_run_outputs
data = {**preset_default(1007), "max_rounds": 2, "target_accuracy": None}
with tempfile.TemporaryDirectory() as outdir:
    paths = write_run_outputs(run_experiment(config_from_dict(data)), outdir)
    print(hashlib.sha256(open(paths["rounds"], "rb").read()).hexdigest())
"""


def test_default_run_does_not_depend_on_the_blas_thread_variables():
    """A default-sized run logs the same bits with the BLAS thread variables
    unset, where OpenBLAS may take every core, and with them at 1: the
    products of shards this size gave different bits at 1 and 2 threads
    until run_experiment held BLAS at one thread."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digests = []
    for threads in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(src, "src"), env.get("PYTHONPATH", "")])
        if threads is not None:
            env.update(dict.fromkeys(BLAS_THREAD_VARS, threads))
        result = subprocess.run(
            [sys.executable, "-c", DEFAULT_DIGEST_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.append(result.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_reruns_are_byte_identical(tmp_path):
    cfg = smoke_cfg()
    a = write_run_outputs(run_experiment(cfg), str(tmp_path / "a"))
    b = write_run_outputs(run_experiment(cfg), str(tmp_path / "b"))
    assert open(a["rounds"], "rb").read() == open(b["rounds"], "rb").read()


def test_bytes_accounting_matches_param_counts():
    cfg = smoke_cfg()
    log = run_experiment(cfg)
    state = init_state(cfg)
    templates = state.templates
    for record in log.records:
        pc = templates[record.capacity_index].param_count
        assert record.bytes_up == len(record.cohort) * 4 * pc
        assert record.bytes_down > 0
    assert log.h_max == pytest.approx(max(r.h_t for r in log.records))


def test_max_rounds_zero_gives_initial_evaluation_only():
    cfg = smoke_cfg(max_rounds=0)
    log = run_experiment(cfg)
    assert log.records == []
    assert 0.0 <= log.initial_val_accuracy <= 1.0
    assert log.final_val_accuracy() == log.initial_val_accuracy


def test_target_prefix_monotonicity():
    base = preset_smoke(7)
    lo = config_from_dict({**base, "target_accuracy": 0.85})
    hi = config_from_dict({**base, "target_accuracy": 0.90})
    log_lo = run_experiment(lo)
    log_hi = run_experiment(hi)
    assert log_lo.rounds_to_target is not None
    assert log_hi.rounds_to_target is not None
    assert log_lo.rounds_to_target <= log_hi.rounds_to_target
    # deterministic prefix: shared rounds match exactly
    for a, b in zip(log_lo.records, log_hi.records):
        assert a.global_val_accuracy == b.global_val_accuracy


def test_metrics_recomputable_from_persisted_log(tmp_path):
    from afflsim.fairness import gini as gini_fn
    from afflsim.harness import load_records, load_summary

    cfg = smoke_cfg()
    log = run_experiment(cfg)
    paths = write_run_outputs(log, str(tmp_path))
    records = load_records(paths["rounds"])
    summary = load_summary(paths["summary"])
    accs = np.array(list(summary["final_client_accuracy"].values()))
    assert gini_fn(accs) == pytest.approx(summary["gini_accuracy"])
    target = 0.85
    from_disk = next(
        (r["round_index"] for r in records if r["global_val_accuracy"] >= target), None
    )
    from_log = next(
        (r.round_index for r in log.records if r.global_val_accuracy >= target), None
    )
    assert from_disk == from_log
    assert max(r["h_t"] for r in records) == pytest.approx(summary["h_max"])
    assert records[1]["round_index"] == 2
    assert records[1]["fairness_gap"] == pytest.approx(log.records[1].fairness_gap)


# -- baselines ------------------------------------------------------------------


def test_fedavg_identical_shards_match_centralized_descent():
    d = preset_smoke(7)
    d["federation"] = {
        "academic": 0, "regional": 0, "rural": 2,
        "num_classes": 3, "feature_dim": 10, "concentration": 1.0,
    }
    d["protocol"]["algorithm"] = "fedavg"
    d["protocol"]["local_steps"] = 1
    d["protocol"]["dropout_rate"] = 0.0
    d["max_rounds"] = 3
    cfg = config_from_dict(d)
    state = init_state(cfg)
    # surgery: both clients hold the same shard, so fedavg == centralized GD
    state.shards[1] = state.shards[0]
    state.train_shards[1] = state.train_shards[0]
    global0 = state.messenger.copy()
    for _ in range(3):
        state, _ = run_round(state)
    central = train_local(global0, state.shards[0], steps=3, lr=cfg.protocol.local_lr)
    assert state.messenger.theta == pytest.approx(central.theta, abs=1e-9)


def test_fedavg_weights_proportional_to_sample_counts():
    d = preset_smoke(7)
    d["protocol"]["algorithm"] = "fedavg"
    d["max_rounds"] = 1
    cfg = config_from_dict(d)
    log = run_experiment(cfg)
    record = log.records[0]
    state = init_state(cfg)
    counts = np.array([state.profiles[i].sample_count for i in record.cohort], dtype=float)
    assert record.weights == pytest.approx(list(counts / counts.sum()))


def test_static_messenger_capacity_never_changes():
    d = preset_smoke(7)
    d["protocol"]["algorithm"] = "static_messenger"
    d["protocol"]["initial_capacity_index"] = 1
    cfg = config_from_dict(d)
    log = run_experiment(cfg)
    assert all(r.capacity_index == 1 for r in log.records)
    assert all(r.phi is None for r in log.records)


@pytest.mark.parametrize("interval", [2, 3])
def test_capacity_probed_only_on_the_adaptation_interval(monkeypatch, interval):
    chosen = []
    select = msg.select_capacity

    def counted(*args, **kwargs):
        decision = select(*args, **kwargs)
        chosen.append(decision.chosen_index)
        return decision

    monkeypatch.setattr(msg, "select_capacity", counted)
    d = preset_smoke(7)
    d["protocol"]["adapt_interval"] = interval
    # without a communication penalty the probe switches to the larger template
    d["protocol"]["lambda1"] = 0.0
    state = init_state(config_from_dict(d))
    start = index = state.capacity_decision.chosen_index
    for t in range(1, 7):
        calls = len(chosen)
        state, record = run_round(state)
        assert record.cohort
        if t % interval == 0:
            assert len(chosen) == calls + 1
            assert record.capacity_index == chosen[-1]
        else:
            assert len(chosen) == calls
            assert record.capacity_index == index
        index = record.capacity_index
    assert index != start


def test_uniform_weight_baseline_uses_equal_weights():
    d = preset_smoke(7)
    d["protocol"]["algorithm"] = "uniform_weight_affl"
    log = run_experiment(config_from_dict(d))
    for record in log.records:
        n = len(record.cohort)
        assert record.weights == pytest.approx([1.0 / n] * n)


def test_dropout_logged():
    d = preset_smoke(7)
    d["protocol"]["dropout_rate"] = 0.45
    cfg = config_from_dict(d)
    log = run_experiment(cfg)
    dropped = sum(len(r.dropped) for r in log.records)
    assert dropped > 0


def test_robust_round_uses_median_when_configured():
    d = preset_smoke(7)
    d["protocol"]["robust_method"] = "coordinate_median"
    d["max_rounds"] = 2
    log = run_experiment(config_from_dict(d))
    assert log.rounds_run == 2


def test_privacy_round_accounts_epsilon():
    d = preset_smoke(7)
    d["privacy"] = {"enabled": True, "clip_norm": 0.5, "noise_multiplier": 10.0, "delta": 1e-5}
    d["max_rounds"] = 3
    log = run_experiment(config_from_dict(d))
    eps = [r.eps_round for r in log.records]
    assert all(e > 0 for e in eps)
    assert log.records[-1].eps_total == pytest.approx(sum(eps))


def test_jsonl_records_round_trip(tmp_path):
    from afflsim.harness import load_records, load_summary

    cfg = smoke_cfg()
    log = run_experiment(cfg)
    paths = write_run_outputs(log, str(tmp_path))
    records = load_records(paths["rounds"])
    assert len(records) == log.rounds_run
    assert records[0]["round_index"] == 1
    summary = load_summary(paths["summary"])
    assert summary["config_digest"] == cfg.digest()
    # stable key order: each line's keys are sorted
    with open(paths["rounds"]) as fh:
        first = json.loads(fh.readline())
    assert list(first.keys()) == sorted(first.keys())


def test_round_holds_no_pooled_activations():
    """The global objective is evaluated shard by shard: no round allocates
    as much as the hidden activations of every row at once."""
    state = init_state(config_from_dict(preset_scale(40)))
    rows = sum(s.labels.shape[0] for s in state.shards)
    pooled_hidden_bytes = rows * state.messenger.arch.hidden * 8
    tracemalloc.start()
    try:
        run_round(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < pooled_hidden_bytes
