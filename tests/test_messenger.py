"""Capacity selection, curriculum, injection/distillation, fusion (harness._fuse_shard)."""

import numpy as np
import pytest

from afflsim.config import FederationBlock, ProtocolBlock, RunConfig
from afflsim.federation import DatasetShard
from afflsim.harness import _fuse_shard
from afflsim.messenger import (
    CurriculumSchedule,
    _tier_sample_weights,
    curriculum_weights,
    distill_to_messenger,
    inject_knowledge,
    messenger_forward,
    resize_params,
    select_capacity,
)
from afflsim.models import (
    Arch,
    ModelParams,
    backprop,
    evaluate,
    forward,
    init_params,
    logits,
    safe_log,
    softmax,
    train_local,
    with_ones_column,
)
from afflsim.rng import stream


def make_shard(seed=0, n=40, d=5, classes=3, tiers=2, separation=2.0):
    rng = stream(seed, "msg-shard")
    means = rng.normal(0, 1, (classes, d))
    means = means / np.linalg.norm(means, axis=1, keepdims=True) * separation
    labels = rng.integers(0, classes, n)
    feats = means[labels] + rng.normal(0, 1, (n, d))
    shard = DatasetShard(feats, labels, classes)
    if tiers:
        tier_ids = np.arange(n) % tiers
        shard = shard.with_tiers(tier_ids, tiers)
    return shard


# -- curriculum --------------------------------------------------------------


def test_curriculum_uniform_for_equal_parameters():
    schedule = CurriculumSchedule(4, (3.0,) * 4, (2.0,) * 4)
    for t in (0, 5, 50):
        assert curriculum_weights(t, schedule) == pytest.approx(np.full(4, 0.25))


def test_curriculum_hand_softmax():
    schedule = CurriculumSchedule(2, (0.0, 10.0), (5.0, 5.0))
    pi = curriculum_weights(10, schedule)
    assert pi == pytest.approx([0.8808, 0.1192], abs=1e-4)


def test_curriculum_normalized_over_random_schedules():
    rng = stream(3, "sched-sweep")
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        schedule = CurriculumSchedule(
            k, tuple(rng.uniform(-20, 20, k)), tuple(rng.uniform(0.1, 10, k))
        )
        pi = curriculum_weights(float(rng.uniform(-30, 30)), schedule)
        assert abs(pi.sum() - 1.0) < 1e-12


def test_curriculum_limit_favors_smallest_sigma():
    schedule = CurriculumSchedule(3, (0.0, 4.0, 9.0), (2.0, 6.0, 3.0))
    t = max(schedule.tau) + 100 * max(schedule.sigma)
    pi = curriculum_weights(t, schedule)
    assert pi[0] > 0.99  # sigma[0] is smallest


def test_spread_schedule_progresses_easy_to_hard():
    schedule = CurriculumSchedule.spread(num_tiers=3, horizon=30)
    assert len(set(schedule.sigma)) == 3  # equal sigmas would freeze the weights
    early = curriculum_weights(1, schedule)
    late = curriculum_weights(30, schedule)
    assert early[0] > late[0]  # easy tier fades
    assert late[2] > early[2]  # hard tier phases in
    t_limit = max(schedule.tau) + 100 * max(schedule.sigma)
    assert curriculum_weights(t_limit, schedule)[2] > 0.99


def test_schedule_validation():
    with pytest.raises(ValueError):
        CurriculumSchedule(2, (0.0, 1.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        CurriculumSchedule(2, (0.0,), (1.0, 1.0))


# -- capacity selection ------------------------------------------------------


def grid_for(shard, hidden=(4, 8, 16), lambda2=0.1, **kwargs):
    """(templates, protocol block, lambda2) for select_capacity.

    The probe settings default to lambda1 0.1 and 10 probe steps at lr 0.5.
    """
    templates = tuple(Arch(shard.features.shape[1], shard.num_classes, h) for h in hidden)
    settings = {"lambda1": 0.1, "probe_steps": 10, "probe_lr": 0.5, **kwargs}
    return templates, ProtocolBlock(**settings), lambda2


def test_tie_break_goes_to_smallest_index():
    shard = make_shard(tiers=0)
    templates, protocol, lambda2 = grid_for(shard, lambda1=0.0, lambda2=0.0, probe_steps=0)
    current = init_params(templates[0], 0)
    teacher = logits(current, shard.design)
    # zero probe steps + function-preserving resize: identical probe losses
    decision = select_capacity(
        templates, protocol, shard, teacher, 0.0, None, current, seed=1, lambda2=lambda2
    )
    losses = [s[0] for s in decision.composite_scores]
    assert losses == pytest.approx([losses[0]] * len(losses), abs=1e-12)
    assert decision.chosen_index == 0


def test_chosen_total_minimizes_recomputed_scores():
    shard = make_shard(tiers=0)
    templates, protocol, lambda2 = grid_for(shard, lambda1=0.3, lambda2=0.7, probe_steps=5)
    current = init_params(templates[1], 3)
    teacher = stream(4, "teacher").normal(0, 1, (shard.sample_count, shard.num_classes))
    spread = 0.4
    decision = select_capacity(
        templates, protocol, shard, teacher, spread, None, current, seed=2, lambda2=lambda2
    )
    max_pc = templates[-1].param_count
    totals = []
    for template, (loss, comm, fpen, total) in zip(templates, decision.composite_scores):
        assert comm == pytest.approx(template.param_count / max_pc)
        assert fpen == pytest.approx(spread * (1 - template.param_count / max_pc))
        assert total == pytest.approx(loss + 0.3 * comm + 0.7 * fpen, abs=1e-12)
        totals.append(loss + 0.3 * comm + 0.7 * fpen)
    assert decision.chosen_index == int(np.argmin(totals))
    assert totals[decision.chosen_index] <= min(totals) + 1e-12


def test_selection_does_not_mutate_current():
    shard = make_shard(tiers=0)
    templates, protocol, lambda2 = grid_for(shard, probe_steps=5)
    for index in range(len(templates)):  # includes the no-resize template
        current = init_params(templates[index], 6)
        snapshot = current.theta.copy()
        teacher = stream(7, "teacher").normal(0, 1, (shard.sample_count, shard.num_classes))
        select_capacity(
            templates, protocol, shard, teacher, 0.1, None, current, seed=5, lambda2=lambda2
        )
        assert np.array_equal(current.theta, snapshot)


def test_selection_deterministic():
    shard = make_shard(tiers=0)
    templates, protocol, lambda2 = grid_for(shard)
    current = init_params(templates[0], 1)
    teacher = stream(8, "teacher").normal(0, 1, (shard.sample_count, shard.num_classes))
    d1 = select_capacity(
        templates, protocol, shard, teacher, 0.1, None, current, seed=5, lambda2=lambda2
    )
    d2 = select_capacity(
        templates, protocol, shard, teacher, 0.1, None, current, seed=5, lambda2=lambda2
    )
    assert d1 == d2


def test_complex_task_selects_at_least_simple_capacity():
    # the complex teacher (6 classes, mixed signs) needs more capacity than
    # the near-linear 2-class teacher; penalties equal across tasks
    d = 6
    rng = stream(11, "tasks")
    feats = rng.normal(0, 1, (120, d))

    def run(classes, teacher_fn):
        shard = DatasetShard(feats, np.zeros(120, dtype=int), classes)
        templates = (Arch(d, classes, 2), Arch(d, classes, 24))
        protocol = ProtocolBlock(lambda1=0.02, probe_steps=40, probe_lr=0.8)
        current = init_params(templates[0], 0)
        teacher = teacher_fn(shard)
        return select_capacity(
            templates, protocol, shard, teacher, 0.0, None, current, seed=3, lambda2=0.0
        )

    simple = run(2, lambda s: np.column_stack([s.features[:, 0], -s.features[:, 0]]))

    def complex_teacher(shard):
        w = stream(12, "complex-w").normal(0, 2, (d, 6))
        return np.tanh(shard.features @ w) * 4 + np.sin(shard.features[:, :1]) * 3

    complex_ = run(6, complex_teacher)
    assert complex_.chosen_index >= simple.chosen_index


# -- resize ------------------------------------------------------------------


def test_resize_preserves_function_and_grows():
    arch_small = Arch(5, 3, 4)
    arch_big = Arch(5, 3, 9)
    params = init_params(arch_small, 2)
    grown = resize_params(params, arch_big, seed=7)
    x1 = with_ones_column(stream(1, "resize-x").normal(0, 1, (20, 5)))
    assert logits(grown, x1) == pytest.approx(logits(params, x1), abs=1e-12)
    # new units must be trainable: after training, they move
    shard = make_shard(n=30, d=5, tiers=0)
    trained = train_local(grown, shard, steps=30, lr=0.5)
    w1 = trained.theta[: 5 * 9].reshape(5, 9)
    assert np.abs(w1[:, 4:]).max() > 0


def test_resize_shrink_truncates():
    params = init_params(Arch(5, 3, 8), 0)
    small = resize_params(params, Arch(5, 3, 4), seed=1)
    assert small.param_count == Arch(5, 3, 4).param_count


# -- injection ---------------------------------------------------------------


def injection_loss(
    client: ModelParams, messenger: ModelParams, shard: DatasetShard, pi: np.ndarray
) -> float:
    """Sum over stages of pi_k * mean KL(messenger || client) on tier k."""
    w = _tier_sample_weights(shard, pi)
    p_m = softmax(logits(messenger, shard.design))
    p_c = softmax(logits(client, shard.design))
    per_sample = np.sum(p_m * (safe_log(p_m) - safe_log(p_c)), axis=1)
    return float(np.sum(w * per_sample))


def test_injection_noop_when_towers_agree():
    shard = make_shard(tiers=2)
    arch = Arch(5, 3, 4)
    params = init_params(arch, 0)
    out = inject_knowledge(params.copy(), params, shard, np.array([0.5, 0.5]), 5, 0.5)
    assert np.allclose(out.theta, params.theta, atol=1e-12)


def test_injection_one_hot_matches_restricted_distillation():
    shard = make_shard(tiers=3, n=42)
    client = init_params(Arch(5, 3, 4), 1)
    mess = init_params(Arch(5, 3, 8), 2)
    pi = np.array([0.0, 1.0, 0.0])
    loss = injection_loss(client, mess, shard, pi)
    # oracle: plain mean KL(messenger || client) over tier-1 samples only
    from afflsim.models import softmax as sm

    mask = shard.difficulty_tiers == 1
    p_m = sm(logits(mess, shard.design[mask]))
    p_c = sm(logits(client, shard.design[mask]))
    oracle = np.mean(np.sum(p_m * (np.log(p_m) - np.log(p_c)), axis=1))
    assert loss == pytest.approx(oracle, abs=1e-12)


def test_injection_descends():
    shard = make_shard(tiers=2, n=60)
    client = init_params(Arch(5, 3, 4), 3)
    mess = init_params(Arch(5, 3, 8), 4)
    pi = np.array([0.7, 0.3])
    before = injection_loss(client, mess, shard, pi)
    after_params = inject_knowledge(client, mess, shard, pi, steps=20, lr=0.5)
    after = injection_loss(after_params, mess, shard, pi)
    assert after <= before


def test_injection_freezes_messenger_and_requires_tiers():
    shard = make_shard(tiers=2)
    client = init_params(Arch(5, 3, 4), 1)
    mess = init_params(Arch(5, 3, 8), 2)
    snapshot = mess.theta.copy()
    inject_knowledge(client, mess, shard, np.array([0.5, 0.5]), 3, 0.5)
    assert np.array_equal(mess.theta, snapshot)
    bare = make_shard(tiers=0)
    with pytest.raises(ValueError):
        inject_knowledge(client, mess, bare, np.array([0.5, 0.5]), 1, 0.5)


def test_injection_does_not_mutate_client():
    shard = make_shard(tiers=2)
    client = init_params(Arch(5, 3, 4), 1)
    mess = init_params(Arch(5, 3, 8), 2)
    snapshot = client.theta.copy()
    out = inject_knowledge(client, mess, shard, np.array([0.5, 0.5]), 3, 0.5)
    assert np.array_equal(client.theta, snapshot)
    assert not np.array_equal(out.theta, snapshot)


def test_injection_empty_tier_contributes_nothing():
    shard = make_shard(tiers=0, n=20)
    shard = shard.with_tiers(np.zeros(20, dtype=int), 2)  # tier 1 empty
    client = init_params(Arch(5, 3, 4), 5)
    mess = init_params(Arch(5, 3, 4), 6)
    with_mass = injection_loss(client, mess, shard, np.array([1.0, 0.0]))
    split = injection_loss(client, mess, shard, np.array([0.5, 0.5]))
    assert split == pytest.approx(0.5 * with_mass, abs=1e-12)


# -- distillation ------------------------------------------------------------


def distillation_loss(
    messenger: ModelParams, client: ModelParams, shard: DatasetShard, lambda_kl: float
) -> float:
    """CE(messenger, labels) + lambda_kl * mean KL(client || messenger)."""
    n = shard.sample_count
    p_m = softmax(logits(messenger, shard.design))
    p_c = softmax(logits(client, shard.design))
    ce = float(-np.mean(safe_log(p_m[np.arange(n), shard.labels])))
    kl = float(np.mean(np.sum(p_c * (safe_log(p_c) - safe_log(p_m)), axis=1)))
    return ce + lambda_kl * kl


def distillation_grad(
    messenger: ModelParams, client: ModelParams, shard: DatasetShard, lambda_kl: float
) -> np.ndarray:
    """Gradient of distillation_loss w.r.t. the messenger parameters."""
    n = shard.sample_count
    z, hidden = forward(messenger, shard.design)
    p_m = softmax(z)
    p_c = softmax(logits(client, shard.design))
    onehot = np.zeros((n, shard.num_classes))
    onehot[np.arange(n), shard.labels] = 1.0
    delta = ((p_m - onehot) + lambda_kl * (p_m - p_c)) / n
    return backprop(messenger, shard.design, delta, hidden)


def test_distill_lambda_zero_equals_plain_ce_training():
    shard = make_shard(tiers=0, n=50)
    mess = init_params(Arch(5, 3, 4), 7)
    client = init_params(Arch(5, 3, 8), 8)
    distilled = distill_to_messenger(mess, client, shard, 0.0, steps=10, lr=0.4)
    plain = train_local(mess, shard, steps=10, lr=0.4)
    assert distilled.theta == pytest.approx(plain.theta, abs=1e-12)


def test_distill_kl_term_zero_when_matching():
    shard = make_shard(tiers=0)
    params = init_params(Arch(5, 3, 4), 9)
    full = distillation_loss(params, params, shard, lambda_kl=1.0)
    ce_only = distillation_loss(params, params, shard, lambda_kl=0.0)
    assert full - ce_only < 1e-8


def test_distill_gradient_matches_finite_differences():
    shard = make_shard(tiers=0, n=30)
    mess = init_params(Arch(5, 3, 4), 10)
    client = init_params(Arch(5, 3, 8), 11)
    lam = 0.8
    grad = distillation_grad(mess, client, shard, lam)
    rng = stream(12, "fd")
    coords = rng.choice(mess.param_count, size=min(50, mess.param_count), replace=False)
    h = 1e-5
    fd = []
    for c in coords:
        up, down = mess.theta.copy(), mess.theta.copy()
        up[c] += h
        down[c] -= h
        fd.append(
            (
                distillation_loss(ModelParams(mess.arch, up), client, shard, lam)
                - distillation_loss(ModelParams(mess.arch, down), client, shard, lam)
            )
            / (2 * h)
        )
    fd = np.array(fd)
    rel = np.abs(grad[coords] - fd) / np.maximum.reduce(
        [np.abs(grad[coords]), np.abs(fd), np.full_like(fd, 1e-6)]
    )
    assert rel.max() < 1e-4


def test_distill_freezes_client():
    shard = make_shard(tiers=0)
    mess = init_params(Arch(5, 3, 4), 13)
    client = init_params(Arch(5, 3, 8), 14)
    snapshot = client.theta.copy()
    distill_to_messenger(mess, client, shard, 1.0, steps=5, lr=0.3)
    assert np.array_equal(client.theta, snapshot)


def test_distill_does_not_mutate_messenger():
    shard = make_shard(tiers=0)
    mess = init_params(Arch(5, 3, 4), 13)
    client = init_params(Arch(5, 3, 8), 14)
    snapshot = mess.theta.copy()
    out = distill_to_messenger(mess, client, shard, 1.0, steps=5, lr=0.3)
    assert np.array_equal(mess.theta, snapshot)
    assert not np.array_equal(out.theta, snapshot)


@pytest.mark.parametrize("hidden", [0, 4])
@pytest.mark.parametrize("n", [20, 40])
def test_precomputed_messenger_forward_is_bit_identical(hidden, n):
    shard = make_shard(tiers=2, n=n)
    client = init_params(Arch(5, 3, 6), 17)
    mess = init_params(Arch(5, 3, hidden), 18)
    pi = np.array([0.6, 0.4])
    fwd = messenger_forward(mess, shard)
    inner = inject_knowledge(client, mess, shard, pi, 3, 0.4)
    shared = inject_knowledge(client, mess, shard, pi, 3, 0.4, fwd)
    assert np.array_equal(inner.theta, shared.theta)
    for steps in (0, 1, 4):
        inner = distill_to_messenger(mess, shared, shard, 0.7, steps, 0.5)
        reused = distill_to_messenger(mess, shared, shard, 0.7, steps, 0.5, fwd)
        assert np.array_equal(inner.theta, reused.theta)
    # the shared forward is read, never written
    assert np.array_equal(fwd.logits, messenger_forward(mess, shard).logits)
    assert np.array_equal(fwd.probs, messenger_forward(mess, shard).probs)
    fresh_hidden = messenger_forward(mess, shard).hidden
    if hidden == 0:
        assert fwd.hidden is None and fresh_hidden is None
    else:
        assert np.array_equal(fwd.hidden, fresh_hidden)


def test_distill_improves_messenger_fit():
    shard = make_shard(tiers=0, n=80, separation=2.5)
    mess = init_params(Arch(5, 3, 4), 15)
    client = train_local(init_params(Arch(5, 3, 8), 16), shard, steps=60, lr=0.5)
    before, _ = evaluate(mess, shard)
    variant = distill_to_messenger(mess, client, shard, 1.0, steps=40, lr=0.5)
    after, _ = evaluate(variant, shard)
    assert after < before


# -- fusion ------------------------------------------------------------------


def fused(inputs, weights, encoders, held=None, active=None):
    """_fuse_shard on a shard whose modality blocks are the given inputs.

    The inputs' widths must be the federation's near-equal column split of
    their total width into len(inputs) blocks.
    """
    features = np.hstack(inputs)
    cfg = RunConfig(
        federation=FederationBlock(
            feature_dim=features.shape[1], num_modalities=len(inputs)
        ),
        protocol=ProtocolBlock(
            fused_dim=encoders[0].shape[1],
            fusion_weights=weights,
            active_modalities=active,
        ),
    )
    spans = [stop - start for _, (start, stop) in cfg.federation.modality_blocks()]
    assert spans == [x.shape[1] for x in inputs]
    shard = DatasetShard(features, np.zeros(features.shape[0], dtype=int), 2)
    held = tuple(range(len(inputs))) if held is None else held
    return _fuse_shard(cfg, list(encoders), shard, held).features


@pytest.mark.parametrize("held, active", [((0,), None), ((0, 1), (0,))])
def test_fusion_single_modality_exact(held, active):
    enc = stream(20, "enc").normal(0, 1, (3, 4))
    x = stream(21, "x").normal(0, 1, (6, 3))
    other = stream(21, "other").normal(0, 1, (6, 3))
    out = fused([x, other], (0.3, -0.8), (enc, np.zeros((3, 4))), held, active)
    assert out == pytest.approx(x @ enc, abs=1e-12)


def test_fusion_symmetric_weights_average():
    u = stream(22, "u").normal(0, 1, (5, 3))
    v = stream(23, "v").normal(0, 1, (5, 3))
    out = fused([u, v], (0.0, 0.0), (np.eye(3), np.eye(3)))
    assert out == pytest.approx(0.5 * u + 0.5 * v)


def test_fusion_three_modalities_matches_matrix_oracle():
    rng = stream(24, "fuse3")
    dims = (3, 3, 4)
    encoders = tuple(rng.normal(0, 1, (d, 5)) for d in dims)
    raw = (0.2, -0.4, 1.1)
    inputs = [rng.normal(0, 1, (7, d)) for d in dims]
    z = np.exp(np.array(raw))
    w = z / z.sum()
    oracle = sum(w[m] * inputs[m] @ encoders[m] for m in (0, 1, 2))
    assert fused(inputs, raw, encoders) == pytest.approx(oracle, abs=1e-10)


def test_fusion_linear_in_each_input():
    rng = stream(25, "linear")
    encoders = (rng.normal(0, 1, (3, 3)), rng.normal(0, 1, (3, 3)))
    u, v = rng.normal(0, 1, (4, 3)), rng.normal(0, 1, (4, 3))
    base = fused([u, v], (0.5, 0.2), encoders)
    doubled = fused([2 * u, v], (0.5, 0.2), encoders)
    shift = fused([np.zeros_like(u), v], (0.5, 0.2), encoders)
    assert doubled - shift == pytest.approx(2 * (base - shift), abs=1e-10)
