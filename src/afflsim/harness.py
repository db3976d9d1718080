"""Round loop: sampling, training, distillation, privacy, attacks, aggregation.

run_experiment drives the adaptive protocol (or a baseline) round by round,
appending one RoundRecord per round with every observable the metric suite
needs: heterogeneity, capacity decisions, Shapley weights, per-client
accuracy, byte and energy accounting, and privacy spend.

All randomness flows through per-(purpose, round, client) counter-based
streams, so a (config, seed) pair fully determines the run log.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import glob
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import fairness as fair
from . import heterogeneity as het
from . import messenger as msg
from . import models, privacy
from .config import AttackBlock, RunConfig
from .federation import (
    ClientProfile,
    DatasetShard,
    gen_federation,
    gen_reference_shard,
    pooled_label_distribution,
)
from .models import Arch, ModelParams
from .rng import stream, subseed

# version of summary.json; config.SCHEMA_VERSION versions the config dict
SUMMARY_SCHEMA_VERSION = 1

OUTPUT_DIR_ENV = "AFFLSIM_OUTPUT_DIR"


@dataclass
class RoundRecord:
    round_index: int
    h_t: float
    capacity_index: int | None
    cohort: list[int]
    dropped: list[int]
    phi: list[float] | None
    weights: list[float] | None
    per_client: list[tuple[int, float, float]]  # (id, loss, accuracy)
    global_val_loss: float
    global_val_accuracy: float
    global_pool_loss: float  # mean loss over every row of every shard (the global objective)
    fairness_gap: float
    lambda2: float
    bytes_up: int
    bytes_down: int
    energy_kwh: float
    eps_round: float
    eps_total: float
    empty: bool = False

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["per_client"] = [[int(i), float(l), float(a)] for i, l, a in self.per_client]
        return d


@dataclass
class RunLog:
    algorithm: str
    seed: int
    config_digest: str
    records: list[RoundRecord] = field(default_factory=list)
    h_max: float = 0.0
    target_accuracy: float | None = None
    rounds_to_target: int | None = None
    initial_val_accuracy: float = 0.0
    final_client_accuracy: dict[int, float] = field(default_factory=dict)
    final_class_accuracy: dict[str, float] = field(default_factory=dict)

    @property
    def rounds_run(self) -> int:
        return len(self.records)

    def final_val_accuracy(self) -> float:
        return self.records[-1].global_val_accuracy if self.records else self.initial_val_accuracy

    def mean_bytes_per_round(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.bytes_up + r.bytes_down for r in self.records]))

    def mean_kwh_per_round(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.energy_kwh for r in self.records]))

    def summary_dict(self) -> dict:
        accs = list(self.final_client_accuracy.values())
        return {
            "schema_version": SUMMARY_SCHEMA_VERSION,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "config_digest": self.config_digest,
            "rounds_run": self.rounds_run,
            "rounds_to_target": self.rounds_to_target,
            "target_accuracy": self.target_accuracy,
            "initial_val_accuracy": self.initial_val_accuracy,
            "final_val_accuracy": self.final_val_accuracy(),
            "final_client_accuracy": {str(k): v for k, v in sorted(self.final_client_accuracy.items())},
            "final_class_accuracy": dict(sorted(self.final_class_accuracy.items())),
            "gini_accuracy": fair.gini(accs) if accs else 0.0,
            "fairness_gap_final": fair.fairness_gap(accs) if accs else 0.0,
            "mean_bytes_per_round": self.mean_bytes_per_round(),
            "mean_kwh_per_round": self.mean_kwh_per_round(),
            "eps_total": self.records[-1].eps_total if self.records else 0.0,
            "h_max": self.h_max,
        }


def thread_count() -> int:
    """Always 1: the round loop is serial. Kept only for perfbench/child.py's
    environment record; delete it when that record drops the field."""
    return 1


@functools.cache
def _bundled_openblas() -> ctypes.CDLL | None:
    """numpy's bundled scipy-openblas library, or None if this build has none.

    numpy wheels ship it in numpy.libs next to the package; numpy has
    loaded it already, so this opens the same library, not a second copy.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        lib = ctypes.CDLL(path)
        try:
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return lib
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread, then restore its previous count.

    On default-sized shards a product can give different bits at different
    BLAS thread counts, so pinning one thread leaves rounds.jsonl depending
    on the numpy/BLAS build only. A build without the scipy-openblas
    symbols runs at whatever count its BLAS uses.
    """
    lib = _bundled_openblas()
    if lib is None:
        yield
        return
    previous = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(previous)


# ---------------------------------------------------------------------------
# Load model, sampling, attacks
# ---------------------------------------------------------------------------


def compute_load(profile: ClientProfile, work_units: float) -> float:
    """(work / capacity) * network delay; the per-round cost proxy."""
    if profile.compute_capacity <= 0:
        raise ValueError("capacity must be positive")
    return work_units / profile.compute_capacity * profile.network_delay


def sample_clients(
    population: list[ClientProfile],
    rate: float,
    load_aware: bool,
    seed: int,
    round_index: int,
) -> list[int]:
    """Sample a cohort without replacement; sorted client ids.

    Uniform mode draws a fixed-size cohort. Load-aware mode uses systematic
    sampling with inclusion probability proportional to 1/load, which keeps
    the expected cohort size within one client of rate*N.
    """
    n = len(population)
    if not 0 < rate <= 1:
        raise ValueError("rate must lie in (0, 1]")
    m = rate * n
    if m < 1:
        raise ValueError("rate * population must be at least 1")
    rng = stream(seed, "sample", round_index)
    if not load_aware:
        k = int(round(m))
        chosen = rng.choice(n, size=k, replace=False)
        return sorted(population[int(i)].id for i in chosen)
    inv = np.array([1.0 / compute_load(p, 1.0) for p in population])
    probs = m * inv / inv.sum()
    # cap at 1 and push the excess mass onto the rest
    for _ in range(n):
        over = probs > 1.0
        if not over.any():
            break
        excess = float(np.sum(probs[over] - 1.0))
        probs[over] = 1.0
        free = ~over
        if probs[free].sum() > 0:
            probs[free] += excess * probs[free] / probs[free].sum()
    cum = np.cumsum(probs)
    u = rng.uniform(0.0, 1.0)
    picks = np.floor(cum - u).astype(int) - np.floor(np.concatenate([[0.0], cum[:-1]]) - u).astype(int)
    return sorted(population[i].id for i in np.nonzero(picks > 0)[0])


def apply_attack_flags(profiles: list[ClientProfile], spec: AttackBlock) -> list[ClientProfile]:
    """Mark the floor(fraction*N) largest clients as attackers."""
    if spec.kind is None or spec.attacker_fraction == 0.0:
        return list(profiles)
    count = int(np.floor(spec.attacker_fraction * len(profiles)))
    by_size = sorted(profiles, key=lambda p: (-p.sample_count, p.id))
    attacker_ids = {p.id for p in by_size[:count]}
    return [
        replace(p, honesty=spec.kind) if p.id in attacker_ids else p for p in profiles
    ]


def flip_labels(shard: DatasetShard) -> DatasetShard:
    """Cyclic label permutation used by label_flip attackers at train time."""
    return shard.with_labels((shard.labels + 1) % shard.num_classes)


def inject_attack(
    variants: list[ModelParams],
    base: ModelParams,
    cohort: list[ClientProfile],
    spec: AttackBlock,
) -> list[ModelParams]:
    """Apply delta-level attacks to the variants of flagged clients.

    sign_flip negates the attacker's delta; large_norm scales it. label_flip
    acts at the data level before training, so variants pass through here.
    """
    if spec.kind in (None, "label_flip"):
        return [v.copy() for v in variants]
    out = []
    for profile, variant in zip(cohort, variants):
        if profile.honesty != spec.kind:
            out.append(variant.copy())
            continue
        delta = variant.theta - base.theta
        factor = -1.0 if spec.kind == "sign_flip" else spec.scale
        out.append(ModelParams(variant.arch, base.theta + factor * delta))
    return out


# ---------------------------------------------------------------------------
# Simulation state
# ---------------------------------------------------------------------------


@dataclass
class SimState:
    config: RunConfig
    profiles: list[ClientProfile]
    shards: list[DatasetShard]  # tiers assigned, fused features if configured
    train_shards: list[DatasetShard]  # label-flipped views for attackers
    validation: DatasetShard
    probe: DatasetShard
    pooled_dist: np.ndarray
    client_params: list[ModelParams]  # fedavg: copies of the broadcast model
    messenger: ModelParams  # the broadcast model; fedavg's global model
    templates: tuple[Arch, ...]  # messenger templates, ascending in param count
    schedule: msg.CurriculumSchedule
    capacity_decision: msg.CapacityDecision
    lambda2: float
    round_index: int
    eps_total: float
    last_client_losses: dict[int, float]
    per_round_eps: float


def _round_energy(cfg: RunConfig, cohort_profiles: list[ClientProfile]) -> float:
    """kWh per round: sum over cohort of work/capacity times the coefficient."""
    p = cfg.protocol
    steps = p.local_steps
    if p.algorithm != "fedavg":
        steps += p.inject_steps + p.distill_steps
    return sum(
        (steps * pr.sample_count / pr.compute_capacity * cfg.energy_coefficient
         for pr in cohort_profiles),
        0.0,
    )


def _fusion_encoders(cfg: RunConfig) -> list[np.ndarray] | None:
    """One linear encoder per modality into cfg.input_width() columns, or
    None when the run does not fuse. A block already that wide gets the
    identity."""
    if cfg.federation.num_modalities <= 1 and cfg.protocol.fused_dim is None:
        return None
    fused_dim = cfg.input_width()
    encoders = []
    for mid, (start, stop) in cfg.federation.modality_blocks():
        d = stop - start
        if d == fused_dim:
            encoders.append(np.eye(d))
        else:
            rng = stream(cfg.seed, "fusion-encoder", mid)
            encoders.append(rng.normal(0.0, 1.0, (d, fused_dim)) / np.sqrt(d))
    return encoders


def _fuse_shard(
    cfg: RunConfig, encoders: list[np.ndarray], shard: DatasetShard, held: tuple[int, ...]
) -> DatasetShard:
    """shard with its features fused: each held, active modality's columns
    through its encoder, summed in ascending id order and weighted by
    softmax(fusion_weights) over just those modalities."""
    active = cfg.protocol.active_modalities
    blocks = [
        (mid, cols) for mid, cols in cfg.federation.modality_blocks()
        if mid in held and (active is None or mid in active)
    ]
    raw = cfg.protocol.fusion_weights or (0.0,) * len(encoders)
    weights = models.softmax([raw[mid] for mid, _ in blocks])
    fused = None
    for w, (mid, (start, stop)) in zip(weights, blocks):
        term = float(w) * (shard.features[:, start:stop] @ encoders[mid])
        fused = term if fused is None else fused + term
    return shard.with_features(fused)


def init_state(cfg: RunConfig) -> SimState:
    """Generate the federation and initialize every protocol object."""
    fed = cfg.federation
    profiles, shards = gen_federation(fed, cfg.seed)
    validation = gen_reference_shard(fed, cfg.seed, cfg.validation_samples, "validation")
    probe = gen_reference_shard(fed, cfg.seed, cfg.probe_samples, "probe")
    pooled = pooled_label_distribution(shards)

    encoders = _fusion_encoders(cfg)
    in_dim = cfg.input_width()
    if encoders is not None:
        shards = [
            _fuse_shard(cfg, encoders, s, p.modalities) for p, s in zip(profiles, shards)
        ]
        all_mods = tuple(range(fed.num_modalities))
        validation = _fuse_shard(cfg, encoders, validation, all_mods)
        probe = _fuse_shard(cfg, encoders, probe, all_mods)
        profiles = [replace(p, arch=Arch(in_dim, p.arch.num_classes, p.arch.hidden)) for p in profiles]

    profiles = apply_attack_flags(profiles, cfg.attack)
    train_shards = [
        flip_labels(s) if p.honesty == "label_flip" else s
        for p, s in zip(profiles, shards)
    ]

    p = cfg.protocol
    fedavg = p.algorithm == "fedavg"
    templates = tuple(Arch(in_dim, fed.num_classes, h) for h in p.grid_hidden)
    if fedavg:
        arch = Arch(in_dim, fed.num_classes, p.fedavg_hidden)
        profiles = [replace(pr, arch=arch) for pr in profiles]
        messenger = models.init_params(arch, subseed(cfg.seed, "global"))
        client_params = [messenger] * len(profiles)  # train_local copies its input
    else:
        messenger = models.init_params(
            templates[p.initial_capacity_index], subseed(cfg.seed, "messenger")
        )
        client_params = [
            models.init_params(pr.arch, subseed(cfg.seed, "client-init", pr.id))
            for pr in profiles
        ]

    # warm-up pass: tiers come from each client's briefly trained model
    num_tiers = p.curriculum_tiers
    warmed = []
    tiered = []
    for pr, params, shard, tshard in zip(profiles, client_params, shards, train_shards):
        w = models.train_local(params, tshard, p.warmup_steps, p.local_lr)
        warmed.append(w)
        tiered.append(models.assign_difficulty_tiers(shard, w, num_tiers))
    shards = tiered
    train_shards = [
        flip_labels(s) if pr.honesty == "label_flip" else s
        for pr, s in zip(profiles, shards)
    ]
    # fedavg clients hold the broadcast model; the warm-up only set tiers
    client_params = [messenger.copy() for _ in profiles] if fedavg else warmed

    if p.curriculum_tau is not None:  # parsing requires sigma with tau
        schedule = msg.CurriculumSchedule(num_tiers, tuple(p.curriculum_tau), tuple(p.curriculum_sigma))
    else:
        schedule = msg.CurriculumSchedule.spread(num_tiers, max(cfg.max_rounds, 1))

    priv = cfg.privacy
    per_round_eps = 0.0
    if priv.enabled and priv.noise_multiplier > 0:
        priv.check_delta(min(pr.sample_count for pr in profiles))
        per_round_eps = privacy.account_privacy(1, priv).per_round_eps

    decision = msg.CapacityDecision(chosen_index=p.initial_capacity_index, composite_scores=())
    return SimState(
        config=cfg,
        profiles=profiles,
        shards=shards,
        train_shards=train_shards,
        validation=validation,
        probe=probe,
        pooled_dist=pooled,
        client_params=client_params,
        messenger=messenger,
        templates=templates,
        schedule=schedule,
        capacity_decision=decision,
        lambda2=p.lambda2,
        round_index=0,
        eps_total=0.0,
        last_client_losses={},
        per_round_eps=per_round_eps,
    )


# ---------------------------------------------------------------------------
# Round loop
# ---------------------------------------------------------------------------


def _sample_cohort(state: SimState, round_index: int) -> tuple[list[int], list[int]]:
    cfg = state.config
    ids = sample_clients(
        state.profiles,
        cfg.protocol.sample_rate,
        cfg.protocol.load_aware_sampling,
        cfg.seed,
        round_index,
    )
    if cfg.protocol.dropout_rate <= 0:
        return ids, []
    kept, dropped = [], []
    for i in ids:
        u = stream(cfg.seed, "dropout", round_index, i).random()
        (dropped if u < cfg.protocol.dropout_rate else kept).append(i)
    return kept, dropped


def probe_teacher_logits(state: SimState, cohort: list[int]) -> np.ndarray:
    """Averaged client logits on the probe shard (the probe teacher)."""
    stacked = [models.logits(state.client_params[i], state.probe.design) for i in cohort]
    return np.mean(stacked, axis=0)


def _loss_spread(state: SimState, cohort: list[int]) -> float:
    losses = [state.last_client_losses[i] for i in cohort if i in state.last_client_losses]
    if len(losses) < 2:
        return 0.0
    mean = float(np.mean(losses))
    if mean <= 0:
        return 0.0
    return float(np.std(losses) / mean)


# Coalitions per stacked forward. It bounds the (block, rows, hidden)
# activations and logits one block allocates, which grow with the block.
COALITION_BLOCK = 64


def coalition_value_fn(
    cohort: list[int],
    variants: list[ModelParams],
    base: ModelParams,
    validation: DatasetShard,
):
    """Shapley value function of one round: membership rows -> validation accuracies.

    value_fn(members) takes shapley_estimate's boolean (K, len(cohort))
    membership matrix, column j standing for variants[j], the upload of
    cohort[j]. A non-empty coalition is worth the accuracy of the uniform
    average of its members' variants; the empty coalition is worth base's
    accuracy. The variants are checked and stacked once. Each block of
    COALITION_BLOCK averages is one product (members / sizes) @ stacked,
    written into one theta buffer per call, and is evaluated in one
    stacked forward.
    """
    _, v_empty = models.evaluate(base, validation)
    arch, stacked = fair._stack_variants(variants)

    def value_fn(members: np.ndarray) -> np.ndarray:
        sizes = np.count_nonzero(members, axis=1)
        values = np.full(len(members), v_empty)
        filled = np.flatnonzero(sizes)
        k = min(len(filled), COALITION_BLOCK)
        uniform = np.empty((k, len(stacked)))
        thetas = np.empty((k, arch.param_count))
        ws: models.Workspace = {}
        for start in range(0, len(filled), COALITION_BLOCK):
            block = filled[start : start + COALITION_BLOCK]
            r = len(block)
            np.divide(members[block], sizes[block, None], out=uniform[:r])
            np.matmul(uniform[:r], stacked, out=thetas[:r])
            values[block] = models.stacked_accuracy(arch, thetas[:r], validation, ws)
        return values

    return value_fn


def _adapt_capacity(
    state: SimState, cohort: list[int], t: int
) -> tuple[msg.CapacityDecision, ModelParams]:
    """(capacity decision, broadcast model of round t); affl variants only.

    On the adaptation interval the template grid is probed, and a switch of
    template resizes the messenger before it is broadcast.
    """
    prev = state.capacity_decision
    p = state.config.protocol
    adaptive = p.algorithm in ("affl", "uniform_weight_affl")
    if not adaptive or t % p.adapt_interval != 0:
        return prev, state.messenger
    seed = state.config.seed
    decision = msg.select_capacity(
        state.templates,
        p,
        state.probe,
        probe_teacher_logits(state, cohort),
        _loss_spread(state, cohort),
        prev,
        state.messenger,
        subseed(seed, "capacity", t),
        lambda2=state.lambda2,
    )
    if decision.chosen_index == prev.chosen_index:
        return decision, state.messenger
    template = state.templates[decision.chosen_index]
    return decision, msg.resize_params(state.messenger, template, subseed(seed, "resize", t))


def _client_step(
    state: SimState, cohort: list[int], base: ModelParams, t: int
) -> tuple[list[ModelParams], list[ModelParams], list[tuple[float, float]] | None]:
    """(client params after the round, one upload per cohort client, scores).

    fedavg clients train the broadcast model and upload it; their scores
    are None, as they are scored on the aggregate. Messenger clients train
    their own model, inject the messenger's knowledge under the curriculum
    (uniform for static_messenger), and upload a distilled messenger
    variant. The client's probabilities that distillation needs also give
    each client's (loss, accuracy) on its own shard, scored on true labels
    before distillation, so that only the probabilities live through it.
    Injection and distillation each run the frozen messenger's forward
    themselves.
    """
    p = state.config.protocol
    if p.algorithm == "fedavg":
        uploads = [
            models.train_local(base, state.train_shards[i], p.local_steps, p.local_lr)
            for i in cohort
        ]
        return state.client_params, uploads, None

    if p.algorithm == "static_messenger":
        pi = np.full(state.schedule.num_tiers, 1.0 / state.schedule.num_tiers)
    else:
        pi = msg.curriculum_weights(t, state.schedule)

    client_params = list(state.client_params)
    variants, scores = [], []
    for i in cohort:
        train_shard = state.train_shards[i]
        params = models.train_local(state.client_params[i], train_shard, p.local_steps, p.local_lr)
        params = msg.inject_knowledge(params, base, train_shard, pi, p.inject_steps, p.inject_lr)
        # train_shard shares the design of shards[i]; label_flip changes only labels
        z = models.logits(params, train_shard.design)
        probs = models.softmax(z)
        scores.append(models.score(z, probs, state.shards[i].labels))
        del z  # shard-sized; distillation needs only the probabilities
        variant = msg.distill_to_messenger(
            base, params, train_shard, p.lambda_kl, p.distill_steps, p.distill_lr, probs
        )
        client_params[i] = params
        variants.append(variant)
        del probs  # free it before the next client's step
    return client_params, variants, scores


def _privatize(
    state: SimState, cohort: list[int], uploads: list[ModelParams], base: ModelParams, t: int
) -> tuple[list[ModelParams], float]:
    """Clip and noise the deltas that leave the clients; (uploads, epsilon spent)."""
    params = state.config.privacy
    if not (params.enabled and params.noise_multiplier > 0):
        return uploads, 0.0
    seed = state.config.seed
    noised = [
        ModelParams(
            upload.arch,
            base.theta
            + privacy.privatize(upload.theta - base.theta, params, subseed(seed, "dp", t, i)),
        )
        for i, upload in zip(cohort, uploads)
    ]
    return noised, state.per_round_eps


def _weights(
    state: SimState, cohort: list[int], uploads: list[ModelParams], base: ModelParams, t: int
) -> tuple[list[float] | None, np.ndarray]:
    """(Shapley values or None, aggregation weights) of the round's uploads.

    affl weighs by Shapley fair weights, uniform_weight_affl uniformly, and
    static_messenger and fedavg in proportion to shard size.
    """
    p = state.config.protocol
    sizes = np.array([state.profiles[i].sample_count for i in cohort], dtype=np.float64)
    if p.algorithm == "affl":
        phi = fair.shapley_estimate(
            cohort,
            coalition_value_fn(cohort, uploads, base, state.validation),
            mode=p.shapley_mode,
            num_perms=p.shapley_perms,
            seed=subseed(state.config.seed, "shapley", t),
        )
        weights = fair.fair_weights(phi, sizes, p.eps_smooth, p.delta_size)
        return [float(v) for v in phi], weights
    if p.algorithm == "uniform_weight_affl":
        return None, np.full(len(cohort), 1.0 / len(cohort))
    return None, sizes / sizes.sum()


def _aggregate(state: SimState, uploads: list[ModelParams], weights: np.ndarray) -> ModelParams:
    p = state.config.protocol
    if p.robust_method is None:
        return fair.aggregate_messengers(uploads, weights)
    # robust_f "auto" is floor((cohort - 1) / 3)
    f = max(0, (len(uploads) - 1) // 3) if p.robust_f == "auto" else p.robust_f
    return fair.robust_aggregate(uploads, p.robust_method, f, weights)


def run_round(state: SimState) -> tuple[SimState, RoundRecord]:
    """Advance one protocol round; returns the new state plus its record.

    Every algorithm runs the same phases, each once: sample, heterogeneity,
    capacity, client step, DP, attack, weights, aggregate, evaluate, record.
    A round whose whole cohort dropped out goes from sampling straight to
    evaluation, and the broadcast model stands.
    """
    cfg, p = state.config, state.config.protocol
    fedavg = p.algorithm == "fedavg"
    t = state.round_index + 1
    cohort, dropped = _sample_cohort(state, t)
    cohort_profiles = [state.profiles[i] for i in cohort]
    h_t, decision, base = 0.0, state.capacity_decision, state.messenger
    client_params, model = state.client_params, state.messenger
    phi = weights = None
    eps_round = 0.0
    scores = []
    if cohort:
        h_t = het.assess_cohort(
            [state.shards[i] for i in cohort],
            cohort_profiles,
            state.pooled_dist,
            (p.het_alpha, p.het_beta, p.het_gamma),
        ).h_t
        decision, base = _adapt_capacity(state, cohort, t)
        client_params, uploads, scores = _client_step(state, cohort, base, t)
        uploads, eps_round = _privatize(state, cohort, uploads, base, t)
        uploads = inject_attack(uploads, base, cohort_profiles, cfg.attack)
        phi, weights = _weights(state, cohort, uploads, base, t)
        model = _aggregate(state, uploads, weights)
        if fedavg:
            client_params = [model.copy() for _ in state.profiles]
            scores = [models.evaluate(model, state.shards[i]) for i in cohort]

    # evaluation: each cohort client's model on its own shard (scored in the
    # client step for messengers), the broadcast model on validation and its
    # mean loss over every row of every shard, evaluated shard by shard so
    # no pooled copy of the data or its activations is held; fairness
    # escalation for messengers
    per_client = [(i, *score) for i, score in zip(cohort, scores)]
    losses = {**state.last_client_losses, **{i: loss for i, loss, _ in per_client}}
    gap = fair.fairness_gap([acc for _, _, acc in per_client]) if cohort else 0.0
    lambda2 = state.lambda2
    if cohort and not fedavg:
        lambda2 = fair.monitor_and_adjust(gap, p.theta_fair, lambda2)
    gv_loss, gv_acc = models.evaluate(model, state.validation)
    pool_loss = models.pooled_cross_entropy(model, state.shards)
    bytes_each_way = len(cohort) * 4 * base.param_count
    eps_total = state.eps_total + eps_round

    record = RoundRecord(
        round_index=t,
        h_t=h_t,
        capacity_index=None if fedavg else decision.chosen_index,
        cohort=list(cohort),
        dropped=dropped,
        phi=phi,
        weights=None if weights is None else [float(w) for w in weights],
        per_client=per_client,
        global_val_loss=gv_loss,
        global_val_accuracy=gv_acc,
        global_pool_loss=pool_loss,
        fairness_gap=gap,
        lambda2=state.lambda2,
        bytes_up=bytes_each_way,
        bytes_down=bytes_each_way,
        energy_kwh=_round_energy(cfg, cohort_profiles),
        eps_round=eps_round,
        eps_total=eps_total,
        empty=not cohort,
    )
    new_state = replace(
        state,
        client_params=client_params,
        messenger=model,
        capacity_decision=decision,
        lambda2=lambda2,
        round_index=t,
        eps_total=eps_total,
        last_client_losses=losses,
    )
    return new_state, record


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------


@_one_blas_thread()
def run_experiment(cfg: RunConfig) -> RunLog:
    """Run the configured algorithm to target accuracy or max rounds.

    BLAS runs on one thread meanwhile (see _one_blas_thread).
    """
    state = init_state(cfg)
    _, acc0 = models.evaluate(state.messenger, state.validation)
    log = RunLog(
        algorithm=cfg.protocol.algorithm,
        seed=cfg.seed,
        config_digest=cfg.digest(),
        target_accuracy=cfg.target_accuracy,
        initial_val_accuracy=acc0,
    )
    for _ in range(cfg.max_rounds):
        state, record = run_round(state)
        log.records.append(record)
        if (
            cfg.target_accuracy is not None
            and log.rounds_to_target is None
            and record.global_val_accuracy >= cfg.target_accuracy
        ):
            log.rounds_to_target = record.round_index
            break
    log.h_max = max((r.h_t for r in log.records), default=0.0)
    class_accs: dict[str, list[float]] = {}
    for profile, shard in zip(state.profiles, state.shards):
        _, acc = models.evaluate(state.client_params[profile.id], shard)
        log.final_client_accuracy[profile.id] = acc
        class_accs.setdefault(profile.institution_class, []).append(acc)
    log.final_class_accuracy = {k: float(np.mean(v)) for k, v in class_accs.items()}
    return log


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def write_run_outputs(log: RunLog, outdir: str) -> dict[str, str]:
    """Write rounds.jsonl and summary.json; returns the file paths."""
    os.makedirs(outdir, exist_ok=True)
    rounds_path = os.path.join(outdir, "rounds.jsonl")
    with open(rounds_path, "w", encoding="utf-8") as fh:
        for record in log.records:
            fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
    summary_path = os.path.join(outdir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(log.summary_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"rounds": rounds_path, "summary": summary_path}


def load_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def load_summary(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    if summary.get("schema_version") != SUMMARY_SCHEMA_VERSION:
        raise ValueError(
            f"summary schema version {summary.get('schema_version')} != {SUMMARY_SCHEMA_VERSION}"
        )
    return summary
