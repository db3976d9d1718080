"""Acceptance suite: one test per release criterion, one verdict line each.

Criterion 7's convergence fit and its objective floor live here, with
their unit cases, because no other code uses them.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Expensive experiment blocks are shared through module-scoped fixtures;
rounds-to-target is extracted from full-horizon curves, which is exact
because a target-stopped run is a bit-identical prefix of the full run.
"""

import os
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

from afflsim import messenger as msg
from afflsim.config import (
    config_from_dict,
    preset_convex,
    preset_default,
    preset_multimodal,
    preset_privacy,
    preset_robustness,
    preset_scale,
    preset_smoke,
)
from afflsim.fairness import (
    aggregate_messengers,
    fairness_gap,
    gini,
    shapley_estimate,
)
from afflsim.federation import DatasetShard
from afflsim.harness import (
    init_state,
    run_experiment,
    write_run_outputs,
)
from afflsim.metrics import scaling_exponent, slope
from afflsim.models import (
    Arch,
    ModelParams,
    evaluate,
    init_params,
    train_local,
)
from afflsim.privacy import (
    PrivacyParams,
    account_privacy,
    clip_update,
    noise_multiplier_for_budget,
    overfit_scenario,
)
from afflsim.rng import stream, subseed

SEEDS = (7, 8, 9, 10, 11)


def verdict(num, name, ok, detail):
    line = f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line)
    assert ok, line


def _full_horizon(cfg_dict):
    cfg_dict = dict(cfg_dict)
    cfg_dict["target_accuracy"] = None
    return config_from_dict(cfg_dict)


def rounds_to_target(log, target):
    for record in log.records:
        if record.global_val_accuracy >= target:
            return record.round_index
    return None


@pytest.fixture(scope="module")
def default_runs():
    """AFFL / static / fedavg on the default scenario, five seeds each."""
    runs = {}
    pair_seconds = 0.0
    for seed in SEEDS:
        t0 = time.perf_counter()
        runs[(seed, "affl")] = run_experiment(_full_horizon(preset_default(seed, "affl")))
        runs[(seed, "static")] = run_experiment(
            _full_horizon(preset_default(seed, "static_messenger"))
        )
        pair_seconds += time.perf_counter() - t0
        runs[(seed, "fedavg")] = run_experiment(_full_horizon(preset_default(seed, "fedavg")))
    return {"runs": runs, "pair_seconds": pair_seconds}


def test_criterion_1_rounds_to_target(default_runs):
    target = preset_default(7)["target_accuracy"]
    max_rounds = preset_default(7)["max_rounds"]
    reductions = []
    for seed in SEEDS:
        affl = rounds_to_target(default_runs["runs"][(seed, "affl")], target)
        static = rounds_to_target(default_runs["runs"][(seed, "static")], target)
        # a run that never reaches the target needs at least max_rounds, so
        # substituting max_rounds makes the computed reduction a lower bound
        affl = affl if affl is not None else max_rounds
        static = static if static is not None else max_rounds
        reductions.append(1.0 - affl / static)
    median_reduction = statistics.median(reductions)
    elapsed = default_runs["pair_seconds"]
    ok = median_reduction >= 0.30 and elapsed < 300.0
    verdict(
        1,
        "rounds-to-target",
        ok,
        f"median reduction {median_reduction:.0%} (per seed {[f'{r:.0%}' for r in reductions]}), "
        f"affl+static wall time {elapsed:.0f}s",
    )


def test_criterion_2_fairness(default_runs):
    gini_ratios, gap_ratios = [], []
    for seed in SEEDS:
        affl = default_runs["runs"][(seed, "affl")]
        fed = default_runs["runs"][(seed, "fedavg")]
        g_affl = gini(np.array(list(affl.final_client_accuracy.values())))
        g_fed = gini(np.array(list(fed.final_client_accuracy.values())))
        gini_ratios.append(g_affl / g_fed)
        gaps = {r.round_index: r.fairness_gap for r in affl.records}
        gap_ratios.append(gaps[max(gaps)] / gaps[3])
    med_gini = statistics.median(gini_ratios)
    med_gap = statistics.median(gap_ratios)
    ok = med_gini <= 0.7 and med_gap <= 0.6
    verdict(
        2,
        "fairness",
        ok,
        f"median gini(affl)/gini(fedavg)={med_gini:.2f} (need <=0.70), "
        f"median final/round-3 fairness gap={med_gap:.2f} (need <=0.60)",
    )


def test_criterion_3_shapley_oracle():
    d = preset_default(7)
    d["federation"].update({"academic": 0, "regional": 2, "rural": 4})
    cfg = config_from_dict(d)
    state = init_state(cfg)
    p = cfg.protocol
    pi = msg.curriculum_weights(1, state.schedule)
    variants = {}
    for i in range(6):
        params = train_local(state.client_params[i], state.train_shards[i], p.local_steps, p.local_lr)
        params = msg.inject_knowledge(
            params, state.messenger, state.train_shards[i], pi, p.inject_steps, p.inject_lr
        )
        variants[i] = msg.distill_to_messenger(
            state.messenger, params, state.train_shards[i], p.lambda_kl, p.distill_steps, p.distill_lr
        )
    _, v_empty = evaluate(state.messenger, state.validation)

    def value(subset):
        if not subset:
            return v_empty
        uniform = np.full(len(subset), 1.0 / len(subset))
        agg = aggregate_messengers([variants[i] for i in subset], uniform)
        return evaluate(agg, state.validation)[1]

    def value_fn(members):
        # cohort position j is client j
        return [value(tuple(np.flatnonzero(row))) for row in members]

    ids = list(range(6))
    exact = shapley_estimate(ids, value_fn, mode="exact")
    spread = value(tuple(ids)) - v_empty
    efficiency_gap = abs(exact.sum() - spread)
    mc = shapley_estimate(ids, value_fn, mode="monte_carlo", num_perms=3000, seed=11)
    err = float(np.abs(mc - exact).max())
    ok = efficiency_gap <= 1e-9 and err <= 0.02 * spread
    verdict(
        3,
        "shapley-oracle",
        ok,
        f"efficiency gap {efficiency_gap:.1e} (need <=1e-9), "
        f"MC max err {err:.4f} vs tolerance {0.02 * spread:.4f}",
    )


@pytest.fixture(scope="module")
def robustness_runs():
    def arm(algorithm, attack, robust):
        cfg = preset_robustness(7, attack=attack, robust=robust, algorithm=algorithm)
        return run_experiment(config_from_dict(cfg))

    return {
        "clean_trim": arm("affl", attack=False, robust=True),
        "attacked_trim": arm("affl", attack=True, robust=True),
        "static_clean": arm("static_messenger", attack=False, robust=False),
        "static_attacked": arm("static_messenger", attack=True, robust=False),
    }


def test_criterion_4_byzantine_robustness(robustness_runs):
    robust_delta = abs(
        robustness_runs["attacked_trim"].final_val_accuracy()
        - robustness_runs["clean_trim"].final_val_accuracy()
    )
    plain_degradation = (
        robustness_runs["static_clean"].final_val_accuracy()
        - robustness_runs["static_attacked"].final_val_accuracy()
    )
    ok = robust_delta <= 0.05 and plain_degradation > 0.15
    verdict(
        4,
        "byzantine-robustness",
        ok,
        f"trimmed-mean attack delta {robust_delta * 100:.1f} pts (need <=5), "
        f"plain weighted mean degradation {plain_degradation * 100:.1f} pts (need >15)",
    )


def test_criterion_5_privacy(tmp_path):
    clear = run_experiment(config_from_dict(preset_privacy(7, enabled=False)))
    private = run_experiment(config_from_dict(preset_privacy(7, enabled=True)))
    eps_total = private.records[-1].eps_total
    utility_loss = clear.final_val_accuracy() - private.final_val_accuracy()
    nm = noise_multiplier_for_budget(2.3, 25, 1e-5)
    dp = PrivacyParams(clip_norm=0.5, noise_multiplier=nm, delta=1e-5, enabled=True)
    mia_clear = overfit_scenario(7)
    mia_private = overfit_scenario(7, dp)
    ok = (
        eps_total <= 2.3 + 1e-9
        and mia_clear > 0.6
        and mia_private <= 0.55
        and utility_loss <= 0.10
    )
    verdict(
        5,
        "privacy",
        ok,
        f"eps_total={eps_total:.3f} (need <=2.3), MIA {mia_clear:.2f}->{mia_private:.2f} "
        f"(need >0.60 -> <=0.55), utility loss {utility_loss * 100:.1f} pts (need <=10)",
    )


def test_criterion_6_communication_scaling():
    samples = []
    fed_exceeds = True
    for n in (10, 20, 40, 80):
        affl = run_experiment(config_from_dict(preset_scale(n, 7, "affl")))
        fed = run_experiment(config_from_dict(preset_scale(n, 7, "fedavg")))
        samples.append((float(n), affl.mean_bytes_per_round()))
        fed_exceeds &= fed.mean_bytes_per_round() > affl.mean_bytes_per_round()
    slope_n = slope([np.log(n) for n, _ in samples], [np.log(b) for _, b in samples])
    exponent = scaling_exponent(samples)
    ok = abs(slope_n - 1.0) <= 0.1 and exponent <= 1.0 and fed_exceeds
    verdict(
        6,
        "communication-scaling",
        ok,
        f"log-log slope vs N {slope_n:.3f} (need 1.0 +/- 0.1); scaling exponent vs "
        f"N*logN {exponent:.3f} (bounded limit needs <=1.0); fedavg>messenger at all N: {fed_exceeds}",
    )


def centralized_reference_loss(cfg, steps=3000, lr=0.5):
    """Objective floor: a long centralized run on the pooled federation data.

    Trains the largest messenger template on the union of all shards and
    returns its pooled loss, the F* that the convergence fit subtracts.
    """
    state = init_state(cfg)
    pooled = DatasetShard(
        np.concatenate([s.features for s in state.shards]),
        np.concatenate([s.labels for s in state.shards]),
        state.shards[0].num_classes,
    )
    model = init_params(state.templates[-1], subseed(cfg.seed, "central-oracle"))
    trained = train_local(model, pooled, steps, lr)
    return evaluate(trained, pooled)[0]


def convergence_slope(loss_curve, f_star, burn_in=0):
    """Power-law fit: slope of log(F_t - F*) vs log t after a burn-in prefix."""
    points = [(t, f) for t, f in loss_curve if t > burn_in]
    if any(f <= f_star for _, f in points):
        raise ValueError("loss curve must stay above f_star on the fitted range")
    if len(points) < 3:
        raise ValueError("need at least 3 points after burn-in")
    return slope([np.log(t) for t, _ in points], [np.log(f - f_star) for _, f in points])


def test_convergence_slope_recovers_power_law():
    f_star = 0.3
    curve = [(t, f_star + t**-0.5) for t in range(1, 40)]
    assert convergence_slope(curve, f_star) == pytest.approx(-0.5, abs=0.01)


def test_convergence_slope_constant_curve():
    curve = [(t, 1.0) for t in range(1, 20)]
    assert convergence_slope(curve, 0.4) == pytest.approx(0.0, abs=1e-12)


def test_convergence_slope_guards():
    with pytest.raises(ValueError):
        convergence_slope([(1, 0.5), (2, 0.4)], f_star=0.45)
    with pytest.raises(ValueError):
        convergence_slope([(1, 1.0), (2, 0.9)], f_star=0.0)


def test_convergence_slope_burn_in_excluded():
    f_star = 0.0
    # burn-in points deliberately off the power law
    curve = [(1, 50.0), (2, 40.0)] + [(t, t**-0.5) for t in range(3, 30)]
    assert convergence_slope(curve, f_star, burn_in=2) == pytest.approx(-0.5, abs=0.01)


def test_criterion_7_convergence_trend():
    cfg = config_from_dict(preset_convex(7))
    log = run_experiment(cfg)
    f_star = centralized_reference_loss(cfg)
    curve = [(r.round_index, r.global_pool_loss) for r in log.records]
    fitted = convergence_slope(curve, f_star, burn_in=3)
    synthetic = [(t, 0.4 + t**-0.5) for t in range(1, 40)]
    recovered = convergence_slope(synthetic, 0.4)
    ok = fitted <= -0.4 and abs(recovered + 0.5) <= 0.01
    verdict(
        7,
        "convergence-trend",
        ok,
        f"convex-scenario slope {fitted:.3f} (need <=-0.4), "
        f"synthetic t^-1/2 recovery {recovered:.4f} (need -0.5 +/- 0.01)",
    )


def test_criterion_8_numerical_suite():
    failures = []

    # analytic gradients vs central finite differences, both architectures
    rng = stream(0, "acc8-shard")
    feats = rng.normal(0, 1, (40, 6))
    labels = rng.integers(0, 3, 40)
    shard = DatasetShard(feats, labels, 3)
    for hidden in (0, 8):
        for point in (1, 2, 3):
            arch = Arch(6, 3, hidden)
            params = init_params(arch, point)
            # the gradient training applies: one step at learning rate 1
            grad = params.theta - train_local(params, shard, 1, 1.0).theta
            coords = stream(point, "acc8-coords").choice(
                arch.param_count, size=min(50, arch.param_count), replace=False
            )
            h = 1e-5
            for c in coords:
                up, down = params.theta.copy(), params.theta.copy()
                up[c] += h
                down[c] -= h
                fd = (
                    evaluate(ModelParams(arch, up), shard)[0]
                    - evaluate(ModelParams(arch, down), shard)[0]
                ) / (2 * h)
                rel = abs(grad[c] - fd) / max(abs(grad[c]), abs(fd), 1e-6)
                if rel >= 1e-4:
                    failures.append(f"gradient hidden={hidden} point={point} coord={c}")

    # hand-arithmetic spot checks at their stated tolerances
    from afflsim.fairness import fair_weights, robust_aggregate
    from afflsim.heterogeneity import heterogeneity_index
    from afflsim.metrics import cei, hfi, put, transfer_effectiveness

    checks = [
        ("fair-weights", fair_weights(np.array([1.0, 3.0]), np.array([5, 5]), 0.0, 0.0),
         [0.25, 0.75], 1e-12),
        ("size-debias", fair_weights(np.array([1.0, 1.0]), np.array([np.e**2, np.e**4]), 0.0, 0.5),
         [0.6, 0.4], 1e-9),
        ("h-index", [heterogeneity_index([(0.2, 0.4, 0.6), (0.8, 0.6, 0.4)], (1 / 3,) * 3).h_t],
         [0.5], 1e-12),
        ("cei", [cei([(60, 20, 0.84, 0.88)], 0.5, 0.5)], [2.0238095238], 1e-9),
        ("hfi", [hfi([0.8, 0.85, 0.9])], [1 - np.sqrt(2 / 3)], 1e-9),
        ("put", [put(0.72, 0.8, 2.0, 0.1)], [0.9 * np.exp(-0.2)], 1e-12),
        ("transfer", [transfer_effectiveness(0.85, 0.75, 0.9)], [1 / 9], 1e-12),
    ]
    for name, got, want, tol in checks:
        if not np.allclose(got, want, atol=tol):
            failures.append(f"hand example {name}: {got} != {want}")
    trimmed = robust_aggregate(
        [ModelParams(Arch(2, 2), np.full(6, v)) for v in (0.0, 1.0, 2.0, 3.0, 100.0)],
        "trimmed_mean",
        1,
    )
    if not np.allclose(trimmed.theta, 2.0):
        failures.append("trimmed mean hand example")

    # curriculum normalization over 1000 random schedules
    rng = stream(1, "acc8-sched")
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        schedule = msg.CurriculumSchedule(
            k, tuple(rng.uniform(-20, 20, k)), tuple(rng.uniform(0.1, 10, k))
        )
        pi = msg.curriculum_weights(float(rng.uniform(-30, 30)), schedule)
        if abs(pi.sum() - 1.0) >= 1e-12:
            failures.append("curriculum normalization")
            break

    # clip postconditions
    v = stream(2, "acc8-clip").normal(0, 1, 50)
    big = v / np.linalg.norm(v) * 4.0
    if abs(np.linalg.norm(clip_update(big, 2.0)) - 2.0) >= 1e-12:
        failures.append("clip postcondition (outside ball)")
    small = v / np.linalg.norm(v) * 1.0
    if not np.array_equal(clip_update(small, 2.0), small):
        failures.append("clip postcondition (inside ball)")

    # gini vs O(n^2) brute force on 500 random instances
    rng = stream(3, "acc8-gini")
    for _ in range(500):
        vals = rng.uniform(0, 5, int(rng.integers(1, 15)))
        if vals.sum() == 0:
            continue
        brute = np.abs(vals[:, None] - vals[None, :]).sum() / (2 * len(vals) ** 2 * vals.mean())
        if abs(gini(vals) - brute) >= 1e-12:
            failures.append("gini brute force")
            break

    ok = not failures
    verdict(8, "numerical-suite", ok, f"failures: {failures if failures else 'none'}")


# runs preset_smoke(7) and writes its outputs to the directory in argv[1]
SMOKE_RUN_SCRIPT = """
import sys
from afflsim.config import config_from_dict, preset_smoke
from afflsim.harness import run_experiment, write_run_outputs
write_run_outputs(run_experiment(config_from_dict(preset_smoke(7))), sys.argv[1])
"""


def test_criterion_9_determinism(tmp_path):
    """Two fresh processes, each with its own string-hash seed, log the same
    bytes: a (config, seed) pair alone determines the run."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    blobs = {}
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(src, "src"), env.get("PYTHONPATH", "")])
        outdir = tmp_path / f"hash{hash_seed}"
        subprocess.run(
            [sys.executable, "-c", SMOKE_RUN_SCRIPT, str(outdir)],
            env=env, capture_output=True, text=True, check=True,
        )
        blobs[hash_seed] = (outdir / "rounds.jsonl").read_bytes()
    ok = blobs["1"] == blobs["2"] and len(blobs["1"]) > 0
    verdict(
        9,
        "determinism",
        ok,
        f"rounds.jsonl identical in processes at PYTHONHASHSEED 1 and 2 ({len(blobs['1'])} bytes)",
    )


def test_criterion_10_multimodal_direction():
    full = run_experiment(config_from_dict(preset_multimodal(7)))
    singles = [
        run_experiment(
            config_from_dict(preset_multimodal(7, active_modalities=(m,)))
        ).final_val_accuracy()
        for m in range(3)
    ]
    from afflsim.metrics import mis

    score = mis(full.final_val_accuracy(), singles)
    ok = score > 1.0
    verdict(
        10,
        "multimodal-direction",
        ok,
        f"MIS={score:.3f} (multimodal {full.final_val_accuracy():.3f} vs best single "
        f"{max(singles):.3f}; need >1.0)",
    )
