"""Command-line interface: run, compare, bench, validate-config.

run        execute one experiment from a JSON config file
compare    tabulate >= 2 finished runs side by side, as CSV on stdout or
           in the file --out names
bench      run a preset suite (convergence, fairness, privacy, multimodal,
           scale, robustness) and emit metric reports plus plot-ready CSVs
validate-config   strict-parse a config file and print its digest

Output schemas (schema_version 1):
  rounds.jsonl  one JSON object per round, keys sorted: round_index, h_t,
                capacity_index, cohort, dropped, phi, weights, per_client
                ([id, loss, accuracy] triples), global_val_loss,
                global_val_accuracy, global_pool_loss, fairness_gap,
                lambda2, bytes_up, bytes_down, energy_kwh, eps_round,
                eps_total, empty
  summary.json  run summary with config digest, rounds_to_target, final
                per-client/per-class accuracy, gini, fairness gap, byte
                and energy means, eps_total, h_max
  metrics.csv   one row per report, columns: schema_version, suite, cei,
                hfi, put, mis, statistical_parity, mia_success,
                transfer_effectiveness, scaling_exponent,
                clinical_readiness, gini_accuracy, fairness_gap_final;
                a metric the report does not compute is left empty
  compare CSV   method, rounds_to_target, final_accuracy, gini,
                kwh_per_round, bytes_per_round, fairness_gap
Each CSV's header is the keys of its rows (metrics.write_csv).

Environment: AFFLSIM_OUTPUT_DIR overrides the output directory,
AFFLSIM_THREADS the worker thread count. At a fixed numpy/BLAS build,
results are identical bit for bit at any AFFLSIM_THREADS value; only wall
time changes. The BLAS thread count could move the last bits of large
matrix products, and so the logs, so every run holds numpy's bundled
OpenBLAS at one thread whatever the BLAS thread variables say (a numpy
build without scipy-openblas runs at its own BLAS thread count).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import harness, metrics, models, privacy
from .config import (
    ConfigError,
    MetricsBlock,
    RunConfig,
    config_from_dict,
    load_config,
    preset_default,
    preset_multimodal,
    preset_privacy,
    preset_robustness,
    preset_scale,
)

def _outdir(cfg_dir: str, override: str | None) -> str:
    env = os.environ.get(harness.OUTPUT_DIR_ENV)
    return override or env or cfg_dir


def cmd_run(config_path: str, output_dir: str | None = None) -> int:
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    log = harness.run_experiment(cfg)
    outdir = _outdir(cfg.output_dir, output_dir)
    paths = harness.write_run_outputs(log, outdir)
    summary = log.summary_dict()
    report = metrics.MetricsReport(
        suite="run",
        gini_accuracy=summary["gini_accuracy"],
        fairness_gap_final=summary["fairness_gap_final"],
    )
    metrics.write_csv(os.path.join(outdir, "metrics.csv"), [report.csv_row()], append=True)
    print(
        f"{cfg.protocol.algorithm}: rounds={log.rounds_run} "
        f"final_val_acc={log.final_val_accuracy():.4f} -> {paths['summary']}"
    )
    return 0


def _summary_row(summary: dict) -> dict:
    return {
        "method": summary["algorithm"],
        "rounds_to_target": summary["rounds_to_target"],
        "final_accuracy": summary["final_val_accuracy"],
        "gini": summary["gini_accuracy"],
        "kwh_per_round": summary["mean_kwh_per_round"],
        "bytes_per_round": summary["mean_bytes_per_round"],
        "fairness_gap": summary["fairness_gap_final"],
    }


def cmd_compare(run_dirs: list[str], out_path: str | None = None) -> int:
    if len(run_dirs) < 2:
        print("compare needs at least two run directories", file=sys.stderr)
        return 2
    rows = []
    for d in run_dirs:
        summary_path = os.path.join(d, "summary.json")
        try:
            rows.append(_summary_row(harness.load_summary(summary_path)))
        except (OSError, ValueError) as exc:
            print(f"cannot load {summary_path}: {exc}", file=sys.stderr)
            return 2
    metrics.write_csv(out_path, rows)
    return 0


def cmd_validate_config(config_path: str) -> int:
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"ok digest={cfg.digest()}")
    return 0


def _run(cfg_dict: dict) -> harness.RunLog:
    return harness.run_experiment(config_from_dict(cfg_dict))


def _curve_rows(log: harness.RunLog, method: str) -> list[dict]:
    return [
        {
            "method": method,
            "round": r.round_index,
            "accuracy": r.global_val_accuracy,
            "loss": r.global_val_loss,
            "energy_kwh": r.energy_kwh,
        }
        for r in log.records
    ]


def suite_convergence(outdir: str, seed: int = 7) -> metrics.MetricsReport:
    adaptive = _run(preset_default(seed, "affl"))
    static = _run(preset_default(seed, "static_messenger"))
    rows = _curve_rows(adaptive, "affl") + _curve_rows(static, "static_messenger")
    metrics.write_csv(os.path.join(outdir, "convergence_curves.csv"), rows)
    r_adapt = adaptive.rounds_to_target or adaptive.rounds_run
    r_base = static.rounds_to_target or static.rounds_run
    mb = MetricsBlock()
    report = metrics.MetricsReport(
        suite="convergence",
        cei=metrics.cei(
            [(r_base, r_adapt, static.final_val_accuracy(), adaptive.final_val_accuracy())],
            mb.cei_alpha,
            mb.cei_beta,
        ),
        clinical_readiness=metrics.clinical_readiness(
            adaptive.final_val_accuracy(),
            mb.physician_acceptance,
            mb.regulatory_compliance,
            mb.clinical_w1,
            mb.clinical_w2,
            mb.clinical_w3,
        ),
    )
    return report


def _local_only_accuracy(cfg: RunConfig) -> tuple[dict[str, float], dict[str, list[int]]]:
    """Accuracy of each client trained on its own shard alone, plus the
    client ids grouped by institution class."""
    state = harness.init_state(cfg)
    steps = cfg.max_rounds * cfg.protocol.local_steps
    out = {}
    by_class: dict[str, list[int]] = {}
    for profile, shard, tshard, params in zip(
        state.profiles, state.shards, state.train_shards, state.client_params
    ):
        trained = models.train_local(params, tshard, steps, cfg.protocol.local_lr)
        out[str(profile.id)] = models.evaluate(trained, shard)[1]
        by_class.setdefault(profile.institution_class, []).append(profile.id)
    return out, by_class


def suite_fairness(outdir: str, seed: int = 7) -> metrics.MetricsReport:
    affl_cfg = dict(preset_default(seed, "affl"))
    affl_cfg["target_accuracy"] = None
    fed_cfg = dict(preset_default(seed, "fedavg"))
    fed_cfg["target_accuracy"] = None
    affl = _run(affl_cfg)
    fedavg = _run(fed_cfg)
    bar_rows = []
    for method, log in (("affl", affl), ("fedavg", fedavg)):
        for cls, acc in sorted(log.final_class_accuracy.items()):
            bar_rows.append({"method": method, "institution_class": cls, "accuracy": acc})
    metrics.write_csv(os.path.join(outdir, "fairness_bars.csv"), bar_rows)
    cfg = config_from_dict(affl_cfg)
    local_only, by_class = _local_only_accuracy(cfg)
    benefits = metrics.benefit_samples(affl.summary_dict(), local_only, by_class)
    accs = list(affl.final_client_accuracy.values())
    from . import fairness as fair

    return metrics.MetricsReport(
        suite="fairness",
        hfi=metrics.hfi(affl.final_class_accuracy),
        statistical_parity=metrics.statistical_parity(benefits, theta=0.0),
        gini_accuracy=fair.gini(accs),
        fairness_gap_final=fair.fairness_gap(accs),
    )


def suite_privacy(outdir: str, seed: int = 7) -> metrics.MetricsReport:
    private = _run(preset_privacy(seed, enabled=True))
    clear = _run(preset_privacy(seed, enabled=False))
    eps_total = private.records[-1].eps_total if private.records else 0.0
    priv_cfg = config_from_dict(preset_privacy(seed, enabled=True))
    mia_clear = privacy.overfit_scenario(seed)
    mia_private = privacy.overfit_scenario(seed, priv_cfg.privacy)
    metrics.write_csv(
        os.path.join(outdir, "privacy_detail.csv"),
        [
            {"quantity": "final_val_accuracy", "non_private": clear.final_val_accuracy(),
             "private": private.final_val_accuracy()},
            {"quantity": "mia_success", "non_private": mia_clear, "private": mia_private},
            {"quantity": "eps_total", "non_private": 0.0, "private": eps_total},
        ],
    )
    return metrics.MetricsReport(
        suite="privacy",
        put=metrics.put(
            private.final_val_accuracy(), clear.final_val_accuracy(), eps_total,
            priv_cfg.metrics.put_lambda,
        ),
        mia_success=mia_private,
    )


def suite_multimodal(outdir: str, seed: int = 7) -> metrics.MetricsReport:
    full = _run(preset_multimodal(seed))
    singles = []
    rows = [{"modalities": "all", "accuracy": full.final_val_accuracy()}]
    for m in range(3):
        log = _run(preset_multimodal(seed, active_modalities=(m,)))
        singles.append(log.final_val_accuracy())
        rows.append({"modalities": f"only_{m}", "accuracy": log.final_val_accuracy()})
    metrics.write_csv(os.path.join(outdir, "multimodal_accuracy.csv"), rows)
    best = max(singles)
    return metrics.MetricsReport(
        suite="multimodal",
        mis=metrics.mis(full.final_val_accuracy(), singles),
        transfer_effectiveness=metrics.transfer_effectiveness(
            full.final_val_accuracy(), best, best
        ),
    )


def suite_scale(outdir: str, seed: int = 7, sizes: tuple = (10, 20, 40, 80)) -> metrics.MetricsReport:
    rows = []
    samples = []
    for n in sizes:
        affl = _run(preset_scale(n, seed, "affl"))
        fedavg = _run(preset_scale(n, seed, "fedavg"))
        m_bytes = affl.mean_bytes_per_round()
        f_bytes = fedavg.mean_bytes_per_round()
        rows.append({"n_clients": n, "messenger_bytes": m_bytes, "fedavg_bytes": f_bytes})
        samples.append((float(n), m_bytes))
    metrics.write_csv(os.path.join(outdir, "scaling_curve.csv"), rows)
    return metrics.MetricsReport(
        suite="scale", scaling_exponent=metrics.scaling_exponent(samples)
    )


def suite_robustness(outdir: str, seed: int = 7) -> metrics.MetricsReport:
    """Attack toggled against trimmed-mean consensus and a size-weighted mean.

    The plain-mean arms use the static baseline because influence-weighted
    aggregation already suppresses sign-flipped variants on its own.
    """
    clean_trim = _run(preset_robustness(seed, attack=False, robust=True))
    atk_trim = _run(preset_robustness(seed, attack=True, robust=True))
    clean_plain = _run(preset_robustness(seed, attack=False, robust=False,
                                         algorithm="static_messenger"))
    atk_plain = _run(preset_robustness(seed, attack=True, robust=False,
                                       algorithm="static_messenger"))
    metrics.write_csv(
        os.path.join(outdir, "robustness.csv"),
        [
            {"arm": "clean_trimmed_mean", "final_val_accuracy": clean_trim.final_val_accuracy()},
            {"arm": "attacked_trimmed_mean", "final_val_accuracy": atk_trim.final_val_accuracy()},
            {"arm": "clean_plain_mean", "final_val_accuracy": clean_plain.final_val_accuracy()},
            {"arm": "attacked_plain_mean", "final_val_accuracy": atk_plain.final_val_accuracy()},
        ],
    )
    return metrics.MetricsReport(suite="robustness")


_SUITE_FNS = {
    "convergence": suite_convergence,
    "fairness": suite_fairness,
    "privacy": suite_privacy,
    "multimodal": suite_multimodal,
    "scale": suite_scale,
    "robustness": suite_robustness,
}


def cmd_bench(suite: str, output_dir: str | None = None, seed: int = 7) -> int:
    if suite not in _SUITE_FNS:
        print(f"unknown suite {suite!r}; pick one of {', '.join(_SUITE_FNS)}", file=sys.stderr)
        return 2
    outdir = _outdir(os.path.join("bench", suite), output_dir)
    os.makedirs(outdir, exist_ok=True)
    report = _SUITE_FNS[suite](outdir, seed)
    report.write_flat(os.path.join(outdir, "metrics_report.txt"))
    metrics.write_csv(os.path.join(outdir, "metrics.csv"), [report.csv_row()], append=True)
    shown = {
        k: v
        for k, v in report.to_flat_dict().items()
        if v not in (None, "") and k not in ("schema_version", "note")
    }
    print(f"bench {suite}: {json.dumps(shown, sort_keys=True, default=float)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="afflsim", description="Adaptive fair federated learning simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir")

    p_cmp = sub.add_parser("compare", help="tabulate finished runs")
    p_cmp.add_argument("run_dirs", nargs="+")
    p_cmp.add_argument("--out")

    p_bench = sub.add_parser("bench", help="run a preset benchmark suite")
    p_bench.add_argument("suite")
    p_bench.add_argument("--output-dir")
    p_bench.add_argument("--seed", type=int, default=7)

    p_val = sub.add_parser("validate-config", help="validate a config file")
    p_val.add_argument("config")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.output_dir)
    if args.command == "compare":
        return cmd_compare(args.run_dirs, args.out)
    if args.command == "bench":
        return cmd_bench(args.suite, args.output_dir, args.seed)
    if args.command == "validate-config":
        return cmd_validate_config(args.config)
    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
