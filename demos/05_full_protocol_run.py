#!/usr/bin/env python3
"""End-to-end run: the adaptive protocol against its baselines.

Uses a reduced copy of the default 12-institution scenario, 12 rounds of
each algorithm, so the whole demo finishes in a few seconds, then prints
the round-by-round race and the final fairness picture. The affl run's
outputs go to runs/demo-affl under the current directory.
"""

import numpy as np

from afflsim.config import config_from_dict, preset_default
from afflsim.fairness import gini
from afflsim.harness import run_experiment, write_run_outputs

def scenario(algorithm):
    d = preset_default(seed=7, algorithm=algorithm)
    d["max_rounds"] = 12
    d["target_accuracy"] = None
    return config_from_dict(d)

logs = {}
for algorithm in ("affl", "static_messenger", "fedavg"):
    print(f"running {algorithm} ...")
    logs[algorithm] = run_experiment(scenario(algorithm))

print("\n=== Global validation accuracy by round ===")
print(f"{'round':>5} {'affl':>8} {'static':>8} {'fedavg':>8}   (affl capacity index)")
for i in range(12):
    caps = logs["affl"].records[i].capacity_index
    row = [logs[a].records[i].global_val_accuracy for a in ("affl", "static_messenger", "fedavg")]
    print(f"{i + 1:>5} {row[0]:>8.3f} {row[1]:>8.3f} {row[2]:>8.3f}   cap={caps}")

print("\n=== Final per-client fairness ===")
for algorithm, log in logs.items():
    accs = np.array(list(log.final_client_accuracy.values()))
    print(f"{algorithm:16s}: mean={accs.mean():.3f} min={accs.min():.3f} "
          f"gap={accs.max() - accs.min():.3f} gini={gini(accs):.4f}")

print("\n=== Accounting ===")
for algorithm, log in logs.items():
    print(f"{algorithm:16s}: bytes/round={log.mean_bytes_per_round():9.0f} "
          f"kwh/round={log.mean_kwh_per_round():.2f} H_max={log.h_max:.3f}")

paths = write_run_outputs(logs["affl"], "runs/demo-affl")
print(f"\nwrote {paths['rounds']} and {paths['summary']}")
