#!/usr/bin/env python3
"""Differential privacy spend, membership inference, and Byzantine attacks.

Shows the clipped-Gaussian mechanism and its linear-composition account,
how the loss-threshold attack reads membership off an overfit model, and
what trimmed-mean consensus does to sign-flipped updates.
"""

import numpy as np

from afflsim.fairness import robust_aggregate
from afflsim.models import Arch, ModelParams
from afflsim.privacy import (
    PrivacyParams,
    account_privacy,
    clip_update,
    noise_multiplier_for_budget,
    overfit_scenario,
    privatize,
)
from afflsim.rng import stream

print("=== Clipped-Gaussian mechanism ===")
update = stream(0, "demo-update").normal(0, 1, 40)
clipped = clip_update(update, clip_norm=0.5)
print(f"raw norm {np.linalg.norm(update):.2f} -> clipped norm {np.linalg.norm(clipped):.2f}")

nm = noise_multiplier_for_budget(total_eps=2.3, rounds=25, delta=1e-5)
params = PrivacyParams(clip_norm=0.5, noise_multiplier=nm, delta=1e-5, enabled=True)
noisy = privatize(update, params, seed=1)
print(f"noise multiplier for a 2.3 budget over 25 rounds: {nm:.2f}")
print(f"privatized update norm: {np.linalg.norm(noisy):.1f} (noise dominates a single update)")

spend = account_privacy(25, params)
print(f"accounting: eps/round={spend.per_round_eps:.4f}, total over 25 rounds="
      f"{spend.total_eps:.3f} (linear composition, conservative)")

print("\n=== Membership inference on an overfit model ===")
mia_clear = overfit_scenario(seed=7)
mia_private = overfit_scenario(seed=7, params=params)
print(f"non-private model: attack balanced accuracy = {mia_clear:.3f}")
print(f"privatized model:  attack balanced accuracy = {mia_private:.3f} (chance is 0.5)")

print("\n=== Trimmed-mean consensus vs sign flipping ===")
arch = Arch(4, 2)
base = np.zeros(arch.param_count)
honest_delta = stream(2, "honest").normal(0.2, 0.05, arch.param_count)
variants = [ModelParams(arch, base + honest_delta) for _ in range(8)]
variants += [ModelParams(arch, base - 3 * honest_delta) for _ in range(3)]  # attackers
plain = np.mean([v.theta for v in variants], axis=0)
trimmed = robust_aggregate(variants, "trimmed_mean", 3)
print(f"honest delta direction (first 3 coords): {np.round(honest_delta[:3], 3)}")
print(f"plain mean           : {np.round(plain[:3], 3)}  (dragged off course)")
print(f"trimmed mean (f=3)   : {np.round(trimmed.theta[:3], 3)}  (attackers excised)")
