#!/usr/bin/env python3
"""Shapley valuation and size-debiased fair weights on a live round.

Runs the first protocol round of a six-client federation, values each
client's messenger variant by marginal validation accuracy, and contrasts
the resulting weights with plain size-proportional weighting.
"""

import numpy as np

from afflsim import messenger as msg
from afflsim.config import config_from_dict, preset_default
from afflsim.fairness import aggregate_messengers, fair_weights, gini, shapley_estimate
from afflsim.harness import init_state
from afflsim.models import evaluate, train_local

d = preset_default(7)
d["federation"].update({"academic": 0, "regional": 2, "rural": 4})
cfg = config_from_dict(d)
state = init_state(cfg)
p = cfg.protocol

pi = msg.curriculum_weights(1, state.schedule)
variants = {}
for i in range(6):
    params = train_local(state.client_params[i], state.train_shards[i], p.local_steps, p.local_lr)
    params = msg.inject_knowledge(params, state.messenger, state.train_shards[i], pi,
                                  p.inject_steps, p.inject_lr)
    variants[i] = msg.distill_to_messenger(state.messenger, params, state.train_shards[i],
                                           p.lambda_kl, p.distill_steps, p.distill_lr)

_, v_empty = evaluate(state.messenger, state.validation)


def value(subset):
    """Validation accuracy of the uniform average of a coalition's variants."""
    if not subset:
        return v_empty
    uniform = np.full(len(subset), 1.0 / len(subset))
    agg = aggregate_messengers([variants[i] for i in subset], uniform)
    return evaluate(agg, state.validation)[1]


def value_fn(members):
    """shapley_estimate collects every coalition it needs and values them in one call.

    Row k of members is coalition k; column j is true when client j is a member.
    """
    return [value(tuple(np.flatnonzero(row))) for row in members]


ids = list(range(6))
phi_exact = shapley_estimate(ids, value_fn, mode="exact")
phi_mc = shapley_estimate(ids, value_fn, mode="monte_carlo", num_perms=2000, seed=1)
counts = np.array([pr.sample_count for pr in state.profiles])
fair_w = fair_weights(phi_exact, counts, eps_smooth=0.01, delta_size=0.2)
size_w = counts / counts.sum()

print("=== Client valuation, exact vs Monte Carlo (2000 permutations) ===")
print(f"v(empty)={v_empty:.3f}  v(grand)={value(tuple(ids)):.3f}")
for i in ids:
    print(f"client {i} (n={counts[i]:5d}): phi_exact={phi_exact[i]:+.4f} "
          f"phi_mc={phi_mc[i]:+.4f} fair_w={fair_w[i]:.3f} size_w={size_w[i]:.3f}")
print(f"efficiency check: sum(phi) - (v_grand - v_empty) = "
      f"{phi_exact.sum() - (value(tuple(ids)) - v_empty):+.2e}")

print("\n=== Weight inequality ===")
print(f"gini(size weights) = {gini(size_w):.3f}")
print(f"gini(fair weights) = {gini(fair_w):.3f}  (log-size debias evens things out)")
