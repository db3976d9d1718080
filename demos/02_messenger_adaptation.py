#!/usr/bin/env python3
"""Messenger mechanics: capacity probing, curriculum weights, distillation.

Builds a small task whose hard pair of classes shares a mean and differs
only in spread — impossible for a tiny messenger, easy for a wider one —
and shows the probe-based capacity objective picking accordingly.
"""

import numpy as np

from afflsim.config import FederationBlock, ProtocolBlock
from afflsim.federation import gen_federation, gen_reference_shard
from afflsim.messenger import (
    CurriculumSchedule,
    curriculum_weights,
    distill_to_messenger,
    inject_knowledge,
    select_capacity,
)
from afflsim.models import (
    Arch,
    assign_difficulty_tiers,
    evaluate,
    init_params,
    logits,
    train_local,
)

config = FederationBlock(
    academic=0,
    regional=0,
    rural=4,
    num_classes=4,
    feature_dim=10,
    concentration=1.0,
    radial_pairs=1,
    radial_scale=5.0,
)
profiles, shards = gen_federation(config, seed=3)
probe = gen_reference_shard(config, 3, 150, "probe")

# clients train briefly; their averaged logits form the probe teacher
clients = [
    train_local(init_params(p.arch, 10 + p.id), s, steps=60, lr=0.5)
    for p, s in zip(profiles, shards)
]
teacher = np.mean([logits(c, probe.design) for c in clients], axis=0)

templates = (Arch(10, 4, 2), Arch(10, 4, 8), Arch(10, 4, 18))
protocol = ProtocolBlock(grid_hidden=(2, 8, 18), lambda1=0.01, probe_steps=60, probe_lr=0.8)
current = init_params(templates[0], 0)
decision = select_capacity(
    templates, protocol, probe, teacher, 0.0, None, current, seed=1, lambda2=0.1
)
print("=== Capacity probe (radial pair in the data) ===")
for i, (kl, comm, fpen, total) in enumerate(decision.composite_scores):
    marker = " <- chosen" if i == decision.chosen_index else ""
    print(f"template h={templates[i].hidden:2d}: probe KL={kl:.4f} "
          f"comm={comm:.3f} total={total:.4f}{marker}")

print("\n=== Curriculum weights over rounds (3 stages) ===")
schedule = CurriculumSchedule.spread(num_tiers=3, horizon=20)
for t in (1, 5, 10, 15, 20):
    pi = curriculum_weights(t, schedule)
    print(f"round {t:2d}: pi = {np.round(pi, 3)}  (easy -> hard)")

print("\n=== Injection and distillation on one client ===")
shard = assign_difficulty_tiers(shards[0], clients[0], 3)
messenger = init_params(templates[decision.chosen_index], 5)
messenger = distill_to_messenger(messenger, clients[0], shard, 1.0, steps=40, lr=0.5)
loss_before, acc_before = evaluate(clients[0], shard)
injected = inject_knowledge(
    clients[0], messenger, shard, curriculum_weights(5, schedule), steps=10, lr=0.4
)
loss_after, acc_after = evaluate(injected, shard)
print(f"client before injection: loss={loss_before:.3f} acc={acc_before:.3f}")
print(f"client after  injection: loss={loss_after:.3f} acc={acc_after:.3f}")
print("(the messenger object itself is frozen during injection)")
