#!/usr/bin/env python3
"""Generate a synthetic healthcare federation and measure its heterogeneity.

Walks through the three institution classes, their data shards, and the
three divergence components that combine into the round-level index H_t.
"""

import numpy as np

from afflsim.config import FederationBlock
from afflsim.federation import gen_federation, pooled_label_distribution
from afflsim.heterogeneity import (
    arch_divergence,
    heterogeneity_index,
    res_divergence,
    stat_divergence,
)

EQUAL_WEIGHTS = (1 / 3, 1 / 3, 1 / 3)  # het_alpha, het_beta, het_gamma

config = FederationBlock(
    academic=2,
    regional=4,
    rural=6,
    num_classes=4,
    feature_dim=10,
    concentration=0.3,  # strong label skew across institutions
)
profiles, shards = gen_federation(config, seed=7)

print("=== Twelve-institution federation (seed 7) ===")
for profile, shard in zip(profiles, shards):
    hist = np.round(shard.label_histogram(), 2)
    print(
        f"client {profile.id:2d} {profile.institution_class:8s} "
        f"n={profile.sample_count:5d} capacity={profile.compute_capacity:6.1f} "
        f"delay={profile.network_delay:.2f} arch={profile.arch_descriptor} labels={hist}"
    )

pooled = pooled_label_distribution(shards)
print(f"\npooled label distribution: {np.round(pooled, 3)}")

print("\n=== Divergence components per client ===")
components = []
for profile, shard in zip(profiles, shards):
    d_stat = stat_divergence(shard, pooled)
    d_arch = arch_divergence(profile, profiles)
    d_res = res_divergence(profile, profiles)
    components.append((d_stat, d_arch, d_res))
    print(
        f"client {profile.id:2d}: D_stat={d_stat:.3f} D_arch={d_arch:.3f} D_res={d_res:.3f}"
    )

report = heterogeneity_index(components, EQUAL_WEIGHTS)
print(f"\nnetwork heterogeneity index H = {report.h_t:.4f} (equal component weights)")

# the index responds to skew: regenerate with near-uniform labels
uniform_cfg = FederationBlock(
    academic=2,
    regional=4,
    rural=6,
    num_classes=4,
    feature_dim=10,
    concentration=100.0,
)
u_profiles, u_shards = gen_federation(uniform_cfg, seed=7)
u_pooled = pooled_label_distribution(u_shards)
u_components = [
    (stat_divergence(s, u_pooled), arch_divergence(p, u_profiles), res_divergence(p, u_profiles))
    for p, s in zip(u_profiles, u_shards)
]
u_report = heterogeneity_index(u_components, EQUAL_WEIGHTS)
print(f"same federation with near-IID labels: H = {u_report.h_t:.4f} (lower, as expected)")
