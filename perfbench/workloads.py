"""Workload table shared by run.py and its child processes.

This module imports nothing from afflsim, so run.py can read it before
it knows whether the program's sources are present.

Every workload is a fixed-round run (``target_accuracy=None``) of one
afflsim preset. Round counts are cut from the preset defaults so that one
run of ``run_experiment`` takes about 2-5 s on a 2-core box; client counts
are the presets' own. Names give the client count.

A run measures each workload on several inputs, the workload seeds
``seed + 1000 * k``. default12 needs the most: its total row count, set by
two academic and four regional clients, moves by up to 10% between seeds,
and its run time with it.
"""

from __future__ import annotations

# name -> (preset function in afflsim.config, positional args before seed,
#          rounds, workload seeds per run)
WORKLOADS = {
    # 12 institutions, shards up to 12k rows: dense models kernels dominate
    "default12": ("preset_default", (), 4, 6),
    # 160 small rural clients: O(n^2) heterogeneity and Shapley coalitions dominate
    "scale160": ("preset_scale", (160,), 3, 3),
    # 25 clients, 2 classes x 4 features, DP on: per-call overhead dominates
    "private25": ("preset_privacy", (), 12, 6),
    # self-test workload only; not listed in BENCHMARK.json
    "smoke": ("preset_smoke", (), 2, 3),
}

# Thread-count variables of the BLAS and OpenMP runtimes. Children get each
# set to 1: on a shared 2-core host a second BLAS thread that waits for a
# busy core doubled default12's run time, so the default measured the
# neighbours rather than the program.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def workload_seeds(workload: str, seed: int) -> list[int]:
    return [seed + 1000 * k for k in range(WORKLOADS[workload][3])]


# sha256 of rounds.jsonl per "workload:workload seed" for the default
# --seed 7, measured on the program as it was when the benchmark was added.
# Informational: a numerics change may legitimately move these.
SEED_COMMIT_DIGESTS = {
    "default12:7": "5014c385191fa7771f35698d103ea0221c545aea1e830911eb85a6b1c5f3818f",
    "default12:1007": "59f7f8eacfbddf62abdca169459071a860ba28682a33b00b742909f02fff0784",
    "default12:2007": "74faff7d607e31db040c2130f2f4eb9e9cf13f417ed80bb1758a0d48332be920",
    "default12:3007": "4602a2afcafa39e5f142ff2202ce1983137ac28069978f5772f9641047327552",
    "default12:4007": "f34a350b746ae71d2aed0a398c2287648c61981eca683bdc59429c7b6c7bbf00",
    "default12:5007": "67cb9c9701c3618d0b2182998b6adc3bd6f0372625dfac44d4d5dd8a5e5f32e4",
    "scale160:7": "5eee83ab112a09ac598bb8fcaf470da892e2f5dc56fa721b631be301d4f6916a",
    "scale160:1007": "46dd6baf379be73d7a03b5a5b404e9da1c9e126402fdc7326ec7da44503ec339",
    "scale160:2007": "c0ebab51a8ffaffdfb3baba0d185ef7464b5bc4e1e1135e9573e5af26b8e3f91",
    "private25:7": "023032041878015b8d548a00c4421324dff6d121637779b6b8087cf30e783aa2",
    "private25:1007": "cbdf663bb2840747de7cd55e40a6150df2319d16b841cd0a91bbdae1e80a6aea",
    "private25:2007": "8505f59660a7ff78c11a22cc8c6c1f2025b9f3e8b5b0227f921038a3c017b859",
    "private25:3007": "c58ecd43148fea298297fcade4238f0f35d4f25614db8d9e138621a6978c8c5f",
    "private25:4007": "ad9597ec1b86e06433c025af3c840f287a37eb803c3e98ef0a672d6a58b6b163",
    "private25:5007": "19ff0f265f68b3fd7fcc153497e34e1e1fdf3b3077291aba22d5019bff30fccc",
}
