"""Behaviour oracle: sha256 of rounds.jsonl for short fixed-round preset runs.

A refactor or speed-up must keep every digest below byte-identical. A
numerics change may move them only if every acceptance verdict still holds,
and the change must say why the digests moved.

The digests depend on the numpy and BLAS build (summation order inside
matmul and reductions can differ between builds and CPU kernels). They were
recorded with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64; on another build a
mismatch here first needs a re-recording on the parent commit before it
says anything about a change.
"""

import hashlib

import pytest

from afflsim import config
from afflsim.harness import run_experiment, write_run_outputs

# name -> (preset factory, fixed rounds, sha256 of rounds.jsonl)
GOLDEN = {
    "smoke": (
        lambda: config.preset_smoke(7),
        6,
        "6515f32a5c73fe71a83c43f633c099cc9c589cbddca7d7da1cc7e0d92ee17a7b",
    ),
    "default": (
        lambda: config.preset_default(7),
        2,
        "d48c6ffb335f239b74795e415e8aa43ee556524e2a11b5077cc5e08bab9d1135",
    ),
    "scale40": (
        lambda: config.preset_scale(40, 7),
        2,
        "b1358b91555398fc1a5f0f27e605a841e06ebe1eefee5922551136cc2706c4bf",
    ),
    "privacy": (
        lambda: config.preset_privacy(7),
        4,
        "49cbba1dfd7ee09a5fe9205836e71f4c1b0512960c46c01890ceebced740805b",
    ),
    "convex": (
        lambda: config.preset_convex(7),
        4,
        "68b2bc31a350c1254de0d5ee248225390cf6510231e2e10e50b06e781e057a6f",
    ),
}


def rounds_digest(preset: dict, rounds: int, outdir: str) -> str:
    data = {**preset, "max_rounds": rounds, "target_accuracy": None}
    log = run_experiment(config.config_from_dict(data))
    paths = write_run_outputs(log, outdir)
    with open(paths["rounds"], "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rounds_jsonl_digest_is_pinned(name, tmp_path):
    make, rounds, expected = GOLDEN[name]
    assert rounds_digest(make(), rounds, str(tmp_path)) == expected
