"""Behaviour oracle: sha256 of rounds.jsonl and summary.json for short runs.

A refactor or speed-up must keep every digest below byte-identical. A
numerics change may move them only if every acceptance verdict still holds,
and the change must say why the digests moved.

The cases cover every branch of the round pipeline: each algorithm, each
attack kind and robust aggregator, dropout down to all-empty rounds,
load-aware sampling, DP, multimodal fusion (with partial modality holdings,
an active subset and fusion weights), capacity switches and a run of
zero rounds. summary.json is pinned too, because it alone carries the final
per-client accuracies.

The digests depend on the numpy and BLAS build (summation order inside
matmul and reductions can differ between builds and CPU kernels). They were
recorded with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64; on another build a
mismatch here first needs a re-recording on the parent commit before it
says anything about a change. To re-record, check out the parent commit and
run

    PYTHONPATH=src python tests/test_golden_digests.py

which prints one line per case: its name, then the sha256 of rounds.jsonl
and of summary.json.
"""

import hashlib
import tempfile

import pytest

from afflsim import config
from afflsim.harness import run_experiment, write_run_outputs


def variant(make, protocol=None, **top):
    """A preset factory with protocol keys and top-level keys overridden."""

    def build():
        data = make()
        data["protocol"].update(protocol or {})
        data.update(top)
        return data

    return build


def smoke_attack(kind, **protocol):
    return variant(
        lambda: {**config.preset_smoke(7), "attack": {"kind": kind, "attacker_fraction": 0.25}},
        protocol,
    )


def partial_multimodal():
    """Multimodal fusion with partial holdings, an active subset and set weights."""
    data = config.preset_multimodal(7, active_modalities=(0, 2))
    data["federation"]["modalities_by_class"] = {"rural": [1, 2], "regional": [0]}
    data["protocol"]["fusion_weights"] = (0.3, -0.5, 1.2)
    return data


# name -> (preset factory, fixed rounds, sha256 of rounds.jsonl, sha256 of summary.json)
GOLDEN = {
    "smoke": (
        lambda: config.preset_smoke(7),
        6,
        "2763db0ae9838f6cc675c5e60fb786b1342c2453786ffe2391818de374fe3fce",
        "6f2b2c6056d2e4dd41c38251984c17b5bcbce57258bdd6d29708ac39c24a3d5c",
    ),
    "default": (
        lambda: config.preset_default(7),
        2,
        "d105813228e4ed2d2b98a91018467f71d40d8205d0caf4a9adc55e6ac7c7f4b0",
        "b180271088486a65ab16db5adbe0558e3a951494e974f83b95b0ea3a08f93d11",
    ),
    "scale40": (
        lambda: config.preset_scale(40, 7),
        2,
        "47f14c54582ac07526b66eb2dfb7f29b76de9d03447ce4233e13f66e0ea7baa7",
        "547583c4c14b71fd87850bfe4edac6e4de43b164510d3de4d81c3e337a5d35d5",
    ),
    "privacy": (
        lambda: config.preset_privacy(7),
        4,
        "4462e1f4e1d65a85056d57dceb83f23cbd8195d1b29423e2bf990e14bccb8dcc",
        "305cb2a927fd3ce9a777a1e377aa201c86ece0f5167442fe53bbb8d17e700867",
    ),
    "convex": (
        lambda: config.preset_convex(7),
        4,
        "151ef63c2ea00a2e84deeb8434873c84d48cf2aa28a2ab36e9534e1eee89df98",
        "15b1acf783973ca3cfa3ff94ef588fc626f13dd342cfe667b3c7097b770db8a9",
    ),
    "default_fedavg": (
        lambda: config.preset_default(7, "fedavg"),
        2,
        "04330f2aa9aafa07e79ac3eeea724db85842b0701cf442cf3fce03dfe637455f",
        "e756016029d7ad3245afccd5f99c6636cd6af143896aa44e8fd412e12c38f756",
    ),
    "default_static": (
        lambda: config.preset_default(7, "static_messenger"),
        2,
        "49216215e566312564615490f99d6c126c73a5d0a81c66c053c15d77b09027ea",
        "a40e40fbb614a1c4b675a9d83b296469eef104c042b843214388b037931eed6f",
    ),
    "smoke_uniform": (
        variant(lambda: config.preset_smoke(7), {"algorithm": "uniform_weight_affl"}),
        4,
        "5ee1743c7fe0cc9989dc52fbbfb0443529f2d25cefbc0e8ac380988829d12d67",
        "32a3b1677cee60effeabfb8f798c1edd015ce5c8458c64dba4edb7c307090a6f",
    ),
    "robustness_affl": (
        lambda: config.preset_robustness(7),
        2,
        "d0a4235d4c28c055b657938e2455a2e94747238b8311dd908d999c09a6619db9",
        "9fe1ee42fe625024aa69422596fc1dd0750131d893f70e868237b9bdb62d45df",
    ),
    "robustness_fedavg": (
        lambda: config.preset_robustness(7, algorithm="fedavg"),
        2,
        "5536fbc358237af380180ea946409f39d9d721272798833be664c4a8e256d43b",
        "1e94cce85e36ac5adbcda95767d7fc200b8805dd6174cf93dd2b7492cd101b75",
    ),
    "smoke_label_flip_median": (
        smoke_attack("label_flip", robust_method="coordinate_median"),
        3,
        "9b39f91459f72750aefcbfa381fe38fab6ef9ac4a7d369a37c904b540dfa4c6f",
        "6906bed1a8a258d80f28db6e0b817e46563cf3e1ca22321fa519cc66216c605f",
    ),
    "smoke_large_norm_static": (
        smoke_attack("large_norm", algorithm="static_messenger"),
        3,
        "2105f43557ec96ffc5b20f081720bd857ef3aade8eb1fc5a63420776e79a03f3",
        "d0b01f6f3869c58d2687616dbddb7d4380410d5625ada24b84b802ce254baa7c",
    ),
    "scale20_dropout_load_aware": (
        variant(
            lambda: config.preset_scale(20, 7),
            {"dropout_rate": 0.6, "load_aware_sampling": True, "sample_rate": 0.5},
        ),
        3,
        "4edcdfe2e499a827712e9622e1e02695ecddfae7a105d0b5ea592bbf1d4097d3",
        "f3ca71ff16111b06b96ee6c8129a0cb336af50bdcd5c0624e71bd095ebf89946",
    ),
    "smoke_dropout90_affl": (
        variant(lambda: config.preset_smoke(7), {"dropout_rate": 0.9}),
        4,
        "1728e0ef949415804793bb822d595737a37efd872bb42b0ef26725a820b68fbf",
        "c53299fff4074eda2bb2538e265971c17f2f3a42c1c2340e3d44e847e005f897",
    ),
    "smoke_dropout90_fedavg": (
        variant(lambda: config.preset_smoke(7), {"dropout_rate": 0.9, "algorithm": "fedavg"}),
        4,
        "6f5a2f73b9fcae356f2d1c7c4d522fe34a30c288c90ad57c2261790fd9533637",
        "018fe632b5df154a731333d213bc2722a22a3c2041dcde8e774aac6330ac7a10",
    ),
    "privacy_fedavg": (
        variant(lambda: config.preset_privacy(7), {"algorithm": "fedavg"}),
        3,
        "dbbf268a3efe07d8cfb10dd383adfa130c9942fc77d749cb4593a09c186a9d85",
        "2d52e85f7815156f9854171076e9695a7403324de32b448b6ce0cbcb54a7acd8",
    ),
    "multimodal": (
        lambda: config.preset_multimodal(7),
        2,
        "1ce6c9f62ac037f697b99d11e05819ebcdccfa61ac993fb8cd0f3ddec6e03a06",
        "d14c3bde21972f84441887a12be87821fa99801f573d20964709384bd50cd9da",
    ),
    "multimodal_partial_weighted": (
        partial_multimodal,
        2,
        "e658b68beafea16750793a1a2691a4f44a8a46665c219e30444908e6044f0da7",
        "25852f1ddaf3df41684f8318e33ebf065dc4a5091e02c2c3dce7376e2069892d",
    ),
    "default_adapt1": (
        variant(lambda: config.preset_default(7), {"adapt_interval": 1}),
        3,
        "86e7386e76b4408424eeb2b78c152bbfa4a8b962ee7c58eb08830a8a78e74f8c",
        "11e56bc87f868d08e43764466dc4a0cfd538f28086cff9c2945541f50f40a475",
    ),
    "smoke_fedavg_zero_rounds": (
        variant(lambda: config.preset_smoke(7), {"algorithm": "fedavg"}),
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ed9553859937da74b231b332187a66b0e7d8b0919d1d1af8de4106c06b59a35a",
    ),
}


def run_digests(preset: dict, rounds: int, outdir: str) -> tuple[str, str]:
    data = {**preset, "max_rounds": rounds, "target_accuracy": None}
    log = run_experiment(config.config_from_dict(data))
    paths = write_run_outputs(log, outdir)
    digests = []
    for key in ("rounds", "summary"):
        with open(paths[key], "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    return digests[0], digests[1]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rounds_jsonl_digest_is_pinned(name, tmp_path):
    make, rounds, rounds_sha, summary_sha = GOLDEN[name]
    assert run_digests(make(), rounds, str(tmp_path)) == (rounds_sha, summary_sha)


if __name__ == "__main__":
    for name, (make, rounds, _, _) in GOLDEN.items():
        with tempfile.TemporaryDirectory() as outdir:
            rounds_sha, summary_sha = run_digests(make(), rounds, outdir)
        print(name, rounds_sha, summary_sha)
