"""Behaviour oracle: sha256 of rounds.jsonl and summary.json for short runs.

A refactor or speed-up must keep every digest below byte-identical. A
numerics change may move them only if every acceptance verdict still holds,
and the change must say why the digests moved.

The cases cover every branch of the round pipeline: each algorithm, each
attack kind and robust aggregator, dropout down to all-empty rounds,
load-aware sampling, DP, multimodal fusion, capacity switches and a run of
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


# name -> (preset factory, fixed rounds, sha256 of rounds.jsonl, sha256 of summary.json)
GOLDEN = {
    "smoke": (
        lambda: config.preset_smoke(7),
        6,
        "930371b0a4286d8ebd07b9d57508f8f2fa0a19397df6f9022aabe9c33f240c4d",
        "6f2b2c6056d2e4dd41c38251984c17b5bcbce57258bdd6d29708ac39c24a3d5c",
    ),
    "default": (
        lambda: config.preset_default(7),
        2,
        "a60e5b9e553995f8636b53c2d07090f2e43f658aff76f585477e95a9b04612bd",
        "b180271088486a65ab16db5adbe0558e3a951494e974f83b95b0ea3a08f93d11",
    ),
    "scale40": (
        lambda: config.preset_scale(40, 7),
        2,
        "a134a4029d499fb7729d31547cfa752d7fd5800c0439e6506c960e3b1d40453e",
        "547583c4c14b71fd87850bfe4edac6e4de43b164510d3de4d81c3e337a5d35d5",
    ),
    "privacy": (
        lambda: config.preset_privacy(7),
        4,
        "30574a445df9f1e1c6af317599ec2c2d05914a2765cb6c91f4f36de6671af736",
        "305cb2a927fd3ce9a777a1e377aa201c86ece0f5167442fe53bbb8d17e700867",
    ),
    "convex": (
        lambda: config.preset_convex(7),
        4,
        "cd1793fd26b62a68dcfb100e0e611223b41577d5a19aa537f2d5f23e6024cb9c",
        "15b1acf783973ca3cfa3ff94ef588fc626f13dd342cfe667b3c7097b770db8a9",
    ),
    "default_fedavg": (
        lambda: config.preset_default(7, "fedavg"),
        2,
        "89916f3976d85db41b257bd52ad003a937036ab911c254db9d129d84b41bb659",
        "e756016029d7ad3245afccd5f99c6636cd6af143896aa44e8fd412e12c38f756",
    ),
    "default_static": (
        lambda: config.preset_default(7, "static_messenger"),
        2,
        "6653e30f4d52d3a2d331c6d5fee7802de1deb1a84dc80435bf2153bac39cc2dd",
        "a40e40fbb614a1c4b675a9d83b296469eef104c042b843214388b037931eed6f",
    ),
    "smoke_uniform": (
        variant(lambda: config.preset_smoke(7), {"algorithm": "uniform_weight_affl"}),
        4,
        "25379353803f5ea2fa95bbb38e425c430d8b41b3639a581d809a25cb43845408",
        "32a3b1677cee60effeabfb8f798c1edd015ce5c8458c64dba4edb7c307090a6f",
    ),
    "robustness_affl": (
        lambda: config.preset_robustness(7),
        2,
        "09ba62fdfad7bc9d77ef1ceb57673e59d536d9d35d07863cc213374888bbee6f",
        "9fe1ee42fe625024aa69422596fc1dd0750131d893f70e868237b9bdb62d45df",
    ),
    "robustness_fedavg": (
        lambda: config.preset_robustness(7, algorithm="fedavg"),
        2,
        "4980ef2083879d657d7308552e78c48cdac2aa7b78a4cc9846aff69126e84c84",
        "1e94cce85e36ac5adbcda95767d7fc200b8805dd6174cf93dd2b7492cd101b75",
    ),
    "smoke_label_flip_median": (
        smoke_attack("label_flip", robust_method="coordinate_median"),
        3,
        "8dd8c1b938ccfba01b4e70c20859a082e1ce7e55b7b4e4cbd682a3a95597b4eb",
        "6906bed1a8a258d80f28db6e0b817e46563cf3e1ca22321fa519cc66216c605f",
    ),
    "smoke_large_norm_static": (
        smoke_attack("large_norm", algorithm="static_messenger"),
        3,
        "8bfe177c8213cfb2f24c1c6bb2b49b30a54ce21176b9b6d7290adabf85d18c3b",
        "d0b01f6f3869c58d2687616dbddb7d4380410d5625ada24b84b802ce254baa7c",
    ),
    "scale20_dropout_load_aware": (
        variant(
            lambda: config.preset_scale(20, 7),
            {"dropout_rate": 0.6, "load_aware_sampling": True, "sample_rate": 0.5},
        ),
        3,
        "84a61ceadc1d1cb8dc6e7eebfba0ab46193271e368b15e188b9b0d1330873ec3",
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
        "4551f09f26e57205cff2d03670b8df89c3f1a2e1719f6a3464d92f3653a98a23",
        "2d52e85f7815156f9854171076e9695a7403324de32b448b6ce0cbcb54a7acd8",
    ),
    "multimodal": (
        lambda: config.preset_multimodal(7),
        2,
        "a4fd10c4f2a8d9a0b31328a9c4df8650fe991ff1e73b0fea44210c6371b58eef",
        "d14c3bde21972f84441887a12be87821fa99801f573d20964709384bd50cd9da",
    ),
    "default_adapt1": (
        variant(lambda: config.preset_default(7), {"adapt_interval": 1}),
        3,
        "19fd66665f91ddbf9163fa9da4912af30301e687af1482138ee358833a0804ef",
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
