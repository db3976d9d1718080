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
        "6515f32a5c73fe71a83c43f633c099cc9c589cbddca7d7da1cc7e0d92ee17a7b",
        "126c2ead021b95c6d06e89264579b7cd17a4cdf22f00a646366ae06a95300b18",
    ),
    "default": (
        lambda: config.preset_default(7),
        2,
        "d48c6ffb335f239b74795e415e8aa43ee556524e2a11b5077cc5e08bab9d1135",
        "9b426c603f94e2629d51ff3db8ae9f67f0d563ff81a400fd0c0e58d5df0d1622",
    ),
    "scale40": (
        lambda: config.preset_scale(40, 7),
        2,
        "b1358b91555398fc1a5f0f27e605a841e06ebe1eefee5922551136cc2706c4bf",
        "622ae18b27d7ef40432adb1f5542bfecf779a0713aeab5bd0b7c2832c6f46f9a",
    ),
    "privacy": (
        lambda: config.preset_privacy(7),
        4,
        "49cbba1dfd7ee09a5fe9205836e71f4c1b0512960c46c01890ceebced740805b",
        "45dc62dd3ae78ce4f5ed1775998f5109a62a6eca6910e92fae80b1db9ee905ad",
    ),
    "convex": (
        lambda: config.preset_convex(7),
        4,
        "68b2bc31a350c1254de0d5ee248225390cf6510231e2e10e50b06e781e057a6f",
        "354b184a0ffa08d7675728a222b3339ddd2da2f6326b93a11130e21876790ded",
    ),
    "default_fedavg": (
        lambda: config.preset_default(7, "fedavg"),
        2,
        "53b0d86f15242dc93bacb4dbcfa97b887b2a69653fb1b8a87b61c981b771b698",
        "0e2e01b9cc8727dc6945ac5338bfe02082a58bbb12ab479710dee0bb483e6730",
    ),
    "default_static": (
        lambda: config.preset_default(7, "static_messenger"),
        2,
        "9b5ce066a6b2338907974218a965a92144df86363ffe2b393544565935b0b039",
        "f339db947b09337d0a2e5f9beb765ada4fc013ef088c832d21d70f3e9596b5eb",
    ),
    "smoke_uniform": (
        variant(lambda: config.preset_smoke(7), {"algorithm": "uniform_weight_affl"}),
        4,
        "059ab6974093d23bb5515706fe5ed808acd8b57b2df8f883bf34b4530b097712",
        "3b17eb0420c8cbc66a7df1649468b619bc37e425d70614c9705b4c72d3514394",
    ),
    "robustness_affl": (
        lambda: config.preset_robustness(7),
        2,
        "42b9034b7733ac4857a1fd4de66c24d52eed2e5c6c681e9d7f0ea387be9fd138",
        "93b44e374084a6c14138094d152244510348ee6ebdd1c79596046fc4e38b269e",
    ),
    "robustness_fedavg": (
        lambda: config.preset_robustness(7, algorithm="fedavg"),
        2,
        "dd5f1788d43496323344ac896230b3b5b273f549404deb9491bcb4c052c5ff94",
        "9b182375d9506b6ec1d3ac43e6a8863cc291352455ca1d88bb3469f469ca0b36",
    ),
    "smoke_label_flip_median": (
        smoke_attack("label_flip", robust_method="coordinate_median"),
        3,
        "ec6ab111709bc1b8c39efc3caac221f9419565a2e937e67e68b19195583792cb",
        "d6a2511c0186fd39b17289745a1617bae0582cdb1e42bb00b62392d836c41382",
    ),
    "smoke_large_norm_static": (
        smoke_attack("large_norm", algorithm="static_messenger"),
        3,
        "1f85bcaa7ae953f61cd2b9ce8be21885a5ddb9e668a69fac5fed6059a482c7d9",
        "b0676f4813f41590534e228df7ca68ff088c632f50669c9926e9304a4a7c411e",
    ),
    "scale20_dropout_load_aware": (
        variant(
            lambda: config.preset_scale(20, 7),
            {"dropout_rate": 0.6, "load_aware_sampling": True, "sample_rate": 0.5},
        ),
        3,
        "f7d5edd281063ace5b0a75dc7d0767bf7e74b818ce00b0066cade51b3610f2ec",
        "1daffb2bb6d2eb4c28557c0917cbfc15063f524ab0e4ea1bebb3d754d27e7b77",
    ),
    "smoke_dropout90_affl": (
        variant(lambda: config.preset_smoke(7), {"dropout_rate": 0.9}),
        4,
        "1728e0ef949415804793bb822d595737a37efd872bb42b0ef26725a820b68fbf",
        "4615b932e6e9a1d2ec0c5e8d0084e568e46d783bdd7bc05cbf650728f6411ae6",
    ),
    "smoke_dropout90_fedavg": (
        variant(lambda: config.preset_smoke(7), {"dropout_rate": 0.9, "algorithm": "fedavg"}),
        4,
        "6f5a2f73b9fcae356f2d1c7c4d522fe34a30c288c90ad57c2261790fd9533637",
        "c4a726874ac9ec389f85016200674c3e48ebfe72a2515dc99e5320013709a31a",
    ),
    "privacy_fedavg": (
        variant(lambda: config.preset_privacy(7), {"algorithm": "fedavg"}),
        3,
        "508b40f2423904bf669bb4712705fbbe47f7dfb46a8c8842f3de0f3d9e8edf6a",
        "0793a046d3665c10f784db84986a08910a06f0f6c06d3afaf6518f8d8fd67db5",
    ),
    "multimodal": (
        lambda: config.preset_multimodal(7),
        2,
        "64dd4fb7d8cb8f5c47e8766d77ecaf34470517d1ad4cf76e746e58a13081accb",
        "716f53ba3e23eb84eb9c804e35ad09b8a0999e321214ab6e96c9f94bfc85c8d0",
    ),
    "default_adapt1": (
        variant(lambda: config.preset_default(7), {"adapt_interval": 1}),
        3,
        "f113ba9391e806b600447a394d4d68a83bf0456a6c2ac5a334d7fb8630474af6",
        "33af7591b2f2df9b67d5831e8ce1ed9dd96121e74ec6b7a5d6699cc12f161d2d",
    ),
    "smoke_fedavg_zero_rounds": (
        variant(lambda: config.preset_smoke(7), {"algorithm": "fedavg"}),
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "7bac26bdc6185300d64d5feb8fe69fc728b64db4e88de392ca82f9aeeb3f82d3",
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
