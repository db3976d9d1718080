"""Self-tests of the benchmark, on the smoke preset.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import inspect
import json
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import LAYER_UNITS, Tracer, afflsim_modules  # noqa: E402


def _bench(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_emitted_with_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _bench(trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
        expected = {m["name"]: m["unit"] for m in spec[key]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == expected
        for m in result["metrics"].values():
            assert isinstance(m["value"], float)


def _synthetic_module() -> types.ModuleType:
    mod = types.ModuleType("synthetic_layer")
    exec(
        "import time\n"
        "def inner():\n"
        "    time.sleep(0.02)\n"
        "def outer():\n"
        "    time.sleep(0.01)\n"
        "    inner()\n"
        "    inner()\n",
        mod.__dict__,
    )
    return mod


def test_self_time_is_span_minus_children():
    mod = _synthetic_module()
    tracer = Tracer()
    tracer.install({"syn": mod}, [mod])
    try:
        mod.outer()
    finally:
        tracer.uninstall()
    outer_total = tracer.stat("syn.outer", "total_s")
    inner_total = tracer.stat("syn.inner", "total_s")
    assert tracer.stat("syn.inner", "calls") == 2
    assert tracer.stat("syn.outer", "self_s") == outer_total - inner_total
    assert tracer.stat("syn.inner", "self_s") == inner_total
    assert 0.01 <= tracer.stat("syn.outer", "self_s") < inner_total


def _public_functions(layers: dict) -> dict:
    return {
        f"{layer}.{name}": fn
        for layer, module in layers.items()
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    }


def test_wrappers_installed_everywhere_and_removed():
    from afflsim import config, harness, messenger, models, privacy, rng

    layers, namespaces = afflsim_modules()
    originals = _public_functions(layers)
    holders = [
        (ns, attr, fn)
        for ns in namespaces
        for attr, fn in vars(ns).items()
        if any(fn is f for f in originals.values())
    ]
    tracer = Tracer()
    tracer.install(layers, namespaces)
    try:
        for ns, attr, fn in holders:
            assert getattr(ns, attr) is not fn and getattr(ns, attr).__wrapped__ is fn, (ns, attr)
        for ns, attr, home in (
            (messenger, "forward", models), (messenger, "softmax", models),
            (messenger, "backprop", models), (messenger, "logits", models),
            (privacy, "logits", models), (privacy, "softmax", models),
            (harness, "stream", rng), (harness, "subseed", rng),
        ):
            assert getattr(ns, attr) is getattr(home, attr), (ns.__name__, attr)
        data = config.preset_smoke(7)
        data["max_rounds"] = 1
        harness.run_experiment(config.config_from_dict(data))
    finally:
        tracer.uninstall()
    for ns, attr, fn in holders:
        assert getattr(ns, attr) is fn, (ns, attr)
    m = tracer.layer_metrics()
    assert set(m) == set(LAYER_UNITS)
    assert m["models.forward.calls"] > 0 and m["models.backprop.calls"] > 0
    assert m["fairness.shapley.coalitions"] > 0 and 0 < m["fairness.shapley.hit_ratio"] < 1
    assert tracer.stat("harness.run_round", "calls") == 1
    assert tracer.stat("messenger.distill_to_messenger", "calls") > 0

