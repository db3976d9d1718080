"""The benchmark tracer's hooks against the program's current signatures.

perfbench/tracer.py binds some arguments of the functions it wraps by
name (the capacity-switch hook reads select_capacity's ``prev``). Its own
self-tests run too few rounds to reach capacity selection, so a signature
change would break only traced benchmark runs; this test reaches it.
"""

import importlib.util
from pathlib import Path

from afflsim import harness
from afflsim.config import config_from_dict, preset_smoke

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_reaches_capacity_selection():
    tracer_module = load_tracer()
    data = {**preset_smoke(7), "max_rounds": 2, "target_accuracy": None}
    data["protocol"]["adapt_interval"] = 1
    cfg = config_from_dict(data)
    tracer = tracer_module.Tracer()
    tracer.install(*tracer_module.afflsim_modules())
    try:
        harness.run_experiment(cfg)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["messenger.select_capacity.calls"] >= 1
    assert 0.0 <= metrics["messenger.capacity.switch_ratio"] <= 1.0
