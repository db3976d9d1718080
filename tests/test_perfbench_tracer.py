"""The benchmark tracer's hooks against the program's current signatures.

perfbench/tracer.py binds some arguments of the functions it wraps by
name (the capacity-switch hook reads select_capacity's ``prev``). Its own
self-tests run too few rounds to reach capacity selection, so a signature
change would break only traced benchmark runs; this test reaches it.

The tracer's flop model counts one backprop per training step, so the
descent loop must call models.backprop through the module namespace once
per step; the second test pins that count.
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


def traced_run(cfg):
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install(*tracer_module.afflsim_modules())
    try:
        log = harness.run_experiment(cfg)
    finally:
        tracer.uninstall()
    return tracer, log


def test_traced_run_reaches_capacity_selection():
    data = {**preset_smoke(7), "max_rounds": 2, "target_accuracy": None}
    data["protocol"]["adapt_interval"] = 1
    tracer, _ = traced_run(config_from_dict(data))
    metrics = tracer.layer_metrics()
    assert metrics["messenger.select_capacity.calls"] >= 1
    assert 0.0 <= metrics["messenger.capacity.switch_ratio"] <= 1.0


def test_traced_run_counts_one_backprop_per_descent_step():
    """warm-up steps per client, then local + inject + distill steps per
    cohort client and round (no capacity probe within smoke's interval)."""
    data = {**preset_smoke(7), "max_rounds": 2, "target_accuracy": None}
    cfg = config_from_dict(data)
    p = cfg.protocol
    assert cfg.max_rounds < p.adapt_interval
    tracer, log = traced_run(cfg)
    clients = len(harness.init_state(cfg).profiles)
    cohort_steps = sum(len(r.cohort) for r in log.records)
    per_client = p.local_steps + p.inject_steps + p.distill_steps
    want = clients * p.warmup_steps + cohort_steps * per_client
    assert cohort_steps > 0
    assert tracer.stat("models.backprop", "calls") == want
    assert tracer.stat("messenger.select_capacity", "calls") == 0
