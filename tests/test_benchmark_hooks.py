"""The benchmark's tracer finds every switchsde name it wraps by attribute,
and the keywords and fields the benchmark's workloads pass still exist."""

import sys
from pathlib import Path

import numpy as np

# the modules perfbench/run.py imports before it installs the tracer
import switchsde
import switchsde.cli
import switchsde.config  # noqa: F401
from switchsde import (
    ModelSpec, ProductFunctional, Segment, SimConfig, certify_recurrence,
    dynkin_residual, estimate_hitting_time, registry_get, search_gain,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.modules.pop("tracing", None)
    simulate = switchsde.sim.simulate
    tracer = tracing.Tracer()
    tracer.install(switchsde)  # raises AttributeError on a name that is gone
    try:
        assert tracer._patched
        # one wrapper in every namespace that imports the function
        assert switchsde.sim.simulate is not simulate
        assert switchsde.cli.simulate is switchsde.sim.simulate
    finally:
        tracer.uninstall()
    assert switchsde.sim.simulate is simulate
    assert switchsde.cli.simulate is switchsde.sim.simulate


def test_benchmark_keyword_surface():
    # the calls perfbench/workloads.py makes, at 2 paths or N = 30; a field
    # or keyword these need must not be removed without changing the benchmark
    ou, ou_lin = registry_get("switched_ou", {})
    cfg = SimConfig(dt=0.125, horizon=2.0, seed=1)
    phi = Segment.make_constant([1.0], ou.delay, cfg.dt)
    est = estimate_hitting_time(ou, phi, 3, 1.0, 2, cfg, 2, threads=2)
    assert repr(est) == repr(estimate_hitting_time(ou, phi, 3, 1.0, 2, cfg, 2, threads=1))

    quad = ProductFunctional(
        f1=lambda x, i: (np.asarray(x, dtype=float) ** 2).sum(axis=-1),
        grad_f1=lambda x, i: 2.0 * np.asarray(x, dtype=float),
        hess_f1=lambda x, i: 2.0 * np.eye(np.asarray(x).shape[-1]),
    )
    three = ModelSpec(
        dim=1,
        brownian_dim=1,
        drift=lambda x, i: -0.5 * np.asarray(x, dtype=float),
        diffusion=lambda x, i: np.array([[0.3]]),
        rates_row=lambda seg, i: {1 + i % 3: 1.0},
        rate_bound=1.0,
        delay=1.0,
        supports_batch=True,
        rates_depend_on_path=False,
    )
    for model in (ou, three):
        phi = Segment.make_constant([1.0], model.delay, cfg.dt)
        res = dynkin_residual(quad, model, phi, 1, 1.0, cfg, 2, engine="batch")
        assert res.n_samples == 2

    cs, cs_lin = registry_get("controlled_scalar", {"L": 0.0})
    plan = search_gain(cs_lin, cs.meta["input_matrix"], cs.meta["controllable"], 30)
    assert set(plan.gains) == {1}
    assert certify_recurrence(ou_lin, 30).verdict == "CERTIFIED"
