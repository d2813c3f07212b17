"""The benchmark's tracer finds every switchsde name it wraps by attribute."""

import sys
from pathlib import Path

# the modules perfbench/run.py imports before it installs the tracer
import switchsde
import switchsde.cli
import switchsde.config  # noqa: F401

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
