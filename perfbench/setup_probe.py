"""Time one cold set-up in a fresh interpreter and print it as JSON.

    python3 perfbench/setup_probe.py <workload>

Set-up is what a CLI user pays on every invocation: import switchsde, load
the five ``configs/*.json`` (which builds the registry models) and make
one warm-up call of the workload's kind.
"""

import os
import sys
import time

start = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import switchsde  # noqa: E402
from switchsde.cli import build_parser  # noqa: E402
from switchsde.config import load_model_config  # noqa: E402


def warm_up(workload: str, models: dict) -> None:
    ou = models["switched_ou"]
    if workload == "certify":
        switchsde.certify_recurrence(ou.lin, ou.truncation_hint)
    elif workload == "cli":
        build_parser().parse_args(
            ["certify", "--model", os.path.join(ROOT, "configs", "switched_ou.json")])
    elif workload == "mc-batch":
        l2 = models["linear_2d"]
        phi = switchsde.Segment.make_constant([1.0, 1.0], l2.spec.delay, 1.0 / 64)
        cfg = switchsde.SimConfig(dt=1.0 / 64, horizon=1.0, seed=1)
        switchsde.BatchEnsemble(l2.spec, phi, 1, cfg, 8).run(4)
    else:
        phi = switchsde.Segment.make_constant([2.0], ou.spec.delay, 1.0 / 64)
        cfg = switchsde.SimConfig(dt=1.0 / 64, horizon=1.0, seed=1)
        switchsde.simulate(ou.spec, phi, 3, cfg)


def main() -> None:
    workload = sys.argv[1]
    config_dir = os.path.join(ROOT, "configs")
    models = {}
    for name in sorted(os.listdir(config_dir)):
        if name.endswith(".json"):
            loaded = load_model_config(os.path.join(config_dir, name))
            models[loaded.name] = loaded
    warm_up(workload, models)
    print('{"setup_s": %r}' % (time.perf_counter() - start))


if __name__ == "__main__":
    main()
