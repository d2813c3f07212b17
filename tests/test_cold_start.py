"""scipy is loaded by the truncated stationary solver only.

Simulation, the Monte Carlo estimators and the CLI commands built on them
run in a fresh interpreter without importing scipy, and so do the
certificates of the five shipped configs: four limiting generators declare
a repeat point and predator_prey's is finite, so every law is exact, from
numpy alone.  ``stationary`` then loads it on first use.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import os
import sys

import numpy as np

import switchsde
import switchsde.cli
from switchsde import (
    BatchEnsemble,
    ProductFunctional,
    Segment,
    SimConfig,
    certify_recurrence,
    coupling_decay,
    dynkin_residual,
    estimate_hitting_time,
    estimate_mode_descent,
    load_model_config,
    occupation_fractions,
    occupation_stability,
    simulate,
)

config_dir, out = sys.argv[1], sys.argv[2]
paths = {name[:-5]: os.path.join(config_dir, name)
         for name in sorted(os.listdir(config_dir)) if name.endswith(".json")}
assert len(paths) == 5, paths
quad = ProductFunctional(
    f1=lambda x, i: (np.asarray(x, dtype=float) ** 2).sum(axis=-1),
    grad_f1=lambda x, i: 2.0 * np.asarray(x, dtype=float),
    hess_f1=lambda x, i: 2.0 * np.eye(np.asarray(x).shape[-1]),
)


def cli(*argv):
    return switchsde.cli.main([str(a) for a in argv])


dt = 1.0 / 16
cfg = SimConfig(dt=dt, horizon=1.0, seed=1)
for name, path in paths.items():
    loaded = load_model_config(path)
    spec, lin = loaded.spec, loaded.lin
    start = Segment.make_constant(np.full(spec.dim, 2.0), spec.delay, dt)
    simulate(spec, start, 2, cfg)
    BatchEnsemble(spec, start, 2, cfg, 4).run(4)
    estimate_hitting_time(spec, start, 3, 1.0, 2, cfg, 4)
    estimate_mode_descent(spec, start, 3, 1, cfg, 4)
    coupling_decay(spec, lin, [1.0, 20.0], cfg, 4, i0=3)
    occupation_stability(spec, [np.full(spec.dim, s) for s in (0.5, 2.0)], cfg, 4, 0.5)
    occupation_fractions(spec, start, 2, cfg, 4, [1, 2, 3], burn_in=0.5)
    dynkin_residual(quad, spec, start, 2, 0.5, cfg, 4)
    common = ["--model", path, "--dt", dt, "--out", os.path.join(out, name)]
    assert cli("simulate", *common, "--T", 1) == 0
    assert cli("verify", "hitting", *common, "--T", 50, "--paths", 2) == 0  # paths stop at the hit
    assert cli("verify", "descent", *common, "--i0", 3, "--k0", 1, "--T", 50, "--paths", 2) == 0
    assert cli("verify", "coupling", *common, "--T", 1, "--radii", "10,1000", "--paths", 2) == 0
    assert cli("verify", "occupation", *common, "--T", 1, "--burn-in", 0.5, "--starts", "1,5",
               "--paths", 2) == 0
    assert cli("dynkin", *common, "--t", 0.25, "--paths", 2) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:5]

for name, path in paths.items():  # exact laws: four geometric ones and a finite one
    dest = os.path.join(out, name)
    for n in (30, 100_000):
        certify_recurrence(load_model_config(path).lin, n)
    assert cli("certify", "--model", path, "--out", dest) in (0, 1)  # CERTIFIED or INCONCLUSIVE
    assert os.path.isfile(os.path.join(dest, "certificate.json"))
# the one config with control inputs; the others are usage errors
assert cli("stabilize", "--model", paths["controlled_scalar"], "--out", out) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:5]

for name, path in paths.items():
    dest = os.path.join(out, name)
    assert cli("stationary", "--model", path, "--levels", "10,20", "--out", dest) == 0
assert "scipy.sparse.linalg" in sys.modules
print("ok")
"""


def test_simulation_and_verify_paths_never_load_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "configs"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip().splitlines()[-1] == "ok"
