"""Release acceptance suite.

Each test covers one acceptance criterion end to end and prints a single
PASS/FAIL line with its runtime, so a full run doubles as a release
checklist.  Tolerances and runtime budgets are part of the contract;
budgets are asserted only when the criterion body itself succeeded.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines live.
"""

import filecmp
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from oracles import ladder_nu, ou_family_nu, reference_extremes, sampled_rho
from switchsde.certify import (
    CERTIFIED,
    INCONCLUSIVE,
    certify_recurrence,
    search_gain,
)
from switchsde.chain import SparseGenerator, stationary, truncate
from switchsde.cli import main
from switchsde.model import ModelSpec
from switchsde.registry import registry_get
from switchsde.segment import Segment
from switchsde.sim import SimConfig
from switchsde.spectra import summarize
from switchsde.verify import (
    ProductFunctional,
    coupling_decay,
    dynkin_residual,
    estimate_hitting_time,
    occupation_fractions,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

OU_PARAMS = {"theta": 1.0, "mu": 0.0, "sigma": 0.5, "c": 1.0}


@contextmanager
def criterion(name, budget_s=None):
    """Print one [PASS]/[FAIL] line; enforce the runtime budget on success."""
    t0 = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - t0
        print(f"[{'FAIL' if failed else 'PASS'}] {name} ({elapsed:.2f}s)", flush=True)
        if not failed and budget_s is not None:
            assert elapsed < budget_s, f"{name}: {elapsed:.2f}s over {budget_s}s budget"


def two_base_ladder():
    """Modes 1 and 2 exchange and feed the ladder; upper modes return to both."""

    def row(i):
        if i == 1:
            return {2: 1.0, 3: 1.0}
        if i == 2:
            return {1: 1.0, 3: 1.0}
        return {1: 1.0, 2: 1.0, i + 1: 1.0}

    return SparseGenerator(row, rate_bound=3.0, name="two_base")


def return_ladder():
    def row(i):
        if i == 1:
            return {2: 1.0}
        return {1: 1.0, i + 1: 1.0}

    return SparseGenerator(row, rate_bound=2.0, name="return")


def test_criterion_1_stationary_golden_values():
    with criterion("stationary golden values", budget_s=1.0):
        dist = stationary(truncate(two_base_ladder(), 30))
        for k in range(1, 26):
            assert dist.nu[k - 1] == pytest.approx(ou_family_nu(k), abs=1e-8)
        dist = stationary(truncate(return_ladder(), 30))
        for k in range(1, 26):
            assert dist.nu[k - 1] == pytest.approx(ladder_nu(k), abs=1e-8)


def test_criterion_2_spectra_against_sampling_oracle():
    with criterion("spectral summaries vs sampling oracle", budget_s=10.0):
        rng = np.random.default_rng(7)
        for k in range(100):
            d = 2 + k % 4
            mat = rng.standard_normal((d, d))
            s = summarize(mat)
            hi, lo = reference_extremes(mat)
            assert s.lambda_max == pytest.approx(hi, abs=1e-10)
            assert s.lambda_min == pytest.approx(lo, abs=1e-10)
            assert s.rho == pytest.approx(sampled_rho(mat, seed=k), abs=1e-4)


def test_criterion_3_certificate_hand_checks():
    with criterion("certificate hand checks", budget_s=1.0):
        lin_ou = registry_get("switched_ou", OU_PARAMS)[1]
        cert = certify_recurrence(lin_ou, 30)
        assert cert.partial_sum == pytest.approx(-1.0, abs=1e-9)
        assert cert.verdict == CERTIFIED

        def scalar(gain):
            return registry_get(
                "controlled_scalar",
                {"A": 1.0, "B": 1.0, "sigma": 0.0, "L": gain, "c": 1.0,
                 "controllable": [1]},
            )

        cert = certify_recurrence(scalar(3.0)[1], 30)
        assert cert.partial_sum == pytest.approx(-0.5, abs=1e-9)
        assert cert.verdict == CERTIFIED

        cert = certify_recurrence(scalar(1.0)[1], 30)
        assert cert.partial_sum == pytest.approx(0.5, abs=1e-9)
        assert cert.verdict == INCONCLUSIVE

        spec, lin = scalar(0.0)
        plan = search_gain(lin, spec.meta["input_matrix"], spec.meta["controllable"], 30)
        assert plan is not None
        assert float(np.asarray(plan.gains[1])[0, 0]) > 2.0


def _point_model(drift, diffusion=None, rates=None, bound=1.0):
    return ModelSpec(
        dim=1,
        brownian_dim=1,
        drift=drift,
        diffusion=diffusion or (lambda x, i: np.zeros((1, 1))),
        rates_row=rates or (lambda seg, i: {}),
        rate_bound=bound,
        delay=1.0,
        zero_diffusion=diffusion is None,
        rates_depend_on_path=False,
    )


QUADRATIC = ProductFunctional(
    f1=lambda x, i: (np.asarray(x, dtype=float) ** 2).sum(axis=-1),
    grad_f1=lambda x, i: 2.0 * np.asarray(x, dtype=float),
    hess_f1=lambda x, i: 2.0 * np.eye(np.asarray(x).shape[-1]),
)

_MODE_COST = {1: 0.0, 2: 1.0}

MODE_INDICATOR = ProductFunctional(
    f1=lambda x, i: np.full(np.asarray(x).shape[:-1], _MODE_COST[min(i, 2)]),
    grad_f1=lambda x, i: np.zeros_like(np.asarray(x, dtype=float)),
    hess_f1=lambda x, i: np.zeros((1, 1)),
)


def test_criterion_4_dynkin_residual_suite():
    # 1.4-2.0 s in full-suite runs on 2 cores: the budget keeps 4x headroom
    with criterion("dynkin residual suite", budget_s=8.0):
        cfg = SimConfig(dt=1e-3, horizon=1.0, seed=2024)
        phi0 = Segment.make_constant([0.0], 1.0, cfg.dt)
        phi1 = Segment.make_constant([1.0], 1.0, cfg.dt)
        zero = lambda x, i: np.zeros_like(np.asarray(x, dtype=float))

        runs = [
            # Brownian motion with V = x^2
            (QUADRATIC, _point_model(zero, diffusion=lambda x, i: np.array([[1.0]])),
             phi0),
            # mean-reverting diffusion with V = x^2
            (QUADRATIC,
             _point_model(lambda x, i: -np.asarray(x, dtype=float),
                          diffusion=lambda x, i: np.array([[0.5]])),
             phi1),
            # mode-indicator V on a two-mode chain, no state dynamics
            (MODE_INDICATOR,
             _point_model(zero,
                          rates=lambda seg, i: {2: 1.0} if i == 1 else {1: 2.0},
                          bound=2.0),
             phi0),
        ]
        for functional, model, start in runs:
            est = dynkin_residual(functional, model, start, 1, 1.0, cfg, 10_000)
            assert est.usable
            assert abs(est.mean) < 3.0 * est.std_error


def test_criterion_5_hitting_time_analytic_check():
    with criterion("hitting time analytic check", budget_s=30.0):
        errors = {}
        for dt in (1e-2, 1e-3):
            model = ModelSpec(
                dim=1,
                brownian_dim=1,
                drift=lambda x, i: -np.asarray(x, dtype=float),
                diffusion=lambda x, i: np.zeros((1, 1)),
                rates_row=lambda seg, i: {},
                rate_bound=1.0,
                delay=dt,
                zero_diffusion=True,
            )
            phi0 = Segment.make_constant([math.e], dt, dt)
            cfg = SimConfig(dt=dt, horizon=2.0, seed=1)
            est = estimate_hitting_time(model, phi0, 1, 1.0, 1, cfg, 3)
            assert est.censored_fraction == 0.0
            errors[dt] = abs(est.mean - 1.0)
            assert errors[dt] <= 2.0 * dt
        # first-order scheme: the error tracks the step size
        ratio = errors[1e-2] / errors[1e-3]
        assert 5.0 < ratio < 20.0


def test_criterion_6_recurrence_corroboration():
    # about 0.8 s on the batch engine (2 cores); the per-path loop takes 12 s
    with criterion("recurrence corroboration", budget_s=4.0):
        model, _ = registry_get("switched_ou", OU_PARAMS)
        dt = 1.0 / 64
        phi0 = Segment.make_constant([2.0], model.delay, dt)
        means = {}
        for horizon in (200.0, 400.0):
            cfg = SimConfig(dt=dt, horizon=horizon, seed=42)
            est = estimate_hitting_time(model, phi0, 3, 1.0, 2, cfg, 2000, threads=4)
            assert est.usable
            means[horizon] = est.mean
            if horizon == 200.0:
                assert est.censored_fraction < 0.01
        rel_change = abs(means[400.0] - means[200.0]) / means[200.0]
        assert rel_change < 0.05


def test_criterion_7_scheme_cross_validation():
    # about 20-36 s on 2 cores (27.6, 29.3 and 30.8 s in full-suite runs with
    # list-form thinning rounds, 36.2 s at worst): 1,000 paths times 100,000
    # steps per scheme
    with criterion("scheme cross validation", budget_s=60.0):
        rates = {1: {2: 0.6, 3: 0.4}, 2: {1: 0.5, 3: 0.5}, 3: {1: 0.8, 2: 0.2}}
        model = _point_model(
            lambda x, i: -0.5 * np.asarray(x, dtype=float),
            diffusion=lambda x, i: np.array([[0.3]]),
            rates=lambda seg, i: dict(rates[i]),
        )
        phi0 = Segment.make_constant([1.0], 1.0, 1e-3)
        results = {}
        for scheme, seed in (("thinning", 11), ("bernoulli", 12)):
            cfg = SimConfig(dt=1e-3, horizon=100.0, scheme=scheme, seed=seed)
            results[scheme] = occupation_fractions(
                model, phi0, 1, cfg, 1000, [1, 2, 3], burn_in=20.0
            )
        frac_a, se_a = results["thinning"]
        frac_b, se_b = results["bernoulli"]
        z = np.abs(frac_a - frac_b) / np.sqrt(se_a**2 + se_b**2)
        assert (z < 3.0).all()


def test_criterion_8_coupling_decay_with_radius():
    # about 1.1 s as one 10,000-path ensemble, both radii (2 cores); the per-path loop took 14 s
    with criterion("coupling decay with radius", budget_s=5.0):
        model, lin = registry_get("switched_ou", OU_PARAMS)
        cfg = SimConfig(dt=1.0 / 64, horizon=10.0, seed=314)
        near, far = coupling_decay(model, lin, [10.0, 1000.0], cfg, 5000, i0=3)
        assert far["p_decouple"] < near["p_decouple"]
        # non-overlapping 95% confidence intervals
        assert far["ci95"][1] < near["ci95"][0]


def _run_cli(args):
    assert main([str(a) for a in args]) == 0


def _assert_same_bytes(dir_a, dir_b):
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names, shallow=False)
    assert not mismatch and not errors


def test_criterion_9_cli_determinism(tmp_path):
    with criterion("cli determinism"):
        config = CONFIG_DIR / "switched_ou.json"
        for rerun in ("a", "b"):
            out = tmp_path / f"sim_{rerun}"
            _run_cli(["simulate", "--model", config, "--T", 5, "--dt", 0.015625,
                      "--seed", 9, "--out", out])
            _run_cli(["certify", "--model", config, "--N", 30,
                      "--out", tmp_path / f"cert_{rerun}"])
        _assert_same_bytes(tmp_path / "sim_a", tmp_path / "sim_b")
        _assert_same_bytes(tmp_path / "cert_a", tmp_path / "cert_b")

        for rerun in ("a", "b"):
            _run_cli(["verify", "hitting", "--model", config, "--T", 20,
                      "--dt", 0.015625, "--seed", 9, "--paths", 50,
                      "--out", tmp_path / f"hit_{rerun}"])
        _assert_same_bytes(tmp_path / "hit_a", tmp_path / "hit_b")
