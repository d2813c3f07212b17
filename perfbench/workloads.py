"""The four workloads: fixed op lists over switchsde, each op with its check.

An op is one estimator, certificate, search or CLI command call.  ``run``
makes the call and returns its result; ``check`` raises ``CheckFailed``
when the result is wrong, so a fast wrong answer counts as a failure.
Ops look switchsde functions up through their modules at call time, so
the wrappers of ``tracing.Tracer`` see every call.

Every input is derived from the workload seed; switchsde receives only the
generated configs, start segments and seeds.  ``quick`` shrinks every path
count for the benchmark self-test; it changes no op's shape.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import math
import os
import random
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("mc-pathdep", "mc-batch", "certify", "cli")
CONFIG_NAMES = ("controlled_scalar", "fluid_queue", "linear_2d", "predator_prey", "switched_ou")

# z bound of the Monte Carlo agreement checks (dynkin, occupation); see NOTES.md
Z_MAX = 6.0

# Known defects at the time the benchmark was written.  An op tagged with one
# of these that fails with the listed signature is still counted as failed,
# but it does not make the run's outputs "incorrect"; any other failure does.
KNOWN_DEFECTS = {
    "ou-underflow-N>=700": (
        "certify_recurrence on switched_ou raises 'stationary head contains zeros' "
        "for N >= 700 (the law 2*3^-(k-1) underflows)",
        "stationary head contains zeros",
    ),
    "predator_prey-certify-at-hint": (
        "certify on predator_prey fails at its truncation_hint of 50 "
        "(library raises, CLI exits 2)",
        "stationary head contains zeros",
    ),
    "search_gain-rounding-N>=100": (
        "search_gain on controlled_scalar (L=0) returns g = 2.0 for N >= 100: "
        "partial_sum = -5.55e-17 and CERTIFIED, decided by rounding",
        "gain 2.0 is not > 2",
    ),
}


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    defect: Optional[str] = None


class Context:
    """Imports, loaded configs and input generation shared by the ops."""

    def __init__(self, sw, root: str, workload: str, seed: int, quick: bool):
        self.sw = sw
        self.quick = quick
        self.rng = random.Random(f"{workload}:{seed}")
        self.config_dir = os.path.join(root, "configs")
        self.models = {
            name: sw.config.load_model_config(self.config_path(name)) for name in CONFIG_NAMES
        }
        self.out_dir = None  # set per pass by the runner

    def config_path(self, name: str) -> str:
        return os.path.join(self.config_dir, f"{name}.json")

    def paths(self, full: int) -> int:
        return max(2, full // 16) if self.quick else full

    def seed(self) -> int:
        return self.rng.randrange(1, 2**31 - 1)

    def out(self, label: str) -> str:
        return os.path.join(self.out_dir, label)


# -- shared functionals and models ------------------------------------------

def _quadratic(sw):
    return sw.verify.ProductFunctional(
        f1=lambda x, i: (np.asarray(x, dtype=float) ** 2).sum(axis=-1),
        grad_f1=lambda x, i: 2.0 * np.asarray(x, dtype=float),
        hess_f1=lambda x, i: 2.0 * np.eye(np.asarray(x).shape[-1]),
    )


def _history_kernel(sw):
    """V = |x|^2 + int_{-r}^0 e^s |phi(s)|^2 ds (kernel g = dg = e^s)."""
    return sw.verify.ProductFunctional(
        f1=lambda x, i: (np.asarray(x, dtype=float) ** 2).sum(axis=-1),
        grad_f1=lambda x, i: 2.0 * np.asarray(x, dtype=float),
        hess_f1=lambda x, i: 2.0 * np.eye(np.asarray(x).shape[-1]),
        f2=lambda x, i: (np.asarray(x, dtype=float) ** 2).sum(axis=-1),
        g=lambda s, i: math.exp(s),
        dg=lambda s, i: math.exp(s),
    )


_THREE_MODE_RATES = {1: {2: 0.6, 3: 0.4}, 2: {1: 0.5, 3: 0.5}, 3: {1: 0.8, 2: 0.2}}


def _three_mode_model(sw):
    """History-independent three-mode OU model (acceptance criterion 7 shape)."""
    return sw.model.ModelSpec(
        dim=1,
        brownian_dim=1,
        drift=lambda x, i: -0.5 * np.asarray(x, dtype=float),
        diffusion=lambda x, i: np.array([[0.3]]),
        rates_row=lambda seg, i: dict(_THREE_MODE_RATES[i]),
        rate_bound=1.0,
        delay=1.0,
        supports_batch=True,
        rates_depend_on_path=False,
    )


# -- checks ------------------------------------------------------------------

def check_estimate(est, max_censored=0.01):
    expect(est.usable and math.isfinite(est.mean), f"estimate unusable: {est}")
    expect(est.censored_fraction < max_censored,
           f"censored fraction {est.censored_fraction:.4f} >= {max_censored}")


def check_hitting_pair(results, est):
    check_estimate(est)
    expect(1 in results, "threads=1 result missing")
    expect(results[1] == est, f"threads=1 {results[1]} != threads=2 {est}")


def check_coupling(rows):
    near, far = rows
    expect(far["ci95"][1] < near["ci95"][0],
           f"95% CIs overlap: R=10 {near['ci95']} vs R=1000 {far['ci95']}")


def check_dynkin(est):
    check_estimate(est)
    expect(est.std_error > 0 and abs(est.mean) < Z_MAX * est.std_error,
           f"|mean| {abs(est.mean):.4g} >= {Z_MAX} * SE {est.std_error:.4g}")


def check_fractions(result):
    means, ses = result
    expect(np.all(np.isfinite(means)) and np.all(np.isfinite(ses)), "non-finite fractions")
    expect(np.all(means >= 0.0) and means.sum() <= 1.0 + 1e-12,
           f"fractions {means} are not a sub-probability vector")


def check_occupation_pair(results, result):
    check_fractions(result)
    expect("thinning" in results, "thinning result missing")
    (fa, sa), (fb, sb) = results["thinning"], result
    z = np.abs(fa - fb) / np.sqrt(sa**2 + sb**2)
    expect(bool(np.all(z < Z_MAX)), f"thinning vs bernoulli z = {np.round(z, 2)} (max {Z_MAX})")


def check_certificate(expected_verdict, partial_sum=None):
    """``expected_verdict`` None accepts either verdict (a reasoned INCONCLUSIVE)."""
    allowed = (expected_verdict,) if expected_verdict else ("CERTIFIED", "INCONCLUSIVE")

    def check(cert):
        expect(cert.verdict in allowed, f"verdict {cert.verdict}, expected {allowed}")
        if partial_sum is not None:
            expect(abs(cert.partial_sum - partial_sum) <= 1e-9,
                   f"partial_sum {cert.partial_sum!r} != {partial_sum} +- 1e-9")

    return check


def check_gain(plan):
    expect(plan is not None, "no gain found within the budget")
    g = float(np.asarray(plan.gains[1])[0, 0])
    # at g = 2 the weighted closed-loop cost 1 - g * nu_1 is exactly 0 (nu_1 = 1/2)
    expect(g > 2.0, f"gain {g} is not > 2")


def check_sweep(rows):
    expect(len(rows) >= 2, "sweep has fewer than two levels")
    for row in rows:
        expect(row["residual"] <= 1e-10, f"residual {row['residual']:.3g} at N={row['N']}")
        head = row["nu_head"]
        want = [1 / 3, 1 / 3] + [2.0 * 3.0 ** (-(k - 1)) for k in range(3, len(head) + 1)]
        # the boundary state absorbs the tail; compare away from it
        for k in range(min(len(head), row["N"] - 2)):
            expect(abs(head[k] - want[k]) <= 1e-8,
                   f"nu_{k + 1} = {head[k]!r} at N={row['N']}, expected {want[k]!r}")


# -- mc-pathdep --------------------------------------------------------------

def mc_pathdep(ctx: Context) -> list:
    sw = ctx.sw
    ou, pp, cs = (ctx.models[n] for n in ("switched_ou", "predator_prey", "controlled_scalar"))
    dt = 1.0 / 64
    ops = []

    # criterion-6 shape: phi = 2, i0 = 3, H = 1, k0 = 2; threads 1 and 2 must agree
    phi_ou = sw.segment.Segment.make_constant([2.0], ou.spec.delay, dt)
    for c in range(4):
        cfg = sw.sim.SimConfig(dt=dt, horizon=200.0, seed=ctx.seed())
        results = {}

        def hitting(threads, cfg=cfg, results=results):
            est = sw.verify.estimate_hitting_time(
                ou.spec, phi_ou, 3, 1.0, 2, cfg, ctx.paths(32), threads=threads)
            results[threads] = est
            return est

        ops.append(Op(f"hitting.switched_ou.{c}.threads1", partial(hitting, 1), check_estimate))
        ops.append(Op(f"hitting.switched_ou.{c}.threads2", partial(hitting, 2),
                      partial(check_hitting_pair, results)))

    # criterion-8 shape: radii 10 and 1000, i0 = 3
    for c in range(2):
        cfg = sw.sim.SimConfig(dt=dt, horizon=10.0, seed=ctx.seed())
        ops.append(Op(
            f"coupling.switched_ou.{c}",
            partial(lambda cfg: sw.verify.coupling_decay(
                ou.spec, ou.lin, [10.0, 1000.0], cfg, ctx.paths(250), i0=3), cfg),
            check_coupling))

    # thinning-bound: the rate bound of 425 dwarfs the realised jump rate
    phi_pp = sw.segment.Segment.make_constant([1.0], pp.spec.delay, dt)
    for c in range(2):
        cfg = sw.sim.SimConfig(dt=dt, horizon=50.0, seed=ctx.seed())
        ops.append(Op(
            f"descent.predator_prey.{c}",
            partial(lambda cfg: sw.verify.estimate_mode_descent(
                pp.spec, phi_pp, 10, 2, cfg, ctx.paths(40)), cfg),
            check_estimate))

    # controlled_scalar rates read the oldest sample, value_at(-r)
    phi_cs = sw.segment.Segment.make_constant([1.0], cs.spec.delay, dt)
    for c in range(6):
        cfg = sw.sim.SimConfig(dt=dt, horizon=20.0, seed=ctx.seed())
        ops.append(Op(
            f"occupation.controlled_scalar.{c}",
            partial(lambda cfg: sw.verify.occupation_fractions(
                cs.spec, phi_cs, 1, cfg, ctx.paths(8), [1, 2, 3], burn_in=2.0), cfg),
            check_fractions))

    # dt = 1e-3 makes the history window m = 1001 samples, so sup_norm is O(m)
    phi_dyn = sw.segment.Segment.make_constant([1.0], ou.spec.delay, 1e-3)
    quad = _quadratic(sw)
    for c in range(3):
        cfg = sw.sim.SimConfig(dt=1e-3, horizon=0.1875, seed=ctx.seed())
        ops.append(Op(
            f"dynkin.switched_ou.{c}",
            partial(lambda cfg: sw.verify.dynkin_residual(
                quad, ou.spec, phi_dyn, 1, 0.1875, cfg, ctx.paths(40)), cfg),
            check_dynkin))
    return ops


# -- mc-batch ----------------------------------------------------------------

def mc_batch(ctx: Context) -> list:
    sw = ctx.sw
    l2 = ctx.models["linear_2d"]
    ops = []

    def dynkin(functional, phi, cfg, paths):
        return sw.verify.dynkin_residual(
            functional, l2.spec, phi, 1, 1.0, cfg, ctx.paths(paths), engine="batch")

    # (functional, dt, ops, paths): the history kernel pays the trapezoid loops
    for label, functional, dt, count, paths in (
            ("quadratic", _quadratic(sw), 1.0 / 256, 14, 125),
            ("history_kernel", _history_kernel(sw), 1.0 / 64, 2, 250)):
        phi = sw.segment.Segment.make_constant([1.0, 1.0], l2.spec.delay, dt)
        for c in range(count):
            cfg = sw.sim.SimConfig(dt=dt, horizon=1.0, seed=ctx.seed())
            ops.append(Op(f"dynkin.linear_2d.{label}.{c}",
                          partial(dynkin, functional, phi, cfg, paths), check_dynkin))

    # criterion-7 shape: both schemes on one model must agree mode by mode
    model = _three_mode_model(sw)
    phi_occ = sw.segment.Segment.make_constant([1.0], 1.0, 1e-3)
    for c in range(4):
        results = {}

        def occupation(scheme, cfg, results=results):
            out = sw.verify.occupation_fractions(
                model, phi_occ, 1, cfg, ctx.paths(200), [1, 2, 3], burn_in=1.0)
            results[scheme] = out
            return out

        for scheme in ("thinning", "bernoulli"):
            cfg = sw.sim.SimConfig(dt=1e-3, horizon=3.0, scheme=scheme, seed=ctx.seed())
            check = check_fractions if scheme == "thinning" else partial(
                check_occupation_pair, results)
            ops.append(Op(f"occupation.three_mode.{c}.{scheme}",
                          partial(occupation, scheme, cfg), check))
    return ops


# -- certify -----------------------------------------------------------------

# verdicts at each config's truncation_hint; switched_ou and controlled_scalar
# (L=3) partial sums are hand values.  predator_prey fails today (a known
# defect); once fixed it may certify or return INCONCLUSIVE with a reason.
_HINT_EXPECT = {
    "controlled_scalar": ("CERTIFIED", -0.5),
    "fluid_queue": ("INCONCLUSIVE", None),
    "linear_2d": ("CERTIFIED", None),
    "predator_prey": (None, None),
    "switched_ou": ("CERTIFIED", -1.0),
}


def certify(ctx: Context) -> list:
    sw = ctx.sw
    ou = ctx.models["switched_ou"]
    spec0, lin0 = sw.registry.registry_get(
        "controlled_scalar",
        {"A": 1.0, "B": 1.0, "sigma": 0.0, "L": 0.0, "c": 1.0, "controllable": [1]})
    ops = []
    for name in CONFIG_NAMES:
        loaded = ctx.models[name]
        ops.append(Op(
            f"certify.{name}.hint{loaded.truncation_hint}",
            partial(lambda lm: sw.certify.certify_recurrence(lm.lin, lm.truncation_hint), loaded),
            check_certificate(*_HINT_EXPECT[name]),
            "predator_prey-certify-at-hint" if name == "predator_prey" else None))
    for n in (30, 100, 300, 700, 1000, 2000):
        ops.append(Op(
            f"certify.switched_ou.N{n}",
            partial(lambda n: sw.certify.certify_recurrence(ou.lin, n), n),
            check_certificate("CERTIFIED", -1.0),
            "ou-underflow-N>=700" if n >= 700 else None))
    for n in (30, 300, 1000):
        for form in ("thm37", "thm41"):
            ops.append(Op(
                f"search_gain.controlled_scalar.{form}.N{n}",
                partial(lambda n, form: sw.certify.search_gain(
                    lin0, spec0.meta["input_matrix"], spec0.meta["controllable"], n,
                    form=form), n, form),
                check_gain,
                "search_gain-rounding-N>=100" if n >= 100 else None))
    ops.append(Op(
        "convergence_sweep.switched_ou",
        lambda: sw.chain.convergence_sweep(ou.lin.qhat, [10, 20, 40, 80]),
        check_sweep))
    return ops


# -- cli ---------------------------------------------------------------------

def _cli(ctx: Context, argv: list):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = ctx.sw.cli.main([str(a) for a in argv])
    return code, err.getvalue()


def _params(ctx: Context, name: str) -> dict:
    return _read(ctx.config_path(name))["params"]


def _read(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cli_ok(result, allowed=(0,)):
    code, err = result[:2]
    expect(code in allowed, f"exit {code}: {err.strip()[:200]}")


def _same_dirs(a: str, b: str) -> None:
    names = sorted(os.listdir(a))
    expect(names == sorted(os.listdir(b)), f"{a} and {b} hold different files")
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    expect(not mismatch and not errors, f"rerun differs in {mismatch + errors}")


def cli(ctx: Context) -> list:
    ops = []
    dt, dynkin_t = 1.0 / 64, 0.5

    def add(label, argv, check, defect=None):
        def run():
            out = ctx.out(label)
            return _cli(ctx, argv + ["--out", out]) + (out,)

        ops.append(Op(f"cli.{label}", run, check, defect))

    for name in CONFIG_NAMES:
        path = ctx.config_path(name)
        hint = ctx.models[name].truncation_hint
        seed = ctx.seed()

        sim = ["simulate", "--model", path, "--T", "40", "--stride", "1", "--seed", seed]

        def check_sim(res):
            _cli_ok(res)
            summary = _read(os.path.join(res[2], "summary.json"))
            expect(summary["n_recorded"] >= 2 and not summary["blow_up"], f"summary {summary}")

        def check_rerun(res, name=name):
            check_sim(res)
            _same_dirs(ctx.out(f"simulate.{name}.a"), res[2])

        add(f"simulate.{name}.a", sim, check_sim)
        add(f"simulate.{name}.b", sim, check_rerun)

        verdict, partial_sum = _HINT_EXPECT[name]

        def check_cert(res, verdict=verdict, expected=check_certificate(verdict, partial_sum)):
            _cli_ok(res, {"CERTIFIED": (0,), "INCONCLUSIVE": (1,)}.get(verdict, (0, 1)))
            cert = _read(os.path.join(res[2], "certificate.json"))
            expected(SimpleNamespace(**cert))

        add(f"certify.{name}", ["certify", "--model", path], check_cert,
            "predator_prey-certify-at-hint" if name == "predator_prey" else None)

        def check_stationary(res, hint=hint):
            _cli_ok(res)
            doc = _read(os.path.join(res[2], "stationary.json"))
            nu = np.asarray(doc["nu"])
            expect(nu.size == hint and abs(nu.sum() - 1.0) <= 1e-9 and nu.min() >= 0.0,
                   "stationary law is not a probability vector of length N")
            expect(doc["residual"] <= 1e-10 and len(doc["sweep"]) == 3,
                   f"residual {doc['residual']:.3g}, sweep of {len(doc['sweep'])} levels")

        add(f"stationary.{name}", ["stationary", "--model", path, "--levels", "10,20,30"],
            check_stationary)

        common = ["--model", path, "--dt", dt, "--seed", seed]

        def check_verify(res, estimator):
            _cli_ok(res)
            doc = _read(os.path.join(res[2], f"verify_{estimator}.json"))
            if estimator in ("hitting", "descent"):
                est = doc["estimate"]
                expect(est["usable"] and math.isfinite(est["mean"]), f"estimate {est}")
            elif estimator == "coupling":
                for row in doc["table"]:
                    lo, hi = row["ci95"]
                    expect(0.0 <= lo <= row["p_decouple"] <= hi <= 1.0, f"coupling row {row}")
            else:
                d = np.asarray(doc["l1_distances"])
                expect(np.allclose(d, d.T) and np.all(np.diag(d) == 0.0)
                       and np.all((d >= 0) & (d <= 2.0 + 1e-12)), f"l1 distances {d}")

        verify_args = {
            # paths stop at the hit; the long horizon only makes censoring negligible
            "hitting": ["--x0", "2", "--i0", "3", "--T", "50", "--paths", ctx.paths(4)],
            "descent": ["--i0", "4", "--k0", "1", "--T", "50", "--paths", ctx.paths(4)],
            "coupling": ["--i0", "3", "--T", "5", "--radii", "10,1000",
                         "--paths", ctx.paths(20)],
            "occupation": ["--T", "10", "--burn-in", "2", "--starts", "1,5",
                           "--paths", ctx.paths(4)],
        }
        for estimator, extra in verify_args.items():
            add(f"verify.{estimator}.{name}", ["verify", estimator] + common + extra,
                partial(check_verify, estimator=estimator))

        # fluid_queue has no noise and a drift bounded by F = max|f|: the Euler
        # residual of V = x^2 is then a bias in [0, t * dt * F^2], not noise
        slack = 0.0
        if name == "fluid_queue":
            speed = max(abs(v) for v in _params(ctx, name)["f"])
            slack = dynkin_t * dt * speed**2

        def check_dynkin_cli(res, slack=slack):
            _cli_ok(res)
            est = _read(os.path.join(res[2], "dynkin.json"))["residual"]
            expect(est["usable"] and abs(est["mean"]) < Z_MAX * est["std_error"] + slack,
                   f"|mean| >= {Z_MAX} * SE + {slack:.4g}: {est}")

        add(f"dynkin.{name}",
            ["dynkin"] + common + ["--t", dynkin_t, "--paths", ctx.paths(32)],
            check_dynkin_cli)

    def check_stabilize(res):
        _cli_ok(res)
        doc = _read(os.path.join(res[2], "stabilization.json"))
        expect(doc["found"] and doc["certificate"]["verdict"] == "CERTIFIED",
               f"stabilize found={doc['found']}")

    add("stabilize.controlled_scalar",
        ["stabilize", "--model", ctx.config_path("controlled_scalar")], check_stabilize)
    return ops


# nominal seconds per pass on a 2-core x86-64 machine; with --seconds they fix
# the pass count, so every run of a workload pools the same number of ops
NOMINAL_PASS_S = {"mc-pathdep": 6.0, "mc-batch": 7.0, "certify": 2.8, "cli": 4.0}

BUILDERS = {"mc-pathdep": mc_pathdep, "mc-batch": mc_batch, "certify": certify, "cli": cli}


def build_ops(workload: str, ctx: Context) -> list:
    ops = BUILDERS[workload](ctx)
    names = [op.name for op in ops]
    assert len(set(names)) == len(names), "op names must be unique"
    return ops
