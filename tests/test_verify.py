import math
import pickle
import tracemalloc
import warnings
from unittest import mock
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    group_generator,
    path_dynkin,
    path_hitting_times,
    path_occupation,
    per_start_coupling,
    per_start_occupation,
    plan_dynkin_residual,
    settle_counts,
)

import switchsde.verify
from switchsde.chain import SparseGenerator
from switchsde.config import load_model_config
from switchsde.model import Linearization, ModelSpec
from switchsde.registry import registry_get
from switchsde.segment import Segment
from switchsde.sim import BatchEnsemble, SimConfig, simulate, simulate_coupled
from switchsde.cli import _FUNCTIONALS
from switchsde.verify import (
    _collect,
    _diffusion_trace,
    _generator,
    _norms,
    _row_sums,
    _sojourn_counts,
    MCEstimate,
    ProductFunctional,
    apply_generator,
    coupling_decay,
    _block_generator,
    _snapshot,
    _Trapezoid,
    dynkin_residual,
    estimate_hitting_time,
    estimate_mode_descent,
    occupation_fractions,
    occupation_stability,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

QUAD = ProductFunctional(
    f1=lambda x, i: (np.asarray(x, dtype=float) ** 2).sum(axis=-1),
    grad_f1=lambda x, i: 2.0 * np.asarray(x, dtype=float),
    hess_f1=lambda x, i: 2.0 * np.eye(np.asarray(x).shape[-1]),
)


def scalar_spec(
    drift,
    diffusion=None,
    rates=None,
    bound=1.0,
    delay=1.0,
    history_rates=True,
):
    return ModelSpec(
        dim=1,
        brownian_dim=1,
        drift=drift,
        diffusion=diffusion or (lambda x, i: np.zeros((1, 1))),
        rates_row=rates or (lambda seg, i: {}),
        rate_bound=bound,
        delay=delay,
        zero_diffusion=diffusion is None,
        rates_depend_on_path=history_rates,
    )


def mode_cost_functional(costs):
    table = dict(costs)

    def level(i):
        return float(table.get(i, 0.0))

    return ProductFunctional(
        f1=lambda x, i: np.full(np.asarray(x).shape[:-1], level(i)),
        grad_f1=lambda x, i: np.zeros_like(np.asarray(x, dtype=float)),
        hess_f1=lambda x, i: np.zeros((np.asarray(x).shape[-1],) * 2),
    )


def test_value_terminal_only():
    seg = Segment.make_constant([1.5], 1.0, 0.25)
    assert QUAD.value(seg, 1) == pytest.approx(2.25)


def test_value_with_time_kernel_is_trapezoid():
    fn = ProductFunctional(
        f1=lambda x, i: 0.0 * np.asarray(x)[..., 0],
        grad_f1=lambda x, i: np.zeros_like(np.asarray(x, dtype=float)),
        hess_f1=lambda x, i: np.zeros((1, 1)),
        f2=lambda x, i: np.asarray(x)[..., 0],
        g=lambda s, i: s + 1.0,
        dg=lambda s, i: 1.0,
    )
    samples = np.linspace(-1.0, 0.0, 5)[:, None]  # phi(s) = s
    seg = Segment(samples, delay=1.0, dt=0.25)
    # trapezoid of (s + 1) * s on the 5-point grid
    s = np.linspace(-1.0, 0.0, 5)
    w = np.array([0.5, 1, 1, 1, 0.5]) * 0.25
    assert fn.value(seg, 1) == pytest.approx(float(w @ ((s + 1) * s)))
    with pytest.raises(ValueError):
        ProductFunctional(
            f1=lambda x, i: 0.0,
            grad_f1=lambda x, i: 0.0,
            hess_f1=lambda x, i: 0.0,
            f2=lambda x, i: 0.0,
        )


def test_generator_pure_diffusion():
    model = scalar_spec(lambda x, i: np.zeros(1), diffusion=lambda x, i: np.array([[1.0]]))
    seg = Segment.make_constant([0.7], 1.0, 0.25)
    assert apply_generator(QUAD, model, seg, 1) == pytest.approx(1.0)


def test_generator_linear_drift():
    model = scalar_spec(lambda x, i: -np.asarray(x, dtype=float))
    seg = Segment.make_constant([1.5], 1.0, 0.25)
    # zero diffusion: only the transport term -2 x^2 remains
    assert apply_generator(QUAD, model, seg, 1) == pytest.approx(-4.5)


def test_generator_switching_part():
    fn = mode_cost_functional({1: 0.0, 2: 5.0})
    model = scalar_spec(lambda x, i: np.zeros(1), rates=lambda seg, i: {2: 0.3} if i == 1 else {1: 1.0}, bound=1.0)
    seg = Segment.make_constant([0.0], 1.0, 0.25)
    assert apply_generator(fn, model, seg, 1) == pytest.approx(0.3 * 5.0)
    assert apply_generator(fn, model, seg, 2) == pytest.approx(-5.0)


def test_generator_time_kernel_part():
    fn = ProductFunctional(
        f1=lambda x, i: 0.0 * np.asarray(x)[..., 0],
        grad_f1=lambda x, i: np.zeros_like(np.asarray(x, dtype=float)),
        hess_f1=lambda x, i: np.zeros((1, 1)),
        f2=lambda x, i: np.asarray(x)[..., 0],
        g=lambda s, i: s + 1.0,
        dg=lambda s, i: 1.0,
    )
    model = scalar_spec(lambda x, i: np.zeros(1))
    seg = Segment(np.linspace(-1.0, 0.0, 5)[:, None], delay=1.0, dt=0.25)
    # g(0) phi(0) - g(-r) phi(-r) - trapz(phi * dg) = 0 - 0 + 0.5
    assert apply_generator(fn, model, seg, 1) == pytest.approx(0.5)


def test_dynkin_engines_agree_on_deterministic_model():
    model = scalar_spec(lambda x, i: -np.asarray(x, dtype=float), history_rates=False)
    phi0 = Segment.make_constant([1.0], 1.0, 0.01)
    # bernoulli advances on the grid only, so both engines see one trajectory
    cfg = SimConfig(dt=0.01, horizon=1.0, seed=0, scheme="bernoulli")
    a = path_dynkin(QUAD, model, phi0, 1, 1.0, cfg, 3)
    b = dynkin_residual(QUAD, model, phi0, 1, 1.0, cfg, 3, engine="batch")
    assert a.mean() == pytest.approx(b.mean, abs=1e-12)
    # pure Euler bias, first order in dt
    assert abs(a.mean()) < 0.01
    assert a.size == 3 and b.censored_fraction == 0.0


def test_dynkin_time_kernel_engines_agree():
    fn = ProductFunctional(
        f1=lambda x, i: (np.asarray(x, dtype=float) ** 2).sum(axis=-1),
        grad_f1=lambda x, i: 2.0 * np.asarray(x, dtype=float),
        hess_f1=lambda x, i: 2.0 * np.eye(1),
        f2=lambda x, i: (np.asarray(x, dtype=float) ** 2).sum(axis=-1),
        g=lambda s, i: s + 1.0,
        dg=lambda s, i: 1.0,
    )
    model = scalar_spec(lambda x, i: -np.asarray(x, dtype=float), history_rates=False)
    phi0 = Segment.make_constant([1.0], 1.0, 0.05)
    cfg = SimConfig(dt=0.05, horizon=2.0, seed=0, scheme="bernoulli")
    a = path_dynkin(fn, model, phi0, 1, 2.0, cfg, 2)
    b = dynkin_residual(fn, model, phi0, 1, 2.0, cfg, 2, engine="batch")
    assert a.mean() == pytest.approx(b.mean, abs=1e-10)
    assert abs(a.mean()) < 0.2


def test_dynkin_brownian_quadratic_centered():
    model = scalar_spec(
        lambda x, i: np.zeros_like(np.asarray(x, dtype=float)),
        diffusion=lambda x, i: np.array([[1.0]]),
        history_rates=False,
    )
    phi0 = Segment.make_constant([0.0], 1.0, 0.01)
    cfg = SimConfig(dt=0.01, horizon=1.0, seed=42)
    est = dynkin_residual(QUAD, model, phi0, 1, 0.5, cfg, 500)
    assert est.n_samples == 500
    assert abs(est.mean) < 4.0 * est.std_error + 1e-3


def test_dynkin_switching_functional_centered():
    fn = mode_cost_functional({1: 0.0, 2: 1.0})
    model = scalar_spec(
        lambda x, i: np.zeros_like(np.asarray(x, dtype=float)),
        rates=lambda seg, i: {2: 1.0} if i == 1 else {1: 2.0},
        bound=2.0,
        history_rates=False,
    )
    phi0 = Segment.make_constant([0.0], 1.0, 0.01)
    cfg = SimConfig(dt=0.01, horizon=1.0, seed=3)
    est = dynkin_residual(fn, model, phi0, 1, 1.0, cfg, 300, engine="batch")
    assert abs(est.mean) < 4.0 * est.std_error + 0.05
    res = path_dynkin(fn, model, phi0, 1, 1.0, cfg, 300)
    assert abs(res.mean()) < 4.0 * res.std(ddof=1) / math.sqrt(res.size) + 0.05


def test_dynkin_engine_flag_validation():
    # "auto" and "batch" name the one engine; the per-path engine is no
    # longer an option
    model = scalar_spec(lambda x, i: np.zeros(1))
    phi0 = Segment.make_constant([0.0], 1.0, 0.1)
    cfg = SimConfig(dt=0.1, horizon=1.0)
    est = dynkin_residual(QUAD, model, phi0, 1, 1.0, cfg, 2, engine="batch")
    assert repr(est) == repr(dynkin_residual(QUAD, model, phi0, 1, 1.0, cfg, 2))
    for engine in ("paths", "bogus"):
        with pytest.raises(ValueError):
            dynkin_residual(QUAD, model, phi0, 1, 1.0, cfg, 2, engine=engine)
    with pytest.raises(ValueError):
        dynkin_residual(QUAD, model, phi0, 1, 0.001, cfg, 2)


def test_hitting_time_deterministic_decay():
    model = scalar_spec(lambda x, i: -np.asarray(x, dtype=float), delay=0.01)
    phi0 = Segment.make_constant([math.e], 0.01, 0.01)
    cfg = SimConfig(dt=0.01, horizon=10.0, seed=0)
    est = estimate_hitting_time(model, phi0, 1, 1.0, 1, cfg, 2)
    # crossing is detected one window behind the continuous time ln(e) = 1
    assert est.mean == pytest.approx(1.01, abs=1e-9)
    assert est.censored_fraction == 0.0
    assert est.usable
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=f"^radius must be positive, got {bad!r}$"):
            estimate_hitting_time(model, phi0, 1, bad, 1, cfg, 2)


def test_hitting_time_censors_blow_ups():
    model = scalar_spec(lambda x, i: np.asarray(x, dtype=float) ** 3)
    phi0 = Segment.make_constant([5.0], 1.0, 0.1)
    cfg = SimConfig(dt=0.1, horizon=3.0, seed=0)
    est = estimate_hitting_time(model, phi0, 1, 0.5, 1, cfg, 3)
    assert est.censored_fraction == 1.0
    assert not est.usable
    assert math.isnan(est.mean)


def test_mode_descent_exponential_mean():
    spec, _ = registry_get("switched_ou", {"c": 0.0, "sigma": 0.0, "delay": 1.0})
    phi0 = Segment.make_constant([0.0], 1.0, 0.02)
    cfg = SimConfig(dt=0.02, horizon=30.0, seed=17)
    est = estimate_mode_descent(spec, phi0, 5, 2, cfg, 800)
    # two unit-rate routes into the base pair: descent time is Exp(2)
    assert est.censored_fraction == 0.0
    assert abs(est.mean - 0.5) < 0.05


def test_descent_immediate_when_already_low():
    spec, _ = registry_get("switched_ou", {"c": 0.0})
    phi0 = Segment.make_constant([0.0], 1.0, 0.125)
    cfg = SimConfig(dt=0.125, horizon=5.0, seed=0)
    est = estimate_mode_descent(spec, phi0, 1, 2, cfg, 4)
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_coupling_decay_table():
    spec, lin = registry_get("switched_ou", {"c": 1.0, "sigma": 0.5})
    cfg = SimConfig(dt=1.0 / 16.0, horizon=5.0, seed=23)
    rows = coupling_decay(spec, lin, [5.0, 500.0], cfg, 400)
    assert [r["radius"] for r in rows] == [5.0, 500.0]
    for r in rows:
        assert 0.0 <= r["p_decouple"] <= 1.0
        assert r["ci95"][0] <= r["p_decouple"] <= r["ci95"][1]
        assert r["n_paths"] == 400
    assert rows[0]["p_decouple"] > rows[1]["p_decouple"]
    # the coupling always runs by thinning, whatever the scheme
    assert coupling_decay(spec, lin, [5.0, 500.0], replace(cfg, scheme="bernoulli"), 400) == rows
    with pytest.raises(ValueError):
        coupling_decay(spec, lin, [5.0], cfg, 10, floor_frac=1.5)


def test_coupling_blow_up_in_the_parting_step_is_censored():
    # every path blows up in its first step, and nearly every coupled pair
    # parts in that step too (model rate 50 out of mode 1, reference rate 0):
    # like a hitting path, such a path leaves uncounted
    model = scalar_spec(lambda x, i: np.full(np.shape(x), np.inf),
                        rates=lambda seg, i: {2: 50.0} if i == 1 else {1: 1.0},
                        bound=50.0, history_rates=False)
    lin = Linearization(
        b_mat=lambda i: np.zeros((1, 1)),
        sigma_mats=lambda i: [np.zeros((1, 1))],
        qhat=SparseGenerator.from_triplets([(2, 1, 1.0)]),
        coeff_bound=1.0,
    )
    cfg = SimConfig(dt=0.125, horizon=1.0, seed=2)
    eng = BatchEnsemble(model, Segment.make_constant([1.0], 1.0, cfg.dt), 1, cfg, 40,
                        qhat=lin.qhat)
    eng.step()
    assert eng.blown.all() and np.isfinite(eng.decouple_time).sum() > 30
    for floor_frac in (0.5, 0.0):
        (row,) = coupling_decay(model, lin, [1.0], cfg, 40, floor_frac=floor_frac)
        assert row["p_decouple"] == 0.0


def dropping_row(seg, i):
    """Rates that read the history and break the fixed-targets rule: mode
    1's row drops its target 3 once every window is below 1/4."""
    if i > 1:
        return {1: 2.0}
    return {2: 1.0} if np.all(np.asarray(seg.sup_norm()) < 0.25) else {2: 1.0, 3: 1.0}


_DROPPING_RUNS = {
    "thinning": lambda m, lin, phi0, cfg: BatchEnsemble(m, phi0, 1, cfg, 8).run(192),
    "coupled": lambda m, lin, phi0, cfg: coupling_decay(m, lin, [2.0], cfg, 8, floor_frac=0.0),
    "bernoulli": lambda m, lin, phi0, cfg: BatchEnsemble(
        m, phi0, 1, replace(cfg, scheme="bernoulli"), 8).run(192),
    "dynkin": lambda m, lin, phi0, cfg: dynkin_residual(QUAD, m, phi0, 1, 6.0, cfg, 8),
    "simulate": lambda m, lin, phi0, cfg: simulate(m, phi0, 1, cfg),
}


@pytest.mark.parametrize("run", sorted(_DROPPING_RUNS))
def test_a_row_that_changes_its_targets_is_refused(run):
    # the states decay from 2 with no noise, so mode 1's first rows go to
    # 2 and 3 and its rows after t = ln 8 + 1/2 to 2 alone: every engine
    # refuses the first such row by its mode
    model = scalar_spec(lambda x, i: -np.asarray(x, dtype=float), rates=dropping_row,
                        bound=2.0, delay=0.5)
    lin = Linearization(
        b_mat=lambda i: -np.eye(1),
        sigma_mats=lambda i: [np.zeros((1, 1))],
        qhat=SparseGenerator(lambda i: {2: 1.0, 3: 1.0} if i == 1 else {1: 2.0}, rate_bound=2.0),
        coeff_bound=1.0,
    )
    cfg = SimConfig(dt=1.0 / 32, horizon=6.0, seed=4)
    phi0 = Segment.make_constant([2.0], model.delay, cfg.dt)
    with pytest.raises(ValueError, match=r"rates out of mode 1 go to \[2\], not to the "
                                         r"targets \[2, 3\] of its first row"):
        _DROPPING_RUNS[run](model, lin, phi0, cfg)


SHIPPED = ["controlled_scalar", "fluid_queue", "linear_2d", "predator_prey", "switched_ou"]


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("name", SHIPPED)
def test_one_cohort_calls_are_the_per_start_run(name):
    # a call with one radius or one start runs that start alone on the
    # stream (seed, 1): the bytes of the per-start loop, which every call
    # ran before the cohorts shared one ensemble
    loaded = load_model_config(str(CONFIG_DIR / f"{name}.json"))
    spec, lin = loaded.spec, loaded.lin
    for seed in (1, 2, 3):
        cfg = SimConfig(dt=1.0 / 32, horizon=3.0, seed=seed)
        for r in (1.0, 20.0):
            got = coupling_decay(spec, lin, [r], cfg, 16, i0=3)
            assert pickle.dumps(got) == pickle.dumps(per_start_coupling(spec, lin, [r], cfg, 16, i0=3))
        for level in (0.5, 2.0):
            start = [np.full(spec.dim, level)]
            got = occupation_stability(spec, start, cfg, 8, 1.0)
            assert pickle.dumps(got) == pickle.dumps(per_start_occupation(spec, start, cfg, 8, 1.0))


def test_cohorts_follow_the_per_start_law():
    """Each cohort of a several-start call against its start run alone.

    The per-start oracle runs at another seed, so the two are independent.
    Coupling: a pooled two-sample binomial z per radius; at 1,000 paths a
    side (p near 0.47 and 0.12) |z| >= 4 has probability 6.3e-5 under the
    normal approximation.  Occupation: every one of the n = 2,000 paths
    per side adds a probability vector f_p / n to its histogram (no path
    blows up), so the l1 distance L between a cohort's histogram and the
    oracle's moves by at most 2 / n per path and McDiarmid gives
    P(L >= E L + t) <= exp(-n t^2 / 4); with E L <= sqrt(2 * 84 / n) = 0.29
    (84 cells, Cauchy-Schwarz), L >= 0.45 has probability below 4e-6.
    Over the five comparisons the false-failure rate is below 4e-4.  A
    cohort given another start's paths or histogram reads L near 1 and
    z above 10.
    """
    spec, lin = registry_get("switched_ou", {"c": 1.0, "sigma": 0.5})
    radii = [1.0, 10.0]
    cfg = SimConfig(dt=1.0 / 16, horizon=5.0, seed=23)
    rows = coupling_decay(spec, lin, radii, cfg, 1000)
    ref = per_start_coupling(spec, lin, radii, replace(cfg, seed=24), 1000)
    for row, want in zip(rows, ref):
        pooled = 0.5 * (row["p_decouple"] + want["p_decouple"])
        z = (row["p_decouple"] - want["p_decouple"]) / math.sqrt(pooled * (1 - pooled) * 2 / 1000)
        assert abs(z) < 4.0, (row, want)
    assert rows[0]["p_decouple"] > 0.3 and rows[1]["p_decouple"] < 0.2  # the radii differ

    starts = [[0.5], [2.0], [4.0]]
    cfg = SimConfig(dt=1.0 / 16, horizon=1.0, seed=5)
    rep = occupation_stability(spec, starts, cfg, 2000, burn_in=0.0)
    ref = per_start_occupation(spec, starts, replace(cfg, seed=6), 2000, burn_in=0.0)
    for got, want in zip(rep["histograms"], ref["histograms"]):
        assert np.abs(got - want).sum() < 0.45
    assert rep["distances"][0, 2] > 1.5  # the starts' laws differ at this horizon


def test_coupling_and_occupation_need_a_start():
    # an empty radii or starts list returned an empty table or matrix
    spec, lin = registry_get("switched_ou", {"c": 1.0, "sigma": 0.5})
    cfg = SimConfig(dt=1.0 / 16, horizon=1.0, seed=1)
    with pytest.raises(ValueError, match="radii must hold at least one radius"):
        coupling_decay(spec, lin, [], cfg, 4)
    with pytest.raises(ValueError, match="starts must hold at least one start"):
        occupation_stability(spec, [], cfg, 4, burn_in=0.5)
    with pytest.raises(ValueError, match="radii must be positive"):
        coupling_decay(spec, lin, [1.0, math.nan], cfg, 4)


def test_norms_are_the_bytes_of_linalg_norm():
    # the estimators' stop and bin norms and the linear_2d drift take
    # numpy's own code path of np.linalg.norm without its wrapper: the same
    # bytes on 0, subnormals, 1e200 (whose square overflows to inf) and NaN
    cases = [0.0, 5e-324, -2.5e-310, 1e200, math.nan, 3.0]
    x = np.array([[a, b] for a in cases for b in cases])
    with np.errstate(over="ignore", invalid="ignore"):  # inf / inf in the rates
        assert _norms(x).tobytes() == np.linalg.norm(x, axis=-1).tobytes()
        assert _norms(x[:, :1]).tobytes() == np.linalg.norm(x[:, :1], axis=-1).tobytes()

        b_mat, a_vec = np.array([[-1.0, 0.5], [0.0, -2.0]]), np.array([0.3, -0.2])
        spec, _ = registry_get("linear_2d", {"B": b_mat.tolist(), "A": a_vec.tolist()})
        want = x @ b_mat.T + a_vec / (1.0 + np.linalg.norm(x, axis=-1, keepdims=True))
        assert spec.drift(x, 1).tobytes() == want.tobytes()

        # the controlled_scalar rates take |z| itself, which has the norm's
        # bytes wherever z * z is 0 or a normal double (0 and 3 here); the
        # norm of 1e200 overflows, and the rate was then NaN
        spec, _ = registry_get("controlled_scalar", {"c": 2.0})
        for v in filter(math.isfinite, cases):  # a window holds finite samples
            seg = Segment.make_constant([v], spec.delay, spec.delay / 4)
            z = np.abs(seg.value_at(-seg.delay)[0])
            if v in (0.0, 3.0):
                assert z.tobytes() == np.linalg.norm(seg.value_at(-seg.delay)).tobytes()
            got = spec.rates_row(seg, 2)
            assert [np.asarray(r).tobytes() for r in got.values()] == [
                np.asarray(z / (2.0 + z)).tobytes()] * len(got)


def test_coupling_skips_the_bernoulli_step_check():
    # dt * rate_bound is 6.43 on predator_prey, far past the bernoulli limit
    # of 0.5; the coupling runs by thinning, so that limit does not apply
    loaded = load_model_config(CONFIG_DIR / "predator_prey.json")
    cfg = SimConfig(dt=0.015625, horizon=2.0, seed=5)
    rows = coupling_decay(loaded.spec, loaded.lin, [10.0, 1000.0], cfg, 40)
    bern = replace(cfg, scheme="bernoulli")
    assert coupling_decay(loaded.spec, loaded.lin, [10.0, 1000.0], bern, 40) == rows


def test_occupation_fractions_two_mode_balance():
    a, b = 1.0, 3.0
    rates = lambda seg, i: {2: a} if i == 1 else {1: b}
    cached = scalar_spec(lambda x, i: np.zeros_like(np.asarray(x, dtype=float)), rates=rates, bound=a + b, history_rates=False)
    phi0 = Segment.make_constant([0.0], 1.0, 0.05)
    cfg = SimConfig(dt=0.05, horizon=40.0, seed=4)
    means, ses = occupation_fractions(cached, phi0, 1, cfg, 150, [1, 2], burn_in=5.0)
    assert means[0] + means[1] == pytest.approx(1.0)
    assert abs(means[0] - 0.75) < 5.0 * ses[0] + 0.01

    windowed = scalar_spec(lambda x, i: np.zeros_like(np.asarray(x, dtype=float)), rates=rates, bound=a + b)
    m2, s2 = occupation_fractions(windowed, phi0, 1, cfg, 60, [1, 2], burn_in=5.0)
    gap = abs(means[0] - m2[0])
    assert gap < 4.0 * math.sqrt(ses[0] ** 2 + s2[0] ** 2) + 0.01


def test_occupation_fraction_burn_in_validation():
    model = scalar_spec(lambda x, i: np.zeros(1))
    phi0 = Segment.make_constant([0.0], 1.0, 0.1)
    cfg = SimConfig(dt=0.1, horizon=1.0)
    with pytest.raises(ValueError):
        occupation_fractions(model, phi0, 1, cfg, 2, [1], burn_in=1.0)


def test_occupation_fractions_rejects_a_repeated_mode():
    # one column per entry of modes_track, but one index per distinct mode
    model = scalar_spec(lambda x, i: np.zeros(1), rates=lambda seg, i: {3 - i: 1.0})
    phi0 = Segment.make_constant([0.0], 1.0, 0.1)
    cfg = SimConfig(dt=0.1, horizon=1.0)
    with pytest.raises(ValueError, match=r"repeats mode\(s\) \[1\]"):
        occupation_fractions(model, phi0, 1, cfg, 4, [1, 1, 2])


@pytest.mark.parametrize("n_paths", [0, 1])
def test_occupation_fractions_needs_two_paths(n_paths):
    # a standard error over paths needs two of them
    model = scalar_spec(lambda x, i: np.zeros(1))
    phi0 = Segment.make_constant([0.0], 1.0, 0.1)
    cfg = SimConfig(dt=0.1, horizon=1.0)
    with pytest.raises(ValueError, match="n_paths must be at least 2"):
        occupation_fractions(model, phi0, 1, cfg, n_paths, [1])


def test_occupation_stability_rejects_nan_burn_in(monkeypatch):
    # NaN compares false with the horizon; it must fail before any path runs
    def no_engine(*args, **kwargs):
        raise AssertionError("simulated before checking burn_in")

    monkeypatch.setattr(switchsde.verify, "BatchEnsemble", no_engine)
    model = scalar_spec(lambda x, i: np.zeros(1))
    cfg = SimConfig(dt=0.1, horizon=1.0)
    with pytest.raises(ValueError, match="burn_in must be below the horizon"):
        occupation_stability(model, [[0.0]], cfg, 2, burn_in=math.nan)


def test_occupation_stability_rejects_a_negative_burn_in(monkeypatch):
    # a negative burn_in once counted from step 0, as burn_in = 0 does
    def no_engine(*args, **kwargs):
        raise AssertionError("simulated before checking burn_in")

    monkeypatch.setattr(switchsde.verify, "BatchEnsemble", no_engine)
    model = scalar_spec(lambda x, i: np.zeros(1))
    cfg = SimConfig(dt=0.1, horizon=1.0)
    with pytest.raises(ValueError, match="^burn_in must be nonnegative, got -5.0$"):
        occupation_stability(model, [[0.0]], cfg, 2, burn_in=-5.0)


@pytest.mark.parametrize("n_paths", [0, -3])
def test_coupling_and_occupation_stability_need_a_path(n_paths):
    # at n_paths = 0 coupling_decay divided by zero, occupation_stability
    # blamed the horizon and the other three returned a NaN estimate; a
    # negative count failed in numpy.  The engine names the path count
    spec, lin = registry_get("switched_ou", {"c": 1.0, "sigma": 0.5})
    cfg = SimConfig(dt=1.0 / 16, horizon=1.0, seed=1)
    phi0 = Segment.make_constant([1.0], spec.delay, cfg.dt)
    calls = (
        lambda: coupling_decay(spec, lin, [1.0], cfg, n_paths),
        lambda: occupation_stability(spec, [[1.0]], cfg, n_paths, burn_in=0.5),
        lambda: estimate_hitting_time(spec, phi0, 1, 0.5, 1, cfg, n_paths),
        lambda: estimate_mode_descent(spec, phi0, 3, 1, cfg, n_paths),
        lambda: dynkin_residual(QUAD, spec, phi0, 1, 0.5, cfg, n_paths),
        lambda: BatchEnsemble(spec, phi0, 1, cfg, n_paths),
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"n_paths must be an integer >= 1, got {n_paths}"):
            call()


def test_a_fractional_path_count_is_refused():
    # int() once floored it: 4.5 ran 4 paths, reported n_samples 4.5 and a
    # censored fraction of 0.111 with no path censored
    spec, _ = registry_get("switched_ou", {"c": 1.0, "sigma": 0.5})
    cfg = SimConfig(dt=1.0 / 16, horizon=1.0, seed=1)
    phi0 = Segment.make_constant([1.0], spec.delay, cfg.dt)
    with pytest.raises(ValueError, match="n_paths must be an integer >= 1, got 4.5"):
        estimate_mode_descent(spec, phi0, 3, 2, cfg, 4.5)
    for bad in (2.9, 2.0, "3"):
        with pytest.raises(ValueError, match=f"n_paths must be an integer >= 1, got {bad!r}"):
            BatchEnsemble(spec, phi0, 1, cfg, bad)
    assert BatchEnsemble(spec, [phi0, phi0], 1, cfg, np.int64(3)).n_paths == 6
    est = estimate_mode_descent(spec, phi0, 3, 2, cfg, np.int64(4))
    assert est.to_dict() == estimate_mode_descent(spec, phi0, 3, 2, cfg, 4).to_dict()


# each entry point that takes a mode: (the name it refuses a mode by, call
# with that mode set to ``bad``, on switched_ou's spec and linearization,
# start window and config)
_MODE_ENTRIES = {
    "simulate": ("i0", lambda spec, lin, phi0, cfg, bad: simulate(spec, phi0, bad, cfg)),
    "BatchEnsemble": ("i0", lambda spec, lin, phi0, cfg, bad: BatchEnsemble(
        spec, phi0, bad, cfg, 4)),
    "simulate_coupled": ("i0", lambda spec, lin, phi0, cfg, bad: simulate_coupled(
        spec, lin, phi0, bad, cfg)),
    "coupling_decay": ("i0", lambda spec, lin, phi0, cfg, bad: coupling_decay(
        spec, lin, [1.0], cfg, 4, i0=bad)),
    "occupation_stability": ("i0", lambda spec, lin, phi0, cfg, bad: occupation_stability(
        spec, [[1.0]], cfg, 4, burn_in=0.5, i0=bad)),
    "dynkin_residual": ("i0", lambda spec, lin, phi0, cfg, bad: dynkin_residual(
        QUAD, spec, phi0, bad, 0.5, cfg, 4)),
    "estimate_hitting_time": ("k0", lambda spec, lin, phi0, cfg, bad: estimate_hitting_time(
        spec, phi0, 3, 0.5, bad, cfg, 4)),
    "estimate_mode_descent": ("k0", lambda spec, lin, phi0, cfg, bad: estimate_mode_descent(
        spec, phi0, 3, bad, cfg, 4)),
    "occupation_fractions": ("tracked mode", lambda spec, lin, phi0, cfg, bad: (
        occupation_fractions(spec, phi0, 1, cfg, 4, [bad, 3]))),
}


@pytest.mark.parametrize("bad", [2.5, True])
@pytest.mark.parametrize("entry", sorted(_MODE_ENTRIES))
def test_a_fractional_or_boolean_mode_is_refused(entry, bad):
    # modes were once compared with 1 and cast by int() or numpy: simulate
    # and BatchEnsemble ran i0 = 2.5 in mode 2, a k0 of 1.5 stopped at mode
    # 1, and modes_track [1.5, 3] and [True, 3] both counted mode 1
    spec, lin = registry_get("switched_ou", {"c": 1.0, "sigma": 0.5})
    cfg = SimConfig(dt=1.0 / 16, horizon=1.0, seed=1)
    phi0 = Segment.make_constant([1.0], spec.delay, cfg.dt)
    name, call = _MODE_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got {bad!r}"):
        call(spec, lin, phi0, cfg, bad)


def test_a_mode_below_one_and_a_numpy_mode():
    # a start mode below 1 keeps its message; numpy integers pass as modes
    spec, lin = registry_get("switched_ou", {"c": 1.0, "sigma": 0.5})
    cfg = SimConfig(dt=1.0 / 16, horizon=1.0, seed=1)
    phi0 = Segment.make_constant([1.0], spec.delay, cfg.dt)
    for bad in (0, -2, np.int64(0), False):
        with pytest.raises(ValueError, match="modes are indexed from 1"):
            BatchEnsemble(spec, phi0, bad, cfg, 4)
    want = pickle.dumps(occupation_fractions(spec, phi0, 2, cfg, 4, [1, 3]))
    assert pickle.dumps(occupation_fractions(spec, phi0, np.int64(2), cfg, 4,
                                             [np.int64(1), np.int64(3)])) == want
    assert (estimate_mode_descent(spec, phi0, 3, np.int64(1), cfg, 4).to_dict()
            == estimate_mode_descent(spec, phi0, 3, 1, cfg, 4).to_dict())


def test_occupation_fractions_rejects_negative_burn_in():
    # a negative burn_in once counted the steps before t = 0 that never ran:
    # on switched_ou the fractions of every mode summed to 0.667 at -2
    spec, _ = registry_get("switched_ou", {"c": 1.0, "sigma": 0.5})
    cfg = SimConfig(dt=1.0 / 16, horizon=4.0, seed=1)
    phi0 = Segment.make_constant([1.0], spec.delay, cfg.dt)
    frac, _ = occupation_fractions(spec, phi0, 1, cfg, 50, range(1, 40))
    assert frac.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError, match="burn_in must be nonnegative, got -2.0"):
        occupation_fractions(spec, phi0, 1, cfg, 50, range(1, 40), burn_in=-2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_times_name_their_argument(bad):
    # int(round(...)) raised "cannot convert float NaN to integer", naming
    # neither burn_in nor t
    model = scalar_spec(lambda x, i: np.zeros(1))
    phi0 = Segment.make_constant([0.0], 1.0, 0.1)
    cfg = SimConfig(dt=0.1, horizon=1.0)
    with pytest.raises(ValueError, match=f"burn_in must be finite, got {bad}"):
        occupation_fractions(model, phi0, 1, cfg, 2, [1], burn_in=bad)
    with pytest.raises(ValueError, match=f"t must be finite, got {bad}"):
        dynkin_residual(QUAD, model, phi0, 1, bad, cfg, 2)


def test_estimators_take_no_threads_keyword():
    # every estimator draws its paths from one stream; estimate_hitting_time
    # keeps an ignored ``threads`` only for the benchmark's calls
    model = scalar_spec(lambda x, i: np.zeros(1))
    lin = Linearization(
        b_mat=lambda i: np.zeros((1, 1)),
        sigma_mats=lambda i: [np.zeros((1, 1))],
        qhat=SparseGenerator(lambda i: {}, rate_bound=1.0),
        coeff_bound=1.0,
    )
    phi0 = Segment.make_constant([0.0], 1.0, 0.1)
    cfg = SimConfig(dt=0.1, horizon=1.0)
    calls = (
        lambda **kw: estimate_mode_descent(model, phi0, 1, 1, cfg, 2, **kw),
        lambda **kw: coupling_decay(model, lin, [1.0], cfg, 2, **kw),
        lambda **kw: occupation_stability(model, [[0.0]], cfg, 2, burn_in=0.5, **kw),
        lambda **kw: occupation_fractions(model, phi0, 1, cfg, 2, [1], **kw),
        lambda **kw: dynkin_residual(QUAD, model, phi0, 1, 1.0, cfg, 2, **kw),
    )
    for call in calls:
        call()
        with pytest.raises(TypeError, match="threads"):
            call(threads=1)


def test_occupation_stability_forgets_start():
    spec, _ = registry_get("switched_ou", {"sigma": 0.5, "c": 1.0})
    cfg = SimConfig(dt=1.0 / 16.0, horizon=30.0, seed=9)
    rep = occupation_stability(spec, [[0.5], [3.0]], cfg, 40, burn_in=15.0)
    d = rep["distances"]
    assert d.shape == (2, 2)
    assert d[0, 0] == 0.0 and d[1, 1] == 0.0
    assert d[0, 1] == pytest.approx(d[1, 0])
    # both chains relax to the same law; pooled histograms nearly agree
    assert d[0, 1] < 0.25
    for h in rep["histograms"]:
        assert h.sum() == pytest.approx(1.0)
    # the counts are binned per block of grid points; they are integers, so
    # blocks of one grid point and of the whole run give the same bytes
    for budget in (1, 10**9):
        with mock.patch.object(switchsde.verify, "_BLOCK_ROWS", budget):
            again = occupation_stability(spec, [[0.5], [3.0]], cfg, 40, burn_in=15.0)
        assert pickle.dumps(again) == pickle.dumps(rep)
    with pytest.raises(ValueError):
        occupation_stability(spec, [[0.5]], cfg, 2, burn_in=50.0)


def test_mcestimate_dict_round_trip():
    est = MCEstimate(1.0, 0.1, 10, 0.0)
    doc = est.to_dict()
    assert doc["usable"] is True
    assert doc["n_samples"] == 10


def test_one_sample_is_not_usable():
    # one sample has a mean but no standard error
    one = _collect([1.0], 5)
    assert one.mean == 1.0 and math.isnan(one.std_error) and not one.usable
    assert not one.to_dict()["usable"]
    assert _collect([1.0, 2.0], 5).usable
    model = scalar_spec(lambda x, i: -np.asarray(x, dtype=float), delay=0.01)
    phi0 = Segment.make_constant([math.e], 0.01, 0.01)
    est = estimate_hitting_time(model, phi0, 1, 1.0, 1, SimConfig(dt=0.01, horizon=10.0), 1)
    assert est.censored_fraction == 0.0 and not est.usable


def test_estimate_with_one_surviving_path_is_not_usable():
    # the drift is infinite at positive states, so a path blows up in the
    # second step when its first Brownian increment is positive
    model = scalar_spec(
        lambda x, i: np.where(np.asarray(x) > 0.0, np.inf, 0.0),
        diffusion=lambda x, i: np.ones(np.shape(x) + (1,)),
        history_rates=False,
    )
    phi0 = Segment.make_constant([0.0], 1.0, 0.1)
    # at seed 3 two of the three increments are positive
    est = dynkin_residual(QUAD, model, phi0, 1, 0.2, SimConfig(dt=0.1, horizon=1.0, seed=3), 3)
    assert est.censored_fraction == pytest.approx(2.0 / 3.0)
    assert math.isfinite(est.mean) and math.isnan(est.std_error) and not est.usable


def test_huge_finite_states_leak_no_overflow_warning():
    # x^3 drift from 5 reaches a finite 1.3e182 on its way to inf, whose
    # squared norm overflows: inf is its norm, and no warning leaks
    model = scalar_spec(lambda x, i: np.asarray(x, dtype=float) ** 3, history_rates=False)
    lin = Linearization(
        b_mat=lambda i: np.zeros((1, 1)),
        sigma_mats=lambda i: [np.zeros((1, 1))],
        qhat=SparseGenerator(lambda i: {}, rate_bound=1.0),
        coeff_bound=1e-12,
    )
    phi0 = Segment.make_constant([5.0], 1.0, 0.1)
    cfg = SimConfig(dt=0.1, horizon=3.0, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert estimate_hitting_time(model, phi0, 1, 0.5, 1, cfg, 3).censored_fraction == 1.0
        huge = Segment.make_constant([1e200], 1.0, 0.1)  # from the start
        assert estimate_hitting_time(model, huge, 1, 0.5, 1, cfg, 3).censored_fraction == 1.0
        (row,) = coupling_decay(model, lin, [5.0], cfg, 3)
        assert row["p_decouple"] == 0.0
        rep = occupation_stability(model, [[5.0]], cfg, 3, burn_in=0.0)
        assert rep["histograms"][0][-1].sum() > 0.0  # the overflow bin


def test_batch_engine_agrees_with_per_path_oracle():
    """The batch engine against the per-path oracle on history-dependent rates.

    The oracle is ``simulate``, one path per seed drawn from (seed, k).  Each z
    compares two independent estimates, so |z| >= 4 happens by chance with
    probability 6.3e-5; over the four comparisons the false-failure rate
    is below 3e-4.
    """
    spec, _ = registry_get(
        "controlled_scalar",
        {"A": 1.0, "B": 1.0, "sigma": 0.0, "L": 3.0, "c": 1.0, "controllable": [1]},
    )
    assert spec.rates_depend_on_path  # rates read the oldest sample phi(-r)
    phi0 = Segment.make_constant([1.0], spec.delay, 1.0 / 32)
    cfg = SimConfig(dt=1.0 / 32, horizon=20.0, seed=31)
    frac_b, se_b = occupation_fractions(spec, phi0, 1, cfg, 1000, [1, 2, 3], burn_in=5.0)
    frac_p, se_p = path_occupation(spec, phi0, 1, cfg, 120, [1, 2, 3], burn_in=5.0)
    z = np.abs(frac_b - frac_p) / np.sqrt(se_b**2 + se_p**2)
    assert (z < 4.0).all(), z

    ou, _ = registry_get("switched_ou", {"theta": 1.0, "sigma": 0.5, "c": 1.0})
    phi_ou = Segment.make_constant([2.0], ou.delay, 1.0 / 64)
    cfg = SimConfig(dt=1.0 / 64, horizon=50.0, seed=32)
    est_b = estimate_hitting_time(ou, phi_ou, 3, 1.0, 2, cfg, 2000)
    times = path_hitting_times(
        ou, phi_ou, 3, cfg, 200, lambda t, seg, mode: mode <= 2 and seg.sup_norm() <= 1.0
    )
    assert est_b.censored_fraction == 0.0 and times.size == 200
    se_p = times.std(ddof=1) / math.sqrt(times.size)
    z = abs(est_b.mean - times.mean()) / math.hypot(est_b.std_error, se_p)
    assert z < 4.0, z


@pytest.mark.parametrize("rates_depend_on_path", [True, False])
def test_coupling_decay_is_exact_at_mode_bounds(rates_depend_on_path):
    # the primary chain never moves (bound 0) and the reference leaves at
    # rate 0.7, so the coupling clock runs at exactly 0.7 and decouples by
    # the horizon T with probability 1 - exp(-0.7 T), whether the engine
    # reads the empty rows off the history windows or off its per-mode cache
    lam = 0.7
    model = ModelSpec(
        dim=1,
        brownian_dim=1,
        drift=lambda x, i: np.zeros_like(np.asarray(x, dtype=float)),
        diffusion=lambda x, i: np.zeros((1, 1)),
        rates_row=lambda seg, i: {},
        rate_bound=1.0,
        mode_rate_bound=lambda i: 0.0,
        delay=1.0,
        zero_diffusion=True,
        rates_depend_on_path=rates_depend_on_path,
    )
    lin = Linearization(
        b_mat=lambda i: np.zeros((1, 1)),
        sigma_mats=lambda i: [np.zeros((1, 1))],
        qhat=SparseGenerator(lambda i: {3 - i: lam}, rate_bound=lam),
        coeff_bound=1e-12,
    )
    cfg = SimConfig(dt=0.25, horizon=1.0, seed=41)
    (row,) = coupling_decay(model, lin, [1.0], cfg, 2000, floor_frac=0.0)
    # binomial sd at 2000 paths is 0.011
    assert abs(row["p_decouple"] - (1.0 - math.exp(-lam))) < 0.045


@pytest.mark.parametrize("rates_depend_on_path", [False, True])
def test_batch_dynkin_evaluates_coefficients_once_per_group(rates_depend_on_path):
    # the generator reads the coefficients the Euler step evaluates: one
    # drift and one diffusion call per mode group and step, where evaluating
    # them again for the generator would make two
    calls = {"drift": 0, "diffusion": 0}

    def drift(x, i):
        calls["drift"] += 1
        return -0.5 * i * np.asarray(x, dtype=float)

    def diffusion(x, i):
        calls["diffusion"] += 1
        return np.full(np.shape(x) + (1,), 0.2 * i)

    model = replace(
        scalar_spec(drift, diffusion=diffusion, rates=lambda seg, i: {i % 3 + 1: 1.5},
                    bound=1.5, history_rates=False),
        rates_depend_on_path=rates_depend_on_path,
    )
    phi0 = Segment.make_constant([1.0], 1.0, 0.05)
    cfg = SimConfig(dt=0.05, horizon=2.0, seed=12)
    fn = ProductFunctional(
        f1=QUAD.f1, grad_f1=QUAD.grad_f1, hess_f1=QUAD.hess_f1,
        f2=lambda x, i: (np.asarray(x, dtype=float) ** 2).sum(axis=-1),
        g=lambda s, i: 1.0 + s, dg=lambda s, i: 1.0,
    )
    est = dynkin_residual(fn, model, phi0, 1, 2.0, cfg, 30, engine="batch")
    assert est.censored_fraction == 0.0
    # the same run again, counting the groups of every step
    made = dict(calls)
    groups = []
    eng = BatchEnsemble(model, phi0, 1, cfg, 30)
    for _ in range(40):
        groups.append(len(eng.groups()))
        eng.step()
    assert max(groups) == 3
    assert made["drift"] == made["diffusion"] == sum(groups)


@pytest.mark.parametrize("shared_from", [1, 2])
def test_batch_coefficients_once_per_class(shared_from):
    # drift and diffusion ignore the mode, and the model says so from mode
    # K on: one call per head group below K and one for all groups from K
    # on, in every step, while the paths occupy three modes
    calls = {"drift": [], "diffusion": []}

    def drift(x, i):
        calls["drift"].append(i)
        return -0.5 * np.asarray(x, dtype=float)

    def diffusion(x, i):
        calls["diffusion"].append(i)
        return np.full(np.shape(x) + (1,), 0.3)

    model = replace(
        scalar_spec(drift, diffusion=diffusion, rates=lambda seg, i: {i % 3 + 1: 1.5},
                    bound=1.5, history_rates=False),
        shared_coefficients_from=shared_from,
    )
    phi0 = Segment.make_constant([1.0], 1.0, 0.05)
    cfg = SimConfig(dt=0.05, horizon=2.0, seed=12)
    est = dynkin_residual(QUAD, model, phi0, 1, 2.0, cfg, 30, engine="batch")
    assert est.censored_fraction == 0.0
    made = {k: list(v) for k, v in calls.items()}
    # the same run again, listing each step's groups and classes
    occupied, classes = [], []

    eng = BatchEnsemble(model, phi0, 1, cfg, 30)
    for _ in range(40):
        modes = [v for v, _, _ in eng.groups()]
        occupied.append(len(modes))
        classes.append(sorted({min(v, shared_from) for v in modes}))
        eng.step()
    assert max(occupied) == 3
    assert made["drift"] == made["diffusion"] == [v for c in classes for v in c]
    if shared_from == 1:
        assert made["drift"] == [1] * 40
    # the estimate is the one of the undeclared model, one call per group
    assert repr(est) == repr(dynkin_residual(
        QUAD, replace(model, shared_coefficients_from=None), phi0, 1, 2.0, cfg, 30, engine="batch"))


def test_batch_dynkin_reads_rates_once_per_group_and_step():
    # history-dependent rates: the generator and the bernoulli draw each
    # read a mode group's rates in one call per step, on the group's batch
    # view; reading them path by path would make one call per path
    calls = []

    def rates(seg, i):
        calls.append((i, seg.sup_norm().shape))
        return {j: 0.2 * j + 0.5 / (1.0 + seg.sup_norm()) for j in (1, 2, 3) if j != i}

    model = replace(
        scalar_spec(lambda x, i: -0.5 * i * np.asarray(x, dtype=float),
                    diffusion=lambda x, i: np.array([[0.4]]), rates=rates, bound=2.0, history_rates=False),
        rates_depend_on_path=True,
    )
    phi0 = Segment.make_constant([1.0], 1.0, 0.05)
    cfg = SimConfig(dt=0.05, horizon=2.0, scheme="bernoulli", seed=7)
    est = dynkin_residual(QUAD, model, phi0, 1, 2.0, cfg, 30, engine="batch")
    assert est.censored_fraction == 0.0
    made = list(calls)
    # the same run again, listing each step's groups as (mode, (size,))
    steps = []
    eng = BatchEnsemble(model, phi0, 1, cfg, 30)
    for _ in range(40):
        steps.append([(v, paths.shape) for v, paths, _ in eng.groups()])
        eng.step()
    assert max(len(groups) for groups in steps) == 3
    assert made == [call for groups in steps for call in groups + groups]


def test_occupation_fractions_stop_counting_at_blow_up():
    """The batch engine and the per-path oracle count a path's modes only
    until it blows up.

    Cubic drift blows up about 98% of the paths within a few steps, while
    the chain flips between two modes at rate 1.  The two engines' per-path
    fractions then share one law, so |z| >= 4 has probability 6.3e-5;
    counting the modes of parked blown paths, as the batch engine once
    did, pulls its mode-1 fraction to 0.51 against 0.75 (z near 10).
    """
    model = scalar_spec(
        lambda x, i: np.asarray(x, dtype=float) ** 3,
        diffusion=lambda x, i: np.array([[0.5]]),
        rates=lambda seg, i: {3 - i: 1.0},
        history_rates=False,
    )
    phi0 = Segment.make_constant([1.0], 1.0, 0.05)
    cfg = SimConfig(dt=0.05, horizon=10.0, seed=3)
    eng = BatchEnsemble(model, phi0, 1, cfg, 200)
    eng.run(200)
    assert eng.blown.mean() > 0.9
    frac_b, se_b = occupation_fractions(model, phi0, 1, cfg, 200, [1, 2])
    frac_p, se_p = path_occupation(model, phi0, 1, cfg, 200, [1, 2])
    z = np.abs(frac_b - frac_p) / np.sqrt(se_b**2 + se_p**2)
    assert (z < 4.0).all(), z
    assert frac_b[0] > 0.65


def test_trapezoid_keeps_weights_per_kernel():
    # bound methods are new objects at every attribute access, so a freed
    # k.g can leave its id to k.dg; the weights must still follow the kernel
    class Kernels:
        def g(self, s, i):
            return 1.0 + s

        def dg(self, s, i):
            return 1.0

    k = Kernels()
    trap = _Trapezoid(1.0, 0.25)
    f2h = np.ones((5, 1))
    for _ in range(3):
        assert trap(k.g, 1, f2h)[0] == pytest.approx(0.5)
        assert trap(k.dg, 1, f2h)[0] == pytest.approx(1.0)


def plane_model(rates_depend_on_path: bool, blow: float = 0.0, noise_dim: int = 2) -> ModelSpec:
    """Planar three-mode model with a full, state-dependent noise matrix, or
    its first column with ``noise_dim`` 1.

    With ``rates_depend_on_path`` the rates read the window's sup-norm, and
    mode 1 reaches mode 3 only from paths whose window left the unit ball:
    the others carry a zero rate there.  ``blow`` adds a
    cubic drift in mode 3 that blows paths up within a few steps there.
    """
    mix = np.array([[0.3, -0.2], [0.1, 0.4]])

    def drift(x, i):
        x = np.asarray(x, dtype=float)
        cubic = blow * (i == 3) * x * (x * x).sum(axis=-1, keepdims=True)
        return -0.4 * i * x + 0.1 * np.sin(x[..., ::-1]) + cubic

    def diffusion(x, i):
        x = np.asarray(x, dtype=float)
        noise = mix * (1.0 + 0.1 * i) + 0.05 * x[..., :, None] * x[..., None, :]
        return noise[..., :noise_dim]

    def rates(seg, i):
        lift = 1.0 / (1.0 + seg.sup_norm()) if rates_depend_on_path else 0.5
        row = {j: 0.4 + 0.3 * lift + 0.1 * j for j in (1, 2, 3) if j != i}
        if rates_depend_on_path and i == 1:
            row[3] = row[3] * (seg.sup_norm() > 1.0)
        return row

    return ModelSpec(
        dim=2,
        brownian_dim=noise_dim,
        drift=drift,
        diffusion=diffusion,
        rates_row=rates,
        rate_bound=2.5,
        delay=0.5,
        rates_depend_on_path=rates_depend_on_path,
    )


# V = x^T A x + sin(x1 x2) / i + int e^s |phi(s)|^2 (1 + s / i) ds: a
# Hessian with off-diagonal entries and a kernel that depends on the mode.
# x^T A x and its gradient are written out elementwise: an einsum or a
# matrix product of the states rounds by their layout and row count
_A = np.array([[1.0, 0.3], [0.3, 0.5]])


def _a_times(x):
    """x A (A symmetric) per row, elementwise."""
    return x[..., :1] * _A[0] + x[..., 1:] * _A[1]


PLANE_V = ProductFunctional(
    f1=lambda x, i: (_a_times(x) * x)[..., 0] + (_a_times(x) * x)[..., 1]
    + np.sin(x[..., 0] * x[..., 1]) / i,
    grad_f1=lambda x, i: 2.0 * _a_times(x)
    + (np.cos(x[..., 0] * x[..., 1]) / i)[..., None] * x[..., ::-1],
    hess_f1=lambda x, i: 2.0 * _A
    + (np.cos(x[..., 0] * x[..., 1]) / i)[..., None, None] * np.array([[0.0, 1.0], [1.0, 0.0]])
    - (np.sin(x[..., 0] * x[..., 1]) / i)[..., None, None]
    * x[..., ::-1, None] * x[..., None, ::-1],
    f2=lambda x, i: (np.asarray(x) ** 2).sum(axis=-1) * (1.0 + 0.5 * i),
    g=lambda s, i: math.exp(s) * (1.0 + s / i),
    dg=lambda s, i: math.exp(s) * (1.0 + (1.0 + s) / i),
)


def oracle_step(V, e: BatchEnsemble, trap) -> dict:
    """LV per live path, one mode group at a time with the test oracle,
    next to the sum of the absolute products in tr(H sigma sigma^T), which
    scales the rounding of any order of that sum."""
    out = {}
    for v, paths, _ in e.groups():
        paths = paths[~e.blown[paths]]
        if paths.size == 0:
            continue
        x = e.x[paths]
        hist = e.history(paths) if V.f2 is not None else None
        drift = np.asarray(e.model.drift(x, v), dtype=float)
        sigma = np.asarray(e.model.diffusion(x, v), dtype=float)
        targets, rates = e.rate_table(paths, v)
        lv = group_generator(V, x, hist, v, targets, rates, drift, sigma, trap.delay, trap.dt)
        hess = np.broadcast_to(V.hess_f1(x, v), x.shape + x.shape[-1:])
        mag = 0.5 * np.einsum("pjk,pik,pij->p", abs(sigma), abs(sigma), abs(hess))
        out.update(zip(paths.tolist(), zip(lv.tolist(), mag.tolist())))
    return out


def run_blocks(V, e: BatchEnsemble, n_steps: int, block_steps: int, trap, at_step=None):
    """Step ``e`` ``n_steps`` times, snapshotting each pre-step state, and
    evaluate LV a block of ``block_steps`` snapshots at a time; yields each
    block's (paths, LV) per step next to ``at_step(e)`` read at that step;
    a step in path order names every path.  A time-kernel block is one
    step, read off the ring before the engine steps on, as in
    ``dynkin_residual``."""
    assert V.f2 is None or block_steps == 1
    block, seen = [], []
    for k in range(n_steps):
        block.append(_snapshot(e, V.f2 is not None))
        seen.append(None if at_step is None else at_step(e))
        if len(block) == block_steps or k == n_steps - 1:
            out = _block_generator(V, block, trap, e.rate_table)
            out = [(np.arange(len(lv)) if p is None else p, lv) for p, lv in out]
            yield list(zip(out, seen))
            block, seen = [], []
        e.step()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("rates_depend_on_path", [False, True])
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_ensemble_generator_matches_group_oracle(rates_depend_on_path, seed):
    # random plans: 40 paths spread over three modes by the chain itself,
    # and paths that stay in mode 3 blow up there; without the time kernel
    # blocks of 5 steps mix the rows of different steps in one mode group,
    # with it each block is one step
    model = plane_model(rates_depend_on_path, blow=40.0)
    dt = 1.0 / 32
    phi0 = Segment.make_constant([0.9, -0.6], model.delay, dt)
    trap = _Trapezoid(model.delay, dt)
    for fn, block_steps in ((replace(PLANE_V, f2=None, g=None, dg=None), 5), (PLANE_V, 1)):
        e = BatchEnsemble(model, phi0, 1, SimConfig(dt=dt, horizon=2.0, seed=seed), 40,
                          track_history=fn.f2 is not None)
        oracle = lambda e: oracle_step(fn, e, trap)  # noqa: E731
        for block in run_blocks(fn, e, 32, block_steps, trap, oracle):
            for (paths, lv), ref in block:
                assert sorted(paths.tolist()) == sorted(ref)
                want, mag = np.array([ref[p] for p in paths.tolist()]).T.reshape(2, -1)
                ok = np.isfinite(want)  # a path about to blow up may overflow V
                assert np.array_equal(np.isfinite(lv), ok)
                # the oracle takes tr(H sigma sigma^T) as the trace of a matrix product,
                # in another order than the generator's fixed i, j, k: rounding only
                assert (np.abs(lv - want)[ok] <= 1e-14 * (np.abs(want) + mag)[ok]).all()
        assert 10 <= e.blown.sum() < e.n_paths and len(e.groups()) == 3


def test_ensemble_generator_is_bit_identical_in_one_dimension():
    # with n = d = 1 the block pass does the oracle's arithmetic exactly, on
    # blocks of 6 steps without the time kernel and of one step with it
    model = scalar_spec(
        lambda x, i: -0.7 * i * np.asarray(x, dtype=float),
        diffusion=lambda x, i: 0.3 * i * np.asarray(x, dtype=float)[..., None] + 0.1,
        rates=lambda seg, i: {j: 0.5 + 0.1 * j / (1.0 + seg.sup_norm()) for j in (1, 2, 3) if j != i},
        bound=2.0,
        history_rates=False,
    )
    model = replace(model, rates_depend_on_path=True)
    fn = ProductFunctional(
        f1=lambda x, i: np.cos(x[..., 0]) * i, grad_f1=lambda x, i: -np.sin(x) * i,
        hess_f1=lambda x, i: -np.cos(x)[..., None] * i * 0.7,
        f2=lambda x, i: x[..., 0] ** 3 / i, g=lambda s, i: 0.3 + s * s, dg=lambda s, i: 2.0 * s,
    )
    dt = 1.0 / 16
    phi0 = Segment.make_constant([1.2], model.delay, dt)
    trap = _Trapezoid(model.delay, dt)
    for fn, block_steps in ((replace(fn, f2=None, g=None, dg=None), 6), (fn, 1)):
        e = BatchEnsemble(model, phi0, 1, SimConfig(dt=dt, horizon=2.0, seed=8), 30,
                          track_history=fn.f2 is not None)
        oracle = lambda e: oracle_step(fn, e, trap)  # noqa: E731
        for block in run_blocks(fn, e, 20, block_steps, trap, oracle):
            for (paths, lv), ref in block:
                assert lv.tolist() == [ref[p][0] for p in paths.tolist()]
        assert len(e.groups()) == 3


@pytest.mark.parametrize("with_kernel", [False, True])
def test_generator_evaluates_f1_once_per_needed_mode(with_kernel):
    # every mode can jump to both others, so evaluating f1 per (group,
    # target) pair would call mode 1 from groups 2 and 3 in the same block;
    # a block (4 steps without the time kernel, one with it) calls f1 once
    # per mode its groups read
    calls = []

    def f1(x, i):
        calls.append(i)
        return (np.asarray(x, dtype=float) ** 2).sum(axis=-1) * i

    fn = replace(PLANE_V, f1=f1) if with_kernel else replace(
        PLANE_V, f1=f1, f2=None, g=None, dg=None)
    model = plane_model(False)
    dt = 1.0 / 32
    phi0 = Segment.make_constant([0.9, -0.6], model.delay, dt)
    e = BatchEnsemble(model, phi0, 1, SimConfig(dt=dt, horizon=2.0, seed=6), 60,
                      track_history=with_kernel)
    trap = _Trapezoid(model.delay, dt)
    full = 0
    modes = lambda e: {v for v, _, _ in e.groups()}  # noqa: E731
    for block in run_blocks(fn, e, 32, 1 if with_kernel else 4, trap, modes):
        needed = set().union(*(v for _, v in block))
        needed |= {j for v in list(needed) for j in model.rates_row(None, v)}
        assert sorted(calls) == sorted(set(calls))
        assert set(calls) == needed
        full += sum(len(v) == 3 for _, v in block)
        calls.clear()
    assert full > 10


@pytest.mark.parametrize("with_kernel", [False, True])
@pytest.mark.parametrize("family", ["switched_ou", "cycle"])
def test_generator_evaluates_f1_only_on_the_rows_that_read_it(family, with_kernel):
    # V(., j) is read by the rows of group j and of the groups that can jump
    # to j, and f1 must run on exactly those rows, once per mode and pass.
    # On switched_ou (mode i >= 3 jumps to 1, 2 and i + 1) the readers of a
    # mode are adjacent groups; on the cycle 1 -> 3 -> 2 -> 1 mode 3 is read
    # by groups 1 and 3 but not 2.  Each pass must give the bits of the
    # same pass run group by group
    counted = []

    def f1(x, i):
        counted.append(len(x))
        return (np.asarray(x, dtype=float) ** 2).sum(axis=-1) * i

    fn = replace(QUAD, f1=f1)
    if with_kernel:
        fn = replace(fn, f2=lambda x, i: (np.asarray(x) ** 2).sum(axis=-1),
                     g=lambda s, i: math.exp(s), dg=lambda s, i: math.exp(s))
    generator = switchsde.verify._generator
    evaluated, read, full = [], [], []

    def counting(V, x, drift, sigma, windows, plan, trap):
        counted.clear()
        out = generator(V, x, drift, sigma, windows, plan, trap)
        evaluated.append(sum(counted))
        read.append(sum((rows.stop - rows.start) * len({i, *targets})
                        for i, rows, targets, _ in plan))
        full.append(len(x) * len({j for i, _, targets, _ in plan for j in (i, *targets)}))
        for i, rows, targets, rates in plan:
            own = None if windows is None else (  # the group's rows counted from 0
                lambda r, a=rows.start: windows(slice(a + r.start, a + r.stop)))
            alone = generator(V, x[rows], drift[rows], None if sigma is None else sigma[rows], own,
                              [(i, slice(0, rows.stop - rows.start), targets, rates)], trap)
            assert alone.tobytes() == out[rows].tobytes()
        return out

    dt = 1.0 / 32
    if family == "cycle":
        spec = scalar_spec(lambda x, i: -np.asarray(x, dtype=float),
                           diffusion=lambda x, i: np.full(np.shape(x) + (1,), 0.5),
                           rates=lambda seg, i: {1: {3: 2.0}, 2: {1: 2.0}, 3: {2: 2.0}}[i],
                           bound=2.0, history_rates=False)
        i0 = 1
    else:
        spec, _ = registry_get("switched_ou", {"c": 1.0, "sigma": 0.5})
        i0 = 5
    phi0 = Segment.make_constant([1.0], spec.delay, dt)
    with mock.patch.object(switchsde.verify, "_generator", counting):
        dynkin_residual(fn, spec, phi0, i0, 1.0, SimConfig(dt=dt, horizon=1.0, seed=3), 64)
    assert evaluated and evaluated == read
    assert sum(read) < 0.8 * sum(full)  # what one f1 call on every row per mode evaluated


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**16),
    n_paths=st.integers(1, 32),
    n_steps=st.integers(1, 24),
    rates_depend_on_path=st.booleans(),
    with_kernel=st.booleans(),
    blow=st.sampled_from([0.0, 40.0]),
    scheme=st.sampled_from(["thinning", "bernoulli"]),
    noise_dim=st.sampled_from([2, 1]),
)
# one path: its blocks of one step hold one row, its whole run's block nine
@example(seed=11, n_paths=1, n_steps=9, rates_depend_on_path=False, with_kernel=False,
         blow=0.0, scheme="bernoulli", noise_dim=2)
def test_dynkin_bits_do_not_depend_on_the_block(
    seed, n_paths, n_steps, rates_depend_on_path, with_kernel, blow, scheme, noise_dim
):
    # V depends on the mode (sin(x1 x2) / i and a mode-dependent kernel), so
    # the switching sums read V(., j) for every target; blocks of one step,
    # of three steps (a shorter last block when 3 does not divide the
    # steps) and of the whole run must give the same bytes, with a full
    # noise matrix and with one noise column (n = 2, d = 1)
    model = plane_model(rates_depend_on_path, blow=blow, noise_dim=noise_dim)
    fn = PLANE_V if with_kernel else replace(PLANE_V, f2=None, g=None, dg=None)
    dt = 1.0 / 32
    phi0 = Segment.make_constant([0.9, -0.6], model.delay, dt)
    cfg = SimConfig(dt=dt, horizon=1.0, seed=seed, scheme=scheme)
    rows = n_paths * (phi0.samples.shape[0] if with_kernel else 1)  # per step
    out = set()
    for budget in (1, 3 * rows, n_steps * rows):
        with mock.patch.object(switchsde.verify, "_BLOCK_ROWS", budget):
            est = dynkin_residual(fn, model, phi0, 1, n_steps * dt, cfg, n_paths)
        out.add(pickle.dumps(est))
    assert len(out) == 1


def column_model(b, c) -> ModelSpec:
    """Planar model with one noise column (n = 2, d = 1), drift x0 b0 + x1 b1
    and noise c0 + c1 x, all elementwise so that a row's coefficients do
    not depend on the rows next to it; modes 1 and 2 swap at rate 0.7."""
    return ModelSpec(
        dim=2,
        brownian_dim=1,
        drift=lambda x, i: x[..., :1] * b[0] + x[..., 1:] * b[1] / i,
        diffusion=lambda x, i: (c[0] + c[1] * x)[..., None],
        rates_row=lambda seg, i: {3 - i: 0.7},
        rate_bound=1.0,
        delay=1.0,
        rates_depend_on_path=False,
    )


def quadratic_form(h) -> ProductFunctional:
    """V = x^T H x / 2 (1 + i / 10) with a full symmetric H, every callback
    elementwise."""
    def grad(x, i):
        return (x[..., :1] * h[0] + x[..., 1:] * h[1]) * (1.0 + 0.1 * i)

    return ProductFunctional(
        f1=lambda x, i: 0.5 * (grad(x, i) * x)[..., 0] + 0.5 * (grad(x, i) * x)[..., 1],
        grad_f1=grad,
        hess_f1=lambda x, i: h * (1.0 + 0.1 * i),
    )


def test_apply_generator_is_its_row_of_a_batch():
    # with n = 2 and d = 1, einsum summed tr(H sigma sigma^T) of one row in
    # another order than the rows of a batch: 35 of these 200 cases differed
    rng = np.random.default_rng(7)
    trap = _Trapezoid(1.0, 0.25)
    for _ in range(200):
        b, a, c = rng.standard_normal((3, 2, 2))
        model, fn = column_model(b, c), quadratic_form(a + a.T)
        xs = rng.standard_normal((3, 2))
        one = apply_generator(fn, model, Segment.make_constant(xs[1], 1.0, 0.25), 1)
        plan = [(1, slice(0, 3), [2], np.array([[0.7]]))]
        batch = _generator(fn, xs, model.drift(xs, 1), model.diffusion(xs, 1), None, plan, trap)
        assert np.float64(one).tobytes() == batch[1].tobytes()


def test_one_path_dynkin_bits_do_not_depend_on_the_block():
    # a one-path block of one step holds one row; with einsum its trace term
    # (n = 2, d = 1) rounded apart from that of the whole run's block, and
    # the residual's bytes differed on 6 of these 20 seeds
    rng = np.random.default_rng(17)
    b, a, c = rng.standard_normal((3, 2, 2))
    model, fn = column_model(-np.abs(b), c), quadratic_form(a + a.T)
    dt = 1.0 / 32
    phi0 = Segment.make_constant([0.8, -0.5], model.delay, dt)
    for seed in range(1, 21):
        cfg = SimConfig(dt=dt, horizon=2.0, seed=seed)
        out = set()
        for budget in (1, switchsde.verify._BLOCK_ROWS):
            with mock.patch.object(switchsde.verify, "_BLOCK_ROWS", budget):
                out.add(pickle.dumps(dynkin_residual(fn, model, phi0, 1, 2.0, cfg, 1)))
        assert len(out) == 1, seed


def test_dynkin_block_pass_calls_no_einsum(monkeypatch):
    # tr(H sigma sigma^T) is added over whole columns in a fixed order: the
    # CLI's quadratic functional on linear_2d (full 2 x 2 noise) reaches no
    # np.einsum call inside a block pass (the Euler step keeps its own)
    spec = load_model_config(str(CONFIG_DIR / "linear_2d.json")).spec
    calls, blocks, inside = [], [], []
    einsum, block_generator = np.einsum, switchsde.verify._block_generator

    def counted(*args, **kwargs):
        if inside:
            calls.append(args[0])
        return einsum(*args, **kwargs)

    def watched(*args, **kwargs):
        inside.append(True)
        try:
            out = block_generator(*args, **kwargs)
        finally:
            inside.pop()
        blocks.append(len(out))
        return out

    monkeypatch.setattr(np, "einsum", counted)
    monkeypatch.setattr(switchsde.verify, "_block_generator", watched)
    dt = 1.0 / 64
    phi0 = Segment.make_constant([1.0, 1.0], spec.delay, dt)
    est = dynkin_residual(_FUNCTIONALS["quadratic"], spec, phi0, 1, 1.0,
                          SimConfig(dt=dt, horizon=1.0, seed=2), 16)
    assert est.usable and sum(blocks) == 64 and calls == []


@pytest.mark.parametrize("n_paths", [2, 15])
def test_a_time_kernel_dynkin_block_is_one_step(monkeypatch, n_paths):
    # a time-kernel block is one step, its windows read off the engine's
    # ring: with m = 65 window samples, blocks of 4,096 path-steps times
    # samples held 31 steps at 2 paths and 4 at 15
    spec = load_model_config(str(CONFIG_DIR / "switched_ou.json")).spec
    fn = replace(QUAD, f2=lambda x, i: (np.asarray(x) ** 2).sum(axis=-1),
                 g=lambda s, i: math.exp(s), dg=lambda s, i: math.exp(s))
    sizes, block_generator = [], switchsde.verify._block_generator

    def counted(V, block, *args):
        sizes.append(len(block))
        return block_generator(V, block, *args)

    monkeypatch.setattr(switchsde.verify, "_block_generator", counted)
    dt = 1.0 / 64
    phi0 = Segment.make_constant([1.0], spec.delay, dt)
    assert phi0.samples.shape[0] == 65
    est = dynkin_residual(fn, spec, phi0, 2, 1.0, SimConfig(dt=dt, horizon=1.0, seed=1), n_paths)
    assert est.n_samples == n_paths and sizes == [1] * 64


def kernel_operands(seed: int, p: int, n: int, d: int, scale: int, shared_hess: bool):
    """sigma (p, n, d) and hess (p, n, n) at magnitude 10^scale, hess one
    (n, n) matrix broadcast over p (stride 0) with ``shared_hess``."""
    rng = np.random.default_rng(seed)
    sigma = rng.standard_normal((p, n, d)) * 10.0**scale
    hess = rng.standard_normal((1 if shared_hess else p, n, n)) * 10.0**scale
    return sigma, np.broadcast_to(hess, (p, n, n))


def coordinate_major(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` (P, ...) whose P axis is last in memory."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from([0, 2, 3, 5, 17]),
    n=st.integers(1, 4),
    d=st.integers(1, 9),
    scale=st.integers(-5, 5),
    shared_hess=st.booleans(),
    major=st.booleans(),
)
def test_diffusion_trace_is_einsum_bit_for_bit(seed, p, n, d, scale, shared_hess, major):
    # from two rows on, einsum adds (sigma_jk sigma_ik) H_ij to 0 in i, j, k
    # order, as the kernel does, at any operand layout
    sigma, hess = kernel_operands(seed, p, n, d, scale, shared_hess)
    want = np.einsum("...jk,...ik,...ij->...", sigma, sigma, hess)
    if major:
        sigma, hess = coordinate_major(sigma), coordinate_major(hess)
    assert _diffusion_trace(sigma, hess).tobytes() == want.tobytes()


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 6),
    n=st.integers(1, 4),
    d=st.integers(1, 9),
    scale=st.integers(-5, 5),
    shared_hess=st.booleans(),
)
def test_diffusion_trace_of_one_row_is_its_row_of_a_batch(seed, p, n, d, scale, shared_hess):
    sigma, hess = kernel_operands(seed, p, n, d, scale, shared_hess)
    batch = _diffusion_trace(sigma, hess)
    for r in range(p):
        assert _diffusion_trace(sigma[r:r + 1], hess[r:r + 1]).tobytes() == batch[r:r + 1].tobytes()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from([0, 1, 2, 3, 9]),
    k=st.integers(1, 12),
    scale=st.integers(0, 8),
    zeros=st.booleans(),
    major=st.booleans(),
)
def test_row_sums_are_numpy_row_sums(seed, p, k, scale, zeros, major):
    # below 8 entries numpy adds a row in order, from +0.0, so whole-column
    # adds give its bits; from 8 on the helper sums a C-ordered copy
    rng = np.random.default_rng(seed)
    terms = rng.standard_normal((p, k)) * 10.0 ** rng.integers(-scale, scale + 1, (p, k))
    if zeros:  # signed zeros, whose sum's sign numpy also fixes
        terms[rng.random((p, k)) < 0.5] = 0.0
        terms = np.where(rng.random((p, k)) < 0.5, -terms, terms)
    want = np.ascontiguousarray(terms).sum(axis=-1)
    got = _row_sums(np.asfortranarray(terms) if major else terms)
    assert got.tobytes() == want.tobytes()


def test_one_class_dynkin_run_builds_no_mode_group_plan(monkeypatch):
    # linear_2d's rates ignore the history and it declares K = 1, so every
    # step runs in path order while the paths spread over several modes: no
    # snapshot may sort them by mode.  One sort per block groups its rows
    # and one more groups the final states for V(X_t)
    spec = load_model_config(str(CONFIG_DIR / "linear_2d.json")).spec
    assert spec.shared_coefficients_from == 1 and not spec.rates_depend_on_path
    n_steps, n_paths = 128, 125
    seen, sorts = [], []
    stretch, argsort = BatchEnsemble._stretch, np.argsort

    def watched(e, limit):  # every step, as the run takes them one stretch at a time
        taken = stretch(e, limit)
        seen.append((e._groups is None, len(set(e.modes.tolist()))))
        return taken

    monkeypatch.setattr(BatchEnsemble, "_stretch", watched)
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: sorts.append(1) or argsort(*a, **kw))
    dt = 1.0 / n_steps
    phi0 = Segment.make_constant([1.0, 1.0], spec.delay, dt)
    est = dynkin_residual(QUAD, spec, phi0, 1, 1.0, SimConfig(dt=dt, horizon=1.0, seed=5), n_paths)
    assert est.censored_fraction == 0.0
    assert len(seen) == n_steps and all(lone for lone, _ in seen)
    assert max(occupied for _, occupied in seen) >= 3
    blocks = math.ceil(n_steps / (switchsde.verify._BLOCK_ROWS // n_paths))
    assert blocks == 4 and len(sorts) <= blocks + 1


def test_declared_dynkin_snapshots_read_rates_without_the_plan(monkeypatch):
    # controlled_scalar's rates read the history and it declares
    # mode_arrays: each snapshot reads its occupied modes' rate tables by
    # mask, in path order, so no step sorts the paths by mode (a 16-path run
    # once sorted 73 times).  One sort per block groups its rows and one
    # more groups the final states for V(X_t)
    spec = load_model_config(str(CONFIG_DIR / "controlled_scalar.json")).spec
    assert spec.rates_depend_on_path and spec.mode_arrays
    sorts, argsort = [], np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: sorts.append(1) or argsort(*a, **kw))
    dt, n_paths = 1.0 / 16, 16
    phi0 = Segment.make_constant([1.0], spec.delay, dt)
    cfg = SimConfig(dt=dt, horizon=8.0, seed=1)
    for budget, blocks in ((switchsde.verify._BLOCK_ROWS, 1), (16 * n_paths, 8)):
        sorts.clear()
        with mock.patch.object(switchsde.verify, "_BLOCK_ROWS", budget):
            est = dynkin_residual(QUAD, spec, phi0, 1, 8.0, cfg, n_paths)
        assert est.n_samples == n_paths
        assert blocks == math.ceil(128 / (budget // n_paths)) and len(sorts) <= blocks + 1


def test_dynkin_block_memory_does_not_grow_with_the_mode():
    # the block pass groups its rows by sorting them, so no table spans the
    # modes: a start mode of 10^5 on switched_ou, whose rates read the
    # history, keeps the traced peak of a start in mode 1 (about 1.4 MB)
    spec = load_model_config(str(CONFIG_DIR / "switched_ou.json")).spec
    phi0 = Segment.make_constant([1.0], spec.delay, 1.0 / 64)
    cfg = SimConfig(dt=1.0 / 64, horizon=1.0, seed=1)
    tracemalloc.start()
    try:
        est = dynkin_residual(QUAD, spec, phi0, 10**5, 1.0, cfg, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.usable and peak < 8e6


def test_dynkin_from_a_high_mode_matches_the_plan_order_oracle():
    # switched_ou's rates read the history, so the block pass keys its rows
    # by mode; from mode 10^5 the keys pass 2^16 and take the int64 (mode,
    # step) sort, which must give the bytes of the plan-order pass
    spec = load_model_config(str(CONFIG_DIR / "switched_ou.json")).spec
    dt, n_paths = 1.0 / 64, 32
    phi0 = Segment.make_constant([1.0], spec.delay, dt)
    cfg = SimConfig(dt=dt, horizon=1.0, seed=1)
    for budget in (3 * n_paths, switchsde.verify._BLOCK_ROWS):
        with mock.patch.object(switchsde.verify, "_BLOCK_ROWS", budget):
            est = dynkin_residual(QUAD, spec, phi0, 10**5, 1.0, cfg, n_paths)
        want = plan_dynkin_residual(QUAD, spec, phi0, 10**5, 1.0, cfg, n_paths, budget)
        assert est.usable and pickle.dumps(est) == pickle.dumps(want), budget


def shared_plane_model(rates_depend_on_path: bool, blow: float, shared_from) -> ModelSpec:
    """:func:`plane_model` whose coefficients are those of mode ``shared_from``
    from that mode on, as it declares (None: every mode its own), and whose
    paths blow up in any mode once |x|^2 passes 1.5, given ``blow`` > 0."""
    model = plane_model(rates_depend_on_path)
    top = shared_from or math.inf

    def drift(x, i):
        x = np.asarray(x, dtype=float)
        sq = (x * x).sum(axis=-1, keepdims=True)
        return model.drift(x, min(i, top)) + blow * (sq > 1.5) * x * sq

    return replace(model, drift=drift, diffusion=lambda x, i: model.diffusion(x, min(i, top)),
                   shared_coefficients_from=shared_from)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**16),
    n_paths=st.integers(1, 32),
    n_steps=st.integers(1, 24),
    rates_depend_on_path=st.booleans(),
    with_kernel=st.booleans(),
    blow=st.sampled_from([0.0, 40.0]),
    scheme=st.sampled_from(["thinning", "bernoulli"]),
    shared_from=st.sampled_from([None, 1, 2]),
)
def test_dynkin_matches_the_plan_order_oracle(
    seed, n_paths, n_steps, rates_depend_on_path, with_kernel, blow, scheme, shared_from
):
    # rows kept in the engine's order (path order while one class holds every
    # path) and grouped by one sort per block give the bytes of snapshots
    # sorted by mode at every step and regrouped per block, at block budgets
    # of one step, three steps and the whole run; a time-kernel block is one
    # step at any budget
    model = shared_plane_model(rates_depend_on_path, blow, shared_from)
    fn = PLANE_V if with_kernel else replace(PLANE_V, f2=None, g=None, dg=None)
    dt = 1.0 / 32
    phi0 = Segment.make_constant([0.9, -0.6], model.delay, dt)
    cfg = SimConfig(dt=dt, horizon=1.0, seed=seed, scheme=scheme)
    for budget in (1,) if with_kernel else (1, 3 * n_paths, n_steps * n_paths):
        with mock.patch.object(switchsde.verify, "_BLOCK_ROWS", budget):
            est = dynkin_residual(fn, model, phi0, 1, n_steps * dt, cfg, n_paths)
        want = plan_dynkin_residual(fn, model, phi0, 1, n_steps * dt, cfg, n_paths, budget)
        assert pickle.dumps(est) == pickle.dumps(want), budget


def estimator_outputs(spec, lin, seed):
    """Every estimator on a short run of ``spec``: the hitting, descent,
    coupling, occupation and Dynkin outputs, pickled."""
    dt = 1.0 / 32
    cfg = SimConfig(dt=dt, horizon=2.0, seed=seed)
    start = Segment.make_constant(np.full(spec.dim, 2.0), spec.delay, dt)
    out = [
        estimate_hitting_time(spec, start, 3, 1.0, 2, cfg, 16),
        estimate_mode_descent(spec, start, 4, 1, cfg, 16),
        coupling_decay(spec, lin, [1.0, 20.0], cfg, 16, i0=3),
        occupation_stability(spec, [np.full(spec.dim, s) for s in (0.5, 2.0)], cfg, 8, 1.0),
        occupation_fractions(spec, start, 2, cfg, 16, [1, 2, 3, 4], burn_in=0.5),
        dynkin_residual(QUAD, spec, start, 2, 1.0, cfg, 16),
    ]
    return pickle.dumps(out)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("name", ["controlled_scalar", "fluid_queue", "linear_2d", "switched_ou"])
def test_shared_coefficients_leave_every_estimate_bit_identical(name):
    # one drift and one diffusion call for all modes from K on gives the
    # bits of one call per mode group, on the shipped configs
    loaded = load_model_config(str(CONFIG_DIR / f"{name}.json"))
    spec = loaded.spec
    assert spec.shared_coefficients_from is not None
    undeclared = replace(spec, shared_coefficients_from=None)
    for seed in (1, 2, 3):
        got = estimator_outputs(spec, loaded.lin, seed)
        assert got == estimator_outputs(undeclared, loaded.lin, seed), seed


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("name", ["controlled_scalar", "fluid_queue", "predator_prey", "switched_ou"])
def test_mode_arrays_leave_every_estimate_bit_identical(name):
    # one drift and one diffusion call over every live path's mode gives the
    # bits of one call per coefficient class, on the shipped configs
    loaded = load_model_config(str(CONFIG_DIR / f"{name}.json"))
    spec = loaded.spec
    assert spec.mode_arrays
    ranks = []
    counted = replace(spec, drift=lambda x, i: ranks.append(np.ndim(i)) or spec.drift(x, i))
    for seed in (1, 2, 3):
        got = estimator_outputs(counted, loaded.lin, seed)
        assert got == estimator_outputs(replace(spec, mode_arrays=False), loaded.lin, seed), seed
    # the declared runs took modes as arrays, but for switched_ou: with K = 1
    # every mode is one class, and no path blows up here
    assert (1 in ranks) == (spec.shared_coefficients_from != 1)


BLOW_STEPS = (4, 17, 39)  # before burn-in, after it, and the last step


def clocked_blow_up_model(switching: float) -> ModelSpec:
    """Four modes cycling at rate 3 * switching (and 1 * switching two modes
    on), on a state (x, clock): the clock counts steps of 0.05, and in the
    steps of BLOW_STEPS the paths with sin(1000 x) > 0.7 get an infinite drift."""

    def drift(z, i):
        z = np.asarray(z, dtype=float)
        due = np.isin(np.rint(z[..., 1] / 0.05), BLOW_STEPS) & (np.sin(1e3 * z[..., 0]) > 0.7)
        out = np.ones_like(z)
        out[..., 0] = np.where(due, np.inf, -0.2 * i * z[..., 0])
        return out

    return ModelSpec(
        dim=2,
        brownian_dim=1,
        drift=drift,
        diffusion=lambda z, i: np.broadcast_to([[0.5], [0.0]], np.shape(z) + (1,)),
        rates_row=lambda seg, i: {i % 4 + 1: 3.0 * switching, (i + 1) % 4 + 1: switching},
        rate_bound=4.0,
        delay=1.0,
        rates_depend_on_path=False,
    )


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("switching", [1.0, 0.0])
@pytest.mark.parametrize("scheme", ["thinning", "bernoulli"])
def test_sojourn_counts_equal_the_per_step_count(scheme, switching):
    # modes 1, 2 and 4 tracked, mode 3 not; steps 10.. count; paths blow up
    # in steps 4, 17 and 39, the last one.  Without switching, only the
    # blow-ups end a sojourn before the end.
    model = clocked_blow_up_model(switching)
    phi0 = Segment.make_constant([0.3, 0.0], 1.0, 0.05)
    cfg = SimConfig(dt=0.05, horizon=2.0, scheme=scheme, seed=21)
    idx = {1: 0, 2: 1, 4: 2}
    got = _sojourn_counts(BatchEnsemble(model, phi0, 2, cfg, 300), 40, 10, idx)
    want = settle_counts(BatchEnsemble(model, phi0, 2, cfg, 300), 40, 10, list(idx))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    # blown before burn-in, in step 17, in the last step, and never
    assert {0, 7, 29, 30} <= set(want[1].tolist())
    assert (want[0].sum(axis=1) < want[1]).any() == bool(switching)  # time in mode 3


def test_controlled_scalar_runs_past_the_square_root_of_the_largest_double():
    # |z| was once sqrt(z * z), which overflows past about 1.3e154: the
    # rates turned NaN and the run raised "rates out of mode 3 total nan".
    # By t = 30 the states pass 1e295; by t = 40 every path has overflowed,
    # and its fractions are over the steps it completed
    spec, _ = registry_get("controlled_scalar", {"A": 50.0})
    phi = Segment.make_constant([1.0], spec.delay, 1 / 16)
    for horizon, blown in ((30.0, 0), (40.0, 4)):
        cfg = SimConfig(dt=1 / 16, horizon=horizon, seed=1)
        means, _ = occupation_fractions(spec, phi, 1, cfg, 4, [1, 2, 3])
        assert np.isfinite(means).all() and 0.0 < means.sum() <= 1.0
        engine = BatchEnsemble(spec, phi, 1, cfg, 4)
        engine.run(int(horizon * 16))
        assert engine.blown.sum() == blown, horizon


THREE_MODE_RATES = {1: {2: 0.6, 3: 0.4}, 2: {1: 0.5, 3: 0.5}, 3: {1: 0.8, 2: 0.2}}


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("scheme", ["thinning", "bernoulli"])
@pytest.mark.parametrize("case", ["criterion_7", "blow_ups"])
def test_occupation_steps_the_engine_a_stretch_at_a_time(case, scheme, monkeypatch):
    # the counts change only at a mode change or a blow-up, so the engine is
    # called once per stretch between them, not once per grid step: every
    # call but the last ends on a jump or a blow-up, and no step() is made
    if case == "criterion_7":
        model = ModelSpec(dim=1, brownian_dim=1, drift=lambda x, i: -0.5 * np.asarray(x, float),
                          diffusion=lambda x, i: np.array([[0.3]]),
                          rates_row=lambda seg, i: dict(THREE_MODE_RATES[i]), rate_bound=1.0,
                          delay=1.0, rates_depend_on_path=False)
        phi0, cfg = Segment.make_constant([1.0], 1.0, 1e-3), SimConfig(1e-3, 2.0, scheme, 3)
        n_paths, tracked, n_steps = 20, [1, 2, 3], 2000
    else:  # no switching: only the blow-ups of BLOW_STEPS end a stretch
        model = clocked_blow_up_model(0.0)
        phi0, cfg = Segment.make_constant([0.3, 0.0], 1.0, 0.05), SimConfig(0.05, 2.0, scheme, 21)
        n_paths, tracked, n_steps = 300, [1, 2, 4], 40
    calls, steps = [], []
    advance, step = BatchEnsemble._advance, BatchEnsemble.step

    def counted(e, limit):
        before = (e.jumps, int(e.blown.sum()))
        taken = advance(e, limit)
        calls.append((taken, limit, (e.jumps, int(e.blown.sum())) != before))
        return taken

    monkeypatch.setattr(BatchEnsemble, "_advance", counted)
    monkeypatch.setattr(BatchEnsemble, "step", lambda e: steps.append(1) or step(e))
    occupation_fractions(model, phi0, 2, cfg, n_paths, tracked, burn_in=0.5)
    assert not steps and sum(taken for taken, _, _ in calls) == n_steps
    assert all(event for _, _, event in calls[:-1])
    taken, limit, event = calls[-1]
    assert event or taken == limit
    if case == "criterion_7":
        assert 10 < len(calls) < n_steps / 10
    else:
        assert len(calls) == len(BLOW_STEPS)  # the last blow-up is in the last step


# float.hex of seeded runs whose switching reads the history over several
# modes, pinned when recorded: a change that moves one draw of the shared
# stream, or its order, changes them
FROZEN_BITS = {
    "hitting": ["0x1.f4c0000000000p+0", "0x1.e78ea3185ab29p-4", "0x0.0p+0"],
    "descent": ["0x1.bb80000000000p+0", "0x1.ae1bb3387d862p-3", "0x0.0p+0"],
    "coupling": ["0x1.c000000000000p-3", "0x1.2b5524ae1278ep-4", "0x0.0p+0", "0x0.0p+0"],
    "occupation": ["0x1.43c71c71c71c6p-1", "0x1.ceaaaaaaaaaaap-3", "0x1.db8e38e38e38fp-4",
                   "0x1.6fd180f5928dcp-4", "0x1.e494c19379ed8p-5", "0x1.ab1a15c0b94c5p-5"],
    "dynkin": ["-0x1.c109f9e9f3841p-5", "0x1.4fa3a8a742b14p-3", "0x0.0p+0"],
}


def test_seeded_estimators_keep_their_bits():
    ou, pp, cs = (load_model_config(str(CONFIG_DIR / f"{name}.json"))
                  for name in ("switched_ou", "predator_prey", "controlled_scalar"))
    dt = 1.0 / 64

    def start(spec, value):
        return Segment.make_constant([value], spec.delay, dt)

    def cfg(horizon, seed):
        return SimConfig(dt=dt, horizon=horizon, seed=seed)

    def bits(est):
        return [est.mean, est.std_error, est.censored_fraction]

    rows = coupling_decay(ou.spec, ou.lin, [10.0, 1000.0], cfg(10.0, 3), 32, i0=3)
    means, ses = occupation_fractions(cs.spec, start(cs.spec, 1.0), 1, cfg(10.0, 4), 8, [1, 2, 3],
                                      burn_in=1.0)
    got = {
        "hitting": bits(estimate_hitting_time(ou.spec, start(ou.spec, 2.0), 3, 1.0, 2,
                                              cfg(20.0, 1), 16)),
        "descent": bits(estimate_mode_descent(pp.spec, start(pp.spec, 1.0), 10, 2, cfg(10.0, 2), 16)),
        "coupling": [v for row in rows for v in (row["p_decouple"], row["std_error"])],
        "occupation": [*means.tolist(), *ses.tolist()],
        "dynkin": bits(dynkin_residual(QUAD, ou.spec, start(ou.spec, 1.0), 1, 0.5, cfg(0.5, 5), 8)),
    }
    assert {k: [float(v).hex() for v in vals] for k, vals in got.items()} == FROZEN_BITS
