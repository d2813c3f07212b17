import copy
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsde.chain import SparseGenerator
from switchsde.config import load_model_config
from switchsde.model import Linearization, ModelSpec
from switchsde.registry import registry_get
from switchsde.segment import Segment
from switchsde.sim import (
    BatchEnsemble,
    SimConfig,
    _check_total,
    _couple_pick,
    _euler,
    _merge,
    _pick,
    default_dt,
    simulate,
    simulate_coupled,
)
from switchsde.verify import coupling_decay, occupation_fractions

from oracles import (
    GroupWalkEnsemble,
    ProposalLoopEnsemble,
    StepwiseEnsemble,
    couple,
    einsum_euler,
    pick_target,
    stepwise_simulate,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIG_NAMES = ("switched_ou", "fluid_queue", "linear_2d", "controlled_scalar", "predator_prey")


def plain_model(drift, *, diffusion=None, rates=None, bound=1.0, delay=1.0, **kw):
    return ModelSpec(
        dim=1,
        brownian_dim=1,
        drift=drift,
        diffusion=diffusion or (lambda x, i: np.zeros((1, 1))),
        rates_row=rates or (lambda seg, i: {}),
        rate_bound=bound,
        delay=delay,
        zero_diffusion=diffusion is None,
        **kw,
    )


def two_mode_rates(a, b):
    def rates(seg, i):
        return {2: a} if i == 1 else {1: b}

    return rates


def test_default_dt_divides_delay():
    for delay, horizon in ((1.0, 100.0), (1.0, 10.0), (0.3, 1000.0), (2.0, 5.0)):
        dt = default_dt(delay, horizon)
        assert dt <= delay / 64.0 + 1e-15
        assert dt <= 1e-3 * horizon * (1.0 + 1e-12)
        steps = delay / dt
        assert abs(steps - round(steps)) < 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.1, horizon=1.0, scheme="exact")
    with pytest.raises(ValueError):
        SimConfig(dt=0.1, horizon=1.0, record_stride=0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="dt must be finite"):
            SimConfig(dt=bad, horizon=1.0)
        with pytest.raises(ValueError, match="horizon must be finite"):
            SimConfig(dt=0.1, horizon=bad)


@pytest.mark.parametrize("scheme", ["thinning", "bernoulli"])
def test_start_mode_outside_a_finite_mode_space_raises(scheme):
    # predator_prey's modes are 1..n_max; its per-mode bound once raised
    # IndexError for a start mode beyond them
    spec, lin = registry_get("predator_prey", {"n_max": 5, "phi_cap": 1.0})
    cfg = SimConfig(dt=1.0 / 1024, horizon=0.01, scheme=scheme, seed=1)
    phi0 = Segment.make_constant([1.0], spec.delay, cfg.dt)
    assert simulate(spec, phi0, 5, cfg).modes[0] == 5
    for run in (lambda: simulate(spec, phi0, 6, cfg),
                lambda: BatchEnsemble(spec, phi0, 6, cfg, 2),
                lambda: simulate_coupled(spec, lin, phi0, 6, cfg)):
        with pytest.raises(ValueError, match=r"mode 6 is outside the mode space 1\.\.5"):
            run()


def test_zero_diffusion_matches_explicit_euler():
    model = plain_model(lambda x, i: -np.asarray(x, dtype=float))
    dt = 0.1
    phi0 = Segment.make_constant([1.0], 1.0, dt)
    expect = (1.0 - dt) ** np.arange(21)
    rec = simulate(model, phi0, 1, SimConfig(dt=dt, horizon=2.0, seed=3, scheme="bernoulli"))
    assert np.allclose(rec.states[:, 0], expect, rtol=0, atol=1e-14)
    assert rec.jump_times == []
    assert not rec.blow_up
    # thinning proposals do not split steps: both schemes take the same Euler steps
    rec2 = simulate(model, phi0, 1, SimConfig(dt=dt, horizon=2.0, seed=3))
    assert np.array_equal(rec2.states, rec.states) and np.array_equal(rec2.times, rec.times)


def test_same_seed_reproduces_path():
    model = plain_model(
        lambda x, i: -np.asarray(x, dtype=float),
        diffusion=lambda x, i: np.array([[0.4]]),
        rates=two_mode_rates(1.0, 2.0),
        bound=2.0,
    )
    phi0 = Segment.make_constant([1.0], 1.0, 0.05)
    cfg = SimConfig(dt=0.05, horizon=3.0, seed=11)
    a = simulate(model, phi0, 1, cfg)
    b = simulate(model, phi0, 1, cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.modes, b.modes)
    assert a.jump_times == b.jump_times
    c = simulate(model, phi0, 1, replace(cfg, seed=12))
    assert not np.array_equal(a.states, c.states)


@pytest.mark.parametrize("scheme", ["thinning", "bernoulli"])
def test_jumps_follow_declared_targets(scheme):
    def rates(seg, i):
        if i == 1:
            return {2: 1.0, 3: 1.0}
        if i == 2:
            return {1: 1.0, 3: 1.0}
        return {1: 1.0, 2: 1.0, i + 1: 1.0}

    model = plain_model(lambda x, i: np.zeros(1), rates=rates, bound=3.0)
    phi0 = Segment.make_constant([0.0], 1.0, 0.05)
    rec = simulate(model, phi0, 1, SimConfig(dt=0.05, horizon=20.0, seed=5, scheme=scheme))
    assert len(rec.jump_times) > 10
    for t, src, dst in rec.jump_times:
        assert dst in rates(phi0, src)
        assert 0.0 < t <= 20.0 + 1e-12
    assert rec.modes.min() >= 1


def test_bernoulli_needs_small_steps():
    model = plain_model(lambda x, i: np.zeros(1), bound=20.0)
    phi0 = Segment.make_constant([0.0], 1.0, 0.05)
    with pytest.raises(ValueError):
        simulate(model, phi0, 1, SimConfig(dt=0.05, horizon=1.0, scheme="bernoulli"))


def test_record_stride_keeps_endpoints():
    model = plain_model(lambda x, i: np.ones(1))
    phi0 = Segment.make_constant([0.0], 1.0, 0.1)
    rec = simulate(model, phi0, 1, SimConfig(dt=0.1, horizon=1.0, seed=0, record_stride=4))
    # strides at steps 4 and 8 plus both endpoints
    assert np.allclose(rec.times, [0.0, 0.4, 0.8, 1.0])


def test_seed_and_stride_must_be_integers():
    # int() once truncated them: seed 1.7 ran seed 1's path and a stride of
    # 2.5 recorded every 5th step
    for kw in ({"seed": 1.7}, {"seed": 1.0}, {"seed": "1"}, {"record_stride": 2.5}):
        (name,) = kw
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SimConfig(dt=0.1, horizon=1.0, **kw)
    model = plain_model(lambda x, i: np.ones(1))
    phi0 = Segment.make_constant([0.0], 1.0, 0.1)
    runs = [simulate(model, phi0, 1, SimConfig(dt=0.1, horizon=1.0, seed=seed, record_stride=k))
            for seed, k in ((3, 4), (np.int64(3), np.int32(4)))]
    assert np.array_equal(runs[0].times, runs[1].times)
    assert np.array_equal(runs[0].states, runs[1].states)


def test_blow_up_is_flagged_not_raised():
    model = plain_model(lambda x, i: np.asarray(x, dtype=float) ** 3)
    phi0 = Segment.make_constant([10.0], 1.0, 0.1)
    rec = simulate(model, phi0, 1, SimConfig(dt=0.1, horizon=5.0, seed=0))
    assert rec.blow_up
    assert np.isfinite(rec.states).all()
    assert rec.times[-1] < 5.0
    _, lin = coupled_setup(lambda seg, i: {}, lambda i: {2: 1e-6} if i == 1 else {1: 1e-6}, 1e-6, 1.0)
    pair = simulate_coupled(model, lin, phi0, 1, SimConfig(dt=0.1, horizon=5.0, seed=0))
    assert pair.blow_up
    assert math.isinf(pair.decouple_time)
    assert pair.times[-1] < 5.0


def test_stop_hook_halts_at_grid_point():
    model = plain_model(lambda x, i: -np.asarray(x, dtype=float))
    phi0 = Segment.make_constant([1.0], 1.0, 0.1)
    rec = simulate(
        model,
        phi0,
        1,
        SimConfig(dt=0.1, horizon=10.0, seed=0),
        stop=lambda t, seg, mode: seg.terminal()[0] < 0.5,
    )
    assert rec.stop_time == pytest.approx(rec.times[-1])
    assert rec.terminal.terminal()[0] < 0.5
    # stop can trigger immediately
    rec0 = simulate(
        model, phi0, 1, SimConfig(dt=0.1, horizon=1.0, seed=0), stop=lambda t, s, m: True
    )
    assert rec0.stop_time == 0.0


def test_on_grid_sees_every_point():
    model = plain_model(lambda x, i: np.zeros(1))
    phi0 = Segment.make_constant([0.0], 1.0, 0.1)
    seen = []
    simulate(
        model,
        phi0,
        1,
        SimConfig(dt=0.1, horizon=1.0, seed=0, record_stride=100),
        on_grid=lambda t, seg, mode: seen.append(t),
    )
    assert len(seen) == 11
    assert seen[0] == 0.0
    assert seen[-1] == pytest.approx(1.0)


def test_ensemble_rerun_invariance():
    # a rerun of the batch engine on history-dependent rates gives the same bits
    phi0 = Segment.make_constant([1.0], 1.0, 0.1)
    cfg = SimConfig(dt=0.1, horizon=2.0, seed=7)
    path_dep = plain_model(
        lambda x, i: -np.asarray(x, dtype=float),
        diffusion=lambda x, i: np.array([[0.3]]),
        rates=lambda seg, i: {3 - i: 1.0 / (1.0 + seg.sup_norm())},
        bound=1.0,
    )
    first = occupation_fractions(path_dep, phi0, 1, cfg, 6, [1, 2])
    rerun = occupation_fractions(path_dep, phi0, 1, cfg, 6, [1, 2])
    for a, b in zip(first, rerun):
        assert np.array_equal(a, b)


def check_against_one_path_engine(model, phi0, i0, cfg):
    """``simulate`` against a one-path :class:`BatchEnsemble` run step by
    step: states and modes at every grid point up to a blow-up, and the
    jump count.  Returns the record."""
    rec = simulate(model, phi0, i0, cfg)
    eng = BatchEnsemble(model, phi0, i0, cfg, 1)
    assert np.array_equal(rec.states[0], eng.x[0]) and rec.modes[0] == eng.modes[0]
    for k in range(1, int(round(cfg.horizon / cfg.dt)) + 1):
        jumps = eng.jumps
        eng.step()
        if eng.blown[0]:  # the record ends at the last finite state
            assert rec.blow_up and rec.times.size == k and len(rec.jump_times) == jumps
            return rec
        assert rec.times[k] == k * cfg.dt
        assert np.array_equal(rec.states[k], eng.x[0]), k
        assert rec.modes[k] == eng.modes[0], k
    assert not rec.blow_up and rec.times.size == k + 1
    assert len(rec.jump_times) == eng.jumps
    return rec


@pytest.mark.parametrize("scheme", ["thinning", "bernoulli"])
@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_simulate_is_the_one_path_engine(name, scheme):
    # simulate draws from the engine's stream (seed, 1) in its per-step
    # order, so one path of either is the other, bit for bit
    spec = load_model_config(CONFIG_DIR / f"{name}.json").spec
    dt = spec.delay / 64
    while scheme == "bernoulli" and dt * spec.rate_bound >= 0.5:
        dt /= 2
    phi0 = Segment.make_constant(np.ones(spec.dim), spec.delay, dt)
    recs = [check_against_one_path_engine(spec, phi0, 1, SimConfig(dt=dt, horizon=4.0,
                                                                   scheme=scheme, seed=seed))
            for seed in (1, 2, 3)]
    assert sum(len(rec.jump_times) for rec in recs) > 3


@pytest.mark.parametrize("scheme", ["thinning", "bernoulli"])
def test_simulate_is_the_one_path_engine_through_post_step_and_blow_up(scheme):
    # mode 2 blows up, the projection onto x >= 0 holds noisy paths at 0,
    # and the rates read the window
    model = plain_model(
        lambda x, i: (i - 1.5) * 2.0 * np.asarray(x, dtype=float) ** 3,
        diffusion=lambda x, i: np.array([[0.5]]),
        rates=lambda seg, i: {3 - i: 2.0 / (1.0 + seg.sup_norm())},
        bound=2.0,
        post_step=lambda x: np.maximum(x, 0.0),
    )
    phi0 = Segment.make_constant([0.5], 1.0, 0.05)
    recs = [check_against_one_path_engine(model, phi0, 1, SimConfig(dt=0.05, horizon=20.0,
                                                                    scheme=scheme, seed=seed))
            for seed in (1, 2, 3)]
    assert any(rec.blow_up for rec in recs)
    assert any((rec.states == 0.0).any() for rec in recs)


def block_model(cols, rate, blow):
    """Two modes whose rates read the window, so every proposal ends an
    increment block; ``cols`` noise columns (0: zero diffusion) and, for
    ``blow`` > 0, a cubic drift in mode 2 that overflows within a few steps."""
    return ModelSpec(
        dim=1,
        brownian_dim=max(cols, 1),
        drift=lambda x, i: blow * np.asarray(x, float) ** 3 if i == 2 else -np.asarray(x, float),
        diffusion=lambda x, i: np.full((1, max(cols, 1)), 0.4 * i),
        rates_row=lambda seg, i: {3 - i: rate / (1.0 + seg.sup_norm())},
        rate_bound=rate,
        delay=0.5,
        zero_diffusion=cols == 0,
    )


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.05, 0.125, 0.25]), st.integers(1, 4),
       st.sampled_from(["thinning", "bernoulli"]), st.integers(0, 2),
       st.sampled_from([0.5, 1.5]), st.sampled_from([0.0, 40.0]),
       st.sampled_from([None, 0.0, 0.35, 1.3]), st.booleans(), st.sampled_from([2, 4096]))
def test_simulate_draws_increment_blocks_as_the_stepwise_loop(
        seed, dt, stride, scheme, cols, rate, blow, stop_at, watch, block):
    # a thinning run draws the increments up to the next proposal in one
    # call (at most ``block`` steps); the record is the one-draw-per-step
    # loop's, field for field, through stop hooks and blow-ups that land
    # inside a block
    model = block_model(cols, rate, blow)
    phi0 = Segment.make_constant([0.8], model.delay, dt)
    cfg = SimConfig(dt=dt, horizon=4.0, scheme=scheme, seed=seed, record_stride=stride)
    hooks = {}
    if stop_at is not None:
        hooks["stop"] = lambda t, seg, mode: t >= stop_at
    if watch:
        hooks["on_grid"] = lambda t, seg, mode: None
    with mock.patch("switchsde.sim._BLOCK_STEPS", block):
        got = simulate(model, phi0, 2, cfg, **hooks)
    want = stepwise_simulate(model, phi0, 2, cfg, **hooks)
    for field in ("times", "states", "modes"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field
    assert got.jump_times == want.jump_times
    assert got.terminal.samples.tobytes() == want.terminal.samples.tobytes()
    assert (got.blow_up, got.stop_time) == (want.blow_up, want.stop_time)


def coupled_setup(primary_rates, qhat_row, qhat_bound, model_bound):
    model = plain_model(lambda x, i: np.zeros(1), rates=primary_rates, bound=model_bound)
    lin = Linearization(
        b_mat=lambda i: np.zeros((1, 1)),
        sigma_mats=lambda i: [np.zeros((1, 1))],
        qhat=SparseGenerator(qhat_row, rate_bound=qhat_bound),
        coeff_bound=1e-12,
    )
    return model, lin


def test_coupled_identical_rates_never_decouple():
    row = lambda i: {2: 1.0} if i == 1 else {1: 1.0}
    model, lin = coupled_setup(lambda seg, i: row(i), row, 1.0, 1.0)
    phi0 = Segment.make_constant([0.0], 1.0, 0.1)
    for k in range(50):
        rec = simulate_coupled(model, lin, phi0, 1, SimConfig(dt=0.1, horizon=5.0, seed=k))
        assert math.isinf(rec.decouple_time)
        assert np.array_equal(rec.modes, rec.modes_hat)
    with pytest.raises(TypeError):  # no state-norm floor: a record ends at the horizon
        simulate_coupled(model, lin, phi0, 1, SimConfig(dt=0.1, horizon=5.0), stop_radius=1.0)


def test_coupled_decouple_time_is_exponential():
    # primary chain never moves; reference jumps alone at rate 0.7
    lam = 0.7
    model, lin = coupled_setup(
        lambda seg, i: {}, lambda i: {2: lam} if i == 1 else {1: lam}, lam, 0.5
    )
    phi0 = Segment.make_constant([0.0], 1.0, 0.5)
    cfg = SimConfig(dt=0.5, horizon=40.0, seed=9)
    times = []
    for k in range(1500):
        rec = simulate_coupled(model, lin, phi0, 1, replace(cfg, seed=k))
        assert math.isfinite(rec.decouple_time)
        times.append(rec.decouple_time)
    mean = float(np.mean(times))
    se = float(np.std(times, ddof=1) / math.sqrt(len(times)))
    assert abs(mean - 1.0 / lam) < 4.0 * se
    assert rec.modes[-1] != rec.modes_hat[-1]


def batch_model(rates, bound, *, diffusion=None, drift=None):
    return ModelSpec(
        dim=1,
        brownian_dim=1,
        drift=drift or (lambda x, i: np.zeros_like(np.asarray(x, dtype=float))),
        diffusion=diffusion or (lambda x, i: np.zeros((1, 1))),
        rates_row=rates,
        rate_bound=bound,
        delay=1.0,
        zero_diffusion=diffusion is None,
        rates_depend_on_path=False,
    )


def test_coefficients_need_a_path_axis_unless_constant():
    # np.array([-x[0]]) is a drift for one state: on a group of paths it
    # gives (1, 1), which would broadcast path 0's drift to every path
    pointwise = plain_model(lambda x, i: np.array([-x[0]]), diffusion=lambda x, i: np.array([[0.3]]))
    phi0 = Segment.make_constant([0.5], 1.0, 0.1)
    cfg = SimConfig(dt=0.1, horizon=1.0, seed=2)
    for n_paths in (2, 5):
        with pytest.raises(ValueError, match=rf"drift\(x, 1\) gave shape \(1, 1\) for {n_paths} states"):
            BatchEnsemble(pointwise, phi0, 1, cfg, n_paths).run(1)
    noisy = replace(pointwise, drift=lambda x, i: -np.asarray(x, dtype=float),
                    diffusion=lambda x, i: np.array([[0.3 * x[0]]]))
    with pytest.raises(ValueError, match=r"diffusion\(x, 1\) gave shape \(1, 1, 1\) for 3 states"):
        BatchEnsemble(noisy, phi0, 1, cfg, 3).run(1)
    # the diffusion np.array([[0.3]]) has no path axis: a constant for every path
    const = replace(pointwise, drift=lambda x, i: -np.asarray(x, dtype=float))
    eng = BatchEnsemble(const, phi0, 1, cfg, 4)
    eng.run(10)
    assert np.isfinite(eng.x).all() and np.unique(eng.x).size == 4
    # with one path in the group, one row is that path's own drift
    one = BatchEnsemble(pointwise, phi0, 1, cfg, 1)
    one.run(10)
    assert np.isfinite(one.x).all()


def test_post_step_must_keep_the_state_shape():
    # max(x[0], 0) projects one state: on 4 paths it returns a single state,
    # which used to pass silently and fail the next step with an IndexError.
    # The check runs at every step: a projection that keeps the shape once
    # and collapses at the second call fails on the second step
    calls = []

    def collapse_from(k):
        def post(x):
            calls.append(None)
            return x if len(calls) < k else np.array([max(x[0], 0.0)])
        return post

    phi0 = Segment.make_constant([0.5], 1.0, 0.1)
    cfg = SimConfig(dt=0.1, horizon=1.0, seed=2)
    for n_steps in (1, 2):
        calls.clear()
        model = plain_model(lambda x, i: -np.asarray(x, dtype=float),
                            post_step=collapse_from(n_steps))
        eng = BatchEnsemble(model, phi0, 1, cfg, 4)
        assert eng._plan()[0] is None  # one mode: the step in path order checks it too
        with pytest.raises(ValueError, match=r"post_step\(x\) gave shape \(1, 1\) "
                                             r"for states of shape \(4, 1\)"):
            eng.run(n_steps)
        assert len(calls) == n_steps and eng.t == pytest.approx((n_steps - 1) * cfg.dt)


def test_negative_rates_raise():
    # at u = 0.3 the walk over this row picks 2 and the running-sum count
    # picks 3: the two pick rules would draw different laws from it
    bad = {2: 0.5, 3: -0.4, 4: 0.5}
    neg = r"rates out of {} include -0\.4; a rate cannot be negative"
    with pytest.raises(ValueError, match=neg.format("mode 1")):
        pick_target(bad, 0.3, 1.0, 1)
    model = plain_model(lambda x, i: np.zeros_like(np.asarray(x, dtype=float)),
                        rates=lambda seg, i: dict(bad) if i == 1 else {1: 0.5})
    phi0 = Segment.make_constant([0.0], 1.0, 0.1)
    _, lin = coupled_setup(None, lambda i: {2: 0.5} if i == 1 else {1: 0.5}, 0.5, 1.0)
    for scheme in ("thinning", "bernoulli"):
        cfg = SimConfig(dt=0.1, horizon=20.0, seed=0, scheme=scheme)
        with pytest.raises(ValueError, match=neg.format("mode 1")):
            simulate(model, phi0, 1, cfg)
        # a cached row is checked once, before the coupling reads it
        cached = replace(model, rates_depend_on_path=False)
        for engine, pair in ((model, r"modes \(1, 1\)"), (cached, "mode 1")):
            with pytest.raises(ValueError, match=neg.format("mode 1")):
                BatchEnsemble(engine, phi0, 1, cfg, 4).run(200)
            with pytest.raises(ValueError, match=neg.format(pair)):
                BatchEnsemble(engine, phi0, 1, cfg, 4, qhat=lin.qhat).run(200)
        with pytest.raises(ValueError, match=neg.format(r"modes \(1, 1\)")):
            simulate_coupled(model, lin, phi0, 1, cfg)


def test_nan_rates_raise():
    # NaN fails no comparison, so a row with a NaN rate once passed every
    # check and, under thinning, never jumped
    nan_row = {2: 0.5, 3: float("nan")}
    model = plain_model(lambda x, i: np.zeros_like(np.asarray(x, dtype=float)),
                        rates=lambda seg, i: dict(nan_row) if i == 1 else {1: 0.5})
    phi0 = Segment.make_constant([0.0], 1.0, 0.1)
    _, lin = coupled_setup(None, lambda i: {2: 0.5} if i == 1 else {1: 0.5}, 0.5, 1.0)
    nan = r"rates out of {} total nan; a rate cannot be NaN"
    for scheme in ("thinning", "bernoulli"):
        cfg = SimConfig(dt=0.1, horizon=20.0, seed=0, scheme=scheme)
        with pytest.raises(ValueError, match=nan.format("mode 1")):
            simulate(model, phi0, 1, cfg)
        for engine in (model, replace(model, rates_depend_on_path=False)):
            with pytest.raises(ValueError, match=nan.format("mode 1")):
                BatchEnsemble(engine, phi0, 1, cfg, 4).run(200)
        with pytest.raises(ValueError, match=nan.format(r"modes \(1, 1\)")):
            simulate_coupled(model, lin, phi0, 1, cfg)


@pytest.mark.parametrize("bad", [float("nan"), math.inf, -0.5])
@pytest.mark.parametrize("per_mode", [False, True])
def test_a_bad_reference_rate_raises(bad, per_mode):
    # the reference row enters the coupling clock's rate: a NaN made it NaN
    # and a negative total could make it <= 0, and either stopped every
    # clock, so no pair ever parted
    row = lambda i: {2: 0.5} if i == 1 else {1: 0.5}
    extra = dict(mode_rate_bound=lambda i: 0.5) if per_mode else {}
    model = plain_model(lambda x, i: np.zeros(1), rates=lambda seg, i: row(i), bound=0.5,
                        **extra)
    _, lin = coupled_setup(None, lambda i: {2: bad} if i == 1 else {1: 0.5}, 0.5, 1.0)
    phi0 = Segment.make_constant([1.0], 1.0, 0.1)
    cfg = SimConfig(dt=0.1, horizon=20.0, seed=0)
    message = r"reference rates out of mode 1 total .*; each rate must be finite and nonnegative"
    with pytest.raises(ValueError, match=message):
        simulate_coupled(model, lin, phi0, 1, cfg)
    with pytest.raises(ValueError, match=message):
        BatchEnsemble(model, phi0, 1, cfg, 4, qhat=lin.qhat).run(200)
    with pytest.raises(ValueError, match=message):
        coupling_decay(model, lin, [1.0], cfg, 4)
    # a reference row is read when a pair first sits in its mode
    _, lin = coupled_setup(None, lambda i: {1: bad} if i == 2 else {2: 0.5}, 0.5, 1.0)
    assert BatchEnsemble(model, phi0, 1, cfg, 4, qhat=lin.qhat).modes_hat.tolist() == [1] * 4
    with pytest.raises(ValueError, match=message.replace("mode 1", "mode 2")):
        simulate_coupled(model, lin, phi0, 1, cfg)


def test_batch_engine_deterministic_states_and_history():
    model = batch_model(
        lambda seg, i: {}, 1.0, drift=lambda x, i: np.ones_like(np.asarray(x, dtype=float))
    )
    phi0 = Segment.make_constant([0.0], 1.0, 0.25)
    eng = BatchEnsemble(model, phi0, 1, SimConfig(dt=0.25, horizon=3.0, seed=0), 3, track_history=True)
    eng.run(6)
    assert np.allclose(eng.x, 1.5)
    hist = eng.history()
    assert hist.shape == (5, 3, 1)
    # window spans [t - 1, t] in steps of dt
    assert np.allclose(hist[:, 0, 0], [0.5, 0.75, 1.0, 1.25, 1.5])


def test_batch_two_mode_occupation_near_balance():
    a, b = 1.0, 3.0
    model = batch_model(lambda seg, i: {2: a} if i == 1 else {1: b}, a + b)
    phi0 = Segment.make_constant([0.0], 1.0, 0.05)
    cfg = SimConfig(dt=0.05, horizon=50.0, seed=21)
    eng = BatchEnsemble(model, phi0, 1, cfg, 300)
    in_one = np.zeros(300)
    steps = [0]

    for _ in range(1000):
        in_one[:] += eng.modes == 1
        steps[0] += 1
        eng.step()
    frac = in_one / steps[0]
    # long-run fraction in mode 1 is b / (a + b)
    assert abs(frac.mean() - 0.75) < 0.02


def test_batch_blow_up_parks_paths():
    model = batch_model(
        lambda seg, i: {},
        1.0,
        drift=lambda x, i: np.asarray(x, dtype=float) ** 3,
    )
    phi0 = Segment.make_constant([10.0], 1.0, 0.1)
    eng = BatchEnsemble(model, phi0, 1, SimConfig(dt=0.1, horizon=3.0, seed=0), 5)
    eng.run(30)
    assert eng.blown.all()
    assert np.isfinite(eng.x).all()


def test_batch_blown_paths_leave_the_plan():
    # a blown path stays parked at 0 outside the plan, and its later jumps
    # leave the plan as it is
    model = batch_model(
        two_mode_rates(1.0, 1.0), 1.0, drift=lambda x, i: np.asarray(x, dtype=float) ** 3
    )
    phi0 = Segment.make_constant([10.0], 1.0, 0.1)
    eng = BatchEnsemble(model, phi0, 1, SimConfig(dt=0.1, horizon=6.0, seed=0), 5,
                        track_history=True)
    eng.run(30)
    assert eng.blown.all() and eng.groups() == []
    plan, jumps = eng.groups(), eng.jumps
    eng.run(20)
    assert eng.jumps > jumps and eng.groups() is plan
    assert not eng.x.any() and not eng.history().any()


def test_rows_above_the_bound_raise():
    # the model declares rate_bound 1.0, but mode 1 leaves at total rate 1.5
    model = plain_model(lambda x, i: np.zeros(1), rates=two_mode_rates(1.5, 0.5), bound=1.0)
    phi0 = Segment.make_constant([0.0], 1.0, 0.1)
    cfg = SimConfig(dt=0.1, horizon=20.0, seed=0)
    over = r"mode 1 total 1\.5, above the bound 1\.0"
    with pytest.raises(ValueError, match=over):
        simulate(model, phi0, 1, cfg)
    for engine in (model, replace(model, rates_depend_on_path=False)):
        with pytest.raises(ValueError, match=over):
            BatchEnsemble(engine, phi0, 1, cfg, 4).run(200)
    _, lin = coupled_setup(None, lambda i: {2: 0.25} if i == 1 else {1: 0.25}, 0.25, 1.0)
    with pytest.raises(ValueError, match=r"modes \(1, 1\) total 1\.5, above the bound 1\.25"):
        simulate_coupled(model, lin, phi0, 1, cfg)
    with pytest.raises(ValueError, match="above the bound"):
        BatchEnsemble(model, phi0, 1, cfg, 4, qhat=lin.qhat).run(200)
    # bernoulli truncates only a row above 1 / dt
    steep = plain_model(lambda x, i: np.zeros(1), rates=two_mode_rates(50.0, 0.5), bound=1.0)
    bern = replace(cfg, scheme="bernoulli")
    with pytest.raises(ValueError, match=r"mode 1 total 50\.0, above the bound 10\.0"):
        simulate(steep, phi0, 1, bern)
    for engine in (steep, replace(steep, rates_depend_on_path=False)):
        with pytest.raises(ValueError, match="above the bound 10"):
            BatchEnsemble(engine, phi0, 1, bern, 4).run(1)


def test_mode_bounds_keep_thinning_exact():
    # each mode's bound equals its row total: every proposal jumps, and a gap
    # drawn at the other mode's bound would raise or skew the balance b / (a + b)
    a, b = 1.0, 3.0
    model = plain_model(
        lambda x, i: np.zeros_like(np.asarray(x, dtype=float)),
        rates=two_mode_rates(a, b),
        bound=b,
        mode_rate_bound=lambda i: a if i == 1 else b,
    )
    phi0 = Segment.make_constant([0.0], 1.0, 0.05)
    rec = simulate(model, phi0, 1, SimConfig(dt=0.05, horizon=1000.0, seed=8))
    # sd of the long-run fraction is sqrt(2ab / (a + b)^3 / T) ~ 0.01
    assert abs(np.mean(rec.modes[:-1] == 1) - 0.75) < 0.04
    for rates_depend_on_path in (True, False):
        eng = BatchEnsemble(
            replace(model, rates_depend_on_path=rates_depend_on_path),
            phi0, 1, SimConfig(dt=0.05, horizon=50.0, seed=21), 300,
        )
        in_one = np.zeros(300)
        for _ in range(1000):
            in_one[:] += eng.modes == 1
            eng.step()
        # 300 paths of length 50: sd ~ 0.003
        assert abs(in_one.mean() / 1000 - 0.75) < 0.02


def test_batch_keep_drops_paths_everywhere():
    model = batch_model(two_mode_rates(1.0, 1.0), 1.0)
    phi0 = Segment.make_constant([0.0], 1.0, 0.25)
    _, lin = coupled_setup(None, lambda i: {2: 1.0} if i == 1 else {1: 1.0}, 1.0, 1.0)
    eng = BatchEnsemble(model, phi0, 1, SimConfig(dt=0.25, horizon=3.0, seed=0), 5,
                        track_history=True, qhat=lin.qhat)
    eng.run(3)
    mask = np.array([True, False, True, False, True])
    expect = (eng.x[mask], eng.modes[mask], eng.modes_hat[mask], eng.history()[:, mask])
    eng.keep(mask)
    assert eng.n_paths == 3
    for got, want in zip((eng.x, eng.modes, eng.modes_hat, eng.history()), expect):
        assert np.array_equal(got, want)
    assert eng.blown.shape == eng.decouple_time.shape == (3,)
    eng.run(2)


def test_batch_cohorts_start_from_their_windows():
    # a sequence of S start windows gives S cohorts of n_paths paths each,
    # cohort k the paths k * n_paths to (k + 1) * n_paths - 1, on one stream
    model = batch_model(two_mode_rates(1.0, 3.0), 3.0, diffusion=lambda x, i: np.array([[0.5]]))
    starts = [Segment(np.linspace(a, a + 1.0, 5)[:, None], 1.0, 0.25) for a in (0.0, 10.0, -4.0)]
    cfg = SimConfig(dt=0.25, horizon=3.0, seed=7)
    eng = BatchEnsemble(model, starts, 1, cfg, 4, track_history=True)
    assert eng.n_paths == 12
    hist = eng.history()
    for k, seg in enumerate(starts):
        assert np.array_equal(eng.x[4 * k:4 * k + 4], np.tile(seg.terminal(), (4, 1)))
        assert np.array_equal(hist[:, 4 * k:4 * k + 4], np.repeat(seg.samples[:, None], 4, axis=1))
    # a one-element sequence is the run of that start, bit for bit
    one = BatchEnsemble(model, starts[1:2], 1, cfg, 4, track_history=True)
    alone = BatchEnsemble(model, starts[1], 1, cfg, 4, track_history=True)
    one.run(12)
    alone.run(12)
    for got, want in zip((one.x, one.modes, one.history()), (alone.x, alone.modes, alone.history())):
        assert got.tobytes() == want.tobytes()
    # the path count is checked first, then the windows
    with pytest.raises(ValueError, match="n_paths must be an integer >= 1, got 0"):
        BatchEnsemble(model, [], 1, cfg, 0)
    with pytest.raises(ValueError, match="phi0 must hold at least one start window"):
        BatchEnsemble(model, [], 1, cfg, 4)
    with pytest.raises(ValueError, match="phi0 grid step"):
        BatchEnsemble(model, [starts[0], Segment.make_constant([0.0], 1.0, 0.125)], 1, cfg, 4)


def test_sup_norm_cache_follows_pushes_and_keep():
    # the cached window sup-norms against each path's own Segment, across
    # pushes and two keep calls that must compact the squared-norm ring
    model = batch_model(lambda seg, i: {}, 1.0, diffusion=lambda x, i: np.array([[0.8]]),
                        drift=lambda x, i: -0.3 * np.asarray(x, dtype=float))
    phi0 = Segment(np.linspace(-1.0, 2.0, 5)[:, None], 1.0, 0.25)
    eng = BatchEnsemble(model, phi0, 1, SimConfig(dt=0.25, horizon=10.0, seed=3), 12,
                        track_history=True)
    for k in range(30):
        if k in (8, 19):
            eng.sup_norms()  # read the cache before keep, as the hitting estimator does
            eng.keep(np.arange(eng.n_paths) % 3 != 1)
        hist = eng.history()
        want = [Segment(hist[:, p], 1.0, 0.25).sup_norm() for p in range(eng.n_paths)]
        assert eng.sup_norms().tolist() == want
        eng.step()
    assert eng.n_paths == 5


@pytest.mark.parametrize("coupled", [False, True])
def test_thinning_keeps_the_earliest_clock(coupled):
    # a step that ends before the earliest clock proposes nothing and skips
    # the proposal loop; the bound it tests must be the clocks' minimum
    # after every round of proposals, after keep and after a decoupling
    model = batch_model(two_mode_rates(0.8, 1.5), 1.5)
    qhat = SparseGenerator(lambda i: {3 - i: 1.0}, rate_bound=1.0) if coupled else None
    phi0 = Segment.make_constant([0.0], 1.0, 0.05)
    eng = BatchEnsemble(model, phi0, 1, SimConfig(dt=0.05, horizon=5.0, seed=8), 12, qhat=qhat)
    assert eng._first_ev == eng._next_ev.min()
    idle = 0
    for k in range(80):
        if k in (15, 35):  # drop the path whose clock fires first
            eng.keep(np.arange(eng.n_paths) != np.argmin(eng._next_ev))
            assert eng._first_ev == eng._next_ev.min()
        proposals = eng.proposals
        eng.step()
        assert eng._first_ev == eng._next_ev.min(initial=math.inf)
        idle += eng.proposals == proposals
    assert eng.n_paths == 10 and eng.proposals > 20 and idle > 10
    assert np.isfinite(eng.decouple_time).sum() > 3 if coupled else eng.jumps > 20


def test_coupling_reads_each_reference_row_once():
    # a coupled proposal needs the reference row of its mode and the pair
    # clock rates of that mode and of the mode it lands in; each mode's row
    # is read once per engine
    reads = []

    def ref(i):
        reads.append(i)
        return {3 - i: 0.6}

    model = replace(batch_model(two_mode_rates(0.6, 0.6), 1.0), mode_rate_bound=lambda i: 0.8)
    phi0 = Segment.make_constant([0.0], 1.0, 0.05)
    eng = BatchEnsemble(model, phi0, 1, SimConfig(dt=0.05, horizon=20.0, seed=3), 8,
                        qhat=SparseGenerator(ref, rate_bound=0.6))
    eng.run(400)
    assert eng.proposals > 100 and eng.jumps > 50
    assert not np.isfinite(eng.decouple_time).any()  # identical rates never part
    assert sorted(reads) == [1, 2]


def test_batch_rates_read_each_paths_window():
    # bernoulli reads the rates of every mode group once per step, on the
    # windows of the group's paths before the step's push
    seen = []

    def rates(seg, i):
        grid = -seg.delay + seg.dt * np.arange(5)
        seen.append((i, np.stack([seg.value_at(s) for s in grid]), seg.value_at(-seg.delay)))
        return {3 - i: 0.5}

    model = ModelSpec(
        dim=1,
        brownian_dim=1,
        drift=lambda x, i: -np.asarray(x, dtype=float),
        diffusion=lambda x, i: np.array([[0.5]]),
        rates_row=rates,
        rate_bound=1.0,
        delay=1.0,
    )
    phi0 = Segment.make_constant([1.0], 1.0, 0.25)
    cfg = SimConfig(dt=0.25, horizon=5.0, scheme="bernoulli", seed=4)
    eng = BatchEnsemble(model, phi0, 1, cfg, 3)
    windows = []
    for _ in range(12):
        windows.append((eng.history(), [(v, paths) for v, paths, _ in eng.groups()]))
        eng.step()
    calls = iter(seen)
    for hist, groups in windows:
        assert sum(paths.size for _, paths in groups) == 3
        for v, paths in groups:
            i, samples, oldest = next(calls)
            assert i == v
            assert np.array_equal(samples, hist[:, paths])
            assert np.array_equal(oldest, hist[0, paths])
    assert next(calls, None) is None


def cycling_model(**kw):
    """Four modes left at total rate 2 to the next mode (mode-dependent
    drift and two-column diffusion, both evaluated row by row)."""

    def diffusion(x, i):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape + (2,))
        out[..., 0] = 0.1 * i
        out[..., 1] = 0.05 * x
        return out

    return ModelSpec(
        dim=1,
        brownian_dim=2,
        drift=lambda x, i: -0.3 * i * np.asarray(x, dtype=float),
        diffusion=diffusion,
        rates_row=lambda seg, i: {i % 4 + 1: 2.0},
        rate_bound=2.0,
        delay=1.0,
        rates_depend_on_path=False,
        **kw,
    )


def fresh_step(eng):
    """The states after the next step from a per-group evaluation made
    afresh: the engine's draw, coefficients computed at the current modes."""
    model, dt = eng.model, eng.cfg.dt
    xi = copy.deepcopy(eng.rng).standard_normal((eng.n_paths, model.brownian_dim))
    order = np.argsort(eng.modes, kind="stable")
    out = eng.x.copy()
    for v in np.unique(eng.modes):
        g = order[eng.modes[order] == v]
        xg = eng.x[g]
        sg = model.diffusion(xg, int(v))
        out[g] = xg + model.drift(xg, int(v)) * dt + np.einsum(
            "...nd,...d->...n", sg, xi[g]) * math.sqrt(dt)
    return out


@pytest.mark.parametrize("scheme", ["thinning", "bernoulli"])
def test_batch_plan_and_coefficients_follow_the_state(scheme):
    # modes change at about a third of the steps; the plan, the cached
    # coefficients and every step's states must match a fresh evaluation
    model = cycling_model()
    phi0 = Segment.make_constant([1.0], 1.0, 0.05)
    eng = BatchEnsemble(model, phi0, 1, SimConfig(dt=0.05, horizon=5.0, scheme=scheme, seed=5), 40)
    changed = 0
    for k in range(60):
        if k in (20, 30):
            eng.groups()  # a plan that keep must drop with the paths
            eng.keep(np.arange(eng.n_paths) % 3 != 0)
        if k % 2:
            # read the cache before the step, as the Dynkin generator does
            xs, drift, sigma = eng.coefficients()
            groups = eng.groups()
            assert [v for v, _, _ in groups] == sorted(set(eng.modes.tolist()))
            for v, paths, rows in groups:
                assert (eng.modes[paths] == v).all()
                assert np.array_equal(paths, np.sort(paths))
                assert np.array_equal(xs[rows], eng.x[paths])
                assert np.array_equal(drift[rows], model.drift(eng.x[paths], v))
                assert np.array_equal(sigma[rows], model.diffusion(eng.x[paths], v))
            assert sum(paths.size for _, paths, _ in groups) == eng.n_paths
        before = eng.modes.copy()
        want = fresh_step(eng)
        eng.step()
        assert np.array_equal(eng.x, want)
        changed += not np.array_equal(eng.modes, before)
    assert changed > 10


def test_batch_counts_proposals_and_jumps():
    # each mode's bound equals its row total, so every proposal jumps
    a, b = 1.0, 3.0
    model = batch_model(two_mode_rates(a, b), b)
    model = replace(model, mode_rate_bound=lambda i: a if i == 1 else b)
    phi0 = Segment.make_constant([0.0], 1.0, 0.05)
    eng = BatchEnsemble(model, phi0, 1, SimConfig(dt=0.05, horizon=5.0, seed=6), 50)
    eng.run(100)
    assert eng.proposals == eng.jumps > 100
    # bernoulli: one decision per path and step, and no thinning proposal
    bern = BatchEnsemble(model, phi0, 1, SimConfig(dt=0.05, horizon=5.0, scheme="bernoulli",
                                                   seed=6), 50)
    seen = []
    for _ in range(100):
        seen.append(bern.modes.copy())
        bern.step()
    seen.append(bern.modes)
    moves = sum(int((b != a).sum()) for a, b in zip(seen, seen[1:]))
    assert bern.proposals == 0 and bern.jumps == moves > 50


def random_rows(rng, n_modes):
    """Random history-free rows over modes 1..n_modes; mode 2 is absorbing."""
    rows = {}
    for v in range(1, n_modes + 1):
        targets = [j for j in range(1, n_modes + 1) if j != v and rng.random() < 0.6]
        rows[v] = {} if v == 2 else {j: float(rng.uniform(0.0, 1.5)) for j in targets}
    return rows


def window_factor(seg):
    """A rate factor in (0, 1] read off the window: one per path of a batch view."""
    return 1.0 / (1.0 + seg.sup_norm())


def test_bernoulli_table_picks_as_pick_target():
    for rates_depend_on_path in (False, True):
        check_picks_as_pick_target(rates_depend_on_path)


def check_picks_as_pick_target(rates_depend_on_path):
    # each step's new modes against pick_target on the replayed uniforms;
    # modes are first reached mid-run, and no mode is probed before a path
    # occupies it (mode 7's row is far above 1 / dt and would raise).  With
    # history, every row is scaled by a factor of the path's own window.
    rows = random_rows(np.random.default_rng(17), 6)
    rows[1][6] = 0.5
    rows[7] = {1: 1e6}
    probed = []
    occupied = set()

    def scaled(i, f):
        return {j: r * f for j, r in rows[i].items()}

    def rates(seg, i):
        probed.append(i)
        assert i in occupied
        return scaled(i, window_factor(seg) if rates_depend_on_path else 1.0)

    # with history, noise sets the paths' windows apart
    noise = (lambda x, i: np.array([[0.7]])) if rates_depend_on_path else None
    model = replace(batch_model(rates, 1.0, diffusion=noise),
                    rates_depend_on_path=rates_depend_on_path)
    dt = 0.1
    phi0 = Segment.make_constant([0.0], 1.0, dt)
    eng = BatchEnsemble(model, phi0, 1, SimConfig(dt=dt, horizon=5.0, scheme="bernoulli",
                                                  seed=9), 60)
    for _ in range(50):
        occupied.update(eng.modes.tolist())
        rng = copy.deepcopy(eng.rng)
        if noise is not None:  # the step draws its increments first
            rng.standard_normal((eng.n_paths, 1))
        u = rng.random(eng.n_paths)
        hist = eng.history()
        want = []
        for p, v in enumerate(eng.modes.tolist()):
            f = window_factor(Segment(hist[:, p], 1.0, dt)) if rates_depend_on_path else 1.0
            j = pick_target(scaled(v, f), u[p], 1.0 / dt, v) if rows[v] else None
            want.append(v if j is None else j)
        eng.step()
        assert eng.modes.tolist() == want
    assert len(set(occupied)) >= 5
    assert 7 not in probed
    assert len(probed) == len(set(probed)) or rates_depend_on_path


class ScriptedUniforms:
    """Stands in for the engine's stream: ``random(n)`` returns given draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self, n):
        out = np.asarray(self.draws.pop(0), dtype=float)
        assert out.shape == (n,)
        return out


def test_bernoulli_table_edges():
    for rates_depend_on_path in (False, True):
        check_table_edges(rates_depend_on_path)


def check_table_edges(rates_depend_on_path):
    # a uniform exactly on a running sum moves past it (the count of sums
    # <= u, the strict u < acc of pick_target); one at the row total does
    # not jump.  With history, the rows are read per path off zero windows
    # (factor 1), so the edges are the same.
    rows = {1: {2: 0.5, 3: 1.25, 4: 0.25}, 2: {}, 3: {1: 2.0, 4: 0.0, 2: 1.0}, 4: {1: 3.0}}
    dt = 0.125

    def rates(seg, i):
        f = window_factor(seg) if rates_depend_on_path else 1.0
        return {j: r * f for j, r in rows[i].items()}

    model = replace(batch_model(rates, 1.0), rates_depend_on_path=rates_depend_on_path)
    phi0 = Segment.make_constant([0.0], 1.0, dt)
    eng = BatchEnsemble(model, phi0, 1, SimConfig(dt=dt, horizon=5.0, scheme="bernoulli"), 8)
    scale = 1.0 / dt
    edges = {v: np.cumsum([r / scale for _, r in sorted(row.items())]) for v, row in rows.items()}
    c1 = edges[1]
    first = [0.0, c1[0], np.nextafter(c1[0], 0.0), c1[1], c1[1], c1[2], 0.99, c1[0]]
    below = np.nextafter(edges[3][1], 0.0)  # mode 3's zero-rate target 4 is never picked
    second = [0.0, edges[3][0], 0.5, np.nextafter(edges[4][0], 0.0), edges[4][0], 0.0, c1[2], below]
    eng.rng = ScriptedUniforms([first, second])
    for u in (first, second):
        modes = eng.modes.tolist()
        want = []
        for p, v in enumerate(modes):
            j = pick_target(rows[v], u[p], scale, v) if rows[v] else None
            want.append(v if j is None else j)
        eng.step()
        assert eng.modes.tolist() == want
    assert eng.modes.tolist() == [2, 2, 2, 1, 4, 2, 1, 2]


def logged_rates(rows, probed):
    """History-free rates off ``rows`` that log each mode they are read for."""
    def rates(seg, i):
        probed.append(i)
        return dict(rows[i])
    return rates


def group_walk_model(rows, probed):
    """Rows ``rows``, a drift of growth 10 * i in mode i and noise in
    proportion to the state: a start at 1e290 overflows within about 40
    steps of 0.1, at a time set by the path's modes and noise."""
    return ModelSpec(
        dim=1,
        brownian_dim=1,
        drift=lambda x, i: 10.0 * i * np.asarray(x, dtype=float),
        diffusion=lambda x, i: 0.8 * np.asarray(x, dtype=float)[..., None],
        rates_row=logged_rates(rows, probed),
        rate_bound=1.0,
        delay=1.0,
        rates_depend_on_path=False,
    )


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_bernoulli_row_totals_are_the_group_walk(seed):
    # random history-free rows over modes 1..6: mode 2 is absorbing, mode 6
    # has targets at rate 0, and every mode but 1 is first entered mid-run.
    # The cohort from 1e290 blows up, and keep masks drop paths of the other
    # one at random steps.  After every step the engine's states, modes, jumps and
    # blown flags are the group walk's, and so are the modes it has read.
    rng = np.random.default_rng(seed)
    rows = random_rows(rng, 6)
    rows[1] = {j: float(rng.uniform(0.2, 1.2)) for j in range(2, 7)}
    rows[6] = {1: 0.0, 3: 0.0}
    probed, probed_ref = [], []
    starts = [Segment.make_constant([v], 1.0, 0.1) for v in (1.0, 1e290)]
    cfg = SimConfig(dt=0.1, horizon=20.0, scheme="bernoulli", seed=int(rng.integers(2**31)))
    eng = BatchEnsemble(group_walk_model(rows, probed), starts, 1, cfg, 6)
    ref = GroupWalkEnsemble(group_walk_model(rows, probed_ref), starts, 1, cfg, 6)
    cohort = np.repeat([0, 1], 6)
    for k in range(80):
        if rng.random() < 0.05:  # drops paths from 1.0, but not the last
            mask = (rng.random(eng.n_paths) < 0.7) | (cohort == 1)
            mask[np.flatnonzero(cohort == 0)[:1]] = True
            eng.keep(mask)
            ref.keep(mask)
            cohort = cohort[mask]
        eng.step()
        ref.step()
        for got, want in ((eng.x, ref.x), (eng.modes, ref.modes), (eng.blown, ref.blown)):
            assert got.tobytes() == want.tobytes(), k
        assert eng.jumps == ref.jumps and probed == probed_ref, k
    assert eng.blown.any() and not eng.blown.all() and eng.jumps > 0
    assert probed[0] == 1 and len(probed) == len(set(probed)) > 1


def mode_array_model():
    """History-free cycling rows; drift and diffusion take an int mode or
    an array of modes, one per state."""
    return ModelSpec(
        dim=1,
        brownian_dim=1,
        drift=lambda x, i: -0.3 * np.asarray(i, dtype=float)[..., None] * np.asarray(x, float),
        diffusion=lambda x, i: np.array([[0.2]]),
        rates_row=lambda seg, i: {i % 4 + 1: 2.0},
        rate_bound=2.0,
        delay=1.0,
        rates_depend_on_path=False,
        mode_arrays=True,
    )


@pytest.mark.parametrize("kind", ["one_class", "mode_arrays"])
def test_a_history_free_bernoulli_step_walks_no_mode_groups(kind, monkeypatch):
    # linear_2d's rates ignore the history and all its modes share one
    # coefficient class; the cycling model declares mode_arrays.  Neither
    # Euler step needs a plan, and the bernoulli draw reads the per-path
    # row totals: no step may build the mode groups.
    if kind == "one_class":
        model = load_model_config(CONFIG_DIR / "linear_2d.json").spec
        assert model.shared_coefficients_from == 1
        x0 = [1.0, -0.5]
    else:
        model = mode_array_model()
        x0 = [1.0]
    assert not model.rates_depend_on_path
    phi0 = Segment.make_constant(x0, model.delay, 1.0 / 64)
    eng = BatchEnsemble(model, phi0, 1, SimConfig(dt=1.0 / 64, horizon=5.0, scheme="bernoulli",
                                                  seed=3), 24)
    walks = []
    groups = BatchEnsemble.groups
    monkeypatch.setattr(BatchEnsemble, "groups", lambda self: walks.append(1) or groups(self))
    modes = set()
    for _ in range(300):
        eng.step()
        modes.update(eng.modes.tolist())
    assert not walks and eng._groups is None
    assert eng.jumps > 50 and len(modes) > 2


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_a_blown_paths_thinning_proposals_still_count():
    # a blown path's thinning clock runs on: its proposals draw from the
    # shared stream and count in proposals.  Stopping them would shift
    # every later draw of the other paths.
    rows = {1: {2: 0.5}, 2: {1: 0.5}}
    model = group_walk_model(rows, [])
    starts = [Segment.make_constant([v], 1.0, 0.1) for v in (1.0, 1e290)]
    eng = BatchEnsemble(model, starts, 1, SimConfig(dt=0.1, horizon=20.0, seed=5), 4)
    while not eng.blown[4:].all():  # the cohort from 1e290
        eng.step()
    before, active = eng.proposals, []
    round_rows = eng._round_rows
    eng._round_rows = lambda paths, modes: active.append(paths.copy()) or round_rows(paths, modes)
    eng.run(100)
    assert eng.blown.tolist() == [False] * 4 + [True] * 4
    assert eng.proposals - before == sum(len(a) for a in active)
    assert sum(int((a >= 4).sum()) for a in active) > 10


# rows over targets 3..8 with rates k/8, k in 0..16: every partition point
# below is a multiple of 1/8 of the bound, so sums and quotients are exact
dyadic_rows = st.dictionaries(st.integers(3, 8), st.integers(0, 16).map(lambda k: k / 8), max_size=6)


def power_of_two_above(total):
    return 2.0 ** max(math.ceil(math.log2(total)), 0) if total > 0 else 1.0


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(dyadic_rows, st.integers(0, 2))
def test_pick_target_splits_the_unit_interval_by_rate(row, extra):
    # on the grid k / n, n = 8 * scale, which holds every partition point, u
    # maps to the targets in sorted order, target j on 8 * q_j consecutive
    # points, and to no jump on the rest; so each target's share of [0, 1)
    # is rate / scale exactly
    scale = power_of_two_above(sum(row.values())) * 2.0**extra
    n = int(8 * scale)
    want = [j for j in sorted(row) for _ in range(int(8 * row[j]))]
    picks = [pick_target(row, k / n, scale, 1) for k in range(n)]
    assert picks == want + [None] * (n - len(want))
    for j, rate in row.items():
        assert Fraction(picks.count(j), n) == Fraction(rate) / Fraction(scale)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(dyadic_rows, dyadic_rows, st.sampled_from([(1, 1), (1, 2)]), st.integers(0, 1))
def test_couple_has_both_rows_as_marginals(row, ref, pair, extra):
    # over the grid of u in [0, bound) each chain jumps to j on a set of
    # length exactly its own rate to j, both together on min(q_j, qhat_j),
    # and the proposal reports the chains apart iff exactly one moved
    targets = set(row) | set(ref)
    bound = power_of_two_above(sum(max(row.get(j, 0.0), ref.get(j, 0.0)) for j in targets))
    bound *= 2.0**extra
    draws = [couple(row, ref, k / 8, bound, pair) for k in range(int(8 * bound))]
    for j in targets:
        moved = [new[0] == j for new, _ in draws], [new[1] == j for new, _ in draws]
        together = sum(a and b for a, b in zip(*moved))
        assert Fraction(sum(moved[0]), 8) == Fraction(row.get(j, 0.0))
        assert Fraction(sum(moved[1]), 8) == Fraction(ref.get(j, 0.0))
        assert Fraction(together, 8) == min(Fraction(row.get(j, 0.0)), Fraction(ref.get(j, 0.0)))
    for new, apart in draws:
        assert apart == ((new[0] != pair[0]) != (new[1] != pair[1]))


def outcome(f, *args):
    """f(*args), or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def list_pick(row, u, bound, mode):
    """The engine's single-chain proposal on a row: the sorted lists, checked
    in their order, then walked."""
    targets = sorted(row)
    rates = [row[j] for j in targets]
    if not targets:
        return None
    _check_total(sum(rates), min(rates), bound, mode)
    return _pick(targets, rates, u, bound)


# as dyadic_rows, and rates down to -2/8, which every pick must reject
signed_rows = st.dictionaries(st.integers(3, 8), st.integers(-2, 16).map(lambda k: k / 8),
                              max_size=6)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(signed_rows, signed_rows, st.integers(-1, 1))
def test_list_picks_are_the_dict_walks(row, ref, shift):
    # the list picks against pick_target and couple at every point of a grid
    # that holds all the partition points; shift -1 halves the bound, below
    # most totals, and a negative rate raises whatever the bound: the same
    # pick or the same error.  ref holds targets that row lacks and back.
    targets = sorted(row)
    rates = [row[j] for j in targets]
    scale = power_of_two_above(sum(abs(r) for r in rates)) * 2.0**shift
    for k in range(max(int(8 * scale), 1)):
        u = k / (8 * scale)
        assert outcome(list_pick, row, u, scale, 1) == outcome(pick_target, row, u, scale, 1)
    union = set(row) | set(ref)
    bound = power_of_two_above(sum(max(abs(row.get(j, 0.0)), abs(ref.get(j, 0.0)))
                                   for j in union)) * 2.0**shift
    merged = _merge(targets, ref)
    assert [j for j, _, _ in merged] == sorted(union)
    for k in range(max(int(8 * bound), 1)):
        got = outcome(_couple_pick, merged, rates, k / 8, bound, 2)
        want = outcome(couple, row, ref, k / 8, bound, (2, 2))
        assert got == (want if isinstance(want, str) else (*want[0], want[1]))


# plain rates up to 4, past most of the bounds below, and odd ones: zeros
# of either sign, subnormals, NaN, both infinities and a negative rate;
# rows in sorted key order, the order in which the engine and the dict
# walks both sum a row
odd_rates = st.one_of(st.floats(0.0, 4.0), st.sampled_from(
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, math.nan, math.inf, -math.inf, -0.5]))
odd_rows = st.dictionaries(st.integers(3, 8), odd_rates, max_size=5).map(
    lambda row: dict(sorted(row.items())))


def pick_or_error(f, *args):
    """f(*args), or the type and text of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - compared by type and text
        return "raised", type(exc).__name__, str(exc)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(odd_rows, odd_rows, st.floats(0.0, 1.0, exclude_max=True), st.floats(0.25, 8.0))
def test_picks_are_the_dict_walks_at_any_uniform_on_odd_rows(row, ref, u, bound):
    # the engine's single-chain round and _couple_pick against pick_target
    # and couple at one uniform u anywhere in [0, 1), where the grid test
    # above walks multiples of 1/8; ref holds targets that row lacks and
    # back: the same pick, or the same exception with the same text
    targets = sorted(row)
    rates = [row[j] for j in targets]
    rng = SimpleNamespace(random=lambda: u, standard_exponential=lambda: 1.0)
    engine = SimpleNamespace(rng=rng, _bound=lambda v: bound)
    got = pick_or_error(BatchEnsemble._single_round, engine, [1], [(targets, rates)], [0.0])
    want = pick_or_error(pick_target, row, u, bound, 1)
    assert got == (want if isinstance(want, tuple) else [1 if want is None else want])
    got = pick_or_error(_couple_pick, _merge(targets, ref), rates, u * bound, bound, 2)
    want = pick_or_error(couple, row, ref, u * bound, bound, (2, 2))
    assert got == (want if want[0] == "raised" else (*want[0], want[1]))


def oracle_runs(model, phi0, i0, cfg, n_paths, qhat, n_steps):
    """The engine and :class:`ProposalLoopEnsemble` step by step: states,
    modes, clocks and counts equal after every step.  Returns the engine."""
    eng = BatchEnsemble(model, phi0, i0, cfg, n_paths, qhat=qhat)
    ref = ProposalLoopEnsemble(model, phi0, i0, cfg, n_paths, qhat=qhat)
    for k in range(n_steps):
        eng.step()
        ref.step()
        for got, want in ((eng.x, ref.x), (eng.modes, ref.modes), (eng._next_ev, ref._next_ev),
                          (eng.blown, ref.blown)):
            assert got.tobytes() == want.tobytes(), k
        if qhat is not None:
            assert eng.modes_hat.tobytes() == ref.modes_hat.tobytes(), k
            assert eng.decouple_time.tobytes() == ref.decouple_time.tobytes(), k
        assert (eng.proposals, eng.jumps) == (ref.proposals, ref.jumps), k
    return eng


@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_thinning_rounds_are_the_proposal_loop(name, coupled):
    # the list-form rounds draw what the per-proposal dict loop draws, in
    # its order, and write back what it writes, bit for bit
    loaded = load_model_config(CONFIG_DIR / f"{name}.json")
    dt = loaded.spec.delay / 64
    phi0 = Segment.make_constant(np.full(loaded.spec.dim, 2.0), loaded.spec.delay, dt)
    qhat = loaded.lin.qhat if coupled else None
    engines = [oracle_runs(loaded.spec, phi0, 2, SimConfig(dt=dt, horizon=2.0, seed=seed), 12,
                           qhat, 128) for seed in (1, 2, 3)]
    assert sum(e.proposals for e in engines) > 30 and sum(e.jumps for e in engines) > 0


@pytest.mark.parametrize("rates_depend_on_path", [False, True])
def test_thinning_rounds_are_the_proposal_loop_on_empty_rows_and_zero_rates(
        rates_depend_on_path):
    # mode 2 has an empty row and a zero clock rate, zero rates sit among
    # the targets (mode 4 is never reached), and the reference rows hold
    # targets the model's rows lack
    rows = {1: {2: 0.0, 3: 0.5}, 2: {}, 3: {1: 0.25, 2: 0.125, 4: 0.0}}

    def rates(seg, i):
        f = window_factor(seg) if rates_depend_on_path else 1.0
        return {j: r * f for j, r in rows[i].items()}

    model = replace(batch_model(rates, 1.0, diffusion=lambda x, i: np.array([[0.7]])),
                    rates_depend_on_path=rates_depend_on_path,
                    mode_rate_bound={1: 0.5, 2: 0.0, 3: 0.75}.get)
    qhat = SparseGenerator({1: {2: 0.25, 3: 0.5}, 2: {1: 0.5}, 3: {1: 0.25}}.get, rate_bound=0.75)
    phi0 = Segment.make_constant([1.0], 1.0, 0.125)
    for seed in (1, 2, 3):
        cfg = SimConfig(dt=0.125, horizon=20.0, seed=seed)
        single = oracle_runs(model, phi0, 1, cfg, 16, None, 160)
        assert single.proposals > single.jumps > 0 and (single.modes == 2).any()
        pairs = oracle_runs(model, phi0, 1, cfg, 16, qhat, 160)
        assert np.isfinite(pairs.decouple_time).any()


@pytest.mark.parametrize("m", [2, 3, 65, 1001])
@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(st.integers(1, 5), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_block_max_sup_norms_are_the_full_max(m, n_paths, dim, seed):
    # states from a zero-drift, noise-free model set before each push, some
    # of them large enough to square to inf; reads, pushes and keep masks
    # in random order, each read equal to the max over the whole window
    rng = np.random.default_rng(seed)
    model = ModelSpec(dim=dim, brownian_dim=1, drift=lambda x, i: np.zeros_like(x),
                      diffusion=lambda x, i: np.zeros((dim, 1)), rates_row=lambda seg, i: {},
                      rate_bound=1.0, delay=1.0, zero_diffusion=True, rates_depend_on_path=False)
    scales = np.array([0.0, 1e-300, 0.5, 3.0, 1e154, 1e200, 1.7e308])
    dt = 1.0 / (m - 1)
    phi0 = Segment.make_constant(np.full(dim, 0.25), 1.0, dt)
    eng = BatchEnsemble(model, phi0, 1, SimConfig(dt=dt, horizon=10.0, seed=1), 4 * n_paths,
                        track_history=True)
    for _ in range(int(rng.integers(m // 2, 2 * m + 4))):
        action = rng.random()
        if action < 0.3:
            h = eng.history()
            with np.errstate(over="ignore"):
                want = np.sqrt((h * h).sum(2).max(0))
            assert eng.sup_norms().tobytes() == want.tobytes()
        elif action < 0.33 and eng.n_paths > 1:
            mask = rng.random(eng.n_paths) < 0.7
            mask[rng.integers(eng.n_paths)] = True
            eng.keep(mask)
        else:
            size = (eng.n_paths, dim)
            eng.x = rng.choice(scales, size) * rng.choice([-1.0, 1.0], size)
            eng.step()
    h = eng.history()
    with np.errstate(over="ignore"):
        want = np.sqrt((h * h).sum(2).max(0))
    assert eng.sup_norms().tobytes() == want.tobytes()
    assert not eng.blown.any()


# -- the one-class step ------------------------------------------------------
# switched_ou declares shared_coefficients_from=1: every path is in one
# coefficient class and the engine steps the states in path order, with no
# mode-group plan.  The same spec without the declaration runs each mode as
# its own class through the plan (nor ``mode_arrays``, which would take
# every mode in one call); its drift and diffusion are the same in every
# mode, bit for bit, so the two runs must agree bit for bit.

def one_class_pair(params=None, name="switched_ou"):
    spec, lin = registry_get(name, params)
    return spec, replace(spec, shared_coefficients_from=None, mode_arrays=False), lin


def engine_state(eng):
    return [a.tobytes() for a in (eng.x, eng.modes, eng.blown, eng._next_ev)
            if a is not None] + [eng.proposals, eng.jumps]


def run_side_by_side(one, planned, n_steps, starts, cfg, n_paths, **kw):
    """Step an engine of ``one`` and one of ``planned`` together, checking
    their states bit for bit after every step; returns the first engine and
    its classes at every step: (whether the step ran in path order, the
    modes its callbacks were called with)."""
    a = BatchEnsemble(one, starts, 1, cfg, n_paths, **kw)
    b = BatchEnsemble(planned, starts, 1, cfg, n_paths, **kw)
    steps = []
    for k in range(n_steps):
        order, classes = a._plan()
        steps.append((order is None, tuple(v for v, _ in classes)))
        a.step()
        b.step()
        assert engine_state(a) == engine_state(b), k
        if kw.get("qhat") is not None:
            assert a.modes_hat.tobytes() == b.modes_hat.tobytes()
            assert a.decouple_time.tobytes() == b.decouple_time.tobytes()
    return a, steps


def lone_steps(steps):
    return sum(lone for lone, _ in steps)


def test_one_class_thinning_run_is_the_plan_run():
    one, planned, _ = one_class_pair()
    phi0 = Segment.make_constant([2.0], one.delay, 1.0 / 16)
    cfg = SimConfig(dt=1.0 / 16, horizon=30.0, seed=11)
    eng, steps = run_side_by_side(one, planned, 300, phi0, cfg, 24)
    assert lone_steps(steps) == 300 and eng.jumps > 100
    assert len(set(eng.modes.tolist())) > 1  # the plan run had several classes


def test_one_class_coupled_run_is_the_plan_run():
    one, planned, lin = one_class_pair()
    phi0 = Segment.make_constant([2.0], one.delay, 1.0 / 16)
    cfg = SimConfig(dt=1.0 / 16, horizon=30.0, seed=12)
    eng, steps = run_side_by_side(one, planned, 300, phi0, cfg, 24, qhat=lin.qhat)
    assert lone_steps(steps) == 300 and eng.jumps > 20
    assert np.isfinite(eng.decouple_time).any()


def test_controlled_scalar_crosses_between_one_and_two_classes():
    # K = 2: mode 1 alone, or modes >= 2 alone, is one class; both are two,
    # unless the model declares mode_arrays
    one, planned, _ = one_class_pair(name="controlled_scalar")
    assert one.shared_coefficients_from == 2 and one.mode_arrays
    one = replace(one, mode_arrays=False)
    phi0 = Segment.make_constant([1.0], one.delay, 1.0 / 16)
    cfg = SimConfig(dt=1.0 / 16, horizon=30.0, seed=3)
    _, steps = run_side_by_side(one, planned, 400, phi0, cfg, 3)
    assert set(steps) == {(True, (1,)), (True, (2,)), (False, (1, 2))}


def exploding_ou():
    # theta < 0 drives |x| up by a factor 1 + 50 dt per step; a start at
    # 1e300 overflows within a few steps, one at 1 stays finite for 40
    return one_class_pair({"theta": -50.0})


def test_one_class_blow_up_parks_the_path_out_of_later_steps():
    one, planned, _ = exploding_ou()
    dt = 1.0 / 64
    starts = [Segment.make_constant([v], one.delay, dt) for v in (1.0, 1e300, -1.0)]
    rows = []
    counted = replace(one, drift=lambda x, i: rows.append(len(x)) or one.drift(x, i),
                      mode_arrays=False)  # the plan after the blow-up, not one mode array
    cfg = SimConfig(dt=dt, horizon=1.0, seed=4)
    eng, steps = run_side_by_side(counted, planned, 40, starts, cfg, 2)
    lone = lone_steps(steps)
    assert eng.blown.tolist() == [False, False, True, True, False, False]
    assert not eng.x[2:4].any() and np.isfinite(eng.x).all() and np.abs(eng.x).max() > 1e6
    # one class in path order until the blow-up, the plan without the blown paths after
    assert 0 < lone < 40 and rows == [6] * lone + [4] * (40 - lone)
    assert eng._plan()[0].tolist() == sorted([0, 1, 4, 5], key=lambda p: eng.modes[p])


def test_one_class_constant_coefficients_fill_every_row():
    # drift and diffusion results without the path axis are constants for
    # every path, as when the plan fills them group by group
    model = plain_model(lambda x, i: np.array([0.5]), diffusion=lambda x, i: np.array([[0.3]]),
                        rates=two_mode_rates(1.0, 1.0), bound=1.0, shared_coefficients_from=1)
    planned = replace(model, shared_coefficients_from=None)
    rowwise = replace(model, drift=lambda x, i: np.full(np.shape(x), 0.5),
                      diffusion=lambda x, i: np.full(np.shape(x) + (1,), 0.3))
    phi0 = Segment.make_constant([1.0], 1.0, 0.1)
    cfg = SimConfig(dt=0.1, horizon=10.0, seed=8)
    eng, steps = run_side_by_side(model, planned, 60, phi0, cfg, 5)
    other, _ = run_side_by_side(rowwise, planned, 60, phi0, cfg, 5)
    assert lone_steps(steps) == 60 and eng.jumps > 20
    assert eng.x.tobytes() == other.x.tobytes() and np.unique(eng.x).size == 5
    xs, drift, sigma = eng.coefficients()
    assert drift.shape == (5, 1) and sigma.shape == (5, 1, 1)
    assert (drift == 0.5).all() and (sigma == 0.3).all()


def held(arrays):
    return [None if a is None else a.copy() for a in arrays]


def test_coefficients_stay_as_handed_out_across_steps_and_blow_ups():
    # the Dynkin generator holds a block of coefficients() results while the
    # engine steps on: neither a step nor the parking of blown paths may
    # write into them, in one class or through the plan
    one, planned, _ = exploding_ou()
    dt = 1.0 / 64
    starts = [Segment.make_constant([v], one.delay, dt) for v in (1.0, 1e300)]
    for model in (one, planned):
        eng = BatchEnsemble(model, starts, 1, SimConfig(dt=dt, horizon=1.0, seed=4), 3)
        kept, lone = [], 0
        for k in range(30):
            if k % 3:  # a step without a read, which one class takes in path order
                arrays = eng.coefficients()
                kept.append((arrays, held(arrays)))
            lone += eng._plan()[0] is None
            eng.step()
            for got, want in kept:
                for a, b in zip(got, want):
                    assert (a is None and b is None) or a.tobytes() == b.tobytes()
        assert eng.blown.tolist() == [False] * 3 + [True] * 3
        assert lone > 0


def test_one_class_ensemble_builds_no_mode_group_plan(monkeypatch):
    # 32 switched_ou paths over 200 thinning steps jump between several
    # modes, all in one class: no step may sort the paths by mode
    one, _, _ = one_class_pair()
    phi0 = Segment.make_constant([2.0], one.delay, 1.0 / 64)
    eng = BatchEnsemble(one, phi0, 3, SimConfig(dt=1.0 / 64, horizon=5.0, seed=1), 32)
    sorts = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: sorts.append(1) or argsort(*a, **kw))
    for _ in range(200):
        eng.step()
        assert eng._groups is None and eng._order is None
    assert not sorts and eng.jumps > 50 and len(set(eng.modes.tolist())) > 1


# -- mode arrays ---------------------------------------------------------------
# a family that declares mode_arrays takes the modes of every live path in
# one drift and one diffusion call, however many coefficient classes they
# span; the undeclared spec runs the plan, and the two must agree bit for bit

def counted_calls(spec, calls):
    """``spec`` whose drift and diffusion log (name, rows, mode) per call, an
    array of modes as a tuple."""
    def counted(fn, name):
        def call(x, i):
            calls.append((name, len(x), tuple(i.tolist()) if np.ndim(i) else i))
            return fn(x, i)
        return call
    return replace(spec, drift=counted(spec.drift, "drift"),
                   diffusion=counted(spec.diffusion, "diffusion"))


@pytest.mark.parametrize("name", ["controlled_scalar", "fluid_queue", "predator_prey"])
def test_a_declared_family_makes_one_drift_and_one_diffusion_call_per_step(name):
    spec = load_model_config(CONFIG_DIR / f"{name}.json").spec
    assert spec.mode_arrays
    calls = []
    k = spec.shared_coefficients_from or math.inf
    phi0 = Segment.make_constant([2.0], spec.delay, 1.0 / 64)
    eng = BatchEnsemble(counted_calls(spec, calls), phi0, 2,
                        SimConfig(dt=1.0 / 64, horizon=5.0, seed=2), 16)
    want = ["drift"] if spec.zero_diffusion else ["drift", "diffusion"]
    several = 0
    for _ in range(300):
        modes = eng.modes.tolist()
        classes = len({min(v, k) for v in modes})
        several += classes > 1
        calls.clear()
        eng.step()
        assert [what for what, _, _ in calls] == want
        assert all(rows == 16 and mode == (tuple(modes) if classes > 1 else min(modes[0], k))
                   for _, rows, mode in calls)
    assert several > 100


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_a_declared_family_takes_the_live_paths_in_one_call_after_a_blow_up():
    # the paths from 1e300 blow up within a few steps; from then on the live
    # paths, spread over several modes, are one call in path order
    one, planned, _ = exploding_ou()
    dt = 1.0 / 64
    starts = [Segment.make_constant([v], one.delay, dt) for v in (1.0, 1e300, -1.0)]
    calls = []
    eng, _ = run_side_by_side(counted_calls(one, calls), planned, 40, starts,
                              SimConfig(dt=dt, horizon=1.0, seed=4), 2)
    assert eng.blown.tolist() == [False, False, True, True, False, False]
    drifts = [(rows, mode) for what, rows, mode in calls if what == "drift"]
    lone = drifts.index(next(d for d in drifts if d[0] == 4))
    assert 0 < lone and drifts[:lone] == [(6, 1)] * lone  # K = 1: one class before the blow-up
    assert all(rows == 4 and len(modes) == 4 for rows, modes in drifts[lone:])
    assert max(len(set(modes)) for _, modes in drifts[lone:]) > 1
    assert len(calls) == 2 * 40 and eng._plan()[0].tolist() == [0, 1, 4, 5]


# signed zeros, often enough that -0.0 meets -0.0; subnormals, the largest
# doubles, inf and NaN; and any double
edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, math.inf, -math.inf, math.nan, 1.0, -1.0]),
    st.floats(width=64),
)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.integers(0, 3), st.integers(1, 3), st.booleans(), st.sampled_from([1e-3, 0.1, 1.0]),
       st.data())
def test_a_one_column_noise_is_the_einsum_step(n_paths, n, one_path, dt, data):
    # a one-column noise is a product added to +0.0: a bare product would
    # keep the -0.0 that einsum's sum turns into +0.0
    lead = () if one_path else (n_paths,)

    def array(shape):
        size = math.prod(shape)
        return np.array(data.draw(st.lists(edge_floats, min_size=size, max_size=size)),
                        dtype=float).reshape(shape)

    x, drift = array(lead + (n,)), array(lead + (n,))
    sigma, xi = array(lead + (n, 1)), array(lead + (1,))
    got = _euler(x, drift, sigma, xi, dt, None)
    assert got.tobytes() == einsum_euler(x, drift, sigma, xi, dt, None).tobytes()
    assert got.shape == x.shape


def stretch_model(rows, *, history, kind, post, noise_dim):
    """Five modes on the history-free ``rows``, scaled by a window factor
    when ``history``; drift 10 * i * x, so that a start at 1e290 overflows
    within about 40 steps of 0.1, and noise in proportion to the state in
    ``noise_dim`` columns.  ``kind`` sets the Euler step's plan: one class
    (K = 1), one mode array, or one class per mode."""

    def drift(x, i):
        return 10.0 * np.asarray(i, dtype=float)[..., None] * np.asarray(x, dtype=float)

    def diffusion(x, i):
        x = np.asarray(x, dtype=float)
        return np.stack([0.8 * x] + [-0.3 * x] * (noise_dim - 1), axis=-1)

    def rates(seg, i):
        factor = window_factor(seg) if history else 1.0
        return {j: r * factor for j, r in rows[i].items()}

    return ModelSpec(
        dim=1,
        brownian_dim=noise_dim,
        drift=drift,
        diffusion=diffusion,
        rates_row=rates,
        rate_bound=4.0,
        delay=1.0,
        post_step=np.abs if post else None,
        rates_depend_on_path=history,
        shared_coefficients_from=1 if kind == "one_class" else None,
        mode_arrays=kind == "mode_arrays",
    )


def stretch_state(e):
    arrays = (e.x, e.modes, e.modes_hat, e.decouple_time, e.blown, e._next_ev, e.history())
    return ([None if a is None else a.tobytes() for a in arrays]
            + [e.jumps, e.proposals, e.t, e.rng.bit_generator.state])


def stretch_events(e):
    """What ends a stretch: the jumps, the blown paths and the parted pairs."""
    apart = 0 if e.decouple_time is None else int(np.isfinite(e.decouple_time).sum())
    return e.jumps, int(e.blown.sum()), apart


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(st.sampled_from(["thinning", "bernoulli", "coupled"]), st.booleans(),
       st.sampled_from(["one_class", "mode_arrays", "per_mode"]), st.booleans(),
       st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_stretches_are_the_stepwise_engine(scheme, history, kind, post, noise_dim, seed):
    # random rows over five modes (mode 2 absorbing) at a random scale, so
    # that stretches run from one step to many; a cohort from 1e290 blows
    # up, often mid-stretch, and keep masks drop paths between calls.  Each
    # call's steps are those of the stepwise engine up to its first jump,
    # blow-up or parted pair, and everything the engine holds is the same
    rng = np.random.default_rng(seed)
    scale = float(rng.choice([0.03, 0.3, 1.0]))
    rows = {v: {j: float(rng.uniform(0.0, 0.8)) * scale for j in range(1, 6)
                if j != v and rng.random() < 0.6} for v in range(1, 6)}
    rows[2] = {}
    ref_rows = {v: {j: float(rng.uniform(0.0, 0.8)) * scale for j in row}
                for v, row in rows.items()}
    qhat = SparseGenerator(ref_rows.get, rate_bound=4.0) if scheme == "coupled" else None
    model = stretch_model(rows, history=history, kind=kind, post=post, noise_dim=noise_dim)
    run_scheme = "bernoulli" if scheme == "bernoulli" else "thinning"  # a coupling runs by thinning
    cfg = SimConfig(dt=0.1, horizon=20.0, scheme=run_scheme, seed=int(rng.integers(2**31)))
    starts = [Segment.make_constant([v], 1.0, 0.1) for v in (1.0, 1e290)]
    eng = BatchEnsemble(model, starts, 1, cfg, 3, qhat=qhat)
    ref = StepwiseEnsemble(model, starts, 1, cfg, 3, qhat=qhat)
    taken = 0
    while taken < 100:
        if rng.random() < 0.1 and eng.n_paths > 1:
            mask = rng.random(eng.n_paths) < 0.8
            mask[0] = True
            eng.keep(mask)
            ref.keep(mask)
        if rng.random() < 0.2:  # a snapshot's coefficients, which the next step takes
            pair = eng.coefficients(), ref.coefficients()
            assert [a.tobytes() for a in pair[0]] == [a.tobytes() for a in pair[1]]
        limit = int(rng.integers(1, 16))
        events, want = stretch_events(ref), 0
        while want < limit:
            want += 1
            ref.step()
            if stretch_events(ref) != events:
                break
        got = eng._advance(limit)
        assert got == want, taken
        assert stretch_state(eng) == stretch_state(ref), taken
        taken += got


@pytest.mark.parametrize("scheme", ["thinning", "bernoulli"])
def test_run_takes_its_steps_in_stretches(scheme):
    # run(n) is n one-step calls, whichever stretches it takes them in
    model = load_model_config(CONFIG_DIR / "linear_2d.json").spec
    phi0 = Segment.make_constant([1.0, -0.5], model.delay, 1.0 / 64)
    cfg = SimConfig(dt=1.0 / 64, horizon=5.0, scheme=scheme, seed=4)
    eng, ref = BatchEnsemble(model, phi0, 1, cfg, 8), StepwiseEnsemble(model, phi0, 1, cfg, 8)
    eng.run(np.int64(300))
    ref.run(300)
    assert stretch_state(eng) == stretch_state(ref) and eng.jumps > 10
    eng.run(0)
    assert stretch_state(eng) == stretch_state(ref)


@pytest.mark.parametrize("bad", [2.7, True, -3, "4", None])
def test_run_refuses_a_step_count_that_is_not_a_count(bad):
    # int() would floor 2.7 to 2 steps, take True as 1 and -3 as none
    model = load_model_config(CONFIG_DIR / "linear_2d.json").spec
    phi0 = Segment.make_constant([1.0, -0.5], model.delay, 1.0 / 64)
    eng = BatchEnsemble(model, phi0, 1, SimConfig(dt=1.0 / 64, horizon=1.0, seed=2), 4)
    state = eng.rng.bit_generator.state
    with pytest.raises(ValueError, match="n_steps must be an integer >= 0"):
        eng.run(bad)
    assert eng.t == 0.0 and eng.rng.bit_generator.state == state
