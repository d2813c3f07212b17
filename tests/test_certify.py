import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import switchsde.certify
from oracles import stacked_costs, stacked_probe_norm
from switchsde.certify import (
    CERTIFIED,
    INCONCLUSIVE,
    GainPlan,
    _effective_drift,
    _noise,
    _stacks,
    certify_recurrence,
    certify_stabilization,
    per_mode_cost,
    search_gain,
    solve_law,
)
from switchsde.chain import (
    SparseGenerator,
    StationaryDist,
    convergence_sweep,
    stationary,
    truncate,
)
from switchsde.model import Linearization
from switchsde.registry import registry_get
from switchsde.spectra import a_of_i, summarize
from test_registry import repeat_cases


def ou_lin(theta=1.0, sigma=0.5):
    return registry_get("switched_ou", {"theta": theta, "mu": 0.0, "sigma": sigma})[1]


def scalar_model(gain, sigma=0.0):
    return registry_get(
        "controlled_scalar",
        {"A": 1.0, "B": 1.0, "sigma": sigma, "L": gain, "c": 1.0, "controllable": [1]},
    )


def test_per_mode_cost_hand_values():
    lin = ou_lin(theta=1.0)
    # stable linear drift, no linear noise part: cost is the drift eigenvalue
    for i in (1, 2, 5):
        assert per_mode_cost(lin, i) == pytest.approx(-1.0)
    _, lin3 = scalar_model(3.0)
    assert per_mode_cost(lin3, 1) == pytest.approx(-2.0)
    assert per_mode_cost(lin3, 2) == pytest.approx(1.0)
    assert per_mode_cost(lin3, 1, form="thm41") == pytest.approx(-4.0)
    assert per_mode_cost(lin3, 2, form="thm41") == pytest.approx(2.0)
    with pytest.raises(ValueError):
        per_mode_cost(lin3, 1, form="thm99")


def summarize_cost(b, sigmas, form):
    """Scalar oracle for one mode's cost: one ``summarize`` per matrix."""
    if form == "thm37":
        return (
            summarize(b).lambda_max
            + 0.5 * summarize(a_of_i(sigmas)).lambda_max
            - sum(summarize(s).rho ** 2 for s in sigmas)
        )
    return 2.0 * summarize(b).lambda_max + sum(
        summarize(s.T @ s).lambda_max - summarize(s).rho ** 2 for s in sigmas
    )


def random_matrix(rng, n):
    """General, positive definite or negative definite, so rho is exercised."""
    m = rng.standard_normal((n, n))
    kind = rng.integers(3)
    if kind == 0:
        return m
    spd = m @ m.T + 0.1 * np.eye(n)
    return spd if kind == 1 else -spd


def test_batched_costs_match_summarize_oracle():
    rng = np.random.default_rng(11)
    n_modes = 12
    qhat = ou_lin().qhat
    for case in range(24):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        drifts = [random_matrix(rng, n) for _ in range(n_modes)]
        noises = [[random_matrix(rng, n) for _ in range(d)] for _ in range(n_modes)]
        lin = Linearization(
            b_mat=lambda i: drifts[i - 1],
            sigma_mats=lambda i: noises[i - 1],
            qhat=qhat,
            coeff_bound=100.0,
        )
        plan = None
        if case % 2:
            m = int(rng.integers(1, 3))
            inputs = {i: rng.standard_normal((n, m)) for i in range(1, n_modes + 1)}
            plan = GainPlan(
                frozenset([1, 3]),
                {1: rng.standard_normal((m, n)), 3: rng.standard_normal((m, n))},
                lambda i: inputs[i],
            )
        closed = [
            drifts[i - 1] - (inputs[i] @ plan.gains[i] if plan and i in plan.gains else 0.0)
            for i in range(1, n_modes + 1)
        ]
        modes = range(1, n_modes + 1)
        b = _stacks([_effective_drift(lin, i, plan) for i in modes])
        for form in ("thm37", "thm41"):
            oracle = [summarize_cost(closed[i - 1], noises[i - 1], form) for i in modes]
            costs, norm = _noise(lin, modes, form, n)(b)
            assert np.allclose(costs, oracle, rtol=0.0, atol=1e-12)
            for i in (1, 3, n_modes):
                assert per_mode_cost(lin, i, form=form, plan=plan) == pytest.approx(
                    oracle[i - 1], abs=1e-12
                )
            if plan is not None:
                cert = certify_stabilization(lin, plan, n_modes, form=form)
                assert np.allclose(cert.per_mode_c, oracle, rtol=0.0, atol=1e-12)
        loop = max(
            max(np.linalg.norm(closed[i - 1], 2) for i in modes),
            max(np.linalg.norm(s, 2) for i in modes for s in noises[i - 1]),
        )
        assert norm == pytest.approx(loop, abs=1e-12)


@st.composite
def cost_cases(draw):
    """Random drifts, noise matrices and, half the time, a gain plan on
    1-8 modes, n 1-3, d 1-3."""
    n_modes, n, d = draw(st.integers(1, 8)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    drifts = [random_matrix(rng, n) for _ in range(n_modes)]
    noises = [[random_matrix(rng, n) for _ in range(d)] for _ in range(n_modes)]
    lin = Linearization(b_mat=lambda i: drifts[i - 1], sigma_mats=lambda i: noises[i - 1],
                        qhat=ou_lin().qhat, coeff_bound=100.0)
    plan = None
    if draw(st.booleans()):
        m = draw(st.integers(1, 2))
        inputs = {i: rng.standard_normal((n, m)) for i in range(1, n_modes + 1)}
        ctl = draw(st.sets(st.integers(1, n_modes), min_size=1))
        plan = GainPlan(frozenset(ctl), {i: rng.standard_normal((m, n)) for i in ctl},
                        lambda i: inputs[i])
    closed = np.array([drifts[i] - (plan.input_mats(i + 1) @ plan.gains[i + 1]
                                    if plan and i + 1 in plan.gains else 0.0)
                       for i in range(n_modes)])
    return lin, plan, closed, np.array(noises), draw(st.sampled_from(("thm37", "thm41")))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(cost_cases())
def test_noise_and_drift_parts_match_the_stacked_builders(case):
    # the drift stack and the noise part built once give the bits the
    # builders that took every term from the stacks at each call gave
    lin, plan, closed, sig, form = case
    modes = range(1, len(closed) + 1)
    b = _stacks([_effective_drift(lin, i, plan) for i in modes])
    assert b.tobytes() == closed.tobytes()
    costs, norm = _noise(lin, modes, form, b.shape[1])(b)
    assert costs.tobytes() == stacked_costs(closed, sig, form).tobytes()
    assert norm == stacked_probe_norm(closed, sig)
    for i in modes:  # and one mode alone
        assert per_mode_cost(lin, i, form, plan) == stacked_costs(
            closed[i - 1:i], sig[i - 1:i], form)[0]


def cert_fields(cert):
    """Every field of a certificate, arrays and floats as their bytes."""
    def bits(v):
        if isinstance(v, StationaryDist):
            return [bits(getattr(v, f.name)) for f in fields(v)]
        if isinstance(v, (np.ndarray, float)):
            return np.asarray(v, dtype=float).tobytes()
        return v
    return [(f.name, bits(getattr(cert, f.name))) for f in fields(cert)]


def grid_plans(controllable, inputs, n, budget):
    """The plans L(i) = g * I of the gain grid g = 0, 0.25, 0.5, ... up to
    ``budget``, as :func:`certify_stabilization` takes them."""
    gains, g = [], 0.0
    while g <= budget * (1.0 + 1e-12):
        gains.append(g)
        g = max(0.25, 2.0 * g)
    return [GainPlan(frozenset(controllable),
                     {i: g * np.eye(np.asarray(inputs(i)).shape[1], n) for i in controllable},
                     inputs) for g in gains]


def recording_weighs(monkeypatch):
    """Patch the noise part so that it logs the four-axis stacks whose
    eigenvalues it takes while it is built (the noise matrices, and their
    Gram matrices in thm41) apart from the drift stacks its ``weigh`` gets."""
    noise, eigs = switchsde.certify._noise, switchsde.certify._sym_eigs
    log, building = dict(noise_eigs=[], stacks=[]), []

    def counting(mats):
        log["noise_eigs"].extend([mats.shape] if building and mats.ndim == 4 else [])
        return eigs(mats)

    def wrapped(*args):
        building.append(True)
        try:
            weigh = noise(*args)
        finally:
            building.pop()

        def recording(b):
            log["stacks"].append(b.shape)
            return weigh(b)
        return recording

    monkeypatch.setattr(switchsde.certify, "_noise", wrapped)
    monkeypatch.setattr(switchsde.certify, "_sym_eigs", counting)
    return log


def check_grid(monkeypatch, form, n_modes, controllable):
    """Every grid point's certificate is its plan's, each search takes the
    noise eigenvalues once, and the grid is weighed in stacked passes."""
    spec, lin = registry_get("controlled_scalar", {"A": [1.0, 0.5, 1.0], "sigma": 0.3, "L": 0.0,
                                                   "controllable": controllable})
    if n_modes is not None:
        lin = finite(lin, n_modes)
    cap = switchsde.certify._GRID_CHUNK
    inputs = spec.meta["input_matrix"]
    weigh, certs = switchsde.certify._certify, []

    def recording(*args, **kwargs):
        certs.append(weigh(*args, **kwargs))
        return certs[-1]

    monkeypatch.setattr(switchsde.certify, "_certify", recording)
    log = recording_weighs(monkeypatch)
    certify_stabilization(lin, GainPlan(frozenset(controllable), {}, inputs), 30, form)
    once = len(log["noise_eigs"])
    assert once == (1 if form == "thm37" else 2)
    d = log["stacks"][0][0]  # modes 1..D: the drift stack of one certificate
    assert log["stacks"] == [(d, 1, 1)]
    for budget in (0.0, 1.0, 1024.0):
        certs.clear()
        log["noise_eigs"].clear()
        log["stacks"].clear()
        plan = search_gain(lin, inputs, controllable, 30, budget, form)
        stacks, plans = list(log["stacks"]), grid_plans(controllable, inputs, 1, budget)
        grid = list(zip(plans, certs))
        # the noise eigenvalues are taken once per search, whatever the grid
        assert len(log["noise_eigs"]) == once, budget
        assert len(grid) == len(certs) == {0.0: 1, 1.0: 4}.get(budget, len(certs))  # g = 0, ...
        for grid_plan, cert in grid:
            alone = certify_stabilization(lin, grid_plan, 30, form)
            assert cert_fields(cert) == cert_fields(alone)
        # the grid is weighed in stacked passes of at most the cap's matrices
        # (one point at least), up to the pass that holds the answer
        per = max(1, cap // d)
        assert stacks == [(min(per, len(plans) - k), d, 1, 1) for k in range(0, len(grid), per)]
        if cap >= len(plans) * d:
            assert len(stacks) == 1
        answer = grid[-1][0] if grid[-1][1].verdict == CERTIFIED else None
        assert gain_bytes(plan) == gain_bytes(answer)
        if plan is not None:
            assert (plan.controllable, plan.input_mats) == (answer.controllable, inputs)
    assert len(grid) > 4 and plan is not None


@pytest.mark.parametrize("form", ["thm37", "thm41"])
@pytest.mark.parametrize("n_modes", [None, 30])  # the exact law, the law of a finite chain
@pytest.mark.parametrize("controllable", [[1], [1, 2]])
def test_each_grid_point_is_the_certificate_of_its_plan(monkeypatch, form, n_modes,
                                                        controllable):
    check_grid(monkeypatch, form, n_modes, controllable)


@pytest.mark.parametrize("form", ["thm37", "thm41"])
@pytest.mark.parametrize("n_modes", [None, 30])
@pytest.mark.parametrize("controllable", [[1], [1, 2]])
def test_grid_points_weighed_in_chunks_keep_their_certificates(monkeypatch, form, n_modes,
                                                               controllable):
    # a cap of 7 matrices below the grid's 14 points x 3 modes: passes of 2 points
    monkeypatch.setattr(switchsde.certify, "_GRID_CHUNK", 7)
    check_grid(monkeypatch, form, n_modes, controllable)


def test_a_default_search_weighs_its_grid_in_one_stacked_pass(monkeypatch):
    # A = B = 1, L = 0: g = 4 is the first certifying point, and one pass
    # weighs all 14 points g = 0, 0.25, ..., 1024 of modes 1..2
    spec, lin = scalar_model(0.0)
    log = recording_weighs(monkeypatch)
    plan = search_gain(lin, spec.meta["input_matrix"], spec.meta["controllable"], 30)
    assert np.asarray(plan.gains[1]).tolist() == [[4.0]]
    assert log["stacks"] == [(14, 2, 1, 1)]
    assert len(log["noise_eigs"]) == 1


def test_a_search_that_stops_at_zero_gain_weighs_at_most_one_chunk(monkeypatch):
    # no repeat point on the linearization: every one of the 1,000 modes of
    # the finite chain is weighed, more than one pass holds, so the pass
    # holds g = 0 alone and the search stops there
    spec, lin = registry_get("controlled_scalar", {"A": -1.0, "L": 0.0, "controllable": [1]})
    assert 1000 > switchsde.certify._GRID_CHUNK
    log = recording_weighs(monkeypatch)
    plan = search_gain(replace(finite(lin, 1000), repeats_from=None),
                       spec.meta["input_matrix"], [1], 2000)
    assert np.asarray(plan.gains[1]).tolist() == [[0.0]]
    assert log["stacks"] == [(1, 1000, 1, 1)]
    # on a truncation of the infinite chain no point certifies: each pass
    # of the whole grid still holds one point of 2,000 modes
    log["stacks"].clear()
    assert search_gain(undeclared(lin), spec.meta["input_matrix"], [1], 2000) is None
    assert log["stacks"] == [(1, 2000, 1, 1)] * 14


@pytest.mark.parametrize("n", [-5, 0, 1])
def test_a_level_below_two_is_rejected(n):
    # the exact law and a finite chain weighed whole ignore N, so these
    # levels once wrote certificates
    spec, lin = scalar_model(0.0)
    inputs, ctl = spec.meta["input_matrix"], spec.meta["controllable"]
    plan = GainPlan(frozenset([1]), {1: np.array([[4.0]])}, inputs)
    pp = registry_get("predator_prey", {})[1]
    calls = (lambda: certify_recurrence(ou_lin(), n),
             lambda: certify_recurrence(pp, n),
             lambda: certify_stabilization(lin, plan, n),
             lambda: search_gain(lin, inputs, ctl, n),
             lambda: solve_law(lin, n),
             lambda: solve_law(pp, n))
    for call in calls:
        with pytest.raises(ValueError, match=f"n_modes must be an integer >= 2, got {n}"):
            call()
    assert certify_recurrence(ou_lin(), 2).verdict == CERTIFIED


@pytest.mark.parametrize("bad", [30.9, 2.5, True, "30"])
def test_a_fractional_level_is_refused_not_floored(bad):
    # 30.9 once truncated at 30, a sweep over [10.7, 20] at 10 and 20, and
    # True read as level 1
    lin = undeclared(ou_lin())
    calls = (lambda: truncate(lin.qhat, bad),
             lambda: convergence_sweep(lin.qhat, [bad, 40]),
             lambda: certify_recurrence(lin, bad))
    for call in calls:
        with pytest.raises(ValueError, match=f"must be an integer >= 2, got {bad!r}"):
            call()
    # numpy integers still pass
    assert truncate(lin.qhat, np.int64(30)).size == 30
    assert [row["N"] for row in convergence_sweep(lin.qhat, [np.int32(10), 20])] == [10, 20]
    assert certify_recurrence(lin, np.int64(30)).nu.truncation == 30


def test_certify_switched_ou_hand_sum():
    cert = certify_recurrence(ou_lin(), 30)
    assert cert.partial_sum == pytest.approx(-1.0, abs=1e-9)
    assert cert.verdict == CERTIFIED
    assert cert.total < 0
    assert all(cert.assumption_flags.values())
    assert cert.claim == "positive_recurrence"


def test_certify_scalar_hand_sums():
    # boundary lumping doubles the last weight, so the weighted sum of
    # costs (-2, 1, 1, ...) telescopes to exactly -1/2 at every level
    _, lin = scalar_model(3.0)
    for n in (10, 20, 30):
        cert = certify_recurrence(lin, n)
        assert cert.partial_sum == pytest.approx(-0.5, abs=1e-9)
        assert cert.verdict == CERTIFIED

    _, weak = scalar_model(1.0)
    cert = certify_recurrence(weak, 30)
    assert cert.partial_sum == pytest.approx(0.5, abs=1e-9)
    assert cert.verdict == INCONCLUSIVE


def test_certify_alternate_form_agrees_on_sign():
    _, lin = scalar_model(3.0)
    plan = GainPlan(controllable=frozenset(), gains={}, input_mats=lin.b_mat)
    cert41 = certify_stabilization(
        lin, GainPlan(frozenset([1]), {1: np.zeros((1, 1))}, lin.b_mat), 30, form="thm41"
    )
    # zero gain leaves the closed loop as built: sum is 2 * (-1/2)
    assert cert41.partial_sum == pytest.approx(-1.0, abs=1e-9)
    assert cert41.verdict == CERTIFIED
    assert plan.gain(1) is None


def test_gain_plan_validation():
    with pytest.raises(TypeError):  # a plan without input matrices would drop its gains
        GainPlan(controllable=frozenset([1]), gains={1: np.eye(1)})
    inputs = lambda i: np.eye(1)
    with pytest.raises(ValueError):
        GainPlan(controllable=frozenset([1]), gains={2: np.eye(1)}, input_mats=inputs)
    plan = GainPlan(controllable=frozenset([1, 2]), gains={1: np.eye(1)}, input_mats=inputs)
    assert plan.gain(1) is not None
    assert plan.gain(2) is None


def test_a_controllable_mode_below_one_is_refused():
    # mode 0 was once restacked into b[-1], the row every mode beyond D
    # shares: the search weighed all of them as controlled and returned
    # {0: [[2.0]]}, whose certificate read INCONCLUSIVE (partial sum +1.0)
    spec, lin = scalar_model(0.0)
    inputs = lambda i: np.eye(1)
    with pytest.raises(ValueError, match="controllable mode must be an integer >= 1, got 0"):
        search_gain(lin, inputs, [0], 30)
    for bad in (0, -2, 1.5):
        with pytest.raises(ValueError, match="controllable mode must be an integer >= 1"):
            GainPlan(controllable=frozenset([1, bad]), gains={}, input_mats=inputs)
    # per_mode_cost(lin, 0) once read mode 0 as the last listed mode
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"mode must be an integer >= 1, got {bad}"):
            per_mode_cost(lin, bad)
    assert per_mode_cost(lin, np.int64(1)) == per_mode_cost(lin, 1) == pytest.approx(1.0)
    assert np.asarray(search_gain(lin, inputs, [np.int64(1)], 30).gains[1]).tolist() == [[4.0]]


@pytest.mark.parametrize("bad", [1.5, True])
def test_search_gain_refuses_a_fractional_or_boolean_controllable_mode(bad):
    # the search once floored 1.5 to mode 1, and read True as mode 1
    _, lin = scalar_model(0.0)
    with pytest.raises(ValueError, match=f"controllable mode must be an integer >= 1, got {bad}"):
        search_gain(lin, lambda i: np.eye(1), [bad], 30)


def test_search_gain_finds_first_certified_level():
    spec, lin = scalar_model(0.0)
    plan = search_gain(lin, spec.meta["input_matrix"], spec.meta["controllable"], 30)
    assert plan is not None
    g = float(np.asarray(plan.gains[1])[0, 0])
    # certified gains must overcome the unstable tail, so g > 2
    assert g == pytest.approx(4.0)

    small = search_gain(
        lin, spec.meta["input_matrix"], spec.meta["controllable"], 30, budget=1.0
    )
    assert small is None
    with pytest.raises(ValueError):
        search_gain(lin, spec.meta["input_matrix"], frozenset(), 30)
    # an infinite budget would double g forever; NaN and negative ones tried g = 0 only
    for bad in (float("nan"), -5.0, float("inf")):
        with pytest.raises(ValueError, match="budget"):
            search_gain(lin, spec.meta["input_matrix"], spec.meta["controllable"], 30,
                        budget=bad)
    zero = search_gain(lin, spec.meta["input_matrix"], spec.meta["controllable"], 30, budget=0.0)
    assert zero is None  # g = 0 does not certify this open loop


def test_rounding_cannot_certify_an_exact_zero():
    # at g = 2 the weighted closed-loop cost 1 - g * nu_1 is exactly 0
    # (nu_1 = 1/2); its computed sign is rounding noise and must not certify
    spec, lin = scalar_model(0.0)
    for n in (100, 300, 1000):
        for form in ("thm37", "thm41"):
            plan = search_gain(
                lin, spec.meta["input_matrix"], spec.meta["controllable"], n, form=form
            )
            assert float(np.asarray(plan.gains[1])[0, 0]) == pytest.approx(4.0)
    at_zero = GainPlan(frozenset([1]), {1: np.array([[2.0]])}, spec.meta["input_matrix"])
    for form in ("thm37", "thm41"):
        cert = certify_stabilization(lin, at_zero, 1000, form=form)
        assert cert.verdict == INCONCLUSIVE
        assert abs(cert.partial_sum) <= cert.rounding_bound
        assert 0.0 < cert.rounding_bound < 1e-12


def test_shared_law_matches_own_solve():
    spec, lin = scalar_model(0.0)
    plan = GainPlan(frozenset([1]), {1: np.array([[4.0]])}, spec.meta["input_matrix"])
    # a truncated law of the infinite ladder leaves its tail unproved; the
    # own solve is the exact geometric law, whose sum over every mode the
    # truncation's sum over modes 1..20 matches, mode 20 standing for the rest
    cert = certify_stabilization(truncating(lin), plan, 20)
    own = certify_stabilization(lin, plan, 20)
    assert (cert.verdict, cert.reason, cert.tail_bound) == (INCONCLUSIVE, "tail unproved", np.inf)
    assert (own.verdict, own.nu.source) == (CERTIFIED, "exact_geometric")
    assert cert.nu.nu.tobytes() == stationary(truncate(lin.qhat, 20)).nu.tobytes()
    assert cert.partial_sum == own.partial_sum
    assert 0.0 < cert.rounding_bound < -cert.partial_sum
    assert all(cert.assumption_flags.values())
    # the truncation is solved at the level asked for, the exact law at none
    assert certify_stabilization(truncating(lin), plan, 30).nu.truncation == 30
    assert cert_bytes(certify_stabilization(lin, plan, 30)) == cert_bytes(own)


def test_certificate_monotone_in_gain():
    spec, lin = scalar_model(0.0)
    totals = []
    for g in (2.5, 3.0, 4.0, 6.0):
        plan = GainPlan(
            frozenset([1]), {1: np.array([[g]])}, spec.meta["input_matrix"]
        )
        totals.append(certify_stabilization(lin, plan, 30).total)
    assert all(b < a for a, b in zip(totals, totals[1:]))


def test_margin_requirement_can_block():
    _, lin = scalar_model(3.0)
    cert = certify_recurrence(lin, 30, margin_frac=2.0)
    assert (cert.verdict, cert.reason) == (INCONCLUSIVE, "margin")
    for bad in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="margin_frac"):
            certify_recurrence(lin, 30, margin_frac=bad)


def test_a_tail_mass_is_no_argument():
    # a stated tail mass once bounded the tail of a truncation, weighed at
    # the largest cost of modes 1..N, which nothing makes hold beyond N
    spec, lin = scalar_model(0.0)
    inputs, ctl = spec.meta["input_matrix"], spec.meta["controllable"]
    plan = GainPlan(frozenset([1]), {1: np.array([[4.0]])}, inputs)
    for v in (lin, undeclared(lin)):
        for call in (lambda: certify_recurrence(v, 30, tail_mass_bound=0.0),
                     lambda: certify_stabilization(v, plan, 30, tail_mass_bound=0.0),
                     lambda: search_gain(v, inputs, ctl, 30, tail_mass_bound=0.0)):
            with pytest.raises(TypeError, match="tail_mass_bound"):
                call()


def test_truncations_that_once_certified_a_positive_sum_are_unproved():
    # both chains have a positive criterion sum, and a tail mass 1.01 times
    # the true mass beyond N = 4 once made each CERTIFIED, with totals
    # -0.988 and -0.989; nothing in a truncation at N bounds the costs
    # beyond N or the error of the truncation's head
    def lin(row, rate_bound, cost):
        return Linearization(b_mat=lambda i: np.array([[cost(i)]]),
                             sigma_mats=lambda i: [np.zeros((1, 1))],
                             qhat=SparseGenerator(row, rate_bound), coeff_bound=100.0)

    # climb at rate 1, return to mode 1 at rate 2: nu_i = (2/3) 3^(1-i), so
    # the sum is -(2/3)(1 + 1/3 + 1/9 + 1/27) + 100 * 3^-4 = 20/81
    ladder = lin(lambda i: {2: 1.0} if i == 1 else {1: 2.0, i + 1: 1.0}, 3.0,
                 lambda i: -1.0 if i <= 4 else 100.0)
    rows = {1: {3: 0.01, 5: 1.0}, 2: {1: 0.1}, 3: {4: 1.0}, 4: {1: 1.0, 2: 1e-3}}
    head = lin(lambda i: dict(rows[i]) if i in rows else {2: 100.0, i + 1: 1.0}, 101.0,
               lambda i: 1.0 if i == 2 or i >= 5 else -1.0)
    # the truncation at 4 puts 0.005 on mode 2, the chain 0.907: its sum is 0.815
    far = stationary(truncate(head.qhat, 60)).nu
    assert far[1] == pytest.approx(0.907, abs=1e-3)
    assert far @ [per_mode_cost(head, i) for i in range(1, 61)] == pytest.approx(0.815, abs=1e-3)
    for v, partial, mass in ((ladder, -1.0, 3.0**-4), (head, -0.99005, far[4:].sum())):
        cert = certify_recurrence(v, 4)
        assert (cert.verdict, cert.reason) == (INCONCLUSIVE, "tail unproved")
        assert (cert.nu.source, cert.tail_bound) == ("unproved", np.inf)
        assert cert.partial_sum == pytest.approx(partial, abs=1e-5)
        with pytest.raises(TypeError, match="tail_mass_bound"):
            certify_recurrence(v, 4, tail_mass_bound=1.01 * mass)


def test_rounding_bound_decides_a_sum_just_below_zero():
    # nu = (1/2, 1/2) on two modes costing -1 and 1 - 2^-52: the sum is
    # -2^-53, which the rounding bound gamma_2 (|c_1| + |c_2|) / 2 outweighs
    lin = Linearization(b_mat=lambda i: np.array([[-1.0 if i == 1 else 1.0 - 2.0**-52]]),
                        sigma_mats=lambda i: [np.zeros((1, 1))],
                        qhat=SparseGenerator.from_triplets([(1, 2, 1.0), (2, 1, 1.0)]),
                        coeff_bound=1.0)
    cert = certify_recurrence(lin, 2)
    assert cert.nu.nu.tolist() == [0.5, 0.5] and cert.partial_sum == -(2.0**-53)
    assert (cert.nu.source, cert.tail_bound) == ("finite_modes", 0.0)
    assert cert.rounding_bound > -cert.partial_sum
    assert all(cert.assumption_flags.values())
    assert (cert.verdict, cert.reason) == (INCONCLUSIVE, "rounding bound")


def test_extra_flags_veto_the_verdict():
    lin = ou_lin()
    cert = certify_recurrence(lin, 30, extra_flags={"rate_convergence": False})
    assert (cert.verdict, cert.reason) == (INCONCLUSIVE, "rate_convergence")
    assert cert.partial_sum == pytest.approx(-1.0, abs=1e-9)
    # the first failing flag in the sorted order of to_dict decides
    two = certify_recurrence(lin, 30, extra_flags={"z_probe": False, "a_probe": False})
    assert two.reason == "a_probe" == next(
        k for k, ok in two.to_dict()["assumptions"].items() if not ok)


def test_to_dict_is_json_ready():
    import json

    # the truncated path: with both repeat points declared the law is exact
    # and ``truncation`` reports its head size (test_exact_law.py)
    cert = certify_recurrence(undeclared(ou_lin()), 30)
    doc = cert.to_dict()
    json.dumps(doc)
    assert (doc["verdict"], doc["reason"]) == (INCONCLUSIVE, "tail unproved")
    assert doc["tail_mass_source"] == "unproved" and doc["tail_bound"] == float("inf")
    assert doc["truncation"] == 30
    assert len(doc["per_mode_c"]) == 12
    assert doc["partial_sum"] == pytest.approx(-1.0, abs=1e-9)
    assert 0.0 < doc["rounding_bound"] < 1e-14
    assert doc["total"] == doc["partial_sum"] + doc["tail_bound"] + doc["rounding_bound"]
    # the same weighing on the exact law certifies
    exact = certify_recurrence(ou_lin(), 30).to_dict()
    assert (exact["verdict"], exact["tail_bound"]) == (CERTIFIED, 0.0)
    assert exact["total"] == exact["partial_sum"] + exact["rounding_bound"]


def test_a_truncated_row_off_zero_raises():
    # every law, also a truncated one a caller passes in, comes from
    # exact_law or stationary, which check what the removed qhat_conservative
    # flag reported: rates whose total overflows are refused by row, and
    # leave a truncated row sum of -inf + inf
    qhat = SparseGenerator(lambda i: {j: 1e308 for j in (1, 2, 3) if j != i}, rate_bound=1.0,
                           name="huge", n_modes=3)
    lin = replace(undeclared(ou_lin()), qhat=qhat)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="huge: the rates of row 1 total inf"):
            certify_recurrence(lin, 3)
        with pytest.raises(ValueError, match="a truncated row sums to nan, not 0"):
            stationary(truncate(qhat, 3))
    assert set(certify_recurrence(ou_lin(), 30).assumption_flags) == {"coeff_bound_ok"}


def test_certified_totals_stable_across_truncation():
    lin = ou_lin()
    totals = [certify_recurrence(lin, n).total for n in (15, 25, 40)]
    assert all(t < 0 for t in totals)
    assert max(totals) - min(totals) < 1e-6


def test_finite_mode_space_caps_the_truncation():
    # predator_prey's limiting generator lives on modes 1..n_max = 50; any N
    # past it truncates nothing, so the tail is exactly empty
    lin = registry_get("predator_prey", {})[1]
    assert lin.qhat.n_modes == 50
    certs = [certify_recurrence(lin, n) for n in (50, 51, 100, 1000, 100_000)]
    for cert in certs:
        assert cert.nu.truncation == 50
        assert cert.tail_bound == 0.0 and not hasattr(cert, "tail_mass")
        assert cert.nu.source == "finite_modes"
        assert cert.verdict == certs[0].verdict
        assert cert.partial_sum == certs[0].partial_sum
        assert cert.total == certs[0].total
    assert truncate(lin.qhat, 10_000).size == 50
    assert truncate(lin.qhat, 20).size == 20
    assert certify_recurrence(lin, 20).nu.source == "finite_modes"


def test_finite_chain_is_weighed_whole_without_a_tail_mass():
    # N below the mode count changes nothing: the law is solved on all 50
    # modes, so no tail is left out
    lin = registry_get("predator_prey", {})[1]
    runs = [cert_bytes(certify_recurrence(lin, n)) for n in (2, 20, 49, 50, 100_000)]
    assert all(run == runs[0] for run in runs)
    assert json.loads(runs[0][0])["truncation"] == 50
    # nor does a stabilization certificate weigh a truncation below it
    plan = GainPlan(frozenset([1]), {}, lambda i: np.eye(2))
    runs = [cert_bytes(certify_stabilization(lin, plan, n)) for n in (2, 20, 50, 100_000)]
    assert all(run == runs[0] for run in runs)
    assert json.loads(runs[0][0])["truncation"] == 50


def test_negative_coefficients_certify_under_the_derived_bound():
    # every mode is stable (c_1 = -5, c_i = -1 beyond); the coefficient bound
    # must weigh |A|, not max A, or coeff_bound_ok fails
    lin = registry_get("controlled_scalar", {"A": [-5.0, -1.0], "L": 0.0})[1]
    assert lin.coeff_bound == 5.0
    cert = certify_recurrence(lin, 30)
    assert cert.assumption_flags["coeff_bound_ok"]
    assert cert.partial_sum == pytest.approx(-3.0, abs=1e-8)
    assert (cert.verdict, cert.reason) == (CERTIFIED, "certified")


def undeclared(lin):
    """The same linearization without either repeat point."""
    return replace(truncating(lin), repeats_from=None)


def finite(lin, n):
    """The same linearization over modes 1..n of its ``qhat``, the rates
    beyond n lumped into mode n, as a truncation at n lumps them."""
    q = lin.qhat

    def row(i):
        out = {}
        for j, r in q.row(i).items():
            if min(j, n) != i:
                out[min(j, n)] = out.get(min(j, n), 0.0) + r
        return out

    return replace(lin, qhat=SparseGenerator(row, q.rate_bound, name=q.name, n_modes=n))


def truncating(lin):
    """The same linearization over its ``qhat`` without the repeat point:
    its law is a truncation at N, and its costs still repeat from its own
    ``repeats_from``."""
    q = lin.qhat
    return replace(lin, qhat=SparseGenerator(q.row, q.rate_bound, name=q.name, n_modes=q.n_modes))


def cert_bytes(cert):
    return json.dumps(cert.to_dict()), cert.per_mode_c.tobytes(), cert.nu.nu.tobytes()


def gain_bytes(plan):
    if plan is None:
        return None
    return [(i, np.asarray(g).tobytes()) for i, g in sorted(plan.gains.items())]


@pytest.mark.parametrize("name, params", repeat_cases())
def test_repeat_points_change_no_certificate(name, params):
    spec, lin = registry_get(name, params)
    inputs = spec.meta.get("input_matrix", lambda i: np.eye(spec.dim))
    controllable = spec.meta.get("controllable", frozenset([1]))
    # certificates read modes beyond N only when N < max(K, controllable + 1)
    top = max(lin.repeats_from, max(controllable, default=0) + 1)
    variants = [lin, truncating(lin), replace(lin, repeats_from=None), undeclared(lin)]
    # a declared infinite generator is weighed by its exact law, whatever N;
    # the truncated law at N = 300 agrees with it to rounding (its error is
    # of the order of nu_300 <= 2^-300)
    exact = lin.qhat.n_modes is None
    for n in sorted({top, top + 1, 30, 300}):
        runs = []
        for v in variants:
            try:
                runs.append(cert_bytes(certify_recurrence(v, n)))
            except ValueError as exc:
                runs.append(str(exc))
        assert runs[1] == runs[2] == runs[3], n
        if exact:
            assert runs[0] == cert_bytes(certify_recurrence(lin, 100_000)), n
            if n == 300:
                a, b = certify_recurrence(lin, n), certify_recurrence(undeclared(lin), n)
                # only the exact law proves its tail
                assert (b.verdict, b.reason) == (INCONCLUSIVE, "tail unproved")
                assert a.partial_sum == pytest.approx(b.partial_sum, abs=1e-12)
        else:
            assert runs[0] == runs[1], n
        for form in ("thm37", "thm41"):
            found = search_gain(lin, inputs, controllable, n, form=form)
            gains = [gain_bytes(search_gain(v, inputs, controllable, n, form=form))
                     for v in variants]
            assert gains[1] == gains[2] == gains[3], (n, form)
            assert gains[0] == gain_bytes(found)
            # a truncation of an infinite chain proves no tail, so no gain
            assert gains[1] == (None if exact else gains[0]), (n, form)
            if found is not None:  # the plan found on the exact law, weighed by each
                certs = [cert_bytes(certify_stabilization(v, found, n, form)) for v in variants]
                assert certs[1] == certs[2] == certs[3], (n, form)


def test_tail_bound_and_probe_cover_the_modes_beyond_n():
    # modes 1..9 cost -1 and every mode from 10 on costs +5; at N = 5 the
    # mass beyond N may sit at cost 5, which no term of a truncation bounds
    _, declared = registry_get("controlled_scalar", {"A": [-1.0] * 9 + [5.0], "L": 0.0})
    assert declared.repeats_from == 10 and declared.coeff_bound == 5.0
    lin = truncating(declared)  # the exact law of the declared qhat leaves no tail
    cert = certify_recurrence(lin, 5)
    assert list(cert.per_mode_c) == [-1.0] * 5
    assert (cert.verdict, cert.reason, cert.tail_bound) == (INCONCLUSIVE, "tail unproved", np.inf)
    assert cert.partial_sum == pytest.approx(-1.0, abs=1e-12)
    assert cert.assumption_flags["coeff_bound_ok"]
    # a coefficient bound that holds on modes 1..N only fails the probe,
    # which sees the modes beyond N only through the declaration
    short = replace(lin, coeff_bound=1.0)
    assert not certify_recurrence(short, 5).assumption_flags["coeff_bound_ok"]
    assert certify_recurrence(undeclared(short), 5).assumption_flags["coeff_bound_ok"]
    # the exact law (nu_i = 2^-i) weighs the costs beyond N: the modes from
    # 10 on hold 2^-9 at cost 5
    exact = certify_recurrence(declared, 5)
    assert exact.nu.source == "exact_geometric" and exact.tail_bound == 0.0
    assert exact.partial_sum == -(1.0 - 2.0**-9) + 5.0 * 2.0**-9
    # N past the repeat mode: the costs repeat c_10
    cert = certify_recurrence(lin, 40)
    assert list(cert.per_mode_c) == [-1.0] * 9 + [5.0] * 31
