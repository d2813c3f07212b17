import numpy as np
import pytest

from switchsde.certify import (
    CERTIFIED,
    INCONCLUSIVE,
    GainPlan,
    _costs,
    _probe_norm,
    _stacks,
    certify_recurrence,
    certify_stabilization,
    estimate_tail_mass,
    per_mode_cost,
    search_gain,
)
from switchsde.chain import stationary, truncate
from switchsde.model import Linearization
from switchsde.registry import registry_get
from switchsde.spectra import a_of_i, summarize


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
        b, sig = _stacks(lin, modes, plan)
        for form in ("thm37", "thm41"):
            oracle = [summarize_cost(closed[i - 1], noises[i - 1], form) for i in modes]
            assert np.allclose(_costs(b, sig, form), oracle, rtol=0.0, atol=1e-12)
            for i in (1, 3, n_modes):
                assert per_mode_cost(lin, i, form=form, plan=plan) == pytest.approx(
                    oracle[i - 1], abs=1e-12
                )
            if plan is not None:
                cert = certify_stabilization(lin, plan, n_modes, tail_mass_bound=0.0, form=form)
                assert np.allclose(cert.per_mode_c, oracle, rtol=0.0, atol=1e-12)
        loop = max(
            max(np.linalg.norm(closed[i - 1], 2) for i in modes),
            max(np.linalg.norm(s, 2) for i in modes for s in noises[i - 1]),
        )
        assert _probe_norm(b, sig) == pytest.approx(loop, abs=1e-12)


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
    plan = GainPlan(controllable=frozenset(), gains={})
    cert41 = certify_stabilization(
        lin, GainPlan(frozenset([1]), {1: np.zeros((1, 1))}, lin.b_mat), 30, form="thm41"
    )
    # zero gain leaves the closed loop as built: sum is 2 * (-1/2)
    assert cert41.partial_sum == pytest.approx(-1.0, abs=1e-9)
    assert cert41.verdict == CERTIFIED
    assert plan.gain(1) is None


def test_gain_plan_validation():
    with pytest.raises(ValueError):
        GainPlan(controllable=frozenset([1]), gains={2: np.eye(1)})
    plan = GainPlan(controllable=frozenset([1, 2]), gains={1: np.eye(1)})
    assert plan.gain(1) is not None
    assert plan.gain(2) is None


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
    tg = truncate(lin.qhat, 20)
    plan = GainPlan(frozenset([1]), {1: np.array([[4.0]])}, spec.meta["input_matrix"])
    cert = certify_stabilization(lin, plan, 20, law=(tg, stationary(tg)))
    assert cert.verdict == CERTIFIED
    assert cert.partial_sum == certify_stabilization(lin, plan, 20).partial_sum
    with pytest.raises(ValueError):
        certify_stabilization(lin, plan, 30, law=(tg, stationary(tg)))


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
    assert cert.verdict == INCONCLUSIVE
    with pytest.raises(ValueError):
        certify_recurrence(lin, 30, margin_frac=-0.1)


def test_user_tail_mass_bound_is_used():
    _, lin = scalar_model(3.0)
    cert = certify_recurrence(lin, 30, tail_mass_bound=1e-6)
    assert cert.tail_mass_source == "user"
    assert cert.tail_mass == pytest.approx(1e-6)
    assert cert.tail_bound == pytest.approx(2.0 * 1e-6)
    with pytest.raises(ValueError):
        certify_recurrence(lin, 30, tail_mass_bound=-1.0)


def test_extra_flags_veto_the_verdict():
    lin = ou_lin()
    cert = certify_recurrence(lin, 30, extra_flags={"rate_convergence": False})
    assert cert.verdict == INCONCLUSIVE
    assert cert.partial_sum == pytest.approx(-1.0, abs=1e-9)


def test_tail_estimate_dominates_true_tail():
    for name, true_tail in (("switched_ou", None), ("controlled_scalar", None)):
        lin = registry_get(name, {})[1]
        n = 20
        nu = stationary(truncate(lin.qhat, n)).nu
        est = estimate_tail_mass(nu)
        # exact mass beyond the truncation, from the closed forms
        if name == "switched_ou":
            true_tail = 3.0 ** (-(n - 1))
        else:
            true_tail = 2.0 ** (-n)
        assert est >= true_tail
        assert est <= 5.0 * true_tail


def test_tail_estimate_rejects_flat_or_short_heads():
    with pytest.raises(ValueError):
        estimate_tail_mass(np.full(30, 1.0 / 30.0))
    with pytest.raises(ValueError):
        estimate_tail_mass(np.array([0.5, 0.25, 0.125, 0.125]))
    bad = np.array([0.5, 0.25, 0.125, 0.0625, 0.0, 0.0, 0.0, 0.0, 0.0625])
    with pytest.raises(ValueError):
        estimate_tail_mass(bad)


def test_to_dict_is_json_ready():
    import json

    cert = certify_recurrence(ou_lin(), 30)
    doc = cert.to_dict()
    json.dumps(doc)
    assert doc["verdict"] == CERTIFIED
    assert doc["truncation"] == 30
    assert len(doc["per_mode_c"]) == 12
    assert 0.0 < doc["rounding_bound"] < 1e-14
    assert doc["total"] == doc["partial_sum"] + doc["tail_bound"] + doc["rounding_bound"]


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
        assert cert.tail_mass == 0.0 and cert.tail_bound == 0.0
        assert cert.tail_mass_source == "finite_modes"
        assert cert.verdict == certs[0].verdict
        assert cert.partial_sum == certs[0].partial_sum
        assert cert.total == certs[0].total
    assert truncate(lin.qhat, 10_000).size == 50
    assert truncate(lin.qhat, 20).size == 20
    assert certify_recurrence(lin, 20).tail_mass_source == "extrapolated"
