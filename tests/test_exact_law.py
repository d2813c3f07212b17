"""The exact geometric law of a declared tail and the certificates weighed by it."""

import json
import math
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    exact_terms,
    ladder_nu,
    nullspace_stationary,
    ou_family_nu,
    rational_geometric_law,
    rational_stationary,
    strongly_connected,
    truncated_terms,
)
from switchsde.certify import (
    INCONCLUSIVE,
    GainPlan,
    certify_recurrence,
    certify_stabilization,
    per_mode_cost,
    search_gain,
    solve_law,
)
from switchsde.chain import SparseGenerator, exact_law, stationary, truncate
from switchsde.cli import main
from switchsde.config import load_model_config
from switchsde.model import Linearization
from switchsde.registry import registry_get
from test_certify import cert_bytes, ou_lin, truncating, undeclared
from test_chain import return_ladder, two_base_ladder

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DECLARED = ("controlled_scalar", "fluid_queue", "linear_2d", "switched_ou")


def close(value, exact, ulps):
    """|value - exact| within a few units of the last place of exact."""
    return abs(Fraction(value) - exact) <= ulps * abs(exact) * Fraction(1, 2**52)


def test_exact_law_matches_fraction_closed_forms():
    for gen, rho, closed in (
        (two_base_ladder(repeats_from=3), Fraction(1, 3),
         lambda j: Fraction(1, 3) if j < 3 else 2 * Fraction(1, 3) ** (j - 1)),
        (return_ladder(repeats_from=2), Fraction(1, 2), lambda j: Fraction(1, 2) ** j),
    ):
        law = exact_law(gen)
        assert law.ratio == float(rho)
        head, exact_rho = rational_geometric_law(gen.row, gen.repeats_from)
        assert exact_rho == rho
        assert head == [closed(j) for j in range(1, law.truncation + 1)]
        for j, v in enumerate(law.extend(60), start=1):
            assert close(v, closed(j), ulps=j + 4), j  # a power of the rounded ratio
    # the float closed forms of the oracles agree
    assert exact_law(two_base_ladder(repeats_from=3)).extend(20) == pytest.approx(
        [ou_family_nu(j) for j in range(1, 21)], rel=1e-15)
    assert exact_law(return_ladder(repeats_from=2)).extend(20) == pytest.approx(
        [ladder_nu(j) for j in range(1, 21)], rel=1e-15)


def test_truncated_head_converges_to_the_exact_head():
    # the truncation lumps the modes from N on into mode N, whose row
    # returns at the rates of the tail it stands for: its law is the exact
    # law on modes 1..N-1 and the exact mass of modes N, N+1, ... at N, so
    # it converges to the exact law in l1 as twice that mass
    for make, k in ((two_base_ladder, 3), (return_ladder, 2)):
        exact = exact_law(make(repeats_from=k)).extend(64)
        gaps = []
        for n in (10, 20, 40):
            nu = stationary(truncate(make(), n)).nu
            assert np.abs(nu[:-1] - exact[: n - 1]).sum() <= 1e-15, (make.__name__, n)
            assert nu[-1] == pytest.approx(exact[n - 1:].sum(), rel=1e-12, abs=1e-15)
            gaps.append(2.0 * exact[n - 1:].sum())
        assert gaps[0] > 1e3 * gaps[1] > 1e6 * gaps[2]


RATES = (0.5, 1.0, 2.5)
COSTS = (-2.0, -1.0, -0.25, 0.5, 1.0)


@st.composite
def one_rung_generators(draw):
    """An infinite generator that repeats from K in 1..4 and climbs one
    rung, with per-mode costs that repeat from a mode of their own.  The
    rows below K climb to the next mode and may jump to any mode up to
    K + 3; row K returns to mode 1 and maybe other modes below K: the chain
    is irreducible, and for K = 1 it can only climb."""
    k = draw(st.sampled_from((2, 3, 4, 1)))  # 1, the runaway case, drawn least
    rate = st.sampled_from(RATES)
    head = {}
    for i in range(1, k):
        jumps = draw(st.lists(st.integers(1, k + 3).filter(lambda j, i=i: j not in (i, i + 1)),
                              unique=True, max_size=3))
        head[i] = {i + 1: draw(rate), **{j: draw(rate) for j in jumps}}
    base = {}
    if k > 1:
        back = draw(st.lists(st.integers(2, k - 1), unique=True, max_size=k - 2)) if k > 2 else []
        base = {j: draw(rate) for j in [1, *back]}
    base[k + 1] = draw(rate)

    def row(i):
        if i < k:
            return dict(head[i])
        return {j + i - k if j >= k else j: r for j, r in base.items()}

    costs = draw(st.lists(st.sampled_from(COSTS), min_size=1, max_size=6))
    qhat = SparseGenerator(row, rate_bound=20.0, name="one_rung", repeats_from=k)
    lin = Linearization(
        b_mat=lambda i: np.array([[costs[min(i, len(costs)) - 1]]]),
        sigma_mats=lambda i: [np.zeros((1, 1))],
        qhat=qhat,
        coeff_bound=max(abs(c) for c in costs),
        repeats_from=len(costs),
    )
    return lin


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(one_rung_generators())
def test_exact_law_on_random_one_rung_generators(lin):
    qhat = lin.qhat
    if qhat.repeats_from == 1:  # nothing returns below mode 1: the chain runs off
        for solve in (lambda: exact_law(qhat), lambda: certify_recurrence(lin, 30)):
            with pytest.raises(ValueError, match="row 1 enters no mode below 1; "
                                                 "the generator is not irreducible"):
                solve()
        return
    certs = [certify_recurrence(lin, n) for n in (30, 1_000, 100_000)]
    assert cert_bytes(certs[0]) == cert_bytes(certs[1]) == cert_bytes(certs[2])
    cert = certs[0]
    law = exact_law(qhat)
    head, rho = rational_geometric_law(qhat.row, qhat.repeats_from)
    assert law.ratio == float(rho) and law.truncation == len(head)
    m = law.truncation + 40
    nu = law.extend(m)
    assert abs(nu.sum() + nu[-1] * law.ratio / (1.0 - law.ratio) - 1.0) <= 1e-12
    # the truncation past K' is exact on its head (see the test above)
    n = law.truncation + 5
    assert stationary(truncate(qhat, n)).nu[:-1] == pytest.approx(nu[: n - 1], abs=1e-12)

    def exact_nu(j):
        return head[j - 1] if j <= len(head) else head[-1] * rho ** (j - len(head))

    # the balance residual, carried through the inverse, bounds the distance
    # to the exact law, and the rounding bound the distance to the exact sum
    assert sum(abs(Fraction(v) - exact_nu(j)) for j, v in enumerate(nu, start=1)) <= law.error
    assert cert.nu.source == "exact_geometric" and cert.tail_bound == 0.0
    # the residual the removed stationary_residual_ok flag held to 1e-10
    assert cert.nu.residual <= 1e-10 and "stationary_residual_ok" not in cert.assumption_flags
    costs = [Fraction(c) for c in cert.per_mode_c]
    top = len(costs)
    exact_sum = (sum(exact_nu(j) * costs[j - 1] for j in range(1, top + 1))
                 + costs[-1] * exact_nu(top) * rho / (1 - rho))
    assert abs(Fraction(cert.partial_sum) - exact_sum) <= Fraction(cert.rounding_bound)
    assert cert.verdict == INCONCLUSIVE or exact_sum < 0  # sound: never on a sum >= 0


def test_shipped_declared_families_read_their_closed_forms(tmp_path):
    expect = {
        "switched_ou": (-1.0, 1e-15),
        "controlled_scalar": (-0.5, 1e-15),
        "fluid_queue": (0.0, 1e-15),
        "linear_2d": ((math.sqrt(1.25) - 3.0) / 2.0 + 0.08, 1e-12),
    }
    for name in DECLARED:
        path = str(CONFIG_DIR / f"{name}.json")
        lin = load_model_config(path).lin
        value, tol = expect[name]
        assert certify_recurrence(lin, 30).partial_sum == pytest.approx(value, abs=tol)
        runs = {cert_bytes(certify_recurrence(lin, n)) for n in (30, 100, 700, 10_000, 100_000)}
        assert len(runs) == 1, name
        out = tmp_path / name
        assert main(["certify", "--model", path, "--out", str(out)]) in (0, 1)
        doc = json.loads((out / "certificate.json").read_bytes())
        lib = json.loads(runs.pop()[0])
        assert {k: doc[k] for k in lib if k != "assumptions"} == {
            k: v for k, v in lib.items() if k != "assumptions"}
        assert doc["tail_mass_source"] == "exact_geometric"
        assert doc["truncation"] == exact_law(lin.qhat).truncation
        assert len(doc["nu_head"]) == len(doc["per_mode_c"]) == 12


@pytest.mark.parametrize("name", ["controlled_scalar", "fluid_queue", "linear_2d",
                                  "predator_prey", "switched_ou"])
def test_a_tail_mass_changes_no_shipped_certificate(name):
    # every shipped config declares both repeat points or a finite mode
    # count, so its law leaves no tail for a tail mass to bound, at every N
    # and under every plan; and no tail mass can be passed
    loaded = load_model_config(str(CONFIG_DIR / f"{name}.json"))
    lin, meta = loaded.lin, loaded.spec.meta
    inputs = meta.get("input_matrix", lambda i: np.eye(loaded.spec.dim))
    controllable = meta.get("controllable", [1])
    plan = GainPlan(frozenset(controllable), {
        i: 2.0 * np.eye(np.shape(inputs(i))[1], loaded.spec.dim) for i in controllable}, inputs)
    for n in (2, loaded.truncation_hint, 100_000):
        for form in ("thm37", "thm41"):
            for cert in (certify_recurrence(lin, n), certify_stabilization(lin, plan, n, form)):
                assert cert.tail_bound == 0.0 and not hasattr(cert, "tail_mass"), (n, form)
                assert cert.nu.source in ("exact_geometric", "finite_modes")
            for call in (lambda: certify_recurrence(lin, n, tail_mass_bound=0.01),
                         lambda: certify_stabilization(lin, plan, n, form, tail_mass_bound=0.01),
                         lambda: search_gain(lin, inputs, controllable, n, form=form,
                                             tail_mass_bound=0.01)):
                with pytest.raises(TypeError, match="tail_mass_bound"):
                    call()


def bad_tail(base):
    """Modes 1..2 climb to 3, row 3 is ``base`` and the rows beyond its shifts."""
    def row(i):
        if i < 3:
            return {i + 1: 1.0}
        return {j + i - 3 if j >= 3 else j: r for j, r in base.items()}

    return row


def test_tails_without_one_ratio_are_inconclusive():
    two_rungs = {1: 1.0, 4: 1.0, 5: 1.0}  # climbs one and two rungs
    # a return so small that the climb over the total rounds to 1
    faint = {1: 1e-300, 4: 1.0}
    for base, reason in ((two_rungs, "tail reach > 1"), (faint, "tail ratio >= 1")):
        qhat = SparseGenerator(bad_tail(base), rate_bound=3.0, repeats_from=3)
        law = exact_law(qhat)
        assert (law.source, law.reason, law.nu.size) == ("unproved", reason, 0)
        lin = replace(ou_lin(), qhat=qhat)
        cert = certify_recurrence(lin, 30)
        assert (cert.verdict, cert.reason) == (INCONCLUSIVE, reason)
        assert cert.nu.source == "unproved" and math.isnan(cert.partial_sum)
        json.dumps(cert.to_dict())  # NaN is legal here; the CLI writes null
    # a tail that never returns is no ratio of 1 but a reducible chain; it
    # once read "tail ratio >= 1"
    qhat = SparseGenerator(bad_tail({4: 1.0}), rate_bound=3.0, repeats_from=3)
    lin = replace(ou_lin(), qhat=qhat)
    for solve in (lambda: exact_law(qhat), lambda: certify_recurrence(lin, 30)):
        with pytest.raises(ValueError, match="the generator is not irreducible"):
            solve()
    # without the repeat point the two-rung chain is truncated at N
    qhat = SparseGenerator(bad_tail(two_rungs), rate_bound=3.0, repeats_from=3)
    cert = certify_recurrence(truncating(replace(ou_lin(), qhat=qhat)), 30)
    assert (cert.reason, cert.nu.source, cert.nu.truncation) == (
        "tail unproved", "unproved", 30)


def test_broken_repeat_promise_raises_as_in_truncate():
    # a head row: the two-base rows repeat from 3, not 2
    with pytest.raises(ValueError, match="row 3 is not row 2 shifted by 1; "
                                         "repeats_from=2 does not hold"):
        exact_law(two_base_ladder(repeats_from=2))

    def drifting(i):  # the climb rate changes from mode 50 on
        return {2: 1.0} if i == 1 else {1: 1.0, i + 1: 1.0 if i < 50 else 2.0}

    gen = SparseGenerator(drifting, rate_bound=3.0, repeats_from=2)
    with pytest.raises(ValueError, match=r"row \d+ is not row 2 shifted"):
        exact_law(gen)
    with pytest.raises(ValueError, match="does not hold"):
        certify_recurrence(replace(ou_lin(), qhat=gen), 30)
    # an undeclared infinite generator has no exact law
    with pytest.raises(ValueError, match="infinite generator needs repeats_from"):
        exact_law(return_ladder())


def test_reducible_declared_generators_raise():
    for row, match in (
        (lambda i: {} if i == 1 else {1: 1.0, i + 1: 1.0}, "not irreducible"),  # 1 absorbs
        (lambda i: {2: 1.0} if i == 1 else {1: 1.0}, "no row enters mode 3"),
        # a climb so slow that its ratio rounds to 0: no mode past K' would weigh anything
        (lambda i: {2: 1.0} if i == 1 else {1: 4.0, i + 1: 5e-324},
         "row 2 climbs at 5e-324, a tail ratio that rounds to 0"),
    ):
        with pytest.raises(ValueError, match=match):
            exact_law(SparseGenerator(row, rate_bound=4.0, repeats_from=2))
    # mode 1 absorbs behind a tail that climbs two rungs: the chain once read
    # "tail reach > 1" with qhat_irreducible true in its certificate
    def absorbing(i):
        return {} if i == 1 else {1: 1.0, 3: 1.0} if i == 2 else {1: 1.0, i + 1: 1.0, i + 2: 1.0}

    qhat = SparseGenerator(absorbing, rate_bound=3.0, repeats_from=3)
    lin = replace(ou_lin(), qhat=qhat)
    for solve in (lambda: exact_law(qhat), lambda: certify_recurrence(lin, 30)):
        with pytest.raises(ValueError, match="the generator is not irreducible"):
            solve()


@st.composite
def declared_heads(draw):
    """(K, head rows 1..K-1, returns of row K): random head patterns of an
    infinite generator that repeats from K in 2..8, rows below K reaching up
    to mode 8 when ``far`` (so K' may pass K), row K climbing one rung and
    returning below K, so that only irreducibility can fail."""
    k = draw(st.integers(2, 8))
    far = draw(st.booleans())
    reach = 8 if far else k
    rate = st.sampled_from([0.5, 1.0, 2.0])
    head = [draw(st.dictionaries(st.integers(1, reach).filter(lambda j, i=i: j != i), rate,
                                 min_size=1, max_size=3)) for i in range(1, k)]
    returns = draw(st.dictionaries(st.integers(1, k - 1), rate, min_size=1, max_size=3))
    return k, head, returns


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(declared_heads())
@example((5, [{2: 1.0}, {3: 1.0}, {4: 1.0}, {5: 1.0}], {1: 1.0}))  # one cycle of K' links
@example((2, [{6: 1.0}], {1: 1.0}))  # K' = 6: modes 3..6 entered by the climbs only
def test_head_matrix_decides_irreducibility_as_the_walk(case):
    k, head, returns = case

    def row(i):
        if i < k:
            return dict(head[i - 1])
        return {**returns, i + 1: 1.0}

    qhat = SparseGenerator(row, rate_bound=20.0, name="head", repeats_from=k)
    top = max([k] + [j for r in head for j in r])  # K'
    walk = strongly_connected([{j - 1: r for j, r in row(i).items()} for i in range(1, top + 1)])
    if walk:
        law = exact_law(qhat)
        assert law.truncation == top and law.nu.min() > 0.0
    else:
        with pytest.raises(ValueError, match="the generator is not irreducible"):
            exact_law(qhat)


def test_undeclared_tail_without_decay_is_unproved():
    # whether the head decays (it underflows by N = 700) or not, nothing
    # proves the tail of an undeclared infinite chain; a geometric fit
    # beyond N once certified this family for every N from 20 to 600
    lin = undeclared(ou_lin())
    for n in (5, 20, 30, 100, 600, 700):
        cert = certify_recurrence(lin, n)
        assert (cert.verdict, cert.reason) == (INCONCLUSIVE, "tail unproved"), n
        assert cert.nu.source == "unproved" and cert.tail_bound == np.inf
        assert cert.partial_sum == pytest.approx(-1.0, abs=1e-9)
    # the reason comes ahead of the flags, as a declared tail's does
    assert certify_recurrence(lin, 30, extra_flags={"a_probe": False}).reason == "tail unproved"


# exact zeros among the costs, and costs of every binary exponent
WEIGHED_COSTS = st.one_of(st.just(0.0), st.sampled_from(COSTS),
                          st.floats(-4.0, 4.0, allow_nan=False))


@st.composite
def finite_generators(draw):
    """A finite generator on modes 1..n, n in 2..8: a cycle through every
    mode plus random jumps, so the chain is irreducible."""
    n = draw(st.integers(2, 8))
    rate = st.sampled_from(RATES)
    rows = {i: {i % n + 1: draw(rate)} for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for j in draw(st.lists(st.integers(1, n).filter(lambda j, i=i: j != i), max_size=2)):
            rows[i][j] = rows[i].get(j, 0.0) + draw(rate)
    return SparseGenerator(lambda i: dict(rows[i]), rate_bound=20.0, name="finite", n_modes=n)


@st.composite
def weighed_laws(draw):
    """(kind, lin, N) over the three kinds of law a certificate weighs:
    exact laws of one-rung generators (``"exact"``), laws of finite
    generators (``"finite"``), and truncated laws of one-rung generators
    whose ``qhat`` declares no repeat point (``"undeclared"``); the costs,
    one per mode up to a repeat point that the linearization may declare,
    are drawn afresh."""
    costs = draw(st.lists(WEIGHED_COSTS, min_size=1, max_size=6))
    kind = draw(st.sampled_from(("exact", "finite", "undeclared")))
    if kind == "finite":
        qhat = draw(finite_generators())
    else:
        qhat = draw(one_rung_generators()).qhat
    lin = Linearization(
        b_mat=lambda i: np.array([[costs[min(i, len(costs)) - 1]]]),
        sigma_mats=lambda i: [np.zeros((1, 1))],
        qhat=qhat,
        coeff_bound=4.0,
        repeats_from=len(costs),
    )
    if kind == "undeclared":
        lin = undeclared(lin) if draw(st.booleans()) else truncating(lin)
    elif kind == "finite" and draw(st.booleans()):
        lin = undeclared(lin)
    levels = (5, 12, 20, 40) if kind == "undeclared" else (2, 3, 5, 8, 12)
    return kind, lin, draw(st.sampled_from(levels))


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


# a drift of -0.0 costs +0.0: the cost adds the (zero) noise terms to it
NEGATIVE_ZERO = ("finite", Linearization(b_mat=lambda i: np.array([[-0.0]]),
                                         sigma_mats=lambda i: [np.zeros((1, 1))],
                                         qhat=SparseGenerator.from_triplets([(1, 2, 1.0),
                                                                             (2, 1, 1.0)]),
                                         coeff_bound=4.0, repeats_from=1), 2)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(weighed_laws())
@example(NEGATIVE_ZERO)
def test_one_weighing_matches_the_two_reference_builders(case):
    kind, lin, n = case
    try:
        law = solve_law(lin, n)
    except ValueError:  # a truncated runaway chain: its boundary mode absorbs
        with pytest.raises(ValueError, match="not irreducible"):
            certify_recurrence(lin, n)
        return
    cert = certify_recurrence(lin, n)
    # sound: a truncation of an infinite chain proves nothing, and on a
    # finite chain CERTIFIED means the sum under its exact law is negative
    if kind == "undeclared":
        assert (cert.verdict, cert.reason) == (INCONCLUSIVE, "tail unproved")
    if kind == "finite":
        exact = rational_stationary(lin.qhat.row, lin.qhat.n_modes)
        dense = truncate(lin.qhat, lin.qhat.n_modes).q.toarray()
        assert np.allclose([float(v) for v in exact], nullspace_stationary(dense), atol=1e-12)
        exact_sum = sum(v * Fraction(c) for v, c in zip(exact, cert.per_mode_c))
        assert cert.verdict == INCONCLUSIVE or exact_sum < 0
    # the costs as the code computes them, where a drift of -0.0 costs +0.0
    costs = [per_mode_cost(lin, i) for i in range(1, len(cert.per_mode_c) + 1)]
    if lin.repeats_from is None:  # every mode up to N is stacked
        ref = truncated_terms(lin, law, np.array(costs))
    else:
        head = np.array(costs[: lin.repeats_from])
        ref = (exact_terms(law, head) if law.source == "exact_geometric" or not law.nu.size
               else truncated_terms(lin, law, head))
    assert same_bits(cert.per_mode_c, ref["per_mode_c"])
    assert same_bits(cert.nu.nu, ref["nu"].nu)
    assert same_bits(cert.nu.residual, ref["nu"].residual)
    assert cert.nu.truncation == ref["nu"].truncation
    for field in ("partial_sum", "tail_bound", "rounding_bound"):
        assert same_bits(getattr(cert, field), ref[field]), field
    assert cert.nu.source == ref["source"]
    assert ref["unproved"] is None or cert.reason == ref["unproved"]
    assert cert.verdict == INCONCLUSIVE or ref["unproved"] is None


# once CERTIFIED, its law's solve error entering no bound: partial sum
# -2.47e-12 and rounding bound 4.4e-16 on an exact sum of +9.7e-17
ONCE_CERTIFIED = SparseGenerator.from_triplets([(1, 2, 1.7345e-5), (2, 1, 0.57206)],
                                               name="two_modes")


@st.composite
def wide_rate_chains(draw):
    """An irreducible finite generator on modes 1..n, n in 2..8, with rates
    10^U(-6, 6): a cycle through every mode plus random jumps."""
    n = draw(st.integers(2, 8))
    rate = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
    rows = {i: {i % n + 1: draw(rate)} for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for j in draw(st.lists(st.integers(1, n).filter(lambda j, i=i: j != i), max_size=2)):
            rows[i][j] = rows[i].get(j, 0.0) + draw(rate)
    bound = max(sum(r.values()) for r in rows.values())
    return SparseGenerator(lambda i: dict(rows[i]), rate_bound=bound, name="wide", n_modes=n)


def at_the_sign_boundary(qhat):
    """(linearization, exact law, exact sum): costs -1 at mode 1, at mode 2
    the smallest double that makes the sum under the chain's exact law
    nonnegative, and 0 elsewhere."""
    nu = rational_stationary(qhat.row, qhat.n_modes)
    x = float(nu[0] / nu[1])
    while nu[1] * Fraction(x) < nu[0]:
        x = math.nextafter(x, math.inf)
    while nu[1] * Fraction(math.nextafter(x, -math.inf)) >= nu[0]:
        x = math.nextafter(x, -math.inf)
    costs = [-1.0, x] + [0.0] * (qhat.n_modes - 2)
    lin = Linearization(b_mat=lambda i: np.array([[costs[i - 1]]]),
                        sigma_mats=lambda i: [np.zeros((1, 1))], qhat=qhat,
                        coeff_bound=max(1.0, x))
    return lin, nu, nu[1] * Fraction(x) - nu[0]


def test_the_two_mode_chain_once_certified_is_inconclusive():
    lin, _, exact_sum = at_the_sign_boundary(ONCE_CERTIFIED)
    assert 0 <= exact_sum < 1e-16
    cert = certify_recurrence(lin, 2, margin_frac=0.0)
    assert (cert.verdict, cert.reason, cert.nu.source) == (
        INCONCLUSIVE, "partial sum >= 0", "finite_modes")
    assert abs(Fraction(cert.partial_sum) - exact_sum) <= Fraction(cert.rounding_bound) < 1e-10


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(wide_rate_chains())
@example(ONCE_CERTIFIED)
def test_no_finite_chain_certifies_a_sum_at_the_sign_boundary(qhat):
    # the law's error bound covers its l1 distance to the exact law, and
    # the rounding bound the partial sum's distance to the exact sum, which
    # is nonnegative: no certificate may read CERTIFIED
    lin, nu, exact_sum = at_the_sign_boundary(qhat)
    cert = certify_recurrence(lin, 2, margin_frac=0.0)
    law = cert.nu
    assert (law.source, law.truncation, cert.tail_bound) == ("finite_modes", qhat.n_modes, 0.0)
    assert sum(abs(Fraction(v) - e) for v, e in zip(law.nu, nu)) <= law.error
    assert abs(Fraction(cert.partial_sum) - exact_sum) <= Fraction(cert.rounding_bound)
    assert cert.verdict == INCONCLUSIVE


def test_predator_prey_reads_its_exact_law_to_rounding():
    lin = load_model_config(str(CONFIG_DIR / "predator_prey.json")).lin
    law = solve_law(lin, 2)
    exact = rational_stationary(lin.qhat.row, lin.qhat.n_modes)
    assert (law.source, law.truncation, law.reason) == ("finite_modes", 50, None)
    assert law.nu.min() > 0.0
    assert all(abs(Fraction(v) - e) <= 1e-15 * e for v, e in zip(law.nu, exact))
    assert sum(abs(Fraction(v) - e) for v, e in zip(law.nu, exact)) <= law.error < 1e-12


def test_overflowing_row_totals_are_refused_by_row():
    # rows 1 and 2 each hold two rates of 1e308; their law was once
    # nu = (nan, 0, -0) with a NaN error, reported as conservative
    def row(i):
        return {j: 1e308 for j in (1, 2, 3) if j != i} if i < 3 else {1: 1.0, i + 1: 1.0}

    qhat = SparseGenerator(row, rate_bound=1.0, name="huge", repeats_from=3)
    with pytest.raises(ValueError, match="huge: the rates of row 1 total inf"):
        exact_law(qhat)
    with pytest.raises(ValueError, match="huge: the rates of row 1 total inf"):
        certify_recurrence(replace(ou_lin(), qhat=qhat), 30)


def test_a_head_over_the_cap_is_unproved_without_a_dense_solve(monkeypatch):
    def cycle(n):
        lin = Linearization(b_mat=lambda i: np.array([[-1.0]]),
                            sigma_mats=lambda i: [np.zeros((1, 1))],
                            qhat=SparseGenerator(lambda i: {i % n + 1: 1.0}, rate_bound=1.0,
                                                 name="cycle", n_modes=n),
                            coeff_bound=1.0, repeats_from=1)
        return certify_recurrence(lin, 2)

    def refused(a):
        raise AssertionError("a dense solve above the cap")

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "inv", refused)
        start = time.perf_counter()
        cert = cycle(1001)
        assert time.perf_counter() - start < 0.5
    assert (cert.verdict, cert.reason, cert.nu.source) == (
        INCONCLUSIVE, "head size > 1000", "unproved")
    assert cert.to_dict()["nu_head"] == [] and math.isnan(cert.partial_sum)
    cert = cycle(1000)  # one mode fewer is solved: nu_i = 1/1000
    assert (cert.verdict, cert.nu.source) == ("CERTIFIED", "finite_modes")
    start = time.perf_counter()
    cert = certify_recurrence(registry_get("predator_prey", {"n_max": 500})[1], 2)
    assert time.perf_counter() - start < 1.0
    assert (cert.nu.source, cert.nu.truncation) == ("finite_modes", 500)


def test_only_an_undeclared_infinite_chain_is_truncated(monkeypatch):
    import switchsde.certify

    sizes, solve = [], switchsde.certify.stationary

    def counting(tg):
        sizes.append(tg.size)
        return solve(tg)

    monkeypatch.setattr(switchsde.certify, "stationary", counting)
    ring = [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 2.0)]
    for lin in (registry_get("predator_prey", {})[1],
                registry_get("linear_2d", {"qhat": ring})[1]):
        for n in (2, 30, 100_000):
            assert certify_recurrence(lin, n).nu.source == "finite_modes"
    assert sizes == []
    assert certify_recurrence(undeclared(ou_lin()), 30).reason == "tail unproved"
    assert sizes == [30]
