import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ladder_nu, nullspace_stationary, ou_family_nu
from switchsde.chain import (
    SparseGenerator,
    convergence_sweep,
    exact_law,
    stationary,
    truncate,
)
from switchsde.registry import registry_get


def two_base_ladder(repeats_from=None):
    def row(i):
        if i == 1:
            return {2: 1.0, 3: 1.0}
        if i == 2:
            return {1: 1.0, 3: 1.0}
        return {1: 1.0, 2: 1.0, i + 1: 1.0}

    return SparseGenerator(row, rate_bound=3.0, name="two_base", repeats_from=repeats_from)


def return_ladder(repeats_from=None):
    def row(i):
        if i == 1:
            return {2: 1.0}
        return {1: 1.0, i + 1: 1.0}

    return SparseGenerator(row, rate_bound=2.0, name="return", repeats_from=repeats_from)


def csr_bytes(tg):
    q = tg.q
    return [(a.dtype.str, a.tobytes()) for a in (q.data, q.indices, q.indptr)]


def test_truncate_rows_sum_to_zero_exactly():
    for gen in (two_base_ladder(), return_ladder()):
        tg = truncate(gen, 12)
        sums = tg.q.sum(axis=1)
        assert (sums == 0.0).all()


def test_truncate_lumps_overflow_into_boundary():
    q = truncate(return_ladder(), 4).q.toarray()
    # climbing out of the last kept mode cancels against the diagonal,
    # leaving only the return rate
    assert np.allclose(q[3], [1.0, 0.0, 0.0, -1.0])
    q2 = truncate(two_base_ladder(), 4).q.toarray()
    assert np.allclose(q2[3], [1.0, 1.0, 0.0, -2.0])
    # an interior row is untouched
    assert np.allclose(q2[2], [1.0, 1.0, -3.0, 1.0])


def test_truncate_level_bounds():
    with pytest.raises(ValueError):
        truncate(return_ladder(), 1)
    # raising N never fails for size alone: far past any dense solve
    dist = stationary(truncate(return_ladder(), 5000))
    for k in range(1, 31):
        assert dist.nu[k - 1] == pytest.approx(ladder_nu(k), abs=1e-12)


def test_triplets_accumulate_and_validate():
    gen = SparseGenerator.from_triplets([(1, 2, 1.0), (1, 2, 0.5), (2, 1, 2.0)])
    assert gen.row(1) == {2: 1.5}
    assert gen.rate_bound == pytest.approx(2.0)
    with pytest.raises(ValueError):
        SparseGenerator.from_triplets([(1, 1, 1.0)])
    with pytest.raises(ValueError):
        SparseGenerator.from_triplets([(1, 2, -1.0)])
    with pytest.raises(ValueError):
        SparseGenerator.from_triplets([(0, 2, 1.0)])


def test_triplets_refuse_fractional_modes_and_booleans():
    # int() once floored mode 1.5 to 1, and True read as mode 1 or rate 1.0
    for bad in ((1.5, 2, 1.0), (1, 2.5, 1.0), (True, 2, 1.0), (1, 2, True), (1, "nan", 1.0)):
        with pytest.raises(ValueError, match=r"triplets\[1\] .*modes must be integers"):
            SparseGenerator.from_triplets([(2, 1, 1.0), bad])
    with pytest.raises(ValueError, match=r"triplets\[0\]"):
        registry_get("linear_2d", {"qhat": [[1.5, 2, 1.0], [2, 1, 1.0]]})
    # integral floats and numeric strings read as before
    gen = SparseGenerator.from_triplets([(1.0, "2", "0.5"), ("2", 1, 1)])
    assert (gen.row(1), gen.row(2), gen.n_modes) == ({2: 0.5}, {1: 1.0}, 2)


def test_triplets_read_or_name_every_entry():
    # "2.0" once failed with int()'s "invalid literal", and "x" and None
    # with float()'s message (None as a TypeError); no message named the entry
    gen = SparseGenerator.from_triplets([(1, 2, 1.0), ("2.0", "1", "3")])
    assert (gen.row(1), gen.row(2), gen.n_modes) == ({2: 1.0}, {1: 3.0}, 2)
    for bad, why in ((("x", 1, 1.0), "modes must be integers"),
                     ((1, None, 1.0), "modes must be integers"),
                     ((1, 2, "x"), "the rate a number"),
                     ((1, 2, None), "the rate a number"),
                     ((1, 2, float("nan")), r"rate nan at \(1,2\) is not finite")):
        with pytest.raises(ValueError, match=rf"^triplets\[1\] {re.escape(str(bad))}: .*{why}"):
            SparseGenerator.from_triplets([(2, 1, 1.0), bad])


def test_non_finite_rates_and_bounds_raise():
    # NaN fails no comparison: a NaN bound or rate once passed every check,
    # and an infinite bound made the coupled thinning clocks draw zero gaps
    for bad in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match=f"rate_bound must be finite and positive, got {bad}"):
            SparseGenerator(lambda i: {}, rate_bound=bad)
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match=rf"rate {bad} at \(1,2\) is not finite and nonnegative"):
            SparseGenerator.from_triplets([(1, 2, bad), (2, 1, 1.0)])
        gen = SparseGenerator(lambda i: {2: bad} if i == 1 else {1: 1.0}, rate_bound=1.0)
        with pytest.raises(ValueError, match=rf"rate {bad} at \(1,2\) is not finite"):
            truncate(gen, 5)


def test_stationary_two_base_golden_values():
    dist = stationary(truncate(two_base_ladder(), 30))
    assert dist.residual <= 1e-10
    assert dist.nu.sum() == pytest.approx(1.0)
    for k in range(1, 26):
        assert dist.nu[k - 1] == pytest.approx(ou_family_nu(k), abs=1e-8)


def test_stationary_return_ladder_golden_values():
    dist = stationary(truncate(return_ladder(), 30))
    assert dist.residual <= 1e-10
    for k in range(1, 26):
        assert dist.nu[k - 1] == pytest.approx(ladder_nu(k), abs=1e-8)


@st.composite
def irreducible_triplets(draw):
    """Modes 1..n as (i, j, rate) triplets: a cycle through every mode in a
    drawn order, which makes the chain irreducible, plus up to n more
    edges; a repeated edge adds its rates."""
    n = draw(st.integers(2, 12))
    order = draw(st.permutations(range(1, n + 1)))
    rate = st.floats(0.01, 10.0)
    trips = [(i, j, draw(rate)) for i, j in zip(order, order[1:] + order[:1])]
    edge = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    trips += [(i, j, draw(rate)) for i, j in draw(st.lists(edge, max_size=n))]
    return n, trips


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(irreducible_triplets(), st.integers(2, 12), st.integers(0, 5))
def test_stationary_matches_nullspace_oracle(case, level, beyond):
    n, trips = case
    gen = SparseGenerator.from_triplets(trips)
    tg = truncate(gen, n)
    # the diagonal negates the rest of its row as sum(axis=1) adds it up
    for t in (tg, truncate(gen, min(level, n))):
        assert (t.q.sum(axis=1) == 0.0).all()
    dist = stationary(tg)
    assert np.allclose(dist.nu, nullspace_stationary(tg.q.toarray()), rtol=1e-9, atol=1e-12)
    # a declared mode count caps the truncation level
    capped = truncate(SparseGenerator(gen.row, gen.rate_bound, n_modes=n), n + beyond)
    assert capped.size == n and csr_bytes(capped) == csr_bytes(tg)


def test_stationary_scales_linearly_in_n():
    # truncate costs a few us per row and the top-down sparse LU is O(N):
    # N = 1e5 takes about 0.4 s on a 2-core VM, so the budget keeps 4x
    # headroom.  Solving in natural mode order under SuperLU's default
    # COLAMD ordering fills the return ladder quadratically (about 4 s at
    # N = 1e4), so that ladder runs at 1e4, where such a regression fails
    # the budget without exhausting memory.
    budget_s = 2.0
    for gen, law, n in (
        (two_base_ladder(), ou_family_nu, 100_000),
        (return_ladder(), ladder_nu, 10_000),
    ):
        t0 = time.perf_counter()
        dist = stationary(truncate(gen, n))
        elapsed = time.perf_counter() - t0
        for k in range(1, 21):
            assert dist.nu[k - 1] == pytest.approx(law(k), abs=1e-12)
        assert dist.residual <= 1e-10
        assert elapsed < budget_s, f"{gen.name} at N={n} took {elapsed:.2f}s"


def test_stationary_rejects_reducible():
    gen = SparseGenerator.from_triplets([(1, 2, 1.0), (3, 4, 1.0), (4, 3, 1.0), (2, 1, 1.0)])
    with pytest.raises(ValueError):
        stationary(truncate(gen, 4))
    with pytest.raises(ValueError, match="the generator is not irreducible"):
        exact_law(gen)  # the finite chain's exact law, as a certificate solves it


def test_convergence_sweep_reports_decreasing_change():
    sweep = convergence_sweep(two_base_ladder(), [8, 16, 24])
    assert sweep[0]["l1_change"] is None
    assert sweep[1]["l1_change"] < 1e-3
    assert sweep[2]["l1_change"] < sweep[1]["l1_change"]
    assert all(len(s["nu_head"]) <= 10 for s in sweep)


@pytest.mark.parametrize("levels, repeated", [([10, 10], "[10]"), ([16, 8, 16, 24, 8], "[8, 16]")])
def test_convergence_sweep_refuses_a_repeated_level(levels, repeated):
    # a repeated level once gave two equal entries, the second with an
    # l1_change of 0.0 that measures nothing
    message = f"levels repeats truncation level(s) {repeated}"
    with pytest.raises(ValueError, match=re.escape(message)):
        convergence_sweep(two_base_ladder(), levels)


def test_row_index_validation():
    gen = return_ladder()
    with pytest.raises(ValueError):
        gen.row(0)
    # a row aimed below mode 1 would land in column -1, the last one
    below = SparseGenerator(lambda i: {0: 1.0} if i == 2 else {2: 1.0}, rate_bound=1.0)
    with pytest.raises(ValueError, match="row 2 targets mode 0"):
        truncate(below, 3)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 30, 700, 2000])
def test_declared_repeat_truncates_to_the_same_arrays(n):
    for make, k in ((two_base_ladder, 3), (return_ladder, 2)):
        declared, plain = make(repeats_from=k), make()
        assert csr_bytes(truncate(declared, n)) == csr_bytes(truncate(plain, n))
        # declaring a later mode is also a true promise
        assert csr_bytes(truncate(make(repeats_from=k + 2), n)) == csr_bytes(truncate(plain, n))


def test_wrong_repeat_declaration_raises():
    # the two-base rows repeat from 3: row 2 lacks the second base mode
    with pytest.raises(ValueError, match="repeats_from=2 does not hold"):
        truncate(two_base_ladder(repeats_from=2), 30)
    with pytest.raises(ValueError, match="repeats_from must be an integer >= 1, got 0"):
        SparseGenerator(lambda i: {}, 1.0, repeats_from=0)

    def drifting(i):  # the climb rate changes from mode 50 on
        return {2: 1.0} if i == 1 else {1: 1.0, i + 1: 1.0 if i < 50 else 2.0}

    gen = SparseGenerator(drifting, rate_bound=3.0, repeats_from=2)
    with pytest.raises(ValueError, match="row 60 is not row 2 shifted"):
        truncate(gen, 60)


def test_declared_truncation_is_independent_of_n():
    # the rows between the repeat mode and the boundary come from numpy, so
    # N = 1e5 takes about 20 ms on a 2-core VM (0.3-0.55 s when every row
    # is read); the budget keeps 5x headroom
    budget_s = 0.1
    for gen in (two_base_ladder(repeats_from=3), return_ladder(repeats_from=2)):
        t0 = time.perf_counter()
        tg = truncate(gen, 100_000)
        elapsed = time.perf_counter() - t0
        assert tg.size == 100_000 and (tg.q.sum(axis=1) == 0.0).all()
        assert tg.q[99_990].toarray()[0, 99_991] == 1.0
        assert elapsed < budget_s, f"{gen.name} took {elapsed:.3f}s"


@st.composite
def shift_invariant_generators(draw):
    """Rows 1..K-1 free, row K aimed at modes below K (kept) and 1-3 modes
    above it (shifted), rows beyond K its shifts; a truncation level N."""
    k = draw(st.integers(1, 6))
    rate = st.sampled_from([0.0, 0.5, 1.0, 2.5])
    head = {
        i: {j: draw(rate) for j in draw(st.lists(
            st.integers(1, k + 3).filter(lambda j, i=i: j != i), unique=True, max_size=4))}
        for i in range(1, k)
    }
    base = {j: draw(rate) for j in draw(st.lists(
        st.integers(1, k + 3).filter(lambda j: j != k), unique=True, min_size=1, max_size=5))}

    def row(i):
        if i < k:
            return dict(head[i])
        return {j + i - k if j >= k else j: r for j, r in base.items()}

    return k, row, draw(st.integers(2, 60))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(shift_invariant_generators())
def test_shift_invariant_rows_truncate_alike_declared_or_not(case):
    k, row, n = case
    declared = SparseGenerator(row, rate_bound=20.0, repeats_from=k)
    assert csr_bytes(truncate(declared, n)) == csr_bytes(truncate(SparseGenerator(row, 20.0), n))
