import time

import numpy as np
import pytest

from oracles import ladder_nu, nullspace_stationary, ou_family_nu
from switchsde.chain import (
    SparseGenerator,
    convergence_sweep,
    stationary,
    truncate,
)


def two_base_ladder():
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


def test_from_dense_ignores_diagonal():
    gen = SparseGenerator.from_dense([[-1.0, 1.0], [2.0, -2.0]])
    assert gen.row(1) == {2: 1.0}
    assert gen.row(2) == {1: 2.0}


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


def test_stationary_matches_nullspace_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        q = rng.uniform(0.1, 2.0, size=(n, n))
        np.fill_diagonal(q, 0.0)
        gen = SparseGenerator.from_dense(q)
        tg = truncate(gen, n)
        dist = stationary(tg)
        ref = nullspace_stationary(tg.q.toarray())
        assert np.allclose(dist.nu, ref, atol=1e-10)


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


def test_convergence_sweep_reports_decreasing_change():
    sweep = convergence_sweep(two_base_ladder(), [8, 16, 24])
    assert sweep[0]["l1_change"] is None
    assert sweep[1]["l1_change"] < 1e-3
    assert sweep[2]["l1_change"] < sweep[1]["l1_change"]
    assert all(len(s["nu_head"]) <= 10 for s in sweep)


def test_row_index_validation():
    gen = return_ladder()
    with pytest.raises(ValueError):
        gen.row(0)
