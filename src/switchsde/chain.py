"""Rate generators over the countable mode space and their truncations.

A generator is described by its off-diagonal jump-rate rows; diagonals are
implied by conservativeness.  Truncation to the first N modes lumps any
rate aimed beyond N into the boundary state N (rates that would lump onto
the diagonal cancel there), which keeps every row conservative.  The
stationary law of a truncation is obtained by a dense direct solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

__all__ = [
    "SparseGenerator",
    "TruncatedGenerator",
    "StationaryDist",
    "truncate",
    "stationary",
    "convergence_sweep",
]

_MAX_DENSE = 2000


class SparseGenerator:
    """Off-diagonal rate rows over modes {1, 2, ...}.

    ``row(i)`` returns a dict {j: rate} with j != i and rate >= 0; the
    diagonal entry is -sum(row).  ``rate_bound`` must dominate every total
    row rate.
    """

    def __init__(self, row_fn: Callable[[int], dict], rate_bound: float, name: str = "custom"):
        if rate_bound <= 0:
            raise ValueError("rate_bound must be positive")
        self._row_fn = row_fn
        self.rate_bound = float(rate_bound)
        self.name = name

    def row(self, i: int) -> dict:
        if i < 1:
            raise ValueError("modes are indexed from 1")
        return self._row_fn(int(i))

    @classmethod
    def from_triplets(cls, triplets, name: str = "triplets") -> "SparseGenerator":
        """Build from an iterable of (i, j, rate) entries (off-diagonal only)."""
        rows: dict[int, dict[int, float]] = {}
        for i, j, rate in triplets:
            i, j, rate = int(i), int(j), float(rate)
            if i < 1 or j < 1:
                raise ValueError("modes are indexed from 1")
            if i == j:
                raise ValueError("diagonal entries are implied; supply only i != j")
            if rate < 0:
                raise ValueError(f"negative rate {rate} at ({i},{j})")
            rows.setdefault(i, {})[j] = rows.get(i, {}).get(j, 0.0) + rate
        bound = max((sum(r.values()) for r in rows.values()), default=0.0)
        if bound <= 0:
            raise ValueError("generator has no positive rates")
        return cls(lambda i: dict(rows.get(i, {})), rate_bound=bound, name=name)

    @classmethod
    def from_dense(cls, mat, name: str = "dense") -> "SparseGenerator":
        """Build from a dense square generator matrix (diagonals ignored)."""
        mat = np.asarray(mat, dtype=float)
        trips = [
            (i + 1, j + 1, mat[i, j])
            for i in range(mat.shape[0])
            for j in range(mat.shape[1])
            if i != j and mat[i, j] != 0.0
        ]
        return cls.from_triplets(trips, name=name)


@dataclass(frozen=True)
class TruncatedGenerator:
    size: int
    q: np.ndarray  # (N, N) dense, rows sum to zero


@dataclass(frozen=True)
class StationaryDist:
    nu: np.ndarray
    residual: float  # l1 norm of nu @ Q, recomputed after the solve
    truncation: int


def truncate(qhat: SparseGenerator, n_modes: int) -> TruncatedGenerator:
    """Truncate to modes 1..N, lumping rates beyond N into column N."""
    n = int(n_modes)
    if n < 2:
        raise ValueError("need at least 2 modes")
    if n > _MAX_DENSE:
        raise ValueError(f"truncation level {n} exceeds dense-solve cap {_MAX_DENSE}")
    q = np.zeros((n, n))
    for i in range(1, n + 1):
        row = qhat.row(i)
        for j, rate in row.items():
            j, rate = int(j), float(rate)
            if j == i:
                raise ValueError(f"row {i} contains a diagonal entry")
            if rate < 0:
                raise ValueError(f"negative rate {rate} at ({i},{j})")
            jj = min(j, n)
            if jj == i:
                continue  # boundary self-loop cancels into the diagonal
            q[i - 1, jj - 1] += rate
        q[i - 1, i - 1] = -q[i - 1].sum()
    return TruncatedGenerator(size=n, q=q)


def _strongly_connected(q: np.ndarray) -> bool:
    adj = csr_matrix((np.abs(q) > 0).astype(np.int8))
    n_comp, _ = connected_components(adj, directed=True, connection="strong")
    return n_comp == 1


def stationary(tg: TruncatedGenerator) -> StationaryDist:
    """Stationary law nu of the truncated generator: nu Q = 0, sum nu = 1."""
    q = tg.q
    if not _strongly_connected(q):
        raise ValueError("truncated generator is not irreducible")
    n = tg.size
    # transpose system with the last balance equation replaced by normalization
    a = q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        nu = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"stationary solve failed: {exc}") from exc
    if nu.min() < -1e-9:
        raise ValueError(f"stationary solve produced negative mass {nu.min():.3e}")
    nu = np.clip(nu, 0.0, None)
    nu /= nu.sum()
    residual = float(np.abs(nu @ q).sum())
    return StationaryDist(nu=nu, residual=residual, truncation=n)


def convergence_sweep(qhat: SparseGenerator, levels) -> list[dict]:
    """Stationary laws across truncation levels with head-to-head l1 changes."""
    levels = sorted(int(n) for n in levels)
    if len(levels) < 2:
        raise ValueError("need at least two truncation levels")
    out = []
    prev = None
    for n in levels:
        dist = stationary(truncate(qhat, n))
        change = None
        if prev is not None:
            head = min(prev.size, dist.nu.size)
            change = float(np.abs(dist.nu[:head] - prev[:head]).sum())
        out.append(
            {
                "N": n,
                "nu_head": dist.nu[: min(10, n)].tolist(),
                "residual": dist.residual,
                "l1_change": change,
            }
        )
        prev = dist.nu
    return out
