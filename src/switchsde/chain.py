"""Rate generators over the countable mode space and their truncations.

A generator is described by its off-diagonal jump-rate rows; diagonals are
implied by conservativeness.  Truncation to the first N modes lumps any
rate aimed beyond N into the boundary state N (rates that would lump onto
the diagonal cancel there), which keeps every row conservative; N is
capped at a declared finite mode count.  The truncation is a sparse CSR
matrix, and its stationary law is obtained by a sparse LU solve
(SuperLU); both cost O(N) for the registry families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

__all__ = [
    "SparseGenerator",
    "TruncatedGenerator",
    "StationaryDist",
    "truncate",
    "stationary",
    "convergence_sweep",
]


class SparseGenerator:
    """Off-diagonal rate rows over modes {1, 2, ...}.

    ``row(i)`` returns a dict {j: rate} with j != i and rate >= 0; the
    diagonal entry is -sum(row).  ``rate_bound`` must dominate every total
    row rate.  ``n_modes`` (optional) declares a finite mode space
    {1, ..., n_modes} whose rows never leave it.
    """

    def __init__(
        self, row_fn: Callable[[int], dict], rate_bound: float, name: str = "custom", n_modes=None
    ):
        if rate_bound <= 0:
            raise ValueError("rate_bound must be positive")
        self._row_fn = row_fn
        self.rate_bound = float(rate_bound)
        self.name = name
        self.n_modes = None if n_modes is None else int(n_modes)

    def clamp(self, n: int) -> int:
        """Truncation level ``n`` capped at the declared mode count."""
        return int(n) if self.n_modes is None else min(int(n), self.n_modes)

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
    q: csr_matrix  # (N, N) sparse, diagonal stored first in each row, rows sum to zero


@dataclass(frozen=True)
class StationaryDist:
    nu: np.ndarray
    residual: float  # l1 norm of nu @ Q, recomputed after the solve
    truncation: int


def truncate(qhat: SparseGenerator, n_modes: int) -> TruncatedGenerator:
    """Truncate to modes 1..N, lumping rates beyond N into column N; N is
    capped at the mode count of a finite generator."""
    n = qhat.clamp(n_modes)
    if n < 2:
        raise ValueError("need at least 2 modes")
    indptr, indices, rates = [0], [], []
    for i in range(1, n + 1):
        lumped = {}
        for j, rate in qhat.row(i).items():
            j, rate = int(j), float(rate)
            if j == i:
                raise ValueError(f"row {i} contains a diagonal entry")
            if rate < 0:
                raise ValueError(f"negative rate {rate} at ({i},{j})")
            jj = min(j, n) - 1
            if jj != i - 1 and rate != 0.0:  # boundary self-loops cancel
                lumped[jj] = lumped.get(jj, 0.0) + rate
        indices.append(i - 1)  # the diagonal leads its row
        indices.extend(lumped)
        rates.append(0.0)
        rates.extend(lumped.values())
        indptr.append(len(indices))
    data = np.array(rates)
    starts = np.array(indptr[:-1])
    # ``sum(axis=1)`` adds a row up as its first entry plus the sum of the
    # rest (np.add.reduceat), so a leading diagonal that negates the rest
    # makes every row sum to exactly zero
    data[starts] = -np.add.reduceat(data, starts)
    q = csr_matrix((data, np.array(indices), np.array(indptr)), shape=(n, n))
    return TruncatedGenerator(size=n, q=q)


def stationary(tg: TruncatedGenerator) -> StationaryDist:
    """Stationary law nu of the truncated generator: nu Q = 0, sum nu = 1."""
    q = tg.q
    n_comp, _ = connected_components(q, directed=True, connection="strong")
    if n_comp != 1:
        raise ValueError("truncated generator is not irreducible")
    n = tg.size
    # Transposed balance equations with the modes in reverse order and the
    # balance equation of mode 1 replaced by normalization.  Generators that
    # climb one mode at a time and return to low modes (every registry
    # family) then factor with fill-in only in the few dense low-mode rows,
    # eliminating from mode N down: O(N) work.  Fill-reducing orderings
    # miss this structure; COLAMD fills the return ladder quadratically.
    # Q's CSR arrays read backwards are the CSC arrays of this system; each
    # column then gets its normalization entry appended (no row is empty).
    top = n - 1
    keep = q.indices != 0
    ends = np.cumsum(np.add.reduceat(keep.astype(np.intp), q.indptr[:-1])[::-1])
    a = csc_matrix(
        (
            np.insert(q.data[keep][::-1], ends, 1.0),
            np.insert(top - q.indices[keep][::-1], ends, top),
            np.concatenate([[0], ends + np.arange(1, n + 1)]),
        ),
        shape=(n, n),
    )
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        nu = splu(a, permc_spec="NATURAL").solve(b)[::-1]
    except RuntimeError as exc:
        raise ValueError(f"stationary solve failed: {exc}") from exc
    if nu.min() < -1e-9:
        raise ValueError(f"stationary solve produced negative mass {nu.min():.3e}")
    nu = np.clip(nu, 0.0, None)
    nu /= nu.sum()
    residual = float(np.abs(q.T @ nu).sum())
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
                "N": dist.truncation,
                "nu_head": dist.nu[: min(10, n)].tolist(),
                "residual": dist.residual,
                "l1_change": change,
            }
        )
        prev = dist.nu
    return out
