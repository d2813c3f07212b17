"""Rate generators over the countable mode space and their truncations.

A generator is described by its off-diagonal jump-rate rows; diagonals are
implied by conservativeness.  Truncation to the first N modes lumps any
rate aimed beyond N into the boundary state N (rates that would lump onto
the diagonal cancel there), which keeps every row conservative; N is
capped at a declared finite mode count.  The truncation is a sparse CSR
matrix, and its stationary law is obtained by a sparse LU solve
(SuperLU); both cost O(N) for the registry families.  scipy is imported
inside :func:`truncate` and :func:`stationary`, when they first run, so
simulation and the Monte Carlo checks, which use only
:class:`SparseGenerator`, never load it.

A generator may declare that its rows are shift-invariant beyond a mode K
(``repeats_from``; the level-independent tail of a matrix-geometric chain,
Neuts 1981).  Truncation then reads rows 1..K and the few rows next to N,
where lumping happens, one at a time, and builds every row in between from
row K with numpy: the Python work no longer grows with N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

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
    {1, ..., n_modes} whose rows never leave it.  ``repeats_from``
    (optional) K promises that for every i >= K, ``row(i)`` is ``row(K)``
    with each target j >= K moved to j + i - K, in the same key order, and
    the targets below K kept as they are.  Like
    ``ModelSpec.shared_coefficients_from`` it is not checked, beyond the
    spot check of row N in :func:`truncate`.
    """

    def __init__(self, row_fn: Callable[[int], dict], rate_bound: float, name: str = "custom",
                 n_modes=None, repeats_from=None):
        if rate_bound <= 0:
            raise ValueError("rate_bound must be positive")
        if repeats_from is not None and repeats_from < 1:
            raise ValueError("repeats_from must be a mode >= 1")
        self._row_fn = row_fn
        self.rate_bound = float(rate_bound)
        self.name = name
        self.n_modes = None if n_modes is None else int(n_modes)
        self.repeats_from = None if repeats_from is None else int(repeats_from)

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


@dataclass(frozen=True)
class TruncatedGenerator:
    size: int
    q: csr_matrix  # (N, N) sparse, diagonal stored first in each row, rows sum to zero


@dataclass(frozen=True)
class StationaryDist:
    nu: np.ndarray
    residual: float  # l1 norm of nu @ Q, recomputed after the solve
    truncation: int


def _lumped_row(i: int, row: dict, n: int) -> dict:
    """Row i of the truncation to modes 1..n as {column: rate} (columns from
    0), rates aimed beyond n lumped into column n - 1 and zero rates and
    boundary self-loops dropped."""
    lumped = {}
    for j, rate in row.items():
        j, rate = int(j), float(rate)
        if j < 1:
            raise ValueError(f"row {i} targets mode {j}; modes are indexed from 1")
        if j == i:
            raise ValueError(f"row {i} contains a diagonal entry")
        if rate < 0:
            raise ValueError(f"negative rate {rate} at ({i},{j})")
        jj = min(j, n) - 1
        if jj != i - 1 and rate != 0.0:  # boundary self-loops cancel
            lumped[jj] = lumped.get(jj, 0.0) + rate
    return lumped


def _read_rows(qhat: SparseGenerator, modes, n: int) -> tuple:
    """CSR pieces (row lengths, columns, values) of ``modes``, one
    ``qhat.row`` call each; each row leads with its diagonal, 0.0 for now."""
    lengths, indices, rates = [], [], []
    for i in modes:
        lumped = _lumped_row(i, qhat.row(i), n)
        lengths.append(len(lumped) + 1)
        indices.append(i - 1)
        indices.extend(lumped)
        rates.append(0.0)
        rates.extend(lumped.values())
    return lengths, indices, rates


def _shifted_rows(qhat: SparseGenerator, k: int, n: int):
    """CSR pieces of rows k..hi built from row k alone, where hi is the last
    row whose shifted targets all stay inside 1..n, and hi; None when no row
    qualifies.  Row n, the farthest shift, is checked against the pattern."""
    base = qhat.row(k)
    reach = max((int(j) - k for j, rate in base.items() if int(j) > k and float(rate) != 0.0),
                default=0)
    hi = n - reach
    if hi < k:
        return None
    want = [(j + n - k if j >= k else j, rate) for j, rate in base.items()]
    if list(qhat.row(n).items()) != want:
        raise ValueError(f"{qhat.name}: row {n} is not row {k} shifted by {n - k}; "
                         f"repeats_from={k} does not hold")
    lumped = _lumped_row(k, base, n)  # nothing lumps: every target lies inside 1..n
    cols = np.fromiter(lumped, dtype=np.intp, count=len(lumped))
    shift = np.arange(hi - k + 1)
    block = np.empty((shift.size, cols.size + 1), dtype=np.intp)
    block[:, 0] = shift + (k - 1)
    block[:, 1:] = cols + shift[:, None] * (cols >= k)
    values = np.tile(np.concatenate([[0.0], list(lumped.values())]), shift.size)
    return (np.full(shift.size, cols.size + 1), block.ravel(), values), hi


def truncate(qhat: SparseGenerator, n_modes: int) -> TruncatedGenerator:
    """Truncate to modes 1..N, lumping rates beyond N into column N; N is
    capped at the mode count of a finite generator."""
    from scipy.sparse import csr_matrix

    n = qhat.clamp(n_modes)
    if n < 2:
        raise ValueError("need at least 2 modes")
    k = qhat.repeats_from
    shifted = None if k is None or k >= n else _shifted_rows(qhat, k, n)
    if shifted is None:
        pieces = [_read_rows(qhat, range(1, n + 1), n)]
    else:
        block, hi = shifted
        tail = _read_rows(qhat, range(hi + 1, n + 1), n)
        pieces = [_read_rows(qhat, range(1, k), n), block, tail]
    lengths, indices, data = (
        np.concatenate([np.asarray(p[part], dtype=dtype) for p in pieces])
        for part, dtype in enumerate((np.intp, np.intp, float))
    )
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    starts = indptr[:-1]
    # ``sum(axis=1)`` adds a row up as its first entry plus the sum of the
    # rest (np.add.reduceat), so a leading diagonal that negates the rest
    # makes every row sum to exactly zero
    data[starts] = -np.add.reduceat(data, starts)
    q = csr_matrix((data, indices, indptr), shape=(n, n))
    return TruncatedGenerator(size=n, q=q)


def stationary(tg: TruncatedGenerator) -> StationaryDist:
    """Stationary law nu of the truncated generator: nu Q = 0, sum nu = 1."""
    from scipy.sparse import csc_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import splu

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
