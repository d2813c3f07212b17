"""Rate generators over the countable mode space and their truncations.

A generator is described by its off-diagonal jump-rate rows; diagonals are
implied by conservativeness.  Truncation to the first N modes lumps any
rate aimed beyond N into the boundary state N (rates that would lump onto
the diagonal cancel there), which keeps every row conservative; N is
capped at a declared finite mode count.  The truncation is a sparse CSR
matrix, and its stationary law is obtained by a sparse LU solve
(SuperLU); both cost O(N) for the registry families.  scipy is imported
inside :func:`truncate` and :func:`stationary`, when they first run, so
simulation, the Monte Carlo checks and :func:`exact_law` never load it.

A generator may declare that its rows are shift-invariant beyond a mode K
(``repeats_from``; the level-independent tail of a matrix-geometric chain,
Neuts 1981).  Truncation then reads rows 1..K and the few rows next to N,
where lumping happens, one at a time, and builds every row in between from
row K with numpy: the Python work no longer grows with N.

:func:`exact_law` needs no truncation at all for a finite generator or
for an infinite one whose row K climbs at most one rung (the scalar case
of the matrix-geometric tail; Latouche & Ramaswami 1999, ch. 6-8).  Let K'
be the larger of K and the highest target of the rows below K.  Beyond K'
a mode is entered only by the climb from the mode below it, so nu_j =
nu_K' rho^(j - K') for j > K', with rho the climb rate of row K over its
total rate.  The tail's returns enter the K' x K' balance system of the
head as nu_K' * rate * rho / (1 - rho).  A finite chain is the same head
with no tail: K' is its mode count and rho is 0.  The head system is
solved with numpy, its residual widened by gamma_n (Higham 2002, s. 3.1)
and carried through the inverse into an error bound; the cost is
O(K'^3), does not depend on any N and is refused above 1,000 modes.  Two
graph searches over the head's links, O(links), decide irreducibility,
before any tail is read; a tail whose row K enters no mode below K never
returns, so its chain is refused as reducible too.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

__all__ = [
    "SparseGenerator",
    "TruncatedGenerator",
    "StationaryDist",
    "exact_law",
    "truncate",
    "stationary",
    "convergence_sweep",
]


def _integer(name: str, value, low: int = 1) -> int:
    """``value`` as an int, refused by name unless it is an integer >= ``low``
    (the test of ``operator.index``: numpy integers pass, 2.5 is not floored;
    a bool, which passes it, is refused too)."""
    if isinstance(value, bool) or not (hasattr(value, "__index__") and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


class SparseGenerator:
    """Off-diagonal rate rows over modes {1, 2, ...}.

    ``row(i)`` returns a dict {j: rate} with j != i and finite rate >= 0;
    the diagonal entry is -sum(row).  ``rate_bound``, finite and positive,
    must dominate every total row rate.  ``n_modes`` (optional) declares a
    finite mode space {1, ..., n_modes} whose rows never leave it.
    ``repeats_from`` (optional) K promises that for every i >= K,
    ``row(i)`` is ``row(K)`` with each target j >= K moved to j + i - K, in
    the same key order, and the targets below K kept as they are.  Like
    ``ModelSpec.shared_coefficients_from`` it is not checked, beyond the
    spot checks of row N in :func:`truncate` and of rows K+1..K' and row
    2^20 in :func:`exact_law`.
    """

    def __init__(self, row_fn: Callable[[int], dict], rate_bound: float, name: str = "custom",
                 n_modes=None, repeats_from=None):
        if not 0.0 < rate_bound < np.inf:  # written so that NaN fails
            raise ValueError(f"rate_bound must be finite and positive, got {rate_bound}")
        self._row_fn = row_fn
        self.rate_bound = float(rate_bound)
        self.name = name
        self.n_modes = None if n_modes is None else _integer("n_modes", n_modes)
        self.repeats_from = (None if repeats_from is None
                             else _integer("repeats_from", repeats_from))

    def clamp(self, n: int) -> int:
        """Truncation level ``n``, an integer >= 2, capped at the declared
        mode count."""
        n = _integer("n_modes", n, 2)
        return n if self.n_modes is None else min(n, self.n_modes)

    def row(self, i: int) -> dict:
        if i < 1:
            raise ValueError("modes are indexed from 1")
        return self._row_fn(int(i))

    @classmethod
    def from_triplets(cls, triplets, name: str = "triplets") -> "SparseGenerator":
        """Build from an iterable of (i, j, rate) entries (off-diagonal only);
        the mode count is the largest mode named, as no mode beyond it is
        ever entered.  Modes must be integral numbers or numeric strings
        ("2.0" is mode 2); a boolean or a fractional mode is refused, not
        read as 1 or floored, and every refusal names the entry."""
        rows: dict[int, dict[int, float]] = {}
        for k, entry in enumerate(triplets):
            try:
                i, j, rate = (float(v) for v in entry)
            except (TypeError, ValueError):  # None or a non-numeric string
                i = j = rate = np.nan  # refused as a fractional mode is
            why = ("modes must be integers, the rate a number and no entry a boolean"
                   if any(isinstance(v, bool) for v in entry) or i % 1 or j % 1 else
                   "modes are indexed from 1" if i < 1 or j < 1 else
                   "diagonal entries are implied; supply only i != j" if i == j else
                   None if 0.0 <= rate < np.inf else
                   f"rate {rate} at ({i:.0f},{j:.0f}) is not finite and nonnegative")
            if why:
                raise ValueError(f"triplets[{k}] {tuple(entry)}: {why}")
            i, j = int(i), int(j)
            rows.setdefault(i, {})[j] = rows.get(i, {}).get(j, 0.0) + rate
        bound = max((sum(r.values()) for r in rows.values()), default=0.0)
        if bound <= 0:
            raise ValueError("generator has no positive rates")
        top = max(max(i, *r) for i, r in rows.items())
        return cls(lambda i: dict(rows.get(i, {})), rate_bound=bound, name=name, n_modes=top)


@dataclass(frozen=True)
class TruncatedGenerator:
    size: int
    q: csr_matrix  # (N, N) sparse, diagonal stored first in each row, rows sum to zero


@dataclass(frozen=True)
class StationaryDist:
    """Stationary law nu_1..nu_m of a generator, m = ``nu.size``, and the
    ``source`` of the bound on what it leaves out.

    From a truncation (:func:`stationary`), ``truncation`` is N, ``ratio``
    and ``error`` are 0 and nothing bounds the mass beyond N or the solve's
    error: ``source`` is ``"unproved"`` and ``reason`` ``"tail unproved"``.
    From :func:`exact_law`, ``source`` is ``"finite_modes"`` (every mode,
    ``ratio`` 0) or ``"exact_geometric"`` (the head nu_1..nu_K', K' =
    ``truncation``, and nu_j = nu_m * ratio^(j - m) for every j > m),
    ``reason`` is None and ``error`` bounds the l1 distance, tail included,
    to the exact law that the residual and the rounding of the head
    system's entries leave open; or ``nu`` is empty and ``reason`` says
    why.  ``residual`` is the l1 norm of the solved system's residual."""

    nu: np.ndarray
    residual: float
    truncation: int
    ratio: float = 0.0
    error: float = 0.0
    source: str = "unproved"
    reason: Optional[str] = "tail unproved"

    def extend(self, m: int) -> np.ndarray:
        """nu_1..nu_m for m >= ``nu.size``, the tail in closed form."""
        tail = self.nu[-1] * self.ratio ** np.arange(1, m - self.nu.size + 1)
        return np.concatenate([self.nu, tail])


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
        if not 0.0 <= rate < np.inf:
            raise ValueError(f"rate {rate} at ({i},{j}) is not finite and nonnegative")
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


def _check_shift(qhat: SparseGenerator, k: int, base: dict, i: int) -> dict:
    """Row i, which ``repeats_from=k`` promises is ``base`` (row k) shifted."""
    row = qhat.row(i)
    if list(row.items()) != [(j + i - k if j >= k else j, rate) for j, rate in base.items()]:
        raise ValueError(f"{qhat.name}: row {i} is not row {k} shifted by {i - k}; "
                         f"repeats_from={k} does not hold")
    return row


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
    _check_shift(qhat, k, base, n)
    lumped = _lumped_row(k, base, n)  # nothing lumps: every target lies inside 1..n
    cols = np.fromiter(lumped, dtype=np.intp, count=len(lumped))
    shift = np.arange(hi - k + 1)
    block = np.empty((shift.size, cols.size + 1), dtype=np.intp)
    block[:, 0] = shift + (k - 1)
    block[:, 1:] = cols + shift[:, None] * (cols >= k)
    values = np.tile(np.concatenate([[0.0], list(lumped.values())]), shift.size)
    return (np.full(shift.size, cols.size + 1), block.ravel(), values), hi


def truncate(qhat: SparseGenerator, n_modes: int) -> TruncatedGenerator:
    """Truncate to modes 1..N, lumping rates beyond N into column N; N, an
    integer >= 2, is capped at the mode count of a finite generator."""
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
    """Stationary law nu of the truncated generator: nu Q = 0, sum nu = 1.
    Raises ``ValueError`` when a row of Q does not sum to exactly 0 or Q is
    not irreducible."""
    from scipy.sparse import csc_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import splu

    q = tg.q
    off = np.abs(q.sum(axis=1)).max()  # truncate makes every row sum to exactly 0
    if not off == 0.0:  # written so that NaN fails
        raise ValueError(f"a truncated row sums to {float(off)!r}, not 0")
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


# the far row of exact_law's spot check, past any truncation level in use
_FAR_ROW = 1 << 20
_HEAD_CAP = 1000  # the largest head exact_law solves densely, O(K'^3) (README)
_UNIT_ROUNDOFF = 2.0**-53


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), u = 2^-53: the relative error bound of n
    roundings."""
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


def _irreducible(links: list) -> bool:
    """Whether mode 1 reaches every mode and every mode mode 1 along ``links``
    (per mode, the columns its nonzero rates enter), in O(modes + links)."""
    into = [[] for _ in links]
    for i, out in enumerate(links):
        for j in out:
            into[j].append(i)
    for edges in (links, into):
        seen, todo = {0}, [0]
        while todo:
            fresh = set(edges[todo.pop()]) - seen
            seen |= fresh
            todo += fresh
        if len(seen) < len(links):
            return False
    return True


def exact_law(qhat: SparseGenerator) -> StationaryDist:
    """Exact stationary law of a finite generator, from its rows, or of an
    infinite one that declares ``repeats_from`` K, from rows 1..K' and a
    spot check of one far row (module docstring).  It holds no nu when row
    K climbs more than one rung (reason ``"tail reach > 1"``) or returns
    below K at rates too small to weigh against its climb (``"tail ratio
    >= 1"``), or when K' > 1,000 (``"head size > 1000"``).  Raises
    ``ValueError`` when an infinite generator declares no repeat point, a
    row breaks the declaration or its rates total more than a double
    holds, or the chain is not irreducible, as it is when row K enters no
    mode below K."""
    k, top = qhat.repeats_from, qhat.n_modes
    if top is not None:  # every row, lumped as a truncation at top lumps them
        rows = [_lumped_row(i, qhat.row(i), top) for i in range(1, top + 1)]
    elif k is None:
        raise ValueError(f"{qhat.name}: an infinite generator needs repeats_from for an exact law")
    else:
        base = qhat.row(k)
        no_bound = sys.maxsize  # _lumped_row then validates rows and lumps nothing
        rows = [_lumped_row(i, qhat.row(i), no_bound) for i in range(1, k)]
        top = max([k] + [j + 1 for row in rows for j in row])  # K'
        rows += [_lumped_row(i, base if i == k else _check_shift(qhat, k, base, i), no_bound)
                 for i in range(k, top + 1)]
        _check_shift(qhat, k, base, _FAR_ROW)
    totals = [sum(row.values()) for row in rows]
    if np.inf in totals:  # each rate is finite and nonnegative: only a sum overflows
        raise ValueError(f"{qhat.name}: the rates of row {totals.index(np.inf) + 1} total inf")
    # the tail returns where row K' does, so the head's links decide
    # irreducibility once row K is seen to return below K
    if not _irreducible([[j for j in row if j < top] for row in rows]):
        raise ValueError(f"{qhat.name}: the generator is not irreducible")
    ratio, returns = 0.0, {}
    if qhat.n_modes is None:
        row_k = rows[k - 1]  # columns from 0: k - 1 is mode k, k is mode k + 1
        returns = {j: rate for j, rate in row_k.items() if j < k - 1}  # where the tail returns
        if not returns:  # the tail only climbs
            raise ValueError(f"{qhat.name}: row {k} enters no mode below {k}; "
                             "the generator is not irreducible")
        reach = max(row_k) + 1 - k
        if reach > 1:
            return StationaryDist(np.zeros(0), np.nan, 0, reason="tail reach > 1")
        climb = row_k.get(k, 0.0)
        if climb == 0.0:
            raise ValueError(f"{qhat.name}: no row enters mode {top + 1}; "
                             "the generator is not irreducible")
        ratio = climb / totals[k - 1]
        if ratio == 0.0:  # the law would leave every mode past K' without mass
            raise ValueError(f"{qhat.name}: row {k} climbs at {climb!r}, "
                             "a tail ratio that rounds to 0")
        if ratio >= 1.0:  # a return too small to weigh against the climb
            return StationaryDist(np.zeros(0), np.nan, 0, reason="tail ratio >= 1")
    if top > _HEAD_CAP:
        return StationaryDist(np.zeros(0), np.nan, 0, reason=f"head size > {_HEAD_CAP}")
    q = np.zeros((top, top))
    for i, row in enumerate(rows):
        for j, rate in row.items():
            if j < top:  # the climb out of mode K' enters the tail
                q[i, j] = rate
        q[i, i] = -totals[i]
    back = ratio / (1.0 - ratio)  # sum over the tail of nu_j / nu_K'
    for j, rate in returns.items():
        q[top - 1, j] += back * rate
    # balance equations nu q = 0, the first replaced by total mass 1
    system = q.T.copy()
    system[0] = 1.0
    system[0, -1] += back
    inv = np.linalg.inv(system)
    head = inv[:, 0] + 0.0  # a copy, masses that underflow to -0.0 read as 0.0
    if not head.min() >= 0.0:  # written so that NaN fails
        raise ValueError(f"{qhat.name}: head solve produced negative mass {head.min():.3e}")
    res = system @ head
    res[0] -= 1.0
    # the residual as computed, widened by its own rounding and by that of
    # the ratio-dependent entries, then carried through the inverse
    gamma = _gamma(top + 4) / (1.0 - ratio)
    loose = np.abs(res) + gamma * (np.abs(system) @ head)
    loose[0] += gamma
    error = float((np.abs(inv) @ loose).sum() / (1.0 - ratio))
    return StationaryDist(nu=head, residual=float(np.abs(res).sum()), truncation=top,
                          ratio=float(ratio), error=error, reason=None,
                          source="finite_modes" if qhat.n_modes else "exact_geometric")


def convergence_sweep(qhat: SparseGenerator, levels) -> list[dict]:
    """Stationary laws across distinct truncation levels with head-to-head l1 changes."""
    levels = sorted(_integer("truncation level", n, 2) for n in levels)
    if len(levels) < 2:
        raise ValueError("need at least two truncation levels")
    repeated = sorted({a for a, b in zip(levels, levels[1:]) if a == b})
    if repeated:  # a repeated level's l1 change is 0.0 and measures nothing
        raise ValueError(f"levels repeats truncation level(s) {repeated}")
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
