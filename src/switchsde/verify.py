"""Monte Carlo checks of the certificate's probabilistic ingredients.

Estimators cover: hitting times of a small history/mode set, descent times
of the mode chain, the decoupling probability of the basic coupling
against the limiting chain, long-run occupation stability across starts,
and the martingale identity E V(X_t, a_t) = V0 + E int LV ds for product
functionals V(phi, i) = f1(phi(0), i) + int_{-r}^0 g(s, i) f2(phi(s), i) ds.

Every estimator runs on the vectorized engine
:class:`~switchsde.sim.BatchEnsemble`, history-dependent rates included:
they are read per mode group, and the hitting rule reads the engine's
window sup-norms of the step.  It draws every path from the one stream
(seed, 1), so results are reproducible bit-for-bit and depend on
``n_paths``.  :func:`coupling_decay` and :func:`occupation_stability` run
all their radii or starts as the cohorts of one ensemble, so their rows
depend on the whole list too; a one-start call is that start's run alone.
Stop rules are masks over the ensemble, and finished paths
leave the arrays.  The Dynkin estimator records each step's states and
coefficients in the order its Euler step took them (path order on a
one-class step and on a ``mode_arrays`` model's step), with the rates
read at that step, and takes LV of a block in one pass, rows grouped by
mode with one sort per block: the callbacks run once per mode per block.
A block holds up to ``_BLOCK_ROWS`` path-steps when V has no time
kernel; with one it is a single step, whose windows are read off the
engine's history ring before it steps on.  Each row's terms are formed
row-wise and added in a fixed order at every shape, so LV's bits do not
depend on the grouping or the block size; trapezoid weights are built
once per kernel and mode in a run.
:func:`apply_generator` is the same pass on one window.  A path
contributes nothing from its blow-up on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .chain import _integer
from .model import Linearization, ModelSpec
from .segment import Segment
from .sim import BatchEnsemble, SimConfig

__all__ = [
    "MCEstimate",
    "ProductFunctional",
    "apply_generator",
    "dynkin_residual",
    "estimate_hitting_time",
    "estimate_mode_descent",
    "coupling_decay",
    "occupation_stability",
    "occupation_fractions",
]


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean with its standard error and censoring bookkeeping."""

    mean: float
    std_error: float
    n_samples: int
    censored_fraction: float

    @property
    def usable(self) -> bool:
        finite = math.isfinite(self.mean) and math.isfinite(self.std_error)
        return self.censored_fraction < 1.0 and finite

    def to_dict(self) -> dict:
        return {
            "mean": float(self.mean),
            "std_error": float(self.std_error),
            "n_samples": int(self.n_samples),
            "censored_fraction": float(self.censored_fraction),
            "usable": bool(self.usable),
        }


def _collect(values, n_total: int) -> MCEstimate:
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        return MCEstimate(math.nan, math.nan, n_total, 1.0)
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    return MCEstimate(float(values.mean()), se, n_total, 1.0 - n / n_total)


@dataclass(frozen=True)
class ProductFunctional:
    """Functional V(phi, i) = f1(phi(0), i) + int_{-r}^0 g(s, i) f2(phi(s), i) ds.

    ``grad_f1`` and ``hess_f1`` are the state gradient and Hessian of f1;
    ``dg`` is the time derivative of the kernel g.  The time integral is
    evaluated by the trapezoid rule on the segment grid.  Every estimator
    and :func:`apply_generator` call ``f1``, ``grad_f1``, ``hess_f1`` and
    ``f2`` on states with a leading path axis, shape (P, n), so they must
    broadcast over it; ``g`` and ``dg`` are scalar callbacks of (s, i).
    The Dynkin pass hands them coordinate-major states (Fortran order), so
    a sum over the coordinates adds whole columns, in the order numpy adds
    a row-major row of fewer than 8 entries; a callback that sums 8 or more
    coordinates, or that calls BLAS or ``einsum`` on the states, may round
    differently by block size, while an elementwise one keeps its bits.
    """

    f1: Callable
    grad_f1: Callable
    hess_f1: Callable
    f2: Optional[Callable] = None
    g: Optional[Callable] = None
    dg: Optional[Callable] = None

    def __post_init__(self):
        if self.f2 is not None and (self.g is None or self.dg is None):
            raise ValueError("a time-kernel part needs both g and dg")

    def value(self, seg: Segment, i: int) -> float:
        x, hist = _one_path(self, seg)
        return float(_values(self, x, hist, i, _Trapezoid(seg.delay, seg.dt))[0])


def apply_generator(V: ProductFunctional, model: ModelSpec, seg: Segment, i: int) -> float:
    """Generator value LV(phi, i): time part + diffusion part + switching part.

    The switching sum runs over the returned sparse rate row, which is
    exact for banded rate families.
    """
    x, hist = _one_path(V, seg)
    row = model.rates_row(seg, i)
    rates = np.fromiter(row.values(), float, len(row))[None, :]
    drift = np.asarray(model.drift(x, i), dtype=float)
    sigma = None if model.zero_diffusion else np.asarray(model.diffusion(x, i), dtype=float)
    plan = [(i, slice(0, 1), list(row), rates)]
    windows = None if hist is None else lambda rows: hist[:, rows]
    return float(_generator(V, x, drift, sigma, windows, plan, _Trapezoid(seg.delay, seg.dt))[0])


def _one_path(V: ProductFunctional, seg: Segment) -> tuple:
    """A segment as a batch of one: state (1, n) and window (m, 1, n)."""
    hist = seg.samples[:, None, :] if V.f2 is not None else None
    return seg.terminal()[None, :], hist


def _as_batch(arr, batch: int) -> np.ndarray:
    """Broadcast a callback result to (batch,)."""
    arr = np.asarray(arr, dtype=float)
    if arr.shape == (batch,):
        return arr
    return np.broadcast_to(arr, (batch,))


def _window_states(hist: np.ndarray) -> np.ndarray:
    """Every window sample of every path of hist (m, P, n) as one (m * P, n)
    array, stored coordinate-major (Fortran order): a callback that reduces
    over the n coordinates, such as |x|^2, then adds whole columns instead
    of running numpy's short-axis reduce per state.  For n < 8 both layouts
    add the coordinates in the same order."""
    m, p, n = hist.shape
    return np.ascontiguousarray(hist.transpose(2, 0, 1)).reshape(n, m * p).T


def _window_f2(V: ProductFunctional, states: np.ndarray, p: int, i: int) -> np.ndarray:
    """f2 on the :func:`_window_states` of p paths in one call, (m, p)."""
    return _as_batch(V.f2(states, i), len(states)).reshape(-1, p)


class _Trapezoid:
    """Trapezoid rule for int_{-r}^0 kernel(s, i) f2(phi(s), i) ds on the
    window grid of one run; the weights are built once per (kernel, mode,
    sample count)."""

    def __init__(self, delay: float, dt: float):
        self.delay, self.dt = delay, dt
        self._weights: dict = {}

    def __call__(self, kernel: Callable, i: int, f2h: np.ndarray) -> np.ndarray:
        """Weighted column sums of f2h (m, P), columns of one grid step."""
        m = f2h.shape[0]
        key = (kernel, i, m)  # the dict keeps the kernel alive
        w = self._weights.get(key)
        if w is None:
            w = np.full(m, self.dt)
            w[0] = w[-1] = 0.5 * self.dt
            w *= [float(kernel(s, i)) for s in (-self.delay + self.dt * np.arange(m)).tolist()]
            self._weights[key] = w
        return w @ f2h


def _values(V, x, hist, i: int, trap: _Trapezoid) -> np.ndarray:
    """V(., i) on P paths: states x (P, n), windows hist (m, P, n) or None."""
    out = _as_batch(V.f1(x, i), x.shape[0])
    if V.f2 is None:
        return out
    return out + trap(V.g, i, _window_f2(V, _window_states(hist), len(x), i))


def _rows_of(groups):
    """The rows of ``groups`` (plan slices in row order) as one slice when
    they are adjacent, the usual case (groups of neighbouring modes), else
    as an index array."""
    spans = []
    for rows in groups:
        if spans and spans[-1][1] == rows.start:
            spans[-1][1] = rows.stop
        else:
            spans.append([rows.start, rows.stop])
    if len(spans) == 1:
        return slice(*spans[0])
    return np.concatenate([np.arange(a, b) for a, b in spans])


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Row sums of terms (P, K) with the bits of ``.sum(axis=-1)`` on a
    C-ordered copy, at any P and layout.  Below 8 entries numpy adds a row
    in order from +0.0, as this adds one whole column at a time; from 8 on
    it adds a C-ordered row pairwise, so a C-ordered copy is summed."""
    if terms.shape[-1] >= 8:
        return np.ascontiguousarray(terms).sum(axis=-1)
    cols = terms.T
    out = cols[0] + 0.0
    for col in cols[1:]:
        out += col
    return out


def _diffusion_trace(sigma: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """tr(H sigma sigma^T) per row of sigma (P, n, d) and hess (P, n, n), either
    possibly broadcast over P: every product (sigma_jk sigma_ik) H_ij is formed
    over whole columns and added to +0.0 in i, j, k order, the order einsum
    takes at P >= 2 (at P = 1 it may reorder its loops), so a row's bits do not
    depend on P.  It runs fastest on coordinate-major operands (P the last axis
    in memory), and holds no temporary larger than d columns."""
    n, d = sigma.shape[-2:]
    s, h = sigma.transpose(1, 2, 0), hess.transpose(1, 2, 0)  # (n, d, P), (n, n, P)
    out = np.zeros(len(sigma))
    for i in range(n):
        for j in range(n):
            terms = s[j] * s[i]
            terms *= h[i, j]
            for col in terms:
                out += col
    return out


def _coordinate_major(parts: Sequence, rows: np.ndarray) -> np.ndarray:
    """The rows ``rows`` of the arrays ``parts`` (P_s, ...) stacked, stored
    coordinate-major (P the last axis in memory), as :func:`_window_states`
    stores f2's states: a callback or kernel that reduces over the
    coordinates then adds whole columns."""
    stack = parts[0] if len(parts) == 1 else np.concatenate(parts)
    flat = stack.reshape(len(stack), math.prod(stack.shape[1:]))
    cols = np.ascontiguousarray(np.take(flat, rows, axis=0).T)
    return cols.reshape(stack.shape[1:] + (len(rows),)).transpose(-1, *range(stack.ndim - 1))


def _generator(V, x, drift, sigma, windows, plan, trap) -> np.ndarray:
    """LV on P paths grouped by mode, in one pass.

    ``plan`` lists the mode groups as (i, rows, targets, rates): a slice of
    the P rows and the rates q_ij to ``targets[k]``, per path (P_i, K) or
    shared (1, K).  x (P, n), drift (P, n) and sigma (P, n, d), (n, d) or
    None are row-aligned, best stored coordinate-major; ``windows(rows)``
    gives the windows (m, P_i, n) of a group's rows, all of one grid step,
    when V has a time kernel, else it is None.  ``grad_f1`` and ``hess_f1``
    run once per group, into coordinate-major arrays.  f1 runs once per mode
    j that a group is in or can jump to, on the rows of those groups only
    (the other rows never read V(., j)); f2 once per such mode and group, on
    the group's window states, made once.  A row's bits do not depend on the
    grouping or on P: its terms are row-wise, its trapezoid sums over one
    step, and its drift, diffusion and switching sums are added in a fixed
    order (:func:`_row_sums`, :func:`_diffusion_trace`).
    """
    p, n = x.shape
    grad = np.empty((n, p)).T
    hess = None if sigma is None else np.empty((n, n, p)).transpose(2, 0, 1)
    readers: dict = {}
    for i, rows, targets, _ in plan:
        grad[rows] = V.grad_f1(x[rows], i)
        if hess is not None:
            hess[rows] = V.hess_f1(x[rows], i)
        for j in dict.fromkeys((i, *targets)):  # a row that lists i reads V(., i) once
            readers.setdefault(j, []).append(rows)
    lv = _row_sums(grad * drift)
    if sigma is not None:
        lv += 0.5 * _diffusion_trace(np.broadcast_to(sigma, (p, n, sigma.shape[-1])), hess)
    vals = {}
    for j, groups in readers.items():
        sel = _rows_of(groups)
        vals[j] = v = np.empty(len(x))  # rows outside sel are never read
        xs = x[sel]
        v[sel] = _as_batch(V.f1(xs, j), len(xs))
    for i, rows, targets, _ in plan if windows is not None else ():
        states = _window_states(windows(rows))  # once per group, for every mode it reads
        for j in dict.fromkeys((i, *targets)):
            f2h = _window_f2(V, states, rows.stop - rows.start, j)
            vals[j][rows] += trap(V.g, j, f2h)
            if i == j:  # the time part of LV in mode j
                lv[rows] += float(V.g(0.0, j)) * f2h[-1]
                lv[rows] -= float(V.g(-trap.delay, j)) * f2h[0]
                lv[rows] -= trap(V.dg, j, f2h)
    for i, rows, targets, rates in plan:
        if len(targets):
            dv = np.array([vals[j][rows] for j in targets]) - vals[i][rows]
            lv[rows] += _row_sums(rates * dv.T)
    return lv


def _snapshot(e: BatchEnsemble, with_hist: bool) -> tuple:
    """LV's inputs at this pre-step state, rows in the Euler step's order:
    (paths, modes, tables, x, drift, sigma, history), ``paths`` None in path
    order, else the live paths in plan order (in path order on a step that
    reads every live path's mode in one call), ``tables`` each occupied
    mode's (targets, rates) read now, or None when the rates ignore the
    history, and ``history``, given ``with_hist``, the engine's reader of
    the windows on its ring, valid until the engine steps on."""
    paths = e._plan()[0]
    tables = None
    if e.model.rates_depend_on_path:  # in path order within a mode, as the plan holds them
        tables = {v: e.rate_table(group, v) for v, group in e.mode_paths().items()}
    modes = e.modes.copy() if paths is None else e.modes[paths]
    return (paths, modes, tables, *e.coefficients(), e.history if with_hist else None)


def _block_generator(V, block: list, trap, rate_table) -> list:
    """LV of a block of :func:`_snapshot` steps in one :func:`_generator` pass,
    (paths, LV) per step.  One stable argsort of the rows on their mode
    groups them, each group's in step order and then by path, as its steps'
    rate tables hold them (numpy radix-sorts modes below 2^16, else the code
    (mode, step)).  A mode's targets are fixed: a group takes them from its
    first step's table; rates that ignore the history are the engine's
    shared (1, K) row ``rate_table(None, v)``.  With a time kernel the block
    is one step, read before the engine steps on: each group gathers its
    windows off the engine's ring, and no step copies them."""
    paths, modes, tables, *arrays, history = zip(*block)
    sizes, n = [len(m) for m in modes], len(block)
    key = np.concatenate(modes)
    code = key * n + np.repeat(np.arange(n), sizes)  # (mode, step): a stable sort by mode
    perm = np.argsort(key.astype(np.uint16) if key.max(initial=0) < 2**16 else code, kind="stable")
    code = code[perm]
    runs = [0, *(np.flatnonzero(code[1:] != code[:-1]) + 1).tolist()] if len(code) else []
    groups: dict = {}  # mode -> (first row, [(step, end)]), one run per step
    for start, end, c in zip(runs, runs[1:] + [len(code)], code[runs].tolist()):
        v, s = divmod(c, n)
        groups.setdefault(v, (start, []))[1].append((s, end))
    plan = []
    for v, (first, parts) in groups.items():
        if tables[0] is None:
            targets, rates = rate_table(None, v)
        else:
            targets = tables[parts[0][0]][v][0]
            rates = np.concatenate([tables[s][v][1] for s, _ in parts])
        plan.append((v, slice(first, parts[-1][1]), targets, rates))
    x, drift, sigma = (None if s[0] is None else _coordinate_major(s, perm) for s in arrays)
    windows = None
    if history[0] is not None:  # one gather per group off the engine's ring
        who = np.arange(sizes[0]) if paths[0] is None else paths[0]
        windows = lambda rows: history[0](who[perm[rows]])  # noqa: E731
    lv = np.empty(len(perm))
    lv[perm] = _generator(V, x, drift, sigma, windows, plan, trap)
    ends = np.cumsum(sizes).tolist()
    return [(p, lv[b - size:b]) for p, size, b in zip(paths, sizes, ends)]


# path-steps per Dynkin block of a functional without a time kernel and per
# occupation block: what one pass over a block holds at once
_BLOCK_ROWS = 4096


def _n_steps(t: float, dt: float, name: str = "horizon") -> int:
    """Grid steps of length ``dt`` in the time ``t`` that the argument ``name`` sets."""
    if not math.isfinite(t):
        raise ValueError(f"{name} must be finite, got {t}")
    return int(round(t / dt))


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis: the bits of ``np.linalg.norm(x,
    axis=-1)`` on float arrays, without its wrapper."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _first_times(be: BatchEnsemble, hit, drop=None) -> tuple:
    """First grid time of a stop rule, the mask ``hit(engine)`` over the
    engine's paths, on every path that meets it before the horizon; a path
    leaves uncounted at a blow-up or where the mask ``drop(engine, paths)``
    holds, ``paths`` naming the engine's paths by their index at the start.
    Returns the times and those indices of the paths that met the rule, in
    the order they met it.  The masks are combined only where a path leaves."""
    times, who = [], []
    paths = np.arange(be.n_paths)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(_n_steps(be.cfg.horizon, be.cfg.dt) + 1):
            if k:
                be._stretch(1)
            hits = hit(be)
            out = hits if drop is None else hits | drop(be, paths)
            if not (out.any() or be.blown.any()):
                continue
            done = paths[hits & ~be.blown].tolist()
            times += [k * be.cfg.dt] * len(done)
            who += done
            live = ~(out | be.blown)
            be.keep(live)
            paths = paths[live]
            if be.n_paths == 0:
                break
    return times, np.array(who, dtype=int)


def estimate_hitting_time(
    model: ModelSpec,
    phi0: Segment,
    i0: int,
    radius: float,
    k0: int,
    cfg: SimConfig,
    n_paths: int,
    threads: int = 1,
) -> MCEstimate:
    """Mean first grid time with history sup-norm <= radius and mode <= k0.

    Paths that neither hit nor blow up by the horizon are censored; the
    estimate is flagged unusable when every path is censored.  ``threads``
    is ignored: every path is drawn from the one stream.
    """
    _integer("k0", k0)
    if not radius > 0:  # written so that NaN fails
        raise ValueError(f"radius must be positive, got {radius!r}")

    def hit(e: BatchEnsemble) -> np.ndarray:
        return (e.modes <= k0) & (e.sup_norms() <= radius)

    be = BatchEnsemble(model, phi0, i0, cfg, n_paths, track_history=True)
    return _collect(_first_times(be, hit)[0], n_paths)


def estimate_mode_descent(
    model: ModelSpec,
    phi0: Segment,
    i0: int,
    k0: int,
    cfg: SimConfig,
    n_paths: int,
) -> MCEstimate:
    """Mean first time the mode chain descends to {1, ..., k0} from i0."""
    _integer("k0", k0)

    def hit(e: BatchEnsemble) -> np.ndarray:
        return e.modes <= k0

    return _collect(_first_times(BatchEnsemble(model, phi0, i0, cfg, n_paths), hit)[0], n_paths)


def coupling_decay(
    model: ModelSpec,
    lin: Linearization,
    radii: Sequence[float],
    cfg: SimConfig,
    n_paths: int,
    i0: int = 1,
    floor_frac: float = 0.5,
) -> list:
    """Empirical decoupling probability per starting radius.

    For each radius R, ``n_paths`` paths start from the constant history
    R * e1 and are stopped at the horizon, at a blow-up or when |X| falls
    below floor_frac * R; the table reports the fraction of paths whose
    mode chain decoupled from the limiting-rate reference chain before
    that, with a 95% CI.  A path that blows up in the step its chains part
    is censored, as in the hitting estimators.

    All radii run as the cohorts of one :class:`BatchEnsemble`, R_k's
    paths k * n_paths to (k + 1) * n_paths - 1 of the one stream, so a row
    depends on the whole ``radii`` list; a one-radius call is the run of
    that radius alone.
    """
    if not 0.0 <= floor_frac < 1.0:
        raise ValueError("floor_frac must be in [0, 1)")
    radii = [float(r) for r in radii]
    if not radii:
        raise ValueError("radii must hold at least one radius")
    if not all(r > 0 for r in radii):  # written so that NaN fails
        raise ValueError("radii must be positive")
    starts = []
    for r in radii:
        start = np.zeros(model.dim)
        start[0] = r
        starts.append(Segment.make_constant(start, model.delay, cfg.dt))
    be = BatchEnsemble(model, starts, i0, cfg, n_paths, qhat=lin.qhat)
    floor = np.repeat([floor_frac * r for r in radii], n_paths)  # per start path

    def below(e: BatchEnsemble, paths: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # inf is the norm of a huge state
            return _norms(e.x) < floor[paths]

    _, who = _first_times(be, lambda e: np.isfinite(e.decouple_time), below)
    hits = np.bincount(who // n_paths, minlength=len(radii)).tolist()
    out = []
    for r, h in zip(radii, hits):
        p = h / n_paths
        se = math.sqrt(max(p * (1.0 - p), 0.0) / n_paths)
        out.append(
            {
                "radius": r,
                "p_decouple": p,
                "std_error": se,
                "ci95": (max(p - 1.96 * se, 0.0), min(p + 1.96 * se, 1.0)),
                "n_paths": int(n_paths),
            }
        )
    return out


def occupation_stability(
    model: ModelSpec,
    starts: Sequence,
    cfg: SimConfig,
    n_paths: int,
    burn_in: float,
    i0: int = 1,
) -> dict:
    """Occupation histograms over (|X| bin, mode head) for several starts.

    Pools the ``n_paths`` paths of each start into one empirical
    distribution on the grid points after ``burn_in`` and reports the
    matrix of pairwise l1 distances.  Small distances indicate the long-run
    law forgets the initial history, as positive recurrence predicts.  |X|
    falls in 20 bins of width 0.25 on [0, 5] and one overflow bin; the mode
    in one of 1, 2, 3 or above 3.

    All starts run as the cohorts of one :class:`BatchEnsemble`, start k's
    paths k * n_paths to (k + 1) * n_paths - 1 of the one stream, so a
    histogram depends on the whole ``starts`` list; a one-start call is the
    run of that start alone.
    """
    if burn_in < 0:
        raise ValueError(f"burn_in must be nonnegative, got {burn_in}")
    if not burn_in < cfg.horizon:  # written so that NaN fails
        raise ValueError("burn_in must be below the horizon")
    windows = [
        Segment.make_constant(np.atleast_1d(np.asarray(s, dtype=float)), model.delay, cfg.dt)
        for s in starts
    ]
    if not windows:
        raise ValueError("starts must hold at least one start")
    edges = np.linspace(0.0, 5.0, 21)
    k_head = 3
    n_rbins = edges.size  # last bin is overflow
    n_cells = n_rbins * (k_head + 1)
    be = BatchEnsemble(model, windows, i0, cfg, n_paths)
    counts = np.zeros((len(windows), n_rbins, k_head + 1))
    # one cell per (cohort, radial bin, mode bucket), modes above k_head in the last bucket
    base = np.arange(be.n_paths) // n_paths * n_cells - 1
    xs, cells = [], []  # the live paths of a block of grid points, binned at once
    n_steps = _n_steps(cfg.horizon, cfg.dt)
    with np.errstate(over="ignore", invalid="ignore"):  # the engine steps in it
        for k in range(n_steps + 1):
            if k:
                be._stretch(1)
            if k * cfg.dt >= burn_in - 1e-12:
                live = ~be.blown if be.blown.any() else slice(None)
                xs.append(be.x[live].copy())  # the engine may write x in place
                cells.append((base + np.minimum(be.modes, k_head + 1))[live])
            if xs and (k == n_steps or len(xs) * be.n_paths >= _BLOCK_ROWS):
                radii = _norms(np.concatenate(xs))
                rbin = np.searchsorted(edges, radii, side="right") - 1
                at = np.concatenate(cells) + np.clip(rbin, 0, n_rbins - 1) * (k_head + 1)
                counts += np.bincount(at, minlength=counts.size).reshape(counts.shape)
                xs, cells = [], []
    hists = []
    for c in counts:
        total = c.sum()
        if total == 0:
            raise ValueError("no occupation samples collected; horizon too short?")
        hists.append(c / total)

    n_s = len(hists)
    dists = np.zeros((n_s, n_s))
    for a in range(n_s):
        for b in range(n_s):
            dists[a, b] = np.abs(hists[a] - hists[b]).sum()
    return {
        "distances": dists,
        "histograms": hists,
        "radial_edges": edges,
        "k_head": k_head,
    }


def _sojourn_counts(e: BatchEnsemble, n_steps: int, burn_steps: int, idx: dict) -> tuple:
    """Run ``e`` for ``n_steps``; per path, the steps s >= burn_steps it is finite
    after, (P,), and those in each mode of ``idx`` ({mode: column}), (P, columns).
    They are added once per sojourn: at a mode change, a blow-up and the end,
    each of which ends a stretch of :meth:`BatchEnsemble._advance`."""
    counts = np.zeros((e.n_paths, len(idx)), dtype=int)
    mode, since = e.modes.copy(), np.zeros(e.n_paths, dtype=int)
    ends = np.full(e.n_paths, n_steps)  # a blown path's first uncounted step

    def close(paths, end):
        n = end - np.maximum(since[paths], burn_steps)
        for p, v, k in zip(paths.tolist(), mode[paths].tolist(), n.tolist()):
            if k > 0 and v in idx:
                counts[p, idx[v]] += k

    s = 0
    while s < n_steps:
        s += e._advance(n_steps - s)  # no path changed mode or blew up before step s - 1
        gone = e.blown & (ends == n_steps)  # blown in step s - 1, which does not count
        ends[gone] = s - 1
        moved = np.flatnonzero(gone | (e.modes != mode) & (ends == n_steps))
        close(moved, s - gone[moved])
        mode[moved], since[moved] = e.modes[moved], s
    close(np.flatnonzero(ends == n_steps), n_steps)
    return counts, np.maximum(ends - burn_steps, 0)


def occupation_fractions(
    model: ModelSpec,
    phi0: Segment,
    i0: int,
    cfg: SimConfig,
    n_paths: int,
    modes_track: Sequence[int],
    burn_in: float = 0.0,
) -> tuple:
    """Mean and SE (over paths) of time fractions spent in tracked modes.

    Fractions count the mode at the left endpoint of each grid step after
    ``burn_in``, for distinct modes ``modes_track`` and n_paths >= 2.  A
    path that blows up stops counting there: its fractions are over the
    steps it completed, and 0 if it completed none.
    """
    if n_paths < 2:  # a standard error needs two paths
        raise ValueError(f"n_paths must be at least 2, got {n_paths}")
    modes_track = [_integer("tracked mode", v) for v in modes_track]  # int() would floor 1.5
    idx = {v: a for a, v in enumerate(modes_track)}
    if len(idx) < len(modes_track):
        repeated = sorted({v for v in modes_track if modes_track.count(v) > 1})
        raise ValueError(f"modes_track repeats mode(s) {repeated}")
    n_steps = _n_steps(cfg.horizon, cfg.dt)
    burn_steps = _n_steps(burn_in, cfg.dt, "burn_in")
    if burn_in < 0:
        raise ValueError(f"burn_in must be nonnegative, got {burn_in}")
    counted = n_steps - burn_steps
    if counted <= 0:
        raise ValueError("burn_in leaves no steps to count")

    engine = BatchEnsemble(model, phi0, i0, cfg, n_paths)
    counts, steps = _sojourn_counts(engine, n_steps, burn_steps, idx)
    frac = counts / np.maximum(steps, 1)[:, None]
    means = frac.mean(axis=0)
    ses = frac.std(axis=0, ddof=1) / math.sqrt(n_paths)
    return means, ses


def dynkin_residual(
    V: ProductFunctional,
    model: ModelSpec,
    phi0: Segment,
    i0: int,
    t: float,
    cfg: SimConfig,
    n_paths: int,
    engine: str = "auto",
) -> MCEstimate:
    """Monte Carlo residual E V(X_t, a_t) - V(phi0, i0) - E int_0^t LV ds.

    The integral is accumulated at the left endpoint of every grid step of
    the same grid the path uses, so the residual estimates only the
    martingale defect plus O(dt) discretization bias.  Blow-up paths are
    excluded and counted in ``censored_fraction``.  ``engine`` names the
    one engine, ``"auto"`` or ``"batch"``.
    """
    if engine not in ("auto", "batch"):
        raise ValueError("engine must be auto or batch")
    n_steps = _n_steps(t, cfg.dt, "t")
    if n_steps < 1:
        raise ValueError("t must cover at least one grid step")
    run_cfg = replace(cfg, horizon=n_steps * cfg.dt)
    v0 = V.value(phi0, i0)

    with_hist = V.f2 is not None
    be = BatchEnsemble(model, phi0, i0, run_cfg, n_paths, track_history=with_hist)
    acc = np.zeros(n_paths)
    dt = run_cfg.dt
    trap = _Trapezoid(model.delay, dt)
    # a time-kernel block is one step, its windows read off the ring before the engine steps on
    block, block_steps = [], 1 if with_hist else max(1, _BLOCK_ROWS // n_paths)
    for k in range(n_steps):
        block.append(_snapshot(be, with_hist))
        if len(block) == block_steps or k == n_steps - 1:
            for paths, lv in _block_generator(V, block, trap, be.rate_table):  # as the paths ran
                acc[slice(None) if paths is None else paths] += lv * dt
            block = []
        be.step()
    vt = np.zeros(n_paths)
    for v, paths, _ in be.groups():
        hist = be.history(paths) if with_hist else None
        vt[paths] = _values(V, be.x[paths], hist, v, trap)
    keep = ~be.blown
    return _collect(vt[keep] - v0 - acc[keep], n_paths)
