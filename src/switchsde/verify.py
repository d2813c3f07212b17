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
``n_paths``.  Stop rules are masks over the ensemble, and finished paths
leave the arrays.  The Dynkin estimator records each step's
plan-ordered states and coefficients, those of the engine's own Euler step
(and the windows, and rates read at that step), and takes LV of a block
of up to ``_BLOCK_ROWS`` path-steps times window samples in one pass, rows
grouped by mode across the block: the callbacks run once per mode per
block, and a one-step block reads the engine's arrays as they are.  Each
row's terms are formed row-wise, so LV's bits do not depend on the
grouping or the block size; trapezoid weights are built once per kernel
and mode in a run.  :func:`apply_generator` is the same pass on one
window.  A path contributes nothing from its blow-up on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

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
    plan = [(i, slice(0, 1), list(row), rates, None)]
    return float(_generator(V, x, drift, sigma, hist, plan, _Trapezoid(seg.delay, seg.dt))[0])


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


def _window_f2(V: ProductFunctional, hist: np.ndarray, i: int) -> np.ndarray:
    """f2 on every window sample of every path in one call, shape (m, P).

    The (m * P, n) states are stored coordinate-major (Fortran order): a
    callback that reduces over the n coordinates, such as |x|^2, then adds
    whole columns instead of running numpy's short-axis reduce per state.
    For n < 8 both layouts add the coordinates in the same order."""
    m, p, n = hist.shape
    states = np.ascontiguousarray(hist.transpose(2, 0, 1)).reshape(n, m * p).T
    return _as_batch(V.f2(states, i), m * p).reshape(m, p)


class _Trapezoid:
    """Trapezoid rule for int_{-r}^0 kernel(s, i) f2(phi(s), i) ds on the
    window grid of one run; the weights are built once per (kernel, mode,
    sample count)."""

    def __init__(self, delay: float, dt: float):
        self.delay, self.dt = delay, dt
        self._weights: dict = {}

    def __call__(self, kernel: Callable, i: int, f2h: np.ndarray, cuts=None) -> np.ndarray:
        """Weighted column sums of f2h (m, P); with ``cuts``, one contiguous product
        per (start, end) column range, as a BLAS product's bits depend on its columns."""
        m = f2h.shape[0]
        key = (kernel, i, m)  # the dict keeps the kernel alive
        w = self._weights.get(key)
        if w is None:
            w = np.full(m, self.dt)
            w[0] = w[-1] = 0.5 * self.dt
            w *= [float(kernel(s, i)) for s in (-self.delay + self.dt * np.arange(m)).tolist()]
            self._weights[key] = w
        if cuts is None:
            return w @ f2h
        return np.concatenate([w @ np.ascontiguousarray(f2h[:, a:b]) for a, b in cuts])


def _values(V, x, hist, i: int, trap: _Trapezoid) -> np.ndarray:
    """V(., i) on P paths: states x (P, n), windows hist (m, P, n) or None."""
    out = _as_batch(V.f1(x, i), x.shape[0])
    if V.f2 is None:
        return out
    return out + trap(V.g, i, _window_f2(V, hist, i))


def _rows_of(groups):
    """The rows of ``groups`` (plan slices in row order) as one slice when
    they are adjacent, the usual case (groups of neighbouring modes), else
    as an index array."""
    spans = []
    for _, rows, _ in groups:
        if spans and spans[-1][1] == rows.start:
            spans[-1][1] = rows.stop
        else:
            spans.append([rows.start, rows.stop])
    if len(spans) == 1:
        return slice(*spans[0])
    return np.concatenate([np.arange(a, b) for a, b in spans])


def _generator(V, x, drift, sigma, hist, plan, trap) -> np.ndarray:
    """LV on P paths grouped by mode, in one pass.

    ``plan`` lists the mode groups as (i, rows, targets, rates, cuts): a
    slice of the P rows, the rates q_ij to ``targets[k]``, per path (P_i, K)
    or shared (1, K), and the group's row ranges per grid step (None: one
    step).  x (P, n), drift (P, n), sigma (P, n, d) or None, and the windows
    hist (m, P, n) when V has a time kernel, are row-aligned.  ``grad_f1``
    and ``hess_f1`` run once per group.  f1 runs once per mode j that a
    group is in or can jump to, on the rows of those groups only (the
    other rows never read V(., j)), and f2 once per such group.  A row's
    bits do not depend on the grouping: its terms are row-wise, its
    trapezoid sums per step.
    """
    grad = np.empty(x.shape)
    hess = None if sigma is None else np.empty(x.shape + x.shape[-1:])
    readers: dict = {}
    for i, rows, targets, _, cuts in plan:
        grad[rows] = V.grad_f1(x[rows], i)
        if hess is not None:
            hess[rows] = V.hess_f1(x[rows], i)
        for j in dict.fromkeys((i, *targets)):  # a row that lists i reads V(., i) once
            readers.setdefault(j, []).append((i, rows, cuts))
    lv = (grad * drift).sum(axis=-1)
    if sigma is not None:
        # tr(H sigma sigma^T); with d = 1 each product rounds as (sigma sigma^T)_ji H_ij
        lv = lv + 0.5 * np.einsum("...jk,...ik,...ij->...", sigma, sigma, hess)
    vals = {}
    for j, groups in readers.items():
        sel = _rows_of(groups)
        vals[j] = v = np.empty(len(x))  # rows outside sel are never read
        xs = x[sel]
        v[sel] = _as_batch(V.f1(xs, j), len(xs))
        for i, rows, cuts in groups if V.f2 is not None else ():
            f2h = _window_f2(V, hist[:, rows], j)
            v[rows] += trap(V.g, j, f2h, cuts)
            if i == j:  # the time part of LV in mode j
                lv[rows] += float(V.g(0.0, j)) * f2h[-1]
                lv[rows] -= float(V.g(-trap.delay, j)) * f2h[0]
                lv[rows] -= trap(V.dg, j, f2h, cuts)
    for i, rows, targets, rates, _ in plan:
        if len(targets):
            dv = np.array([vals[j][rows] for j in targets]) - vals[i][rows]
            lv[rows] += (rates * dv.T).sum(axis=-1)
    return lv


def _snapshot(e: BatchEnsemble, with_hist: bool) -> tuple:
    """LV's inputs, rates read at this pre-step state: (paths, plan, x, drift, sigma, windows)."""
    plan = [(v, rows, *e.rate_table(paths, v), None) for v, paths, rows in e.groups()]
    return (e.order, plan, *e.coefficients(), e.history(e.order) if with_hist else None)


def _block_generator(V, block: list, trap) -> list:
    """LV of a block of :func:`_snapshot` steps in one :func:`_generator` pass,
    rows grouped by mode and target list and by step within a group, per-path
    rate tables stacked and a shared (1, K) row (the same at every step) kept
    once: (paths, LV) per step.  A one-step block is its arrays as they are."""
    if len(block) == 1:
        paths, plan, *arrays = block[0]
        return [(paths, _generator(V, *arrays, plan, trap))]
    steps = [((v, tuple(t)), rows.stop - rows.start, r) for _, plan, *_ in block
             for v, rows, t, r, _ in plan]  # (key, rows, rates) per group of each step
    parts: dict = {}  # key -> [(rows, rates)], in step order
    for key, n, rates in steps:
        parts.setdefault(key, []).append((n, rates))
    rank = {key: a for a, key in enumerate(sorted(parts))}
    perm = np.argsort(np.repeat([rank[k] for k, _, _ in steps], [n for _, n, _ in steps]),
                      kind="stable")
    plan, a = [], 0
    for (v, targets), group in sorted(parts.items()):
        n, tables = zip(*group)
        ends = np.cumsum(n).tolist()
        rates = tables[0] if any(len(r) < k for k, r in group) else np.concatenate(tables)
        plan.append((v, slice(a, a + ends[-1]), list(targets), rates, list(zip([0] + ends, ends))))
        a += ends[-1]
    orders, _, *arrays, hists = zip(*block)
    x, drift, sigma = (None if s[0] is None else np.concatenate(s)[perm] for s in arrays)
    hist = None if hists[0] is None else np.concatenate(hists, axis=1)[:, perm]
    lv = _generator(V, x, drift, sigma, hist, plan, trap)[np.argsort(perm)]
    starts = np.cumsum([0, *map(len, orders)]).tolist()
    return [(paths, lv[a:b]) for paths, a, b in zip(orders, starts, starts[1:])]


# path-steps times window samples per Dynkin block, path-steps per occupation
# block: what one pass over a block holds at once
_BLOCK_ROWS = 4096


def _n_steps(t: float, dt: float, name: str = "horizon") -> int:
    """Grid steps of length ``dt`` in the time ``t`` that the argument ``name`` sets."""
    if not math.isfinite(t):
        raise ValueError(f"{name} must be finite, got {t}")
    return int(round(t / dt))


def _first_times(be: BatchEnsemble, hit, drop=None) -> list:
    """First grid time of a stop rule, the mask ``hit(engine)`` over the
    engine's paths, on every path that meets it before the horizon; a path
    leaves uncounted at a blow-up or where the mask ``drop(engine)`` holds."""
    times = []
    for k in range(_n_steps(be.cfg.horizon, be.cfg.dt) + 1):
        if k:
            be.step()
        done = hit(be) & ~be.blown
        times += [k * be.cfg.dt] * int(done.sum())
        live = ~(done | be.blown)
        if drop is not None:
            live &= ~drop(be)
        if not live.all():
            be.keep(live)
            if be.n_paths == 0:
                break
    return times


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
    if not radius > 0 or k0 < 1:  # written so that NaN fails
        raise ValueError("radius must be positive and k0 >= 1")

    def hit(e: BatchEnsemble) -> np.ndarray:
        return (e.modes <= k0) & (e.sup_norms() <= radius)

    be = BatchEnsemble(model, phi0, i0, cfg, n_paths, track_history=True)
    return _collect(_first_times(be, hit), n_paths)


def estimate_mode_descent(
    model: ModelSpec,
    phi0: Segment,
    i0: int,
    k0: int,
    cfg: SimConfig,
    n_paths: int,
) -> MCEstimate:
    """Mean first time the mode chain descends to {1, ..., k0} from i0."""
    if k0 < 1:
        raise ValueError("k0 must be >= 1")

    def hit(e: BatchEnsemble) -> np.ndarray:
        return e.modes <= k0

    return _collect(_first_times(BatchEnsemble(model, phi0, i0, cfg, n_paths), hit), n_paths)


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

    For each radius R the path starts from the constant history R * e1 and
    is stopped at the horizon, at a blow-up or when |X| falls below
    floor_frac * R; the table reports the fraction of paths whose mode
    chain decoupled from the limiting-rate reference chain before that,
    with a 95% CI.  A path that blows up in the step its chains part is
    censored, as in the hitting estimators.
    """
    if not 0.0 <= floor_frac < 1.0:
        raise ValueError("floor_frac must be in [0, 1)")
    out = []
    for r in radii:
        r = float(r)
        if r <= 0:
            raise ValueError("radii must be positive")
        start = np.zeros(model.dim)
        start[0] = r
        phi0 = Segment.make_constant(start, model.delay, cfg.dt)
        floor = floor_frac * r

        def below(e: BatchEnsemble) -> np.ndarray:
            with np.errstate(over="ignore"):  # inf is the norm of a huge state
                return np.linalg.norm(e.x, axis=1) < floor

        be = BatchEnsemble(model, phi0, i0, cfg, n_paths, qhat=lin.qhat)
        p = len(_first_times(be, lambda e: np.isfinite(e.decouple_time), below)) / n_paths
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

    Pools all paths per start into one empirical distribution on the grid
    points after ``burn_in`` and reports the matrix of pairwise l1
    distances.  Small distances indicate the long-run law forgets the
    initial history, as positive recurrence predicts.  |X| falls in 20
    bins of width 0.25 on [0, 5] and one overflow bin; the mode in one of
    1, 2, 3 or above 3.
    """
    if not burn_in < cfg.horizon:  # written so that NaN fails
        raise ValueError("burn_in must be below the horizon")
    edges = np.linspace(0.0, 5.0, 21)
    k_head = 3
    n_rbins = edges.size  # last bin is overflow
    hists = []
    for start in starts:
        start = np.atleast_1d(np.asarray(start, dtype=float))
        phi0 = Segment.make_constant(start, model.delay, cfg.dt)
        counts = np.zeros((n_rbins, k_head + 1))
        xs, modes = [], []  # the live paths of a block of grid points, binned at once
        be = BatchEnsemble(model, phi0, i0, cfg, n_paths)
        n_steps = _n_steps(cfg.horizon, cfg.dt)
        for k in range(n_steps + 1):
            if k:
                be.step()
            if k * cfg.dt >= burn_in - 1e-12:
                xs.append(be.x[~be.blown])
                modes.append(be.modes[~be.blown])
            if xs and (k == n_steps or len(xs) * n_paths >= _BLOCK_ROWS):
                with np.errstate(over="ignore"):
                    radii = np.linalg.norm(np.concatenate(xs), axis=1)
                rbin = np.searchsorted(edges, radii, side="right") - 1
                # one cell per (radial bin, mode bucket), modes above k_head in the last bucket
                cells = np.clip(rbin, 0, n_rbins - 1) * (k_head + 1)
                cells += np.minimum(np.concatenate(modes), k_head + 1) - 1
                counts += np.bincount(cells, minlength=counts.size).reshape(counts.shape)
                xs, modes = [], []
        total = counts.sum()
        if total == 0:
            raise ValueError("no occupation samples collected; horizon too short?")
        hists.append(counts / total)

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
    They are added once per sojourn: at a mode change, a blow-up and the end."""
    counts = np.zeros((e.n_paths, len(idx)), dtype=int)
    mode, since = e.modes.copy(), np.zeros(e.n_paths, dtype=int)
    ends = np.full(e.n_paths, n_steps)  # a blown path's first uncounted step
    seen = None

    def close(paths, end):
        n = end - np.maximum(since[paths], burn_steps)
        for p, v, k in zip(paths.tolist(), mode[paths].tolist(), n.tolist()):
            if k > 0 and v in idx:
                counts[p, idx[v]] += k

    for s in range(n_steps + 1):
        if s:
            e.step()
        if seen == (e.jumps, np.count_nonzero(e.blown)):
            continue  # no path changed mode or blew up in the last step
        seen = (e.jumps, np.count_nonzero(e.blown))
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
    modes_track = [int(v) for v in modes_track]
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
    block, rows = [], n_paths * (phi0.samples.shape[0] if with_hist else 1)  # per step
    block_steps = max(1, _BLOCK_ROWS // rows)
    for k in range(n_steps):
        block.append(_snapshot(be, with_hist))
        if len(block) == block_steps or k == n_steps - 1:
            for paths, lv in _block_generator(V, block, trap):  # step by step, as the paths ran
                acc[paths] += lv * dt
            block = []
        be.step()
    vt = np.zeros(n_paths)
    for v, paths, _ in be.groups():
        hist = be.history(paths) if with_hist else None
        vt[paths] = _values(V, be.x[paths], hist, v, trap)
    keep = ~be.blown
    return _collect(vt[keep] - v0 - acc[keep], n_paths)
