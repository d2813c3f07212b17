"""Monte Carlo checks of the certificate's probabilistic ingredients.

Estimators cover: hitting times of a small history/mode set, descent times
of the mode chain, the decoupling probability of the basic coupling
against the limiting chain, long-run occupation stability across starts,
and the martingale identity E V(X_t, a_t) = V0 + E int LV ds for product
functionals V(phi, i) = f1(phi(0), i) + int_{-r}^0 g(s, i) f2(phi(s), i) ds.

Every estimator runs on the vectorized engine
:class:`~switchsde.sim.BatchEnsemble`, history-dependent rates included:
they are read per mode group, and the hitting rule reads the engine's
window sup-norms of the step.  A model without batch support runs there
too, its callbacks called path by path.  It draws every path from the one
stream (seed, 1), so results are reproducible bit-for-bit and depend on
``n_paths``.  Stop rules are masks over the ensemble, and finished
paths leave the arrays.  The Dynkin generator takes one pass per step
over the engine's plan-ordered states and coefficients, those of its own
Euler step: one drift term, one diffusion contraction, V(., j) once per
mode the switching sums read, and one scatter; trapezoid weights are
built once per kernel and mode in a run.  :func:`apply_generator` is the
same pass on one window.  A path contributes nothing from its blow-up on.
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
    plan = [(i, slice(0, 1), list(row), rates)]
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

    def __call__(self, kernel: Callable, i: int, f2h: np.ndarray) -> np.ndarray:
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
    return out + trap(V.g, i, _window_f2(V, hist, i))


def _generator(V, x, drift, sigma, hist, plan, trap) -> np.ndarray:
    """LV on P paths grouped by mode, in one pass.

    ``plan`` lists the mode groups as (i, rows, targets, rates): a slice of
    the P rows and the rates q_ij to ``targets[k]``, per path (P_i, K) or
    shared (1, K).  x (P, n), drift (P, n), sigma (P, n, d) or None, and
    the windows hist (m, P, n) when V has a time kernel, are row-aligned.
    ``grad_f1`` and ``hess_f1`` run once per group; f1 once on all rows per
    mode that a group is in or can jump to, and f2 once per such group.
    """
    grad = np.empty(x.shape)
    hess = None if sigma is None else np.empty(x.shape + x.shape[-1:])
    readers: dict = {}
    for i, rows, targets, _ in plan:
        grad[rows] = V.grad_f1(x[rows], i)
        if hess is not None:
            hess[rows] = V.hess_f1(x[rows], i)
        for j in dict.fromkeys((i, *targets)):  # a row that lists i reads V(., i) once
            readers.setdefault(j, []).append((i, rows))
    lv = (grad * drift).sum(axis=-1)
    if sigma is not None:
        # tr(H sigma sigma^T); with d = 1 each product rounds as (sigma sigma^T)_ji H_ij
        lv = lv + 0.5 * np.einsum("...jk,...ik,...ij->...", sigma, sigma, hess)
    vals = {}
    for j, groups in readers.items():
        vals[j] = v = np.array(_as_batch(V.f1(x, j), len(x)))  # a copy: f2 adds into it
        for i, rows in groups if V.f2 is not None else ():
            f2h = _window_f2(V, hist[:, rows], j)
            v[rows] += trap(V.g, j, f2h)
            if i == j:  # the time part of LV in mode j
                lv[rows] += float(V.g(0.0, j)) * f2h[-1]
                lv[rows] -= float(V.g(-trap.delay, j)) * f2h[0]
                lv[rows] -= trap(V.dg, j, f2h)
    for i, rows, targets, rates in plan:
        if len(targets):
            dv = np.array([vals[j][rows] for j in targets]) - vals[i][rows]
            lv[rows] += rates[0] @ dv if rates.shape[0] == 1 else (rates * dv.T).sum(axis=-1)
    return lv


def _ensemble_generator(V, e: BatchEnsemble, trap) -> tuple:
    """LV on the paths of the engine's plan, from its own coefficients: (paths, LV)."""
    hist = None if V.f2 is None else e.history(e.order)
    plan = [(v, rows, *e.rate_table(paths, v)) for v, paths, rows in e.groups()]
    return e.order, _generator(V, *e.coefficients(), hist, plan, trap)


def _n_steps(cfg: SimConfig) -> int:
    return int(round(cfg.horizon / cfg.dt))


def _first_times(be: BatchEnsemble, hit, drop=None) -> list:
    """First grid time of a stop rule, the mask ``hit(engine)`` over the
    engine's paths, on every path that meets it before the horizon; a path
    leaves uncounted at a blow-up or where the mask ``drop(engine)`` holds."""
    times = []
    for k in range(_n_steps(be.cfg) + 1):
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
        be = BatchEnsemble(model, phi0, i0, cfg, n_paths)
        for k in range(_n_steps(cfg) + 1):
            if k:
                be.step()
            if k * cfg.dt >= burn_in - 1e-12:
                live = ~be.blown
                with np.errstate(over="ignore"):
                    radii = np.linalg.norm(be.x[live], axis=1)
                rbin = np.searchsorted(edges, radii, side="right") - 1
                # one cell per (radial bin, mode bucket), modes above k_head in the last bucket
                cells = np.clip(rbin, 0, n_rbins - 1) * (k_head + 1)
                cells += np.minimum(be.modes[live], k_head + 1) - 1
                counts += np.bincount(cells, minlength=counts.size).reshape(counts.shape)
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
    n_steps = _n_steps(cfg)
    burn_steps = int(round(burn_in / cfg.dt))
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
    n_steps = int(round(t / cfg.dt))
    if n_steps < 1:
        raise ValueError("t must cover at least one grid step")
    run_cfg = replace(cfg, horizon=n_steps * cfg.dt)
    v0 = V.value(phi0, i0)

    with_hist = V.f2 is not None
    be = BatchEnsemble(model, phi0, i0, run_cfg, n_paths, track_history=with_hist)
    acc = np.zeros(n_paths)
    dt = run_cfg.dt
    trap = _Trapezoid(model.delay, dt)

    def on_step(e: BatchEnsemble):
        paths, lv = _ensemble_generator(V, e, trap)
        acc[paths] += lv * dt

    be.run(n_steps, on_step=on_step)
    vt = np.zeros(n_paths)
    for v, paths, _ in be.groups():
        hist = be.history(paths) if with_hist else None
        vt[paths] = _values(V, be.x[paths], hist, v, trap)
    keep = ~be.blown
    return _collect(vt[keep] - v0 - acc[keep], n_paths)
