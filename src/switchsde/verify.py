"""Monte Carlo checks of the certificate's probabilistic ingredients.

Estimators cover: hitting times of a small history/mode set, descent times
of the mode chain, the decoupling probability of the basic coupling
against the limiting chain, long-run occupation stability across starts,
and the martingale identity E V(X_t, a_t) = V0 + E int LV ds for product
functionals V(phi, i) = f1(phi(0), i) + int_{-r}^0 g(s, i) f2(phi(s), i) ds.

Every model that declares batch support runs through the vectorized
engine :class:`~switchsde.sim.BatchEnsemble`, history-dependent rates
included: they are read per mode group, and the hitting rule reads the
engine's window sup-norms of the step.  It draws every path from the one
stream (seed, 1), so results are reproducible bit-for-bit, depend on
``n_paths``, and ignore the ``threads`` argument, which is kept for
compatibility.  Stop rules are masks over the ensemble, and finished
paths leave the arrays.  The Dynkin generator takes one pass per step
over the engine's plan-ordered states and coefficients, those of its own
Euler step: one drift term, one diffusion contraction, V(., j) once per
mode the switching sums read, and one scatter; trapezoid weights are
built once per kernel and mode in a run.  Models without batch support run the per-path engine
(:func:`~switchsde.sim.simulate`, streams (seed, 0, k)) path after path,
with one-group calls of the same pass; it also serves the tests as the
reference oracle.  In both engines a path contributes nothing from its
blow-up on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .model import Linearization, ModelSpec
from .segment import Segment
from .sim import BatchEnsemble, SimConfig, simulate, simulate_coupled

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
        return self.censored_fraction < 1.0 and math.isfinite(self.mean)

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
    evaluated by the trapezoid rule on the segment grid.  Every estimator,
    the per-path one included, calls ``f1``, ``grad_f1``, ``hess_f1`` and
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
    return _apply(V, model, seg, i, _Trapezoid(seg.delay, seg.dt))


def _apply(V, model: ModelSpec, seg: Segment, i: int, trap) -> float:
    """:func:`apply_generator` as a group of one, with the weights of ``trap``."""
    x, hist = _one_path(V, seg)
    row = model.rates_row(seg, i)
    rates = np.fromiter(row.values(), float, len(row))[None, :]
    drift = np.asarray(model.drift(x, i), dtype=float)
    sigma = None if model.zero_diffusion else np.asarray(model.diffusion(x, i), dtype=float)
    plan = [(i, slice(0, 1), list(row), rates)]
    return float(_generator(V, x, drift, sigma, hist, plan, trap)[0])


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
    """f2 on every window sample of every path in one call, shape (m, P)."""
    m, p, n = hist.shape
    return _as_batch(V.f2(hist.reshape(m * p, n), i), m * p).reshape(m, p)


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


def _quiet(cfg: SimConfig) -> SimConfig:
    # estimators keep their own statistics; no need to record states
    return replace(cfg, record_stride=10**9)


def _n_steps(cfg: SimConfig) -> int:
    return int(round(cfg.horizon / cfg.dt))


def _first_times(model, phi0, i0: int, cfg: SimConfig, n_paths: int, stop, hit) -> list:
    """First grid time of a stop rule on every path that meets it before the
    horizon without blowing up.

    ``stop(t, seg, mode)`` is the per-path form of the rule and
    ``hit(engine)`` its mask over the engine's paths.
    """
    if not model.supports_batch:
        qcfg = _quiet(cfg)
        recs = (simulate(model, phi0, i0, qcfg, stop=stop, path_index=k) for k in range(n_paths))
        return [r.stop_time for r in recs if not r.blow_up and r.stop_time is not None]
    be = BatchEnsemble(model, phi0, i0, cfg, n_paths, track_history=True)
    times = []
    for k in range(_n_steps(cfg) + 1):
        if k:
            be.step()
        done = hit(be) & ~be.blown
        times += [k * cfg.dt] * int(done.sum())
        live = ~(done | be.blown)
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
    estimate is flagged unusable when every path is censored.
    """
    if radius <= 0 or k0 < 1:
        raise ValueError("radius must be positive and k0 >= 1")

    def stop(t: float, seg: Segment, mode: int) -> bool:
        return mode <= k0 and seg.sup_norm() <= radius

    def hit(e: BatchEnsemble) -> np.ndarray:
        return (e.modes <= k0) & (e.sup_norms() <= radius)

    return _collect(_first_times(model, phi0, i0, cfg, n_paths, stop, hit), n_paths)


def estimate_mode_descent(
    model: ModelSpec,
    phi0: Segment,
    i0: int,
    k0: int,
    cfg: SimConfig,
    n_paths: int,
    threads: int = 1,
) -> MCEstimate:
    """Mean first time the mode chain descends to {1, ..., k0} from i0."""
    if k0 < 1:
        raise ValueError("k0 must be >= 1")

    def stop(t: float, seg: Segment, mode: int) -> bool:
        return mode <= k0

    def hit(e: BatchEnsemble) -> np.ndarray:
        return e.modes <= k0

    return _collect(_first_times(model, phi0, i0, cfg, n_paths, stop, hit), n_paths)


def coupling_decay(
    model: ModelSpec,
    lin: Linearization,
    radii: Sequence[float],
    cfg: SimConfig,
    n_paths: int,
    i0: int = 1,
    floor_frac: float = 0.5,
    threads: int = 1,
) -> list:
    """Empirical decoupling probability per starting radius.

    For each radius R the path starts from the constant history R * e1 and
    is stopped at the horizon or when |X| falls below floor_frac * R; the
    table reports the fraction of paths whose mode chain decoupled from
    the limiting-rate reference chain before that, with a 95% CI.
    """
    if not 0.0 <= floor_frac < 1.0:
        raise ValueError("floor_frac must be in [0, 1)")
    qcfg = _quiet(cfg)
    out = []
    for r in radii:
        r = float(r)
        if r <= 0:
            raise ValueError("radii must be positive")
        start = np.zeros(model.dim)
        start[0] = r
        phi0 = Segment.make_constant(start, model.delay, cfg.dt)
        floor = floor_frac * r if floor_frac > 0 else None
        if model.supports_batch:
            n_apart = _batch_decouplings(model, lin, phi0, i0, qcfg, n_paths, floor)
        else:
            n_apart = sum(
                math.isfinite(
                    simulate_coupled(
                        model, lin, phi0, i0, qcfg, stop_radius=floor, path_index=k
                    ).decouple_time
                )
                for k in range(n_paths)
            )
        p = n_apart / n_paths
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


def _batch_decouplings(model, lin, phi0, i0, cfg, n_paths, floor) -> int:
    """Paths whose coupled chains come apart before the horizon, the state
    floor or a blow-up, on the batch engine."""
    be = BatchEnsemble(model, phi0, i0, cfg, n_paths, qhat=lin.qhat)
    n_apart = 0
    for _ in range(_n_steps(cfg)):
        be.step()
        n_apart += int(be.decoupled.sum())
        done = be.decoupled | be.blown
        if floor is not None:
            done |= np.linalg.norm(be.x, axis=1) < floor
        if done.any():
            be.keep(~done)
            if be.n_paths == 0:
                break
    return n_apart


def _mode_bucket(modes: np.ndarray, k_head: int) -> np.ndarray:
    return np.minimum(modes, k_head + 1) - 1


def occupation_stability(
    model: ModelSpec,
    starts: Sequence,
    cfg: SimConfig,
    n_paths: int,
    burn_in: float,
    k_head: int = 3,
    radial_edges: Optional[Sequence[float]] = None,
    i0: int = 1,
    threads: int = 1,
) -> dict:
    """Occupation histograms over (|X| bin, mode head) for several starts.

    Pools all paths per start into one empirical distribution on the grid
    points after ``burn_in`` and reports the matrix of pairwise l1
    distances.  Small distances indicate the long-run law forgets the
    initial history, as positive recurrence predicts.
    """
    if burn_in >= cfg.horizon:
        raise ValueError("burn_in must be below the horizon")
    if radial_edges is None:
        radial_edges = np.linspace(0.0, 5.0, 21)
    edges = np.asarray(radial_edges, dtype=float)
    n_rbins = edges.size  # last bin is overflow
    hists = []
    cfg1 = replace(cfg, record_stride=1)
    for start in starts:
        start = np.atleast_1d(np.asarray(start, dtype=float))
        phi0 = Segment.make_constant(start, model.delay, cfg.dt)
        counts = np.zeros((n_rbins, k_head + 1))

        def tally(states: np.ndarray, modes: np.ndarray):
            norms = np.linalg.norm(states, axis=1)
            rbin = np.minimum(
                np.searchsorted(edges, norms, side="right") - 1, n_rbins - 1
            )
            rbin = np.maximum(rbin, 0)
            np.add.at(counts, (rbin, _mode_bucket(modes, k_head)), 1.0)

        if model.supports_batch:
            be = BatchEnsemble(model, phi0, i0, cfg1, n_paths)
            for k in range(_n_steps(cfg1) + 1):
                if k:
                    be.step()
                if k * cfg1.dt >= burn_in - 1e-12:
                    live = ~be.blown
                    tally(be.x[live], be.modes[live])
        else:
            for k in range(n_paths):
                rec = simulate(model, phi0, i0, cfg1, path_index=k)
                keep = rec.times >= burn_in - 1e-12
                tally(rec.states[keep], rec.modes[keep])
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


def occupation_fractions(
    model: ModelSpec,
    phi0: Segment,
    i0: int,
    cfg: SimConfig,
    n_paths: int,
    modes_track: Sequence[int],
    burn_in: float = 0.0,
    threads: int = 1,
) -> tuple:
    """Mean and SE (over paths) of time fractions spent in tracked modes.

    Fractions count the mode at the left endpoint of each grid step after
    ``burn_in``.  A path that blows up stops counting there: its fractions
    are over the steps it completed, and 0 if it completed none.
    """
    modes_track = [int(v) for v in modes_track]
    idx = {v: a for a, v in enumerate(modes_track)}
    n_steps = _n_steps(cfg)
    burn_steps = int(round(burn_in / cfg.dt))
    counted = n_steps - burn_steps
    if counted <= 0:
        raise ValueError("burn_in leaves no steps to count")

    if model.supports_batch:
        engine = BatchEnsemble(model, phi0, i0, cfg, n_paths)
        counts = np.zeros((len(modes_track), n_paths), dtype=int)
        steps = np.zeros(n_paths, dtype=int)  # counted steps per path
        step_no = [0]
        left = [None]  # modes at the left endpoint of the counted step in flight

        def settle(e: BatchEnsemble):
            # the step just taken counts for the paths it left finite
            if left[0] is None:
                return
            ok = ~e.blown
            for v, a in idx.items():
                counts[a] += (left[0] == v) & ok
            steps[:] += ok

        def on_step(e: BatchEnsemble):
            settle(e)
            left[0] = e.modes.copy() if step_no[0] >= burn_steps else None
            step_no[0] += 1

        engine.run(n_steps, on_step=on_step)
        settle(engine)
        # (n_paths, modes) in C order, as the per-path branch builds it
        frac = np.ascontiguousarray(counts.T) / np.maximum(steps, 1)[:, None]
    else:
        cfg1 = replace(cfg, record_stride=1)

        def one(k: int):
            rec = simulate(model, phi0, i0, cfg1, path_index=k)
            left = rec.modes[:-1][burn_steps:]
            row = np.zeros(len(modes_track))
            for v, a in idx.items():
                row[a] = np.count_nonzero(left == v)
            return row / max(left.size, 1)

        frac = np.vstack([one(k) for k in range(n_paths)])

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
    threads: int = 1,
    engine: str = "auto",
) -> MCEstimate:
    """Monte Carlo residual E V(X_t, a_t) - V(phi0, i0) - E int_0^t LV ds.

    The integral is accumulated at the left endpoint of every grid step of
    the same grid the path uses, so the residual estimates only the
    martingale defect plus O(dt) discretization bias.  Blow-up paths are
    excluded and counted in ``censored_fraction``.
    """
    if engine not in ("auto", "batch", "paths"):
        raise ValueError("engine must be auto, batch or paths")
    n_steps = int(round(t / cfg.dt))
    if n_steps < 1:
        raise ValueError("t must cover at least one grid step")
    run_cfg = replace(_quiet(cfg), horizon=n_steps * cfg.dt)
    v0 = V.value(phi0, i0)

    can_batch = model.supports_batch
    if engine == "batch" and not can_batch:
        raise ValueError("model cannot run on the batch engine")
    use_batch = can_batch if engine == "auto" else engine == "batch"

    if use_batch:
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
        resid = vt[keep] - v0 - acc[keep]
        return _collect(resid, n_paths)

    horizon = run_cfg.horizon
    trap = _Trapezoid(phi0.delay, phi0.dt)  # every path's segment is a copy of phi0

    def one(k: int):
        acc = 0.0

        def on_grid(tt: float, seg: Segment, mode: int):
            nonlocal acc
            if tt < horizon - 0.5 * run_cfg.dt:
                acc += _apply(V, model, seg, mode, trap) * run_cfg.dt

        rec = simulate(model, phi0, i0, run_cfg, path_index=k, on_grid=on_grid)
        if rec.blow_up or rec.times[-1] < horizon - 0.5 * run_cfg.dt:
            return None
        return V.value(rec.terminal, int(rec.modes[-1])) - v0 - acc

    vals = [r for r in map(one, range(n_paths)) if r is not None]
    return _collect(vals, n_paths)
