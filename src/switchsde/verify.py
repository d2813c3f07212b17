"""Monte Carlo checks of the certificate's probabilistic ingredients.

Estimators cover: hitting times of a small history/mode set, descent times
of the mode chain, the decoupling probability of the basic coupling
against the limiting chain, long-run occupation stability across starts,
and the martingale identity E V(X_t, a_t) = V0 + E int LV ds for product
functionals V(phi, i) = f1(phi(0), i) + int_{-r}^0 g(s, i) f2(phi(s), i) ds.

All estimators derive per-path randomness from (seed, path index) and are
reproducible bit-for-bit regardless of thread count.  Models that declare
batch support with history-independent rates are run through a vectorized
single-stream engine instead (equally deterministic, orders of magnitude
faster for large ensembles).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
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
        return float(_values(self, x, hist, i, seg.delay, seg.dt)[0])


def apply_generator(V: ProductFunctional, model: ModelSpec, seg: Segment, i: int) -> float:
    """Generator value LV(phi, i): time part + diffusion part + switching part.

    The switching sum runs over the returned sparse rate row, which is
    exact for banded rate families.
    """
    x, hist = _one_path(V, seg)
    row = model.rates_row(seg, i)
    return float(_generator(V, model, x, hist, i, row, seg.delay, seg.dt)[0])


def _one_path(V: ProductFunctional, seg: Segment) -> tuple:
    """A segment as a batch of one: state (1, n) and window (m, 1, n)."""
    hist = seg.samples[:, None, :] if V.f2 is not None else None
    return seg.terminal()[None, :], hist


def _as_batch(arr, batch: int, trailing: tuple) -> np.ndarray:
    """Broadcast a callback result to (batch, *trailing)."""
    arr = np.asarray(arr, dtype=float)
    want = (batch,) + trailing
    if arr.shape == want:
        return arr
    return np.broadcast_to(arr, want)


def _window_f2(V: ProductFunctional, hist: np.ndarray, i: int) -> np.ndarray:
    """f2 on every window sample of every path in one call, shape (m, P)."""
    m, p, n = hist.shape
    return _as_batch(V.f2(hist.reshape(m * p, n), i), m * p, ()).reshape(m, p)


def _trapezoid(kernel: Callable, i: int, f2h: np.ndarray, delay: float, dt: float):
    """Trapezoid rule for int_{-r}^0 kernel(s, i) f2(phi(s), i) ds per path."""
    m = f2h.shape[0]
    w = np.full(m, dt)
    w[0] = w[-1] = 0.5 * dt
    w *= [float(kernel(s, i)) for s in (-delay + dt * np.arange(m)).tolist()]
    return w @ f2h


def _values(V, x, hist, i: int, delay: float, dt: float) -> np.ndarray:
    """V(., i) on P paths: states x (P, n), windows hist (m, P, n) or None."""
    out = _as_batch(V.f1(x, i), x.shape[0], ())
    if V.f2 is None:
        return out
    return out + _trapezoid(V.g, i, _window_f2(V, hist, i), delay, dt)


def _generator(V, model, x, hist, i: int, row: dict, delay: float, dt: float) -> np.ndarray:
    """LV(., i) on P paths in mode i; ``row`` holds the rates {j: q_ij}."""
    p, n = x.shape
    grad = _as_batch(V.grad_f1(x, i), p, (n,))
    lv = (grad * np.asarray(model.drift(x, i), dtype=float)).sum(axis=-1)
    if not model.zero_diffusion:
        sig = np.asarray(model.diffusion(x, i), dtype=float)
        hess = np.asarray(V.hess_f1(x, i), dtype=float)
        a = hess @ (sig @ np.swapaxes(sig, -1, -2))
        lv = lv + 0.5 * a.trace(axis1=-2, axis2=-1)
    if V.f2 is not None:
        f2h = _window_f2(V, hist, i)
        lv = lv + float(V.g(0.0, i)) * f2h[-1]
        lv = lv - float(V.g(-delay, i)) * f2h[0]
        lv = lv - _trapezoid(V.dg, i, f2h, delay, dt)
    if row:
        vi = _values(V, x, hist, i, delay, dt)
        vj = np.array([_values(V, x, hist, j, delay, dt) for j in row])
        lv = lv + np.fromiter(row.values(), float, len(row)).dot(vj - vi)
    return lv


def _quiet(cfg: SimConfig) -> SimConfig:
    # estimators keep their own statistics; no need to record states
    return replace(cfg, record_stride=10**9)


def _map_paths(fn, n_paths: int, threads: int):
    ks = range(n_paths)
    if threads <= 1:
        return [fn(k) for k in ks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, ks))


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
    qcfg = _quiet(cfg)

    def stop(t: float, seg: Segment, mode: int) -> bool:
        return mode <= k0 and seg.sup_norm() <= radius

    def one(k: int):
        rec = simulate(model, phi0, i0, qcfg, stop=stop, path_index=k)
        return None if rec.blow_up else rec.stop_time

    hits = [t for t in _map_paths(one, n_paths, threads) if t is not None]
    return _collect(hits, n_paths)


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
    qcfg = _quiet(cfg)

    def stop(t: float, seg: Segment, mode: int) -> bool:
        return mode <= k0

    def one(k: int):
        rec = simulate(model, phi0, i0, qcfg, stop=stop, path_index=k)
        return None if rec.blow_up else rec.stop_time

    hits = [t for t in _map_paths(one, n_paths, threads) if t is not None]
    return _collect(hits, n_paths)


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

        def one(k: int) -> bool:
            rec = simulate_coupled(
                model, lin, phi0, i0, qcfg, stop_radius=floor, path_index=k
            )
            return math.isfinite(rec.decouple_time)

        flags = _map_paths(one, n_paths, threads)
        p = float(np.mean(flags))
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

        def one(k: int):
            rec = simulate(model, phi0, i0, cfg1, path_index=k)
            keep = rec.times >= burn_in - 1e-12
            norms = np.linalg.norm(rec.states[keep], axis=1)
            rbin = np.minimum(
                np.searchsorted(edges, norms, side="right") - 1, n_rbins - 1
            )
            rbin = np.maximum(rbin, 0)
            mbin = _mode_bucket(rec.modes[keep], k_head)
            local = np.zeros_like(counts)
            np.add.at(local, (rbin, mbin), 1.0)
            return local

        for local in _map_paths(one, n_paths, threads):
            counts += local
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
    ``burn_in``.  Uses the vectorized engine when the model allows it.
    """
    modes_track = [int(v) for v in modes_track]
    idx = {v: a for a, v in enumerate(modes_track)}
    n_steps = int(round(cfg.horizon / cfg.dt))
    burn_steps = int(round(burn_in / cfg.dt))
    counted = n_steps - burn_steps
    if counted <= 0:
        raise ValueError("burn_in leaves no steps to count")

    if model.supports_batch and not model.rates_depend_on_path:
        engine = BatchEnsemble(model, phi0, i0, cfg, n_paths)
        counts = np.zeros((n_paths, len(modes_track)))
        step_no = [0]

        def on_step(e: BatchEnsemble):
            if step_no[0] >= burn_steps:
                for v, a in idx.items():
                    counts[:, a] += e.modes == v
            step_no[0] += 1

        engine.run(n_steps, on_step=on_step)
        frac = counts / counted
    else:
        cfg1 = replace(cfg, record_stride=1)

        def one(k: int):
            rec = simulate(model, phi0, i0, cfg1, path_index=k)
            left = rec.modes[:-1][burn_steps:]
            row = np.zeros(len(modes_track))
            for v, a in idx.items():
                row[a] = np.count_nonzero(left == v)
            return row / max(left.size, 1)

        frac = np.vstack(_map_paths(one, n_paths, threads))

    means = frac.mean(axis=0)
    ses = frac.std(axis=0, ddof=1) / math.sqrt(n_paths)
    return means, ses


def _by_mode(engine: BatchEnsemble, fn: Callable) -> np.ndarray:
    """``fn(x, hist, mode)`` on each mode group of the engine's paths."""
    hist = engine.history()
    out = np.zeros(engine.n_paths)
    for v in np.unique(engine.modes):
        g = engine.modes == v
        out[g] = fn(engine.x[g], None if hist is None else hist[:, g, :], int(v))
    return out


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

    can_batch = model.supports_batch and not model.rates_depend_on_path
    if engine == "batch" and not can_batch:
        raise ValueError("model cannot run on the batch engine")
    use_batch = can_batch if engine == "auto" else engine == "batch"

    if use_batch:
        be = BatchEnsemble(
            model, phi0, i0, run_cfg, n_paths, track_history=V.f2 is not None
        )
        acc = np.zeros(n_paths)
        delay, dt = model.delay, run_cfg.dt

        def lv(x, hist, v):
            return _generator(V, model, x, hist, v, be._row(v)[2], delay, dt)

        def on_step(e: BatchEnsemble):
            acc[~e.blown] += _by_mode(e, lv)[~e.blown] * dt

        be.run(n_steps, on_step=on_step)
        vt = _by_mode(be, lambda x, hist, v: _values(V, x, hist, v, delay, dt))
        keep = ~be.blown
        resid = vt[keep] - v0 - acc[keep]
        return _collect(resid, n_paths)

    horizon = run_cfg.horizon

    def one(k: int):
        acc = 0.0

        def on_grid(tt: float, seg: Segment, mode: int):
            nonlocal acc
            if tt < horizon - 0.5 * run_cfg.dt:
                acc += apply_generator(V, model, seg, mode) * run_cfg.dt

        rec = simulate(model, phi0, i0, run_cfg, path_index=k, on_grid=on_grid)
        if rec.blow_up or rec.times[-1] < horizon - 0.5 * run_cfg.dt:
            return None
        return V.value(rec.terminal, int(rec.modes[-1])) - v0 - acc

    vals = [r for r in _map_paths(one, n_paths, threads) if r is not None]
    return _collect(vals, n_paths)
