"""Path simulation for switching diffusions with history-dependent rates.

One per-path loop advances the diffusion by Euler-Maruyama on a uniform
grid whose step divides the history window exactly, so the window slides
one slot per step.  A mode kernel decides the jumps, at times set by one
of two schemes:

``thinning``
    A dominating exponential clock at the kernel's rate bound proposes
    events; the diffusion is advanced to each one and the kernel reads the
    rates off the grid history window (the same O(dt) error as the Euler
    step).  Exact in distribution for the chain given the path.

``bernoulli``
    One jump decision per grid step with probability q_i(history) * dt,
    valid while dt * rate_bound < 0.5.  First-order accurate; useful as an
    independent cross-check of the thinning scheme.

:func:`simulate` runs one chain, jumping to target j with probability
q_ij / bound by partitioning a single uniform draw over the row.
:func:`simulate_coupled` runs the basic coupling with the limiting chain,
always by thinning.  Brownian increments and jump decisions come from
independent streams; path k derives its streams from (seed, k) only, so
disjoint path ranges can be merged and worker counts never change results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import Linearization, ModelSpec
from .segment import Segment

__all__ = [
    "SimConfig",
    "TrajectoryRecord",
    "CoupledRecord",
    "default_dt",
    "path_rngs",
    "simulate",
    "simulate_coupled",
    "BatchEnsemble",
]

_SCHEMES = ("thinning", "bernoulli")


@dataclass(frozen=True)
class SimConfig:
    """Grid step, horizon, scheme, seed and recording stride."""

    dt: float
    horizon: float
    scheme: str = "thinning"
    seed: int = 0
    record_stride: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


def default_dt(delay: float, horizon: float) -> float:
    """Default grid step min(r/64, horizon/1000), snapped to divide r."""
    cand = min(delay / 64.0, 1e-3 * horizon)
    n = max(int(math.ceil(delay / cand - 1e-12)), 1)
    return delay / n


def path_rngs(seed: int, k: int):
    """Independent Brownian and jump streams for ensemble path k."""
    ss = np.random.SeedSequence(entropy=(int(seed), 0, int(k)))
    w, j = ss.spawn(2)
    return np.random.default_rng(w), np.random.default_rng(j)


def _batch_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), 1)))


@dataclass
class TrajectoryRecord:
    """Recorded grid states of one path.

    ``jump_times`` holds (time, from_mode, to_mode) triplets.  ``terminal``
    is the history window at the final recorded time.  On numerical
    blow-up the record is truncated at the last finite state and
    ``blow_up`` is set instead of raising.
    """

    times: np.ndarray
    states: np.ndarray
    modes: np.ndarray
    jump_times: list
    terminal: Segment
    blow_up: bool = False
    stop_time: Optional[float] = None


@dataclass
class CoupledRecord:
    """Mode pair (primary, reference) evolved under the basic coupling.

    ``decouple_time`` is the first time the two chains differ (inf if they
    never do before the record ends); the record stops there.
    ``floor_time`` is set if the path was stopped by the optional
    stop_radius floor.
    """

    times: np.ndarray
    modes: np.ndarray
    modes_hat: np.ndarray
    decouple_time: float
    floor_time: Optional[float] = None
    blow_up: bool = False


def _check_inputs(model: ModelSpec, phi0: Segment, cfg: SimConfig, i0: int):
    if i0 < 1:
        raise ValueError("modes are indexed from 1")
    if phi0.dim != model.dim:
        raise ValueError(f"phi0 dim {phi0.dim} != model dim {model.dim}")
    if abs(phi0.delay - model.delay) > 1e-9 * max(1.0, model.delay):
        raise ValueError(f"phi0 delay {phi0.delay} != model delay {model.delay}")
    if abs(phi0.dt - cfg.dt) > 1e-9 * max(1.0, cfg.dt):
        raise ValueError(f"phi0 grid step {phi0.dt} != cfg.dt {cfg.dt}")
    if cfg.scheme == "bernoulli" and cfg.dt * model.rate_bound >= 0.5:
        raise ValueError(
            f"bernoulli scheme needs dt * rate_bound < 0.5, got "
            f"{cfg.dt * model.rate_bound:.3g}"
        )


def _pick_target(row: dict, u: float, scale: float):
    """Walk the partition of [0, 1) induced by row rates / scale."""
    acc = 0.0
    for j in sorted(row):
        acc += row[j] / scale
        if u < acc:
            return j
    return None


class _Chain:
    """Single-chain mode kernel; keeps its jumps as (time, from, to)."""

    def __init__(self, rates_row: Callable, mode: int, bound: float):
        self.rates_row, self.mode, self.bound = rates_row, mode, bound
        self.jumps: list = []

    def draw(self, t: float, seg: Segment, rng, scale: float) -> int:
        """Mode after one jump decision at rate ``scale``; an empty row draws no uniform."""
        row = self.rates_row(seg, self.mode)
        j = _pick_target(row, rng.uniform(), scale) if row else None
        if j is None:
            return self.mode
        self.jumps.append((t, self.mode, j))
        return int(j)

    def propose(self, t: float, seg: Segment, rng) -> bool:
        self.mode = self.draw(t, seg, rng, self.bound)
        return False


class _Coupling:
    """Basic-coupling mode kernel against the reference chain of ``qhat``.

    One uniform is drawn per proposal.  The first jump of one chain alone
    sets ``decouple`` and ends the run.
    """

    def __init__(self, rates_row: Callable, qhat, mode: int, bound: float):
        self.rates_row, self.qhat, self.bound = rates_row, qhat, bound
        self.mode = self.mode_hat = mode
        self.decouple = math.inf

    def propose(self, t: float, seg: Segment, rng) -> bool:
        row = self.rates_row(seg, self.mode)
        ref = self.qhat.row(self.mode_hat)
        u = rng.uniform() * self.bound
        acc = 0.0
        for j in sorted(set(row) | set(ref)):
            a, b = row.get(j, 0.0), ref.get(j, 0.0)
            both, lone_a, lone_b = min(a, b), max(a - b, 0.0), max(b - a, 0.0)
            if u < acc + both:
                self.mode = self.mode_hat = int(j)
                return False
            acc += both
            if u < acc + lone_a:
                self.mode = int(j)
                self.decouple = t
                return True
            acc += lone_a
            if u < acc + lone_b:
                self.mode_hat = int(j)
                self.decouple = t
                return True
            acc += lone_b
        return False


def _run(
    model: ModelSpec,
    seg: Segment,
    cfg: SimConfig,
    path_index: int,
    kernel,
    thinning: bool,
    at_grid: Callable[[float, np.ndarray, bool], bool],
) -> bool:
    """Advance ``seg`` in place in mode ``kernel.mode``; True on blow-up.

    Under thinning, ``kernel.propose`` handles each event of a clock at
    ``kernel.bound`` and returns True to end the run there; under
    bernoulli, ``kernel.draw`` decides each step's jump before the step.
    ``at_grid(t, x, due)`` follows every grid push, ``due`` marking stride
    points and the last one, and returns True to end the run.
    """
    rng_w, rng_j = path_rngs(cfg.seed, path_index)
    dt = cfg.dt
    n_steps = int(round(cfg.horizon / dt))
    stride = cfg.record_stride
    x = seg.terminal()
    drift, diffusion, post = model.drift, model.diffusion, model.post_step
    draw_noise = not model.zero_diffusion
    d = model.brownian_dim

    def advance(xv, md, h):
        out = xv + np.asarray(drift(xv, md), dtype=float) * h
        if draw_noise:
            xi = rng_w.standard_normal(d)
            out = out + np.asarray(diffusion(xv, md), dtype=float) @ xi * math.sqrt(h)
        if post is not None:
            out = post(out)
        return out

    mean_gap = 1.0 / kernel.bound
    next_ev = rng_j.exponential(mean_gap) if thinning else np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            t1 = (k + 1) * dt
            if thinning:
                t_sub = k * dt
                while next_ev < t1:
                    x = advance(x, kernel.mode, next_ev - t_sub)
                    t_sub = next_ev
                    if kernel.propose(t_sub, seg, rng_j):
                        return False
                    next_ev += rng_j.exponential(mean_gap)
                x = advance(x, kernel.mode, t1 - t_sub)
            else:
                new_mode = kernel.draw(t1, seg, rng_j, 1.0 / dt)
                x = advance(x, kernel.mode, dt)
                kernel.mode = new_mode
            if not np.isfinite(x).all():
                return True
            seg.push(x)
            if at_grid(t1, x, (k + 1) % stride == 0 or k == n_steps - 1):
                break
    return False


def simulate(
    model: ModelSpec,
    phi0: Segment,
    i0: int,
    cfg: SimConfig,
    *,
    stop: Optional[Callable[[float, Segment, int], bool]] = None,
    on_grid: Optional[Callable[[float, Segment, int], None]] = None,
    path_index: int = 0,
) -> TrajectoryRecord:
    """Run one path from history ``phi0`` and mode ``i0``.

    ``stop(t, segment, mode)`` is evaluated at every grid point (including
    t = 0); when it returns True the run ends there and ``stop_time`` is
    set.  Used by the hitting-time estimators to exit early.
    ``on_grid(t, segment, mode)`` is called at every grid point regardless
    of the recording stride, letting estimators accumulate path
    functionals without storing states.
    """
    _check_inputs(model, phi0, cfg, i0)
    seg = phi0.copy()
    chain = _Chain(model.rates_row, int(i0), model.rate_bound)
    rows: list = []
    stop_time: Optional[float] = None

    def at_grid(t: float, x: np.ndarray, due: bool) -> bool:
        nonlocal stop_time
        if on_grid is not None:
            on_grid(t, seg, chain.mode)
        hit = stop is not None and stop(t, seg, chain.mode)
        if due or hit:
            rows.append((t, x.copy(), chain.mode))
        if hit:
            stop_time = t
        return hit

    blow_up = False
    if not at_grid(0.0, seg.terminal(), True):
        blow_up = _run(model, seg, cfg, path_index, chain, cfg.scheme == "thinning", at_grid)
    times, states, modes = zip(*rows)
    return TrajectoryRecord(
        times=np.array(times),
        states=np.array(states),
        modes=np.array(modes, dtype=int),
        jump_times=chain.jumps,
        terminal=seg,
        blow_up=blow_up,
        stop_time=stop_time,
    )


def simulate_coupled(
    model: ModelSpec,
    lin: Linearization,
    phi0: Segment,
    i0: int,
    cfg: SimConfig,
    *,
    stop_radius: Optional[float] = None,
    path_index: int = 0,
) -> CoupledRecord:
    """Evolve the mode chain jointly with a reference chain.

    The reference chain moves at the limiting rates of ``lin.qhat`` and is
    coupled to the primary chain so that both jump together to target j at
    rate min(q_ij, qhat_ij), while the excess rates move one chain alone.
    Both chains start at ``i0``; the record stops at the first time they
    differ (``decouple_time``), at the optional state-norm floor, or at
    the horizon, whichever comes first.  The coupling always runs by
    thinning, whatever ``cfg.scheme`` says.
    """
    _check_inputs(model, phi0, cfg, i0)
    pair = _Coupling(
        model.rates_row, lin.qhat, int(i0), model.rate_bound + lin.qhat.rate_bound
    )
    rows = [(0.0, pair.mode, pair.mode_hat)]
    floor_time: Optional[float] = None

    def at_grid(t: float, x: np.ndarray, due: bool) -> bool:
        nonlocal floor_time
        if due:
            rows.append((t, pair.mode, pair.mode_hat))
        if stop_radius is not None and np.linalg.norm(x) < stop_radius:
            floor_time = t
            return True
        return False

    blow_up = _run(model, phi0.copy(), cfg, path_index, pair, True, at_grid)
    if math.isfinite(pair.decouple):
        rows.append((pair.decouple, pair.mode, pair.mode_hat))
    times, modes, modes_hat = zip(*rows)
    return CoupledRecord(
        times=np.array(times),
        modes=np.array(modes, dtype=int),
        modes_hat=np.array(modes_hat, dtype=int),
        decouple_time=float(pair.decouple),
        floor_time=floor_time,
        blow_up=blow_up,
    )


class BatchEnsemble:
    """Vectorized fixed-grid integrator over a path ensemble.

    Requires ``model.supports_batch`` and rates that ignore the path
    history (``rates_depend_on_path`` False), which lets rate rows be
    cached per mode.  One shared stream drives all paths with a fixed
    per-step draw order, so results depend only on the config, never on
    thread counts.  Mode changes take effect at the following grid step;
    with history-independent rates the embedded chain itself is exact for
    the thinning scheme and O(dt) for the bernoulli scheme.
    """

    def __init__(
        self,
        model: ModelSpec,
        phi0: Segment,
        i0: int,
        cfg: SimConfig,
        n_paths: int,
        track_history: bool = False,
    ):
        if not model.supports_batch:
            raise ValueError("model does not declare batch support")
        if model.rates_depend_on_path:
            raise ValueError("batch engine needs history-independent rates")
        _check_inputs(model, phi0, cfg, i0)
        self.model = model
        self.cfg = cfg
        self.n_paths = int(n_paths)
        self.rng = _batch_rng(cfg.seed)
        self.t = 0.0
        self.x = np.tile(phi0.terminal(), (self.n_paths, 1))
        self.modes = np.full(self.n_paths, int(i0), dtype=int)
        self.blown = np.zeros(self.n_paths, dtype=bool)
        self._sqrt_dt = math.sqrt(cfg.dt)
        self._rows: dict[int, tuple] = {}
        self._probe_seg = phi0.copy()
        if track_history:
            base = phi0.samples  # (m, dim)
            self._hist = np.repeat(base[:, None, :], self.n_paths, axis=1)
            self._head = 0
        else:
            self._hist = None
        if cfg.scheme == "thinning":
            self._next_ev = self.rng.exponential(
                1.0 / model.rate_bound, size=self.n_paths
            )

    def _row(self, v: int) -> tuple:
        """Cached (targets, rates, {target: rate}) out of mode v, targets sorted."""
        if v not in self._rows:
            row = self.model.rates_row(self._probe_seg, v)
            targets = np.array(sorted(row), dtype=int)
            rates = np.array([row[j] for j in targets], dtype=float)
            self._rows[v] = (targets, rates, dict(zip(targets.tolist(), rates.tolist())))
        return self._rows[v]

    def history(self) -> Optional[np.ndarray]:
        """History stack (n_samples, n_paths, dim), oldest first."""
        if self._hist is None:
            return None
        if self._head == 0:
            return self._hist.copy()
        return np.concatenate(
            (self._hist[self._head :], self._hist[: self._head]), axis=0
        )

    def _advance_states(self):
        model = self.model
        dt = self.cfg.dt
        xi = None
        if not model.zero_diffusion:
            xi = self.rng.standard_normal((self.n_paths, model.brownian_dim))
        with np.errstate(over="ignore", invalid="ignore"):
            for v in np.unique(self.modes):
                g = self.modes == v
                xg = self.x[g]
                out = xg + np.asarray(model.drift(xg, int(v)), dtype=float) * dt
                if xi is not None:
                    sg = np.asarray(model.diffusion(xg, int(v)), dtype=float)
                    out = out + np.einsum("...nd,...d->...n", sg, xi[g]) * self._sqrt_dt
                self.x[g] = out
            if model.post_step is not None:
                self.x = np.asarray(model.post_step(self.x), dtype=float)
        bad = ~np.isfinite(self.x).all(axis=1)
        if bad.any():
            self.blown |= bad
            self.x[bad] = 0.0  # park blown paths; callers exclude via .blown

    def _update_modes_bernoulli(self):
        dt = self.cfg.dt
        u = self.rng.random(self.n_paths)
        new_modes = self.modes.copy()
        for v in np.unique(self.modes):
            targets, rates, _ = self._row(int(v))
            if targets.size == 0:
                continue
            cum = np.cumsum(rates) * dt
            sel = (self.modes == v) & (u < cum[-1])
            if sel.any():
                idx = np.searchsorted(cum, u[sel], side="right")
                new_modes[sel] = targets[np.minimum(idx, targets.size - 1)]
        self.modes = new_modes

    def _update_modes_thinning(self):
        bound = self.model.rate_bound
        t1 = self.t + self.cfg.dt
        while True:
            active = np.nonzero(self._next_ev < t1)[0]
            if active.size == 0:
                break
            for p in active:
                row = self._row(int(self.modes[p]))[2]
                if row:
                    j = _pick_target(row, self.rng.uniform(), bound)
                    if j is not None:
                        self.modes[p] = j
                self._next_ev[p] += self.rng.exponential(1.0 / bound)

    def step(self):
        """One grid step: advance states with current modes, then modes."""
        self._advance_states()
        if self.cfg.scheme == "bernoulli":
            self._update_modes_bernoulli()
        else:
            self._update_modes_thinning()
        if self._hist is not None:
            self._hist[self._head] = self.x
            self._head = (self._head + 1) % self._hist.shape[0]
        self.t += self.cfg.dt

    def run(self, n_steps: int, on_step: Optional[Callable] = None):
        """Run ``n_steps`` steps; ``on_step(engine)`` sees each pre-step state."""
        for _ in range(int(n_steps)):
            if on_step is not None:
                on_step(self)
            self.step()
