"""Path simulation for switching diffusions with history-dependent rates.

Both engines advance the diffusion by Euler-Maruyama on a uniform grid
whose step divides the history window exactly, so the window slides one
slot per step.  Jumps come at times set by one of two schemes:

``thinning``
    A dominating exponential clock proposes events and each proposal
    reads the rates off the grid history window (the same O(dt) error as
    the Euler step).  The clock runs at the current mode's
    ``mode_rate_bound`` (``rate_bound`` when the model declares none);
    modes change only at proposals, so every gap is drawn at the rate in
    force until the next one and the scheme is exact in distribution for
    the chain given the path.  A row total above the bound in force
    raises instead of being truncated.

``bernoulli``
    One jump decision per grid step with probability q_i(history) * dt,
    valid while dt * rate_bound < 0.5.  First-order accurate; useful as an
    independent cross-check of the thinning scheme.

The per-path engine is one loop, ``_run``, with a mode kernel:
:func:`simulate` runs one chain, jumping to target j with probability
q_ij / bound by partitioning a single uniform draw over the row, and
:func:`simulate_coupled` runs the basic coupling with the limiting chain,
always by thinning.  Brownian increments and jump decisions come from
independent streams; path k derives its streams from (seed, 0, k) only,
so disjoint path ranges can be merged.  It places mode changes at the
event time inside a step and serves the tests as the reference oracle.

:class:`BatchEnsemble`, the engine of every estimator, advances a whole
ensemble of any model at once from the single
stream (seed, 1), with the same target and coupling draws and
history-dependent rates included; mode changes reach the state dynamics
at the next grid step.  It groups the paths by mode once per mode change,
not once per step.  Per step it evaluates drift and diffusion once per
coefficient class (a mode group, or all the modes from the model's
``shared_coefficients_from`` on), into plan-ordered arrays that the Dynkin
generator of :mod:`switchsde.verify` reads too, and reads history-dependent
rates with one ``rates_row`` call on each group's :class:`~switchsde.segment.SegmentBatch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .model import Linearization, ModelSpec
from .segment import Segment, SegmentBatch

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


def _per_path(fn: Callable) -> Callable:
    """A pointwise callback ``fn(x, *args)`` lifted to states with a leading path axis."""
    return lambda x, *args: np.array([np.asarray(fn(xk, *args), dtype=float) for xk in x])


def _rows_per_path(rates_row: Callable) -> Callable:
    """A ``rates_row`` of one :class:`Segment` lifted to a :class:`SegmentBatch`:
    the union of the paths' targets, each rate a (P,) array, 0.0 where a path's
    row lacks the target."""

    def rows(seg: SegmentBatch, i: int) -> dict:
        per = [rates_row(seg.path(k), i) for k in range(len(seg))]
        return {j: np.array([r.get(j, 0.0) for r in per]) for j in set().union(*per)}

    return rows


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


# rounding allowance when a row total is compared with its bound
_BOUND_SLACK = 1.0 + 1e-12


def _gap(rng, bound: float) -> float:
    """Next gap of a thinning clock at rate ``bound``; a zero bound never fires."""
    return rng.exponential(1.0 / bound) if bound > 0 else math.inf


def _check_total(total: float, bound: float, where: str) -> None:
    if total > bound * _BOUND_SLACK:
        raise ValueError(
            f"rates out of {where} total {total!r}, above the bound {bound!r} in "
            "force; the jump draw would drop the excess"
        )


def _pick_target(row: dict, u: float, scale: float, mode: int):
    """Walk the partition of [0, 1) induced by row rates / scale.

    Raises when the row total exceeds ``scale``.
    """
    _check_total(sum(row.values()), scale, f"mode {mode}")
    acc = 0.0
    for j in sorted(row):
        acc += row[j] / scale
        if u < acc:
            return j
    return None


def _couple(row: dict, ref: dict, u: float, bound: float, pair: tuple) -> tuple:
    """One basic-coupling proposal at offset ``u`` in [0, bound).

    ``pair`` holds (mode, mode_hat) and ``row``/``ref`` their rate rows.
    Both chains jump to j at rate min(q_ij, qhat_ij), one chain alone at
    the excess.  Returns the new pair and whether the chains came apart.
    """
    targets = sorted(set(row) | set(ref))
    rates = [(row.get(j, 0.0), ref.get(j, 0.0)) for j in targets]
    _check_total(sum(max(a, b) for a, b in rates), bound, f"modes {pair}")
    acc = 0.0
    for j, (a, b) in zip(targets, rates):
        both, lone_a, lone_b = min(a, b), max(a - b, 0.0), max(b - a, 0.0)
        if u < acc + both:
            return (int(j), int(j)), False
        acc += both
        if u < acc + lone_a:
            return (int(j), pair[1]), True
        acc += lone_a
        if u < acc + lone_b:
            return (pair[0], int(j)), True
        acc += lone_b
    return pair, False


def _coupling_bound(model: ModelSpec, qhat) -> Callable[[int, int], float]:
    """Clock rate of the basic coupling in modes (i, ihat): the model's
    bound plus the reference row total, or both global bounds when the
    model declares no per-mode bound."""
    if model.mode_rate_bound is None:
        bound = model.rate_bound + qhat.rate_bound
        return lambda i, ih: bound
    return lambda i, ih: model.mode_rate_bound(i) + sum(qhat.row(ih).values())


class _Chain:
    """Single-chain mode kernel; keeps its jumps as (time, from, to)."""

    def __init__(self, model: ModelSpec, mode: int):
        self.rates_row, self._bound = model.rates_row, model.thinning_bound
        self.mode = mode
        self.jumps: list = []

    def bound(self) -> float:
        return self._bound(self.mode)

    def draw(self, t: float, seg: Segment, rng, scale: float) -> int:
        """Mode after one jump decision at rate ``scale``; an empty row draws no uniform."""
        row = self.rates_row(seg, self.mode)
        j = _pick_target(row, rng.random(), scale, self.mode) if row else None
        if j is None:
            return self.mode
        self.jumps.append((t, self.mode, j))
        return int(j)

    def propose(self, t: float, seg: Segment, rng) -> bool:
        self.mode = self.draw(t, seg, rng, self.bound())
        return False


class _Coupling:
    """Basic-coupling mode kernel against the reference chain of ``qhat``.

    One uniform is drawn per proposal.  The first jump of one chain alone
    sets ``decouple`` and ends the run.
    """

    def __init__(self, model: ModelSpec, qhat, mode: int):
        self.rates_row, self.qhat = model.rates_row, qhat
        self._bound = _coupling_bound(model, qhat)
        self.mode = self.mode_hat = mode
        self.decouple = math.inf

    def bound(self) -> float:
        return self._bound(self.mode, self.mode_hat)

    def propose(self, t: float, seg: Segment, rng) -> bool:
        row = self.rates_row(seg, self.mode)
        ref = self.qhat.row(self.mode_hat)
        bound = self.bound()
        pair = (self.mode, self.mode_hat)
        (self.mode, self.mode_hat), lone = _couple(row, ref, rng.random() * bound, bound, pair)
        if lone:
            self.decouple = t
        return lone


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

    Under thinning, ``kernel.propose`` handles each event of a clock and
    returns True to end the run there.  The clock runs at
    ``kernel.bound()``, the bound of the current mode(s); as modes change
    only at events, each gap is drawn at the rate in force until the next
    event, which keeps thinning exact.  Under
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

    next_ev = _gap(rng_j, kernel.bound()) if thinning else np.inf
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
                    next_ev += _gap(rng_j, kernel.bound())
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
    chain = _Chain(model, int(i0))
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
    pair = _Coupling(model, lin.qhat, int(i0))
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

    A model without ``supports_batch`` is lifted once, here: drift,
    diffusion, ``post_step`` and history-dependent rates are then called
    path by path (rates on :meth:`SegmentBatch.path`), with the draws of a
    batch model.  Rate rows that ignore the history are cached per mode,
    read off one :class:`Segment`.  With ``rates_depend_on_path`` the
    engine keeps the (n_samples, n_paths, dim) history ring and reads
    the rows of paths in one mode with one ``rates_row`` call on their
    batch view (:meth:`rate_table`), the window sup-norms coming once per
    step from :meth:`sup_norms`.  Each path's thinning clock runs at the
    bound of its current mode, like the per-path kernels; a step that ends
    before the earliest clock skips the proposal loop.

    Every step works from one mode-group plan (:meth:`groups`): the paths
    not blown up, stably sorted by mode, and each mode's slice of that
    order, rebuilt only after a mode changes, a path blows up (it is
    parked at 0) or :meth:`keep` drops paths.  :meth:`coefficients`
    evaluates ``drift`` and ``diffusion`` once per coefficient class into
    plan-ordered arrays, which the Euler step and the Dynkin generator of
    :mod:`switchsde.verify` share.  Under bernoulli, jumps are drawn per
    group from the running sums of its rates, and under thinning each
    round of proposals reads its rows with one call per mode.

    One shared stream (seed, 1) drives all paths with a fixed per-step draw
    order (the Brownian increments, then the mode draws in path order), so
    results depend only on the config and ``n_paths``.  Mode changes take
    effect at the following grid step; the embedded chain is exact under
    thinning and O(dt) under bernoulli, given the grid history.

    With ``qhat`` each path carries a second mode in ``modes_hat`` that
    runs the basic coupling against the chain of ``qhat``, always by
    thinning; a path whose two chains come apart is marked in
    ``decoupled`` and its clock stops.  :meth:`keep` drops finished paths
    from every per-path array.  ``proposals`` counts the thinning
    proposals read and ``jumps`` the changes of ``modes`` applied; neither
    touches a result.
    """

    def __init__(
        self,
        model: ModelSpec,
        phi0: Segment,
        i0: int,
        cfg: SimConfig,
        n_paths: int,
        track_history: bool = False,
        qhat=None,
    ):
        _check_inputs(model, phi0, cfg, i0)
        if not model.supports_batch:
            post, rows = model.post_step, model.rates_row
            model = replace(
                model,
                drift=_per_path(model.drift),
                diffusion=_per_path(model.diffusion),
                post_step=post and _per_path(post),
                rates_row=_rows_per_path(rows) if model.rates_depend_on_path else rows,
                supports_batch=True,
            )
        self.model = model
        self.cfg = cfg
        self.qhat = qhat
        self.n_paths = int(n_paths)
        self.rng = _batch_rng(cfg.seed)
        self.t = 0.0
        self.x = np.tile(phi0.terminal(), (self.n_paths, 1))
        self.modes = np.full(self.n_paths, int(i0), dtype=int)
        self.blown = np.zeros(self.n_paths, dtype=bool)
        self.proposals = self.jumps = 0
        self._sq = self._norms = None
        self._sqrt_dt = math.sqrt(cfg.dt)
        self._rows: dict[int, tuple] = {}
        self._probe_seg = phi0.copy()
        self._grid = (phi0.delay, phi0.dt)
        self._thinning = cfg.scheme == "thinning" or qhat is not None
        self._invalidate()
        if track_history or model.rates_depend_on_path:
            base = phi0.samples  # (m, dim)
            self._hist = np.repeat(base[:, None, :], self.n_paths, axis=1)
            self._head = 0
        else:
            self._hist = None
        if qhat is None:
            self.modes_hat = self.decoupled = None
            bound = model.thinning_bound(int(i0))
        else:
            self.modes_hat = self.modes.copy()
            self.decoupled = np.zeros(self.n_paths, dtype=bool)
            self._pair_bound = _coupling_bound(model, qhat)
            bound = self._pair_bound(int(i0), int(i0))
        self._next_ev = None
        if self._thinning:
            self._next_ev = (
                self.rng.exponential(1.0 / bound, size=self.n_paths)
                if bound > 0
                else np.full(self.n_paths, math.inf)
            )
            self._first_ev = self._next_ev.min(initial=math.inf)

    def _invalidate(self) -> None:
        """Forget the plan and everything built on it."""
        self._order = self._groups = self._coef = None

    def groups(self) -> list:
        """Mode groups of the current plan, ascending in mode, without blown-up paths.

        Each is (mode, paths, rows): the group's path indices in plan order
        and their slice of the plan-ordered arrays of :meth:`coefficients`.
        """
        if self._groups is None:
            live = np.flatnonzero(~self.blown) if self.blown.any() else None
            key = self.modes if live is None else self.modes[live]
            n = key.size
            order = np.argsort(key, kind="stable")
            self._order = order = order if live is None else live[order]
            modes = self.modes[order]
            cuts = [0, *(np.flatnonzero(modes[1:] != modes[:-1]) + 1).tolist(), n] if n else [0]
            self._groups = [
                (int(modes[a]), order[a:b], slice(a, b)) for a, b in zip(cuts, cuts[1:])
            ]
        return self._groups

    @property
    def order(self) -> np.ndarray:
        """Path indices in plan order: the groups' paths one after another."""
        self.groups()
        return self._order

    def coefficients(self) -> tuple:
        """States, drifts and diffusions of every path in plan order.

        Returns (x (P, n), drift (P, n), diffusion (P, n, d) or None under
        zero diffusion), from one ``drift`` and one ``diffusion`` call per
        coefficient class; cached until the states move or the plan is rebuilt.
        """
        if self._coef is None:
            with np.errstate(over="ignore", invalid="ignore"):
                self._coef = self._evaluate()
        return self._coef

    def _evaluate(self) -> tuple:
        model, k = self.model, self.model.shared_coefficients_from or math.inf
        head = [(v, rows) for v, _, rows in self.groups() if v < k]
        tail = [(k, slice(rows.start, None)) for v, _, rows in self._groups if v >= k][:1]
        xs = self.x[self._order]
        drift = np.empty_like(xs)
        sigma = None
        if not model.zero_diffusion:
            sigma = np.empty(xs.shape + (model.brownian_dim,))
        for v, rows in head + tail:  # the coefficient classes
            drift[rows] = model.drift(xs[rows], v)
            if sigma is not None:
                sigma[rows] = model.diffusion(xs[rows], v)
        return xs, drift, sigma

    def _row(self, v: int) -> tuple:
        """Cached (targets, rates, {target: rate}, running sums) out of mode
        v, targets sorted; the running sums of rate / scale are the
        partition :func:`_pick_target` walks."""
        if v not in self._rows:
            row = self.model.rates_row(self._probe_seg, v)
            targets = np.array(sorted(row), dtype=int)
            rates = np.array([row[j] for j in targets], dtype=float)
            scale = self.model.thinning_bound(v) if self._thinning else 1.0 / self.cfg.dt
            _check_total(float(rates.sum()), scale, f"mode {v}")
            row = dict(zip(targets.tolist(), rates.tolist()))
            self._rows[v] = (targets, rates, row, np.cumsum(rates / scale))
        return self._rows[v]

    def rate_table(self, paths, v: int) -> tuple:
        """Targets (K,) and rates out of mode v for the index array ``paths``.

        Rates come as a (len(paths), K) array from one ``rates_row`` call on
        the paths' :class:`SegmentBatch`, or as (1, K) when the rows ignore
        the history.
        """
        if not self.model.rates_depend_on_path:
            targets, rates, _, _ = self._row(v)
            return targets.tolist(), rates[None, :]
        seg = SegmentBatch(self._hist, self._head, paths, *self._grid, norms=self.sup_norms)
        row = self.model.rates_row(seg, v)
        targets = sorted(row)
        rates = np.empty((len(paths), len(targets)))
        for k, j in enumerate(targets):
            rates[:, k] = row[j]
        return targets, rates

    def history(self, paths=None) -> Optional[np.ndarray]:
        """History stack (n_samples, n_paths, dim), oldest first; only the
        paths of the index array ``paths`` when it is given."""
        if self._hist is None:
            return None
        m, p, dim = self._hist.shape
        chron = (self._head + np.arange(m)) % m
        flat = (chron[:, None] * p + (np.arange(p) if paths is None else paths)).ravel()
        return np.take(self._hist.reshape(m * p, dim), flat, axis=0).reshape(m, -1, dim)

    def sup_norms(self) -> np.ndarray:
        """History-window sup-norm of every path, once per step, from a ring of
        squared sample norms made on first use and kept up at every push."""
        if self._norms is None:
            if self._sq is None:
                with np.errstate(over="ignore"):  # inf is the norm of a huge state
                    self._sq = (self._hist * self._hist).sum(axis=2)
            self._norms = np.sqrt(self._sq.max(axis=0))
        return self._norms

    def keep(self, mask: np.ndarray) -> None:
        """Drop the paths where ``mask`` is False."""
        self.x, self.modes, self.blown = self.x[mask], self.modes[mask], self.blown[mask]
        if self._next_ev is not None:
            self._next_ev = self._next_ev[mask]
            self._first_ev = self._next_ev.min(initial=math.inf)
        if self.modes_hat is not None:
            self.modes_hat, self.decoupled = self.modes_hat[mask], self.decoupled[mask]
        if self._hist is not None:
            self._hist = self._hist[:, mask]
        if self._sq is not None:
            self._sq, self._norms = self._sq[:, mask], None
        self.n_paths = self.x.shape[0]
        self._invalidate()

    def _advance_states(self):
        model = self.model
        xi = None
        if not model.zero_diffusion:
            xi = self.rng.standard_normal((self.n_paths, model.brownian_dim))
        with np.errstate(over="ignore", invalid="ignore"):
            xs, drift, sigma = self._coef or self._evaluate()
            out = xs + drift * self.cfg.dt
            if xi is not None:
                xi = xi[self._order]
                out = out + np.einsum("...nd,...d->...n", sigma, xi) * self._sqrt_dt
            self.x[self._order] = out
            if model.post_step is not None:
                self.x = np.asarray(model.post_step(self.x), dtype=float)
        self._coef = None
        if not np.isfinite(self.x).all():
            bad = ~np.isfinite(self.x).all(axis=1)
            self.blown |= bad
            self.x[bad] = 0.0  # park blown paths outside the plan
            self._invalidate()

    def _move(self, p: int, j: int) -> None:
        """Apply path p's jump to mode j."""
        if j != self.modes[p]:
            self.modes[p] = j
            self.jumps += 1
            if not self.blown[p]:  # a blown path is not in the plan
                self._invalidate()

    def _update_modes_bernoulli(self):
        scale = 1.0 / self.cfg.dt
        u = self.rng.random(self.n_paths)
        # the groups are disjoint, so moving one leaves the others' draws as they are
        for v, paths, _ in self.groups():
            if self.model.rates_depend_on_path:
                targets, rates = self.rate_table(paths, v)
                targets, cum = np.array(targets, dtype=int), np.cumsum(rates / scale, axis=1)
                if targets.size:  # a path's last running sum of rates is _pick_target's total
                    _check_total(float(np.cumsum(rates, axis=1)[:, -1].max()), scale, f"mode {v}")
            else:
                targets, _, _, cum = self._row(v)
            if not targets.size:
                continue
            up = u[paths]
            at = (up < cum[..., -1]).nonzero()[0]
            if at.size:  # _pick_target's pick is the number of running sums <= u
                cum = cum if cum.ndim == 1 else cum[at]
                self.modes[paths[at]] = targets[(cum <= up[at, None]).sum(axis=1)]
                self.jumps += at.size
                self._invalidate()

    def _round_rows(self, active: np.ndarray) -> list:
        """Rate rows of the proposing paths ``active``, in order: one
        :meth:`rate_table` per mode, or the cached rows when the rates
        ignore the history."""
        modes = self.modes[active].tolist()
        if not self.model.rates_depend_on_path:
            return [self._row(v)[2] for v in modes]
        at: dict = {}
        for a, v in enumerate(modes):
            at.setdefault(v, []).append(a)
        rows = [None] * len(modes)
        for v, idx in at.items():
            targets, rates = self.rate_table(active[idx], v)
            for a, r in zip(idx, rates.tolist()):
                rows[a] = dict(zip(targets, r))
        return rows

    def _propose(self, p: int, row: dict) -> None:
        """One thinning proposal of the single chain of path p, rates ``row``."""
        v = int(self.modes[p])
        self.proposals += 1
        if row:
            j = _pick_target(row, self.rng.random(), self.model.thinning_bound(v), v)
            if j is not None:
                self._move(p, j)
                v = j
        self._next_ev[p] += _gap(self.rng, self.model.thinning_bound(v))

    def _propose_pair(self, p: int, row: dict) -> None:
        """One thinning proposal of the coupled pair of path p, rates ``row``."""
        pair = (int(self.modes[p]), int(self.modes_hat[p]))
        ref = self.qhat.row(pair[1])
        bound = self._pair_bound(*pair)
        self.proposals += 1
        pair, lone = _couple(row, ref, self.rng.random() * bound, bound, pair)
        self._move(p, pair[0])
        self.modes_hat[p] = pair[1]
        if lone:
            self.decoupled[p] = True
            self._next_ev[p] = math.inf
        else:
            self._next_ev[p] += _gap(self.rng, self._pair_bound(*pair))

    def _update_modes_thinning(self):
        t1 = self.t + self.cfg.dt
        propose = self._propose if self.qhat is None else self._propose_pair
        while self._first_ev < t1:  # the earliest clock, kept at every change
            active = np.flatnonzero(self._next_ev < t1)
            for p, row in zip(active.tolist(), self._round_rows(active)):
                propose(p, row)
            self._first_ev = self._next_ev.min(initial=math.inf)

    def step(self):
        """One grid step: advance states with current modes, then modes."""
        self._advance_states()
        if self._thinning:
            self._update_modes_thinning()
        else:
            self._update_modes_bernoulli()
        if self._hist is not None:
            self._hist[self._head] = self.x
            if self._sq is not None:
                with np.errstate(over="ignore"):
                    self._sq[self._head] = (self.x * self.x).sum(axis=1)
            self._head = (self._head + 1) % self._hist.shape[0]
            self._norms = None
        self.t += self.cfg.dt

    def run(self, n_steps: int, on_step: Optional[Callable] = None):
        """Run ``n_steps`` steps; ``on_step(engine)`` sees each pre-step state."""
        for _ in range(int(n_steps)):
            if on_step is not None:
                on_step(self)
            self.step()
