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

Both engines keep one contract.  A run draws from the one stream
(seed, 1) in a fixed per-step order: the Brownian increments, then the
mode draws in path order, on the windows the step started from.  Both take
the Euler step of :func:`_euler`, and a mode change reaches the state at
the next grid step.  A jump goes to target j with probability
q_ij / bound, by partitioning a single uniform draw over the row's sorted
targets; both engines walk a row as sorted lists of targets and rates
(:func:`_pick`), and both fix a mode's targets at the first row read out
of it (:func:`_fixed_targets`).  :func:`simulate` runs one path and logs
its jumps: a one-path :class:`BatchEnsemble`, bit for bit, in a faster loop.

:class:`BatchEnsemble`, the engine of every estimator and of
:func:`simulate_coupled`, advances a whole ensemble of any model at once,
the basic coupling with the limiting chain and history-dependent rates
included: drift and diffusion once per coefficient class and step, rows
that read the history once per mode group, and steps in stretches up to
the next mode change, parted pair or blow-up, each on one plan
(:meth:`BatchEnsemble._advance`), drawing per step what a one-step call
draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .chain import _integer
from .model import Linearization, ModelSpec
from .segment import Segment, SegmentBatch

__all__ = [
    "SimConfig",
    "TrajectoryRecord",
    "CoupledRecord",
    "default_dt",
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
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}")
        _integer("seed", self.seed, 0)  # int() would floor 1.7
        _integer("record_stride", self.record_stride)


def default_dt(delay: float, horizon: float) -> float:
    """Default grid step min(r/64, horizon/1000), snapped to divide r."""
    cand = min(delay / 64.0, 1e-3 * horizon)
    n = max(int(math.ceil(delay / cand - 1e-12)), 1)
    return delay / n


@dataclass
class TrajectoryRecord:
    """Recorded grid states of one path.

    ``modes`` holds each grid point's mode, which the state meets from the
    next step on.  ``jump_times`` holds (time, from_mode, to_mode) triplets,
    at the event time under thinning and at the step's end under bernoulli.
    ``terminal`` is the history window at the final recorded time.  On
    numerical blow-up the record is truncated at the last finite state and
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
    """

    times: np.ndarray
    modes: np.ndarray
    modes_hat: np.ndarray
    decouple_time: float
    blow_up: bool = False


def _check_inputs(model: ModelSpec, phi0: Segment, cfg: SimConfig, i0: int):
    if hasattr(i0, "__index__") and i0 < 1:
        raise ValueError("modes are indexed from 1")
    _integer("i0", i0)  # int() would floor 2.5, and True would start in mode 1
    model.thinning_bound(i0)  # a model with a finite mode space rejects a start beyond it
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
    """Next gap of a thinning clock at rate ``bound``; a zero bound never fires.
    ``rng.exponential(1 / bound)`` draws the same bits through a dearer call."""
    return rng.standard_exponential() * (1.0 / bound) if bound > 0 else math.inf


def _check_total(total: float, low: float, bound: float, modes) -> None:
    """Reject a row with a negative rate ``low`` or a ``total`` above ``bound``;
    ``modes`` names the row: a mode, or a coupled (mode, mode_hat) pair.  A
    NaN rate makes the total NaN, which fails too."""
    if not (low >= 0 and total <= bound * _BOUND_SLACK):
        where = f"modes {modes}" if isinstance(modes, tuple) else f"mode {modes}"
        if low < 0:
            raise ValueError(f"rates out of {where} include {float(low)!r}; "
                             "a rate cannot be negative")
        if total > bound * _BOUND_SLACK:
            raise ValueError(
                f"rates out of {where} total {total!r}, above the bound {bound!r} in "
                "force; the jump draw would drop the excess"
            )
        raise ValueError(f"rates out of {where} total {total!r}; a rate cannot be NaN")


def _pick(targets: list, rates: list, u: float, bound: float):
    """The jump of one proposal at uniform ``u``: the sorted ``targets``
    split [0, 1) into shares rate / bound laid out in order, and the target
    whose share holds u is picked; None past the last share.  The caller
    checks the row with :func:`_check_total` first."""
    acc = 0.0
    for j, r in zip(targets, rates):
        acc += r / bound
        if u < acc:
            return j
    return None


def _fixed_targets(fixed: dict, row: dict, v: int) -> list:
    """Sorted targets of ``row``, out of mode v: fixed at v's first row, kept in
    ``fixed`` as (targets, key set), so a later row with other keys raises."""
    got = fixed.get(v)
    if got is None:
        got = fixed[v] = (sorted(row), frozenset(row))
    elif row.keys() != got[1]:
        raise ValueError(f"rates out of mode {v} go to {sorted(row)}, not to the targets "
                         f"{got[0]} of its first row; a mode's targets must stay fixed")
    return got[0]


def _merge(targets: list, ref: dict) -> list:
    """(target, column in ``targets`` or None, reference rate) over the sorted
    union of ``targets`` and the reference row ``ref``'s targets: the layout
    :func:`_couple_pick` walks."""
    col = {j: c for c, j in enumerate(targets)}
    return [(j, col.get(j), ref.get(j, 0.0)) for j in sorted(set(targets) | set(ref))]


def _couple_pick(merged: list, rates: list, u: float, bound: float, v: int) -> tuple:
    """One basic-coupling proposal at offset ``u`` in [0, bound) of a pair
    that sits in mode v, with the rates ``rates`` of the primary row laid
    out by ``merged`` (:func:`_merge`).

    Both chains jump to j at rate min(q_ij, qhat_ij), one chain alone at the
    excess.  Returns (mode, mode_hat, whether the chains came apart).
    """
    pairs = [(0.0 if c is None else rates[c], b) for _, c, b in merged]
    low = min(map(min, pairs)) if pairs else 0.0
    _check_total(sum(max(a, b) for a, b in pairs), low, bound, (v, v))
    acc = 0.0
    for (j, _, _), (a, b) in zip(merged, pairs):
        both, lone_a, lone_b = min(a, b), max(a - b, 0.0), max(b - a, 0.0)
        if u < acc + both:
            return int(j), int(j), False
        acc += both
        if u < acc + lone_a:
            return int(j), v, True
        acc += lone_a
        if u < acc + lone_b:
            return v, int(j), True
        acc += lone_b
    return v, v, False


def _euler(x, drift, sigma, xi, dt: float, post) -> np.ndarray:
    """The Euler-Maruyama step of both engines from states ``x``, (P, n) or
    one path's (n,), with increments ``xi`` (P, d) or (d,), None without
    noise; ``post`` (``post_step`` or None) must keep the states' shape.
    One noise column is a product, added to +0.0 as einsum's sum adds it,
    so that a -0.0 product comes out +0.0 as there."""
    out = x + drift * dt
    if xi is not None:
        if xi.shape[-1] == 1:
            noise = 0.0 + sigma[..., 0] * xi
        else:
            noise = np.einsum("...nd,...d->...n", sigma, xi)
        out = out + noise * math.sqrt(dt)
    if post is not None:
        projected = np.asarray(post(out), dtype=float)
        if projected.shape != out.shape:
            raise ValueError(f"post_step(x) gave shape {projected.shape} for states "
                             f"of shape {out.shape}")
        out = projected
    return out


def simulate(
    model: ModelSpec,
    phi0: Segment,
    i0: int,
    cfg: SimConfig,
    *,
    stop: Optional[Callable[[float, Segment, int], bool]] = None,
    on_grid: Optional[Callable[[float, Segment, int], None]] = None,
) -> TrajectoryRecord:
    """Run one path from history ``phi0`` and mode ``i0``: the path of a
    one-path :class:`BatchEnsemble`, bit for bit, with the jumps logged.
    The callbacks see the state as (n,) where the engine passes (1, n); the
    two agree wherever the callbacks' values do not depend on that axis,
    as for every registry family.

    Each step draws the increment, takes the Euler step, then draws the
    mode on the window the step started from: under thinning at the
    proposals before the step's end of a clock at the mode's bound, under
    bernoulli from one uniform.  ``stop(t, segment, mode)`` is evaluated
    at every grid point (including t = 0); when it returns True the run
    ends there and ``stop_time`` is set.  ``on_grid(t, segment, mode)`` is
    called at every grid point regardless of the recording stride, so
    callers can accumulate path functionals without storing states.
    """
    _check_inputs(model, phi0, cfg, i0)
    seg = phi0.copy()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(cfg.seed), 1)))
    dt, stride = cfg.dt, cfg.record_stride
    n_steps = int(round(cfg.horizon / dt))
    rates_row, bound = model.rates_row, model.thinning_bound
    drift, diffusion, post = model.drift, model.diffusion, model.post_step
    noise = None if model.zero_diffusion else model.brownian_dim
    mode = int(i0)
    rows, jumps, fixed = [], [], {}
    stop_time: Optional[float] = None

    def draw(t: float, scale: float, u: Optional[float] = None) -> int:
        """Mode after one jump decision at rate ``scale``; without ``u`` a
        uniform is drawn, for a row with a target only."""
        row = rates_row(seg, mode)
        targets = _fixed_targets(fixed, row, mode)
        if not targets:
            return mode
        rates = row.values()  # checked in the row's own order
        _check_total(sum(rates), min(rates), scale, mode)
        j = _pick(targets, [row[k] for k in targets], rng.random() if u is None else u, scale)
        if j is None:
            return mode
        jumps.append((t, mode, j))
        bound(j)  # checks the new mode's declared bound under bernoulli too
        return int(j)

    def at_grid(t: float, x: np.ndarray, due: bool) -> bool:
        """Hooks and recording after a grid push; True ends the run."""
        nonlocal stop_time
        if on_grid is not None:
            on_grid(t, seg, mode)
        hit = stop is not None and stop(t, seg, mode)
        if due or hit:
            rows.append((t, x, mode))  # each step makes a new x
        if hit:
            stop_time = t
        return hit

    blow_up = False
    x, t = seg.terminal(), 0.0
    if not at_grid(t, x, True):
        thinning = cfg.scheme == "thinning"
        next_ev = _gap(rng, bound(mode)) if thinning else math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n_steps):
                xi = None if noise is None else rng.standard_normal(noise)
                sigma = None if noise is None else diffusion(x, mode)
                x = _euler(x, drift(x, mode), sigma, xi, dt, post)
                # a finite sum has finite terms, and np.add.reduce is the cheaper call
                if not (math.isfinite(np.add.reduce(x)) or np.isfinite(x).all()):
                    blow_up = True
                    break
                t += dt  # the engine's running sum, which its clocks are compared with
                if thinning:
                    while next_ev < t:
                        mode = draw(next_ev, bound(mode))
                        next_ev += _gap(rng, bound(mode))
                else:
                    mode = draw((k + 1) * dt, 1.0 / dt, rng.random())
                seg.push(x)
                if at_grid((k + 1) * dt, x, (k + 1) % stride == 0 or k == n_steps - 1):
                    break
    times, states, modes = zip(*rows)
    return TrajectoryRecord(
        times=np.array(times),
        states=np.array(states),
        modes=np.array(modes, dtype=int),
        jump_times=jumps,
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
) -> CoupledRecord:
    """Evolve the mode chain jointly with a reference chain: one path of
    :class:`BatchEnsemble` with ``qhat=lin.qhat``.

    The reference chain moves at the limiting rates of ``lin.qhat`` and is
    coupled to the primary chain so that both jump together to target j at
    rate min(q_ij, qhat_ij), while the excess rates move one chain alone.
    Both chains start at ``i0``.  (t, mode, mode_hat) is recorded at t = 0,
    at the stride points and at the horizon; the record stops at the first
    time the chains differ (``decouple_time``, recorded too), at a blow-up
    or at the horizon, whichever comes first.  The coupling always runs by
    thinning, whatever ``cfg.scheme`` says.
    """
    be = BatchEnsemble(model, phi0, i0, cfg, 1, qhat=lin.qhat)
    rows = [(0.0, int(i0), int(i0))]
    n_steps = int(round(cfg.horizon / cfg.dt))
    for k in range(1, n_steps + 1):
        be.step()
        t, pair = k * cfg.dt, (int(be.modes[0]), int(be.modes_hat[0]))
        if math.isfinite(be.decouple_time[0]):
            rows.append((float(be.decouple_time[0]), *pair))
            break
        if be.blown[0]:
            break
        if k % cfg.record_stride == 0 or k == n_steps:
            rows.append((t, *pair))
    times, modes, modes_hat = zip(*rows)
    return CoupledRecord(
        times=np.array(times),
        modes=np.array(modes, dtype=int),
        modes_hat=np.array(modes_hat, dtype=int),
        decouple_time=float(be.decouple_time[0]),
        blow_up=bool(be.blown[0]),
    )


def _shape_error(name: str, v, out: np.ndarray, x: np.ndarray) -> ValueError:
    """A coefficient callback's result ``out`` with a path axis but not one
    row per state of ``x``, class v (a mode, or an array of modes)."""
    mode = "modes" if isinstance(v, np.ndarray) else v
    return ValueError(f"{name}(x, {mode}) gave shape {out.shape} for {len(x)} states")


def _place(rows, out, x: np.ndarray, name: str, v, shape: tuple) -> np.ndarray:
    """A lone class's callback result ``out`` on the states ``x``: as it
    comes when it has the full ``shape``, else put at ``rows`` of a buffer."""
    out = np.asarray(out, dtype=float)
    if out.ndim == len(shape) and len(out) != len(x):
        raise _shape_error(name, v, out, x)
    if out.shape == shape:
        return out
    buf = np.empty(shape)
    buf[rows] = out
    return buf


class BatchEnsemble:
    """Vectorized fixed-grid integrator over a path ensemble.

    The model's callbacks take a whole mode group at once: drift,
    diffusion and ``post_step`` states with a leading path axis, and
    ``rates_row`` a :class:`SegmentBatch`.  A drift or diffusion result
    without the path axis is a constant for every path of the group; one
    with it but not one row per path raises, and so does a ``post_step``
    result that does not keep the shape of its input, the states of the
    paths not blown up.  Rate rows that ignore the history are cached per
    mode, read off one :class:`Segment` (:meth:`_row`).  With
    ``rates_depend_on_path`` the engine keeps the (n_samples, n_paths, dim)
    history ring and reads the rows of paths in one mode with one
    ``rates_row`` call on their batch view (:meth:`rate_table`), the window
    sup-norms coming once per step from block maxima (:meth:`sup_norms`).
    Each path's thinning clock runs at the bound of its current mode, as in
    :func:`simulate`; a step that ends before the earliest clock skips the
    proposal loop.

    The mode-group plan (:meth:`groups`), the live paths stably sorted by
    mode and each mode's slice of that order, is made on demand and dropped
    when a mode changes, a path blows up (parked at 0) or :meth:`keep` drops
    paths.  The Euler step evaluates ``drift`` and ``diffusion`` once per
    coefficient class (:meth:`_plan`): in path order, with no plan, gather
    or scatter, while no path is blown and all share one class; once for
    every live path, its modes an array in path order, when the model
    declares ``mode_arrays``; else in plan order; :meth:`coefficients` hands
    them out in that order.  Under bernoulli, a path jumps when its uniform
    falls below its row total, to the target of the count of its running
    sums <= u.  Rows that ignore the history keep their totals in a
    per-path array beside ``modes``: 0.0 for an empty row and for a blown
    path, rewritten only for the paths that jump and subset by
    :meth:`keep`.  A jump's new row is read at the next update that finds
    the path live, so a mode's row and bound are read only once a live
    path is in it.  A step without a jump is one comparison, with no plan;
    rows that read the history are read per mode group.
    Under thinning, each round of proposals reads its rows with one call per
    mode and turns them into one sorted (targets, rates) pair of lists per
    path; the proposals walk them in Python floats (:func:`_pick`, or
    :func:`_couple_pick` over a layout merged with the reference row once
    per mode), and the round writes the modes and clocks back once.  A
    mode's targets are fixed at the first row read out of it.

    Steps are taken in stretches (:meth:`_advance`) that end at a mode
    change, a parted pair or a blow-up, each on one plan; :meth:`step` is a
    one-step stretch and :meth:`run` a loop of stretches.  The draws are
    those of the same steps taken one by one.

    ``phi0`` is one start window or a sequence of S of them, each the start
    of a cohort of ``n_paths`` paths: cohort k is paths k * n_paths to
    (k + 1) * n_paths - 1, and ``n_paths`` the attribute counts all S of
    them.  One start and a one-element sequence give the same run.

    One shared stream (seed, 1) drives all paths, every cohort's included,
    with a fixed per-step draw order (the Brownian increments, then the
    mode draws in path order), so results depend only on the config, the
    start windows and ``n_paths``; with one path they are
    :func:`simulate`'s.  Mode changes take effect at the following grid
    step; the embedded chain is exact under thinning and O(dt) under
    bernoulli, given the grid history.

    With ``qhat`` each path carries a second mode in ``modes_hat`` that
    runs the basic coupling against the chain of ``qhat``; the engine is
    then checked and run as a thinning run, whatever ``cfg.scheme`` says.
    A path proposes only while its two chains share a mode: the time of the
    proposal that parts them goes to ``decouple_time`` (inf while coupled)
    and its clock stops.  :meth:`keep` drops finished paths
    from every per-path array.  ``proposals`` counts the thinning
    proposals read and ``jumps`` the changes of ``modes`` applied; neither
    touches a result.
    """

    def __init__(
        self,
        model: ModelSpec,
        phi0: Segment | Sequence[Segment],
        i0: int,
        cfg: SimConfig,
        n_paths: int,
        track_history: bool = False,
        qhat=None,
    ):
        n_paths = _integer("n_paths", n_paths)  # int() would floor 2.9
        if qhat is not None:  # the coupling runs by thinning
            cfg = replace(cfg, scheme="thinning")
        starts = [phi0] if isinstance(phi0, Segment) else list(phi0)
        if not starts:
            raise ValueError("phi0 must hold at least one start window")
        for seg in starts:
            _check_inputs(model, seg, cfg, i0)
        self.model = model
        self.cfg = cfg
        self.qhat = qhat
        self.n_paths = len(starts) * n_paths
        self.rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(cfg.seed), 1)))
        self.t = 0.0
        self.x = np.repeat([seg.terminal() for seg in starts], n_paths, axis=0)
        self.modes = np.full(self.n_paths, int(i0), dtype=int)
        self.blown = np.zeros(self.n_paths, dtype=bool)
        self.proposals = self.jumps = 0
        self._sq = self._norms = None
        self._rows, self._targets = {}, {}  # rows that ignore the history; _fixed_targets
        self._probe_seg = starts[0].copy()
        self._grid = (starts[0].delay, starts[0].dt)
        self._thinning = cfg.scheme == "thinning"
        # bernoulli on rows that ignore the history: each path's row total,
        # NaN until the update after the path enters its mode reads the row
        self._totals = None
        if not (self._thinning or model.rates_depend_on_path):
            self._totals, self._unread = np.full(self.n_paths, math.nan), True
            self._known: dict[int, float] = {}  # the totals of the modes read so far
        self._invalidate()
        if track_history or model.rates_depend_on_path:
            base = np.stack([seg.samples for seg in starts], axis=1)  # (m, cohorts, dim)
            self._hist = np.repeat(base, n_paths, axis=1)
            self._head = 0
        else:
            self._hist = None
        if qhat is None:
            self.modes_hat = self.decouple_time = None
            bound = model.thinning_bound(int(i0))
        else:
            self.modes_hat = self.modes.copy()
            self.decouple_time = np.full(self.n_paths, math.inf)
            self._pairs: dict[int, tuple] = {}
            bound = self._pair(int(i0))[1]
        self._next_ev = None
        self._bounds: dict[int, float] = {}
        if self._thinning:
            self._next_ev = (
                self.rng.exponential(1.0 / bound, size=self.n_paths)
                if bound > 0
                else np.full(self.n_paths, math.inf)
            )
            self._first_ev = self._next_ev.min(initial=math.inf)
            self._merged: dict[int, list] = {}

    def _invalidate(self) -> None:
        """Forget the plan and everything built on it."""
        self._order = self._groups = self._classes = self._coef = self._by_mode = None

    def groups(self) -> list:
        """Mode groups of the current plan, ascending in mode, without blown-up paths.

        Each is (mode, paths, rows): the group's path indices in plan order
        and their slice of that order.
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

    def mode_paths(self) -> dict:
        """Each occupied mode's live paths, ascending, by mask: no sort; kept with the plan."""
        if self._by_mode is None:
            live = np.where(self.blown, 0, self.modes)  # modes count from 1: 0 is a blown path
            self._by_mode = {v: np.flatnonzero(live == v) for v in set(live.tolist()) - {0}}
        return self._by_mode

    def coefficients(self) -> tuple:
        """States, drifts and diffusions of every live path in the order of
        the Euler step: the order of :meth:`_plan`, path order for None.

        Returns (x (P, n), drift (P, n), diffusion (P, n, d) or None under
        zero diffusion), from one ``drift`` and one ``diffusion`` call per
        coefficient class; cached until the states move or a mode changes.
        The engine writes none of them, so they may be held across steps.
        """
        if self._coef is None:
            order, classes = self._plan()
            with np.errstate(over="ignore", invalid="ignore"):
                self._coef = self._evaluate(self.x if order is None else self.x[order], classes)
        return self._coef

    def _plan(self) -> tuple:
        """(order, classes), found once per plan, a class being (mode, rows):
        one class (v or K, every row) in path order (None) while no path is
        blown and all are in mode v or from K = ``shared_coefficients_from``
        on; else, for a model that declares ``mode_arrays``, one class (the
        live paths' modes, every row) in path order, or live-index order
        after a blow-up; else each group below K and one for all from K, as
        :meth:`groups`."""
        if self._classes is None:
            k = self.model.shared_coefficients_from or math.inf
            lo = int(self.modes.min()) if self.n_paths else 0
            # below K one class needs every mode at lo: path 0's mode settles most cases
            if lo and (lo >= k or self.modes[0] == lo == self.modes.max()) and not self.blown.any():
                self._classes = (None, [(min(lo, k), slice(None))])
            elif self.model.mode_arrays:
                live = np.flatnonzero(~self.blown) if self.blown.any() else None
                modes = self.modes.copy() if live is None else self.modes[live]
                self._classes = (live, [(modes, slice(None))] if modes.size else [])
            else:
                head = [(v, rows) for v, _, rows in self.groups() if v < k]
                tail = [(k, slice(rows.start, None)) for v, _, rows in self._groups if v >= k]
                self._classes = (self._order, head + tail[:1])
        return self._classes

    def _evaluate(self, xs: np.ndarray, classes: list) -> tuple:
        """(xs, drift, diffusion) of the states ``xs``, in the order of the
        plan whose ``classes`` are given."""
        model = self.model
        noise = None if model.zero_diffusion else xs.shape + (model.brownian_dim,)
        if len(classes) == 1:
            (v, rows), = classes
            x = xs[rows]
            drift = _place(rows, model.drift(x, v), x, "drift", v, xs.shape)
            sigma = None if noise is None else _place(
                rows, model.diffusion(x, v), x, "diffusion", v, noise)
            return xs, drift, sigma
        # several classes, or none: each result checked and put at its rows
        drift, sigma = np.empty(xs.shape), None if noise is None else np.empty(noise)
        for v, rows in classes:
            x = xs[rows]
            out = np.asarray(model.drift(x, v), dtype=float)
            if out.ndim == 2 and len(out) != len(x):
                raise _shape_error("drift", v, out, x)
            drift[rows] = out
            if noise:
                out = np.asarray(model.diffusion(x, v), dtype=float)
                if out.ndim == 3 and len(out) != len(x):
                    raise _shape_error("diffusion", v, out, x)
                sigma[rows] = out
        return xs, drift, sigma

    def _row(self, v: int) -> tuple:
        """The row out of mode v of a model whose rates ignore the history,
        read once off one :class:`Segment` and checked against the scale in
        force: (targets, rates) as lists, targets sorted, which the thinning
        picks walk; the rates as the (1, K) table of :meth:`rate_table`; and
        the running sums of rate / scale, the bernoulli partition."""
        if v not in self._rows:
            row = self.model.rates_row(self._probe_seg, v)
            targets = np.array(sorted(row), dtype=int)
            rates = np.array([row[j] for j in targets], dtype=float)
            scale = self.model.thinning_bound(v) if self._thinning else 1.0 / self.cfg.dt
            _check_total(float(rates.sum()), rates.min(initial=0.0), scale, v)
            self._rows[v] = (targets.tolist(), rates.tolist(), rates[None, :],
                             np.cumsum(rates / scale))
        return self._rows[v]

    def rate_table(self, paths, v: int) -> tuple:
        """Sorted targets (a list of K) and rates out of mode v for the index
        array ``paths``.

        Rates come as a (len(paths), K) array from one ``rates_row`` call on
        the paths' :class:`SegmentBatch`, whose keys must be those of the
        first row read out of v (:func:`_fixed_targets`), or as (1, K) when
        the rows ignore the history.
        """
        if not self.model.rates_depend_on_path:
            targets, _, table, _ = self._row(v)
            return targets, table
        seg = SegmentBatch(self._hist, self._head, paths, *self._grid, norms=self.sup_norms)
        row = self.model.rates_row(seg, v)
        targets = _fixed_targets(self._targets, row, v)
        rates = np.empty((len(paths), len(targets)))
        for k, j in enumerate(targets):
            rates[:, k] = row[j]
        return targets, rates

    def history(self, paths=None) -> Optional[np.ndarray]:
        """History stack (n_samples, n_paths, dim), oldest first; only the
        paths of the index array ``paths`` when it is given."""
        if self._hist is None:
            return None
        if paths is None:  # the ring in chronological order, with no index arrays
            return np.concatenate((self._hist[self._head:], self._hist[:self._head]))
        m, p, dim = self._hist.shape
        chron = (self._head + np.arange(m)) % m
        flat = (chron[:, None] * p + paths).ravel()
        return np.take(self._hist.reshape(m * p, dim), flat, axis=0).reshape(m, -1, dim)

    def sup_norms(self) -> np.ndarray:
        """History-window sup-norm of every path, once per step.

        On first use the ring's squared sample norms (m, P) are made, with
        their maxima over blocks of about sqrt(m) ring slots; every push
        then rewrites one slot and recomputes its block, and a read takes
        the max over the block maxima.  A max is exact, so the norms are
        the bits of the max over all m samples.
        """
        if self._norms is None:
            if self._sq is None:
                with np.errstate(over="ignore"):  # inf is the norm of a huge state
                    self._sq = (self._hist * self._hist).sum(axis=2)
                m = len(self._sq)
                self._block = math.isqrt(m - 1) + 1  # ceil(sqrt(m)) for m >= 2
                self._bmax = np.maximum.reduceat(self._sq, np.arange(0, m, self._block), axis=0)
            self._norms = np.sqrt(self._bmax.max(axis=0))
        return self._norms

    def keep(self, mask: np.ndarray) -> None:
        """Drop the paths where ``mask`` is False."""
        self.x, self.modes, self.blown = self.x[mask], self.modes[mask], self.blown[mask]
        if self._totals is not None:
            self._totals = self._totals[mask]
        if self._next_ev is not None:
            self._next_ev = self._next_ev[mask]
            self._first_ev = self._next_ev.min(initial=math.inf)
        if self.modes_hat is not None:
            self.modes_hat, self.decouple_time = self.modes_hat[mask], self.decouple_time[mask]
        if self._hist is not None:
            self._hist = self._hist[:, mask]
        if self._sq is not None:
            self._sq, self._bmax, self._norms = self._sq[:, mask], self._bmax[:, mask], None
        self.n_paths = self.x.shape[0]
        self._invalidate()

    @np.errstate(over="ignore", invalid="ignore")  # the decorator is the cheaper entry
    def _advance(self, limit: int) -> int:
        """Grid steps, at most ``limit`` (>= 1) of them, up to and including
        the first that changes a mode (``jumps`` moves), parts a coupled pair
        or blows a path up; returns the number of steps taken.

        Each step advances the states with the modes it starts from, then
        the modes (on the window it started from), then pushes the ring.
        No plan changes before such a step, so the plan is read once and the
        states stay in its order, put back in path order at the end, or at
        every step when the ring needs them so, or at a blow-up.  Each step
        draws what a one-step call draws, in the same order."""
        model, dt, ring = self.model, self.cfg.dt, self._hist is not None
        noise = None if model.zero_diffusion else (self.n_paths, model.brownian_dim)
        update = self._update_modes_thinning if self._thinning else self._update_modes_bernoulli
        order, classes = self._plan()
        coef, self._coef = self._coef, None  # coefficients() caches in this order
        xs = None if coef else self.x if order is None else self.x[order]
        apart = self._apart() if limit > 1 else None  # read only when a next step is due
        for steps in range(1, limit + 1):
            xi = None if noise is None else self.rng.standard_normal(noise)  # blown paths' too
            if xi is not None and order is not None:
                xi = xi[order]
            xs = _euler(*(coef or self._evaluate(xs, classes)), xi, dt, model.post_step)
            coef = None
            # a finite sum has finite terms, and np.add.reduce is the cheaper call
            finite = math.isfinite(np.add.reduce(xs, axis=None)) or np.isfinite(xs).all()
            if order is None:
                self.x = xs
            elif ring or not finite:
                self.x[order] = xs
            if not finite:
                bad = ~np.isfinite(self.x).all(axis=1)
                self.blown |= bad
                self.x = np.where(bad[:, None], 0.0, self.x)  # parked outside the plan
                if self._totals is not None:  # a blown path never jumps under bernoulli
                    self._totals[bad] = 0.0
                self._invalidate()
            jumps = self.jumps
            update()
            if ring:  # written after the rates read the step's start window
                self._push()
            self.t += dt
            if steps == limit or not finite or self.jumps != jumps or self._apart() != apart:
                break
        if finite and order is not None and not ring:
            self.x[order] = xs
        return steps

    def _apart(self) -> int:
        """The coupled pairs that have parted; 0 without a coupling."""
        return 0 if self.decouple_time is None else np.count_nonzero(self.decouple_time < math.inf)

    def _push(self) -> None:
        """Write the states, and their squared norms once :meth:`sup_norms`
        keeps them, into the ring's oldest slot."""
        self._hist[self._head] = self.x
        if self._sq is not None:
            self._sq[self._head] = (self.x * self.x).sum(axis=1)
            lo = self._head - self._head % self._block
            self._bmax[lo // self._block] = self._sq[lo:lo + self._block].max(axis=0)
        self._head = (self._head + 1) % self._hist.shape[0]
        self._norms = None

    def _update_modes_bernoulli(self):
        """One uniform per path; a path jumps when it falls below its row
        total, to the target of the count of its running sums <= u, as
        :func:`_pick`.  Rows that ignore the history come from the per-path
        totals with no plan; rows that read it, per mode group."""
        u = self.rng.random(self.n_paths)
        if self._totals is None:
            return self._bernoulli_groups(u)
        if self._unread:
            self._read_totals()
        at = (u < self._totals).nonzero()[0]
        if at.size:
            froms = self.modes[at]
            modes = set(froms.tolist())
            for v in modes:
                here = at if len(modes) == 1 else at[froms == v]
                targets, _, _, cum = self._rows[v]
                self.modes[here] = np.array(targets, dtype=int)[(cum <= u[here, None]).sum(axis=1)]
            known, new = self._known, self.modes[at].tolist()
            self._totals[at] = [known.get(j, math.nan) for j in new]  # NaN: read at the next update
            self._unread = self._unread or any(j not in known for j in new)
            self.jumps += at.size
            self._invalidate()

    def _read_totals(self):
        """Row totals of the paths whose mode was not yet read when they
        entered it (every path at the first update), read and checked one
        mode at a time in ascending order: so a mode is probed only once a
        live path is in it."""
        fresh = np.isnan(self._totals).nonzero()[0]
        modes = self.modes[fresh]
        for v in sorted(set(modes.tolist())):
            self._bound(v)  # checks the mode's declared bound, which bernoulli does not run on
            cum = self._row(v)[3]
            self._totals[fresh[modes == v]] = self._known[v] = cum[-1] if cum.size else 0.0
        self._unread = False

    def _bernoulli_groups(self, u: np.ndarray):
        scale = 1.0 / self.cfg.dt
        # the groups are disjoint, so moving one leaves the others' draws as they are
        for v, paths, _ in self.groups():
            self._bound(v)  # checks the mode's declared bound, which bernoulli does not run on
            targets, rates = self.rate_table(paths, v)
            if not targets:
                continue
            _check_total(float(rates.sum(axis=1).max()), rates.min(), scale, v)
            cum = np.cumsum(rates / scale, axis=1)
            up = u[paths]
            at = (up < cum[:, -1]).nonzero()[0]
            if at.size:  # _pick's pick is the number of running sums <= u
                picks = (cum[at] <= up[at, None]).sum(axis=1)
                self.modes[paths[at]] = np.array(targets, dtype=int)[picks]
                self.jumps += at.size
                self._invalidate()

    def _round_rows(self, active: np.ndarray, modes: list) -> list:
        """Rate rows of the proposing paths ``active``, in ``modes``: one
        (targets, rates) pair of lists per path, in order, the targets shared
        by the paths of a mode.  The rows come from one :meth:`rate_table`
        per mode, or from the cached rows when the rates ignore the history."""
        if not self.model.rates_depend_on_path:
            return [self._row(v)[:2] for v in modes]
        at: dict = {}
        for a, v in enumerate(modes):
            at.setdefault(v, []).append(a)
        rows = [None] * len(modes)
        for v, idx in at.items():
            targets, rates = self.rate_table(active[idx], v)
            for a, r in zip(idx, rates.tolist()):
                rows[a] = (targets, r)
        return rows

    def _bound(self, v: int) -> float:
        """The thinning clock's rate in mode v, read (and checked) once per mode."""
        bound = self._bounds.get(v)
        if bound is None:
            bound = self._bounds[v] = self.model.thinning_bound(v)
        return bound

    def _pair(self, v: int) -> tuple:
        """Reference row of mode v, checked, and the coupling clock's rate
        while both chains sit in v, read once per mode: the model's bound
        plus the row total, or both global bounds when the model declares
        no per-mode bound."""
        pair = self._pairs.get(v)
        if pair is None:
            ref, model = self.qhat.row(v), self.model
            total = sum(ref.values())  # a NaN, inf or negative rate would stop the clocks
            if not (total < math.inf and min(ref.values(), default=0.0) >= 0):
                raise ValueError(f"reference rates out of mode {v} total {total!r}; each rate "
                                 "must be finite and nonnegative")
            if model.mode_rate_bound is None:
                bound = model.rate_bound + self.qhat.rate_bound
            else:
                bound = model.thinning_bound(v) + total
            pair = self._pairs[v] = (ref, bound)
        return pair

    def _single_round(self, modes: list, rows: list, clocks: list) -> list:
        """One proposal of the single chain of each path, in order, from
        mode ``modes[k]`` with row ``rows[k]``: a uniform for a row with a
        target, then the gap at the bound of the path's mode after the
        proposal.  Moves the ``clocks`` on and returns the new modes."""
        rng, uniform, bound_of, new = self.rng, self.rng.random, self._bound, modes.copy()
        for k, (targets, rates) in enumerate(rows):
            v = modes[k]
            bound = bound_of(v)
            if targets:
                _check_total(sum(rates), min(rates), bound, v)
                j = _pick(targets, rates, uniform(), bound)
                if j is not None:
                    new[k] = j
                    bound = bound_of(j)
            clocks[k] += _gap(rng, bound)
        return new

    def _coupled_round(self, modes: list, rows: list, clocks: list) -> tuple:
        """One basic-coupling proposal of each pair, in order, both chains
        in mode ``modes[k]``, on the layout merged once per mode: a uniform
        at every proposal, then the gap of the pair's new mode unless the
        chains part, which stops its clock.  Returns the new modes, the new
        reference modes and the (index, time) of the pairs that parted."""
        rng, uniform, new, hats, parted = self.rng, self.rng.random, [], [], []
        for k, (targets, rates) in enumerate(rows):
            v = modes[k]
            ref, bound = self._pair(v)
            merged = self._merged.get(v)
            if merged is None:
                merged = self._merged[v] = _merge(targets, ref)
            j, j_hat, lone = _couple_pick(merged, rates, uniform() * bound, bound, v)
            new.append(j)
            hats.append(j_hat)
            if lone:
                parted.append((k, clocks[k]))
                clocks[k] = math.inf
            else:
                clocks[k] += _gap(rng, self._pair(j)[1])
        return new, hats, parted

    def _update_modes_thinning(self):
        """Rounds of proposals until every clock passes the step's end: each
        round reads the rows of the paths whose clocks fall before it, one
        :meth:`rate_table` per mode, and writes the modes and clocks back once."""
        t1 = self.t + self.cfg.dt
        while self._first_ev < t1:  # the earliest clock, kept at every change
            active = (self._next_ev < t1).nonzero()[0]
            modes = self.modes[active].tolist()
            rows, clocks = self._round_rows(active, modes), self._next_ev[active].tolist()
            if self.qhat is None:
                new = self._single_round(modes, rows, clocks)
            else:
                new, hats, parted = self._coupled_round(modes, rows, clocks)
                if hats != modes:  # a coupled pair's two modes agree before its proposal
                    self.modes_hat[active] = hats
                for k, when in parted:
                    self.decouple_time[active[k]] = when
            self._next_ev[active] = clocks
            self.proposals += len(modes)
            if new != modes:
                self.modes[active] = new
                moved = [p for p, a, b in zip(active.tolist(), modes, new) if a != b]
                self.jumps += len(moved)
                if not all(self.blown[p] for p in moved):  # a blown path is not in the plan
                    self._invalidate()
            self._first_ev = self._next_ev.min(initial=math.inf)

    def step(self):
        """One grid step: advance states with current modes, then modes."""
        self._advance(1)

    def run(self, n_steps: int):
        """Run ``n_steps`` steps, a stretch of :meth:`_advance` at a time."""
        n_steps = _integer("n_steps", n_steps, 0)  # int() would floor 2.7
        while n_steps:
            n_steps -= self._advance(n_steps)
