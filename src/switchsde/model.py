"""Switching-diffusion model declarations and assumption checks.

A model couples an Ito diffusion dX = b(X, mode) dt + sigma(X, mode) dW to
a pure-jump mode process on {1, 2, ...} whose rates read the recent path
history through a :class:`~switchsde.segment.Segment`.  A linearization
pairs per-mode linear coefficient matrices with the limiting generator the
rates approach as the history window grows large; the certificate machinery
consumes only the linearization.

The ``check_*`` helpers probe the closeness assumptions numerically on user
supplied radii and modes, through one radius x direction x mode loop.
They report tables rather than proofs: PASS means the probed quantities
behave as the certificate of :mod:`switchsde.certify` requires.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .chain import SparseGenerator, _integer
from .segment import Segment

__all__ = [
    "ModelSpec",
    "Linearization",
    "RadialCheck",
    "residual_drift",
    "residual_diffusion",
    "check_sublinear_residuals",
    "check_rate_convergence",
]


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients and switching rates of one model.

    ``drift(x, i) -> (..., n)``, ``diffusion(x, i) -> (..., n, d)`` and
    ``post_step(x)`` (optional; it projects the state after each update,
    e.g. onto the nonnegative half-line for queueing models) take states
    ``x`` of shape (n,) or (P, n), the leading axis running over paths;
    ``post_step`` returns an array of the shape of ``x``.
    ``rates_row(seg, i) -> {j: rate}`` returns the nonnegative
    off-diagonal rates out of mode i given the history window, one
    :class:`~switchsde.segment.Segment` or a
    :class:`~switchsde.segment.SegmentBatch` of P windows; its keys depend
    on the mode only and each rate is a scalar or a (P,) array.
    ``rate_bound``, finite and positive, must dominate every total row
    rate.  ``mode_rate_bound(i)`` (optional) is a bound for the rows out of
    mode i alone, on every history, at most ``rate_bound``; thinning clocks
    run at it while the chain sits in mode i.  ``supports_batch=True`` is
    accepted for callers that still pass it, and not stored.
    ``shared_coefficients_from`` (optional) K promises drift(x, i) == drift(x, K)
    and diffusion(x, i) == diffusion(x, K) bit for bit for every i >= K; the
    batch engine then evaluates those modes in one call.  It is not checked.
    ``mode_arrays=True`` promises that ``drift`` and ``diffusion`` also take
    ``i`` as an int array with one mode per row of a (P, n) ``x`` and give
    each row the bits of the call with that row's int mode; the batch engine
    then evaluates an ensemble spread over several modes in one call each.
    The registry families whose coefficients come from per-mode tables set
    it; a model whose callbacks take an int mode only leaves it False.  It
    is not checked either.
    """

    dim: int
    brownian_dim: int
    drift: Callable
    diffusion: Callable
    rates_row: Callable
    rate_bound: float
    delay: float
    post_step: Optional[Callable] = None
    zero_diffusion: bool = False
    rates_depend_on_path: bool = True
    meta: dict = field(default_factory=dict)
    mode_rate_bound: Optional[Callable[[int], float]] = None
    shared_coefficients_from: Optional[int] = None
    mode_arrays: bool = False
    supports_batch: InitVar[bool] = True

    def __post_init__(self, supports_batch):
        if not supports_batch:
            raise ValueError("supports_batch must be True: every model takes batched states")
        if self.dim < 1 or self.brownian_dim < 1:
            raise ValueError("dim and brownian_dim must be >= 1")
        if not 0 < self.rate_bound < np.inf:  # NaN fails too
            raise ValueError(f"rate_bound must be finite and positive, got {self.rate_bound}")
        if not (np.isfinite(self.delay) and self.delay > 0):
            raise ValueError(f"delay must be finite and positive, got {self.delay}")
        if self.shared_coefficients_from is not None:
            _integer("shared_coefficients_from", self.shared_coefficients_from)

    def thinning_bound(self, i: int) -> float:
        """Rate of the thinning clock while the chain sits in mode i."""
        if self.mode_rate_bound is None:
            return self.rate_bound
        bound = self.mode_rate_bound(i)
        if not 0 <= bound < np.inf:
            raise ValueError(f"mode_rate_bound({i}) = {bound} must be finite and >= 0")
        if bound > self.rate_bound:  # rows above rate_bound would void dt * rate_bound < 0.5
            raise ValueError(f"mode_rate_bound({i}) = {bound} exceeds rate_bound = "
                             f"{self.rate_bound}")
        return bound


@dataclass(frozen=True)
class Linearization:
    """Per-mode linear coefficients plus the limiting rate generator.

    ``b_mat(i)`` is the (n, n) linear drift matrix, ``sigma_mats(i)`` the
    list of d linear noise matrices (column k of the diffusion is
    sigma_k(i) x plus a sublinear remainder), and ``qhat`` the generator
    the switching rates converge to on large histories.  ``coeff_bound``
    dominates the spectral norms of all these matrices.  ``repeats_from``
    (optional) K promises that ``b_mat(i)`` and ``sigma_mats(i)`` equal mode
    K's for every i >= K, as ``ModelSpec.shared_coefficients_from`` does for
    the drift and diffusion; certificates then build per-mode costs only up
    to K and the controllable modes.  It is not checked.
    """

    b_mat: Callable[[int], np.ndarray]
    sigma_mats: Callable[[int], list]
    qhat: SparseGenerator
    coeff_bound: float
    repeats_from: Optional[int] = None

    def __post_init__(self):
        if self.repeats_from is not None:
            _integer("repeats_from", self.repeats_from)


@dataclass(frozen=True)
class RadialCheck:
    """Probe table indexed by radius, with a monotone-decay verdict."""

    name: str
    radii: tuple
    values: tuple
    passed: bool
    tol: Optional[float] = None


def residual_drift(m: ModelSpec, lin: Linearization, x, i: int) -> np.ndarray:
    """Drift minus its linear part, b(x, i) - B(i) x."""
    x = np.asarray(x, dtype=float)
    return np.asarray(m.drift(x, i), dtype=float) - lin.b_mat(i) @ x


def residual_diffusion(m: ModelSpec, lin: Linearization, x, i: int) -> np.ndarray:
    """Diffusion minus its linear part, column k being sigma_k(i) x."""
    x = np.asarray(x, dtype=float)
    sig = np.asarray(m.diffusion(x, i), dtype=float)
    lin_part = np.column_stack([s @ x for s in lin.sigma_mats(i)])
    return sig - lin_part


def _radial_check(name: str, radii: list, dirs: list, modes, probe: Callable,
                  tol: Optional[float] = None) -> RadialCheck:
    """The table of ``name``: for each radius r the max from 0 over
    directions d (outer) and modes i (inner) of ``probe(r, r * d)(i)``.
    PASS if the maxima do not increase and, given ``tol``, the last is
    below it."""
    def values(r):
        for d in dirs:
            yield from map(probe(r, r * d), modes)
    table = [max([0.0, *values(r)]) for r in radii]
    passed = all(b <= a * (1.0 + 1e-9) + 1e-12 for a, b in zip(table, table[1:]))
    return RadialCheck(name=name, radii=tuple(radii), values=tuple(table),
                       passed=passed and (tol is None or table[-1] < tol), tol=tol)


def check_sublinear_residuals(
    m: ModelSpec,
    lin: Linearization,
    ray_dirs: Sequence,
    radii: Sequence[float],
    modes: Sequence[int],
    tol: float = 0.05,
) -> RadialCheck:
    """Residual-to-radius ratios along rays; PASS if they decay below tol.

    For each radius R the table records the max over directions and modes
    of (|b(x) - B x| v |sigma(x) - linear part|) / |x| at x = R * dir.
    """
    dirs = []
    for d in ray_dirs:
        d = np.atleast_1d(np.asarray(d, dtype=float))
        nrm = np.linalg.norm(d)
        if nrm == 0 or d.shape != (m.dim,):
            raise ValueError("ray directions must be nonzero vectors of model dim")
        dirs.append(d / nrm)
    radii = [float(r) for r in radii]
    if any(r <= 0 for r in radii) or len(radii) < 2:
        raise ValueError("need at least two positive radii")

    def ratio(r, x):
        return lambda i: max(np.linalg.norm(residual_drift(m, lin, x, i)),
                             np.linalg.norm(residual_diffusion(m, lin, x, i))) / r

    return _radial_check("sublinear_residuals", radii, dirs, modes, ratio, tol)


def check_rate_convergence(
    m: ModelSpec,
    lin: Linearization,
    radius: float,
    modes: Sequence[int],
) -> RadialCheck:
    """Row deviation from the limiting generator on large constant histories.

    Probes constant segments of norm R' on a four-rung doubling ladder
    starting at ``radius``, along the 2 * dim signed coordinate axes (topped
    up to four directions with seed-0 random ones); records the max l1 row
    deviation sum_j |q_ij - qhat_ij| over probed modes and directions.
    PASS if the deviations decrease.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(0)
    eye = np.eye(m.dim)
    dirs = [eye[k] for k in range(m.dim)] + [-eye[k] for k in range(m.dim)]
    for _ in range(max(4 - len(dirs), 0)):
        v = rng.standard_normal(m.dim)
        dirs.append(v / np.linalg.norm(v))
    dt = m.delay / 8.0
    radii = [radius * 2.0**k for k in range(4)]

    def deviation(r, x):
        seg = Segment.make_constant(x, m.delay, dt)

        def dev(i):
            row, ref = m.rates_row(seg, i), lin.qhat.row(i)
            return sum(abs(row.get(j, 0.0) - ref.get(j, 0.0)) for j in set(row) | set(ref))
        return dev

    return _radial_check("rate_convergence", radii, dirs, modes, deviation)
