"""Switching-diffusion model declarations and assumption checks.

A model couples an Ito diffusion dX = b(X, mode) dt + sigma(X, mode) dW to
a pure-jump mode process on {1, 2, ...} whose rates read the recent path
history through a :class:`~switchsde.segment.Segment`.  A linearization
pairs per-mode linear coefficient matrices with the limiting generator the
rates approach as the history window grows large; the certificate machinery
consumes only the linearization.

The ``check_*`` helpers probe the closeness assumptions numerically on user
supplied radii and modes.  They report tables rather than proofs: PASS
means the probed quantities behave as the certificate requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .chain import SparseGenerator
from .segment import Segment

__all__ = [
    "ModelSpec",
    "Linearization",
    "RadialCheck",
    "residual_drift",
    "residual_diffusion",
    "check_sublinear_residuals",
    "check_rate_convergence",
    "check_drift_condition",
    "check_local_lipschitz",
]


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients and switching rates of one model.

    ``drift(x, i) -> (n,)`` and ``diffusion(x, i) -> (n, d)`` are evaluated
    pointwise.  ``rates_row(seg, i) -> {j: rate}`` returns the off-diagonal
    rates out of mode i given the history window; ``rate_bound`` must
    dominate every total row rate.  ``supports_batch`` declares that drift
    and diffusion accept a leading path axis on ``x``, and that
    ``rates_row`` accepts a :class:`~switchsde.segment.SegmentBatch` of P
    windows, with keys that depend on the mode only and each rate a scalar
    or a (P,) array.  It only saves time: the batch engine then makes one
    call per mode group instead of one per path.  ``mode_rate_bound(i)`` (optional) is a bound for the
    rows out of mode i alone, on every history, at most ``rate_bound``;
    thinning clocks run at it while the chain sits in mode i.
    ``post_step`` (optional) projects the state after each update, e.g.
    onto the nonnegative half-line for queueing models.
    ``shared_coefficients_from`` (optional) K promises drift(x, i) == drift(x, K)
    and diffusion(x, i) == diffusion(x, K) bit for bit for every i >= K; the
    batch engine then evaluates those modes in one call.  It is not checked.
    """

    dim: int
    brownian_dim: int
    drift: Callable
    diffusion: Callable
    rates_row: Callable
    rate_bound: float
    delay: float
    n_modes: Optional[int] = None
    post_step: Optional[Callable] = None
    zero_diffusion: bool = False
    supports_batch: bool = False
    rates_depend_on_path: bool = True
    asserts_irreducible: bool = True
    meta: dict = field(default_factory=dict)
    mode_rate_bound: Optional[Callable[[int], float]] = None
    shared_coefficients_from: Optional[int] = None

    def __post_init__(self):
        if self.dim < 1 or self.brownian_dim < 1:
            raise ValueError("dim and brownian_dim must be >= 1")
        if self.rate_bound <= 0:
            raise ValueError("rate_bound must be positive")
        if self.delay <= 0:
            raise ValueError("delay must be positive")
        k = self.shared_coefficients_from
        if k is not None and not 1 <= k <= (self.n_modes or k):
            raise ValueError("shared_coefficients_from must be a mode in 1..n_modes")

    def thinning_bound(self, i: int) -> float:
        """Rate of the thinning clock while the chain sits in mode i."""
        if self.mode_rate_bound is None:
            return self.rate_bound
        return self.mode_rate_bound(i)


@dataclass(frozen=True)
class Linearization:
    """Per-mode linear coefficients plus the limiting rate generator.

    ``b_mat(i)`` is the (n, n) linear drift matrix, ``sigma_mats(i)`` the
    list of d linear noise matrices (column k of the diffusion is
    sigma_k(i) x plus a sublinear remainder), and ``qhat`` the generator
    the switching rates converge to on large histories.  ``coeff_bound``
    dominates the spectral norms of all these matrices.
    """

    b_mat: Callable[[int], np.ndarray]
    sigma_mats: Callable[[int], list]
    qhat: SparseGenerator
    coeff_bound: float


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


def _nonincreasing(values, slack: float = 1e-12) -> bool:
    return all(b <= a * (1.0 + 1e-9) + slack for a, b in zip(values, values[1:]))


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
    ratios = []
    for r in radii:
        worst = 0.0
        for d in dirs:
            x = r * d
            for i in modes:
                rb = np.linalg.norm(residual_drift(m, lin, x, i))
                rs = np.linalg.norm(residual_diffusion(m, lin, x, i))
                worst = max(worst, max(rb, rs) / r)
        ratios.append(worst)
    passed = _nonincreasing(ratios) and ratios[-1] < tol
    return RadialCheck(
        name="sublinear_residuals",
        radii=tuple(radii),
        values=tuple(ratios),
        passed=passed,
        tol=tol,
    )


def check_rate_convergence(
    m: ModelSpec,
    lin: Linearization,
    radius: float,
    modes: Sequence[int],
    n_probe: int = 4,
    n_radii: int = 4,
    seed: int = 0,
) -> RadialCheck:
    """Row deviation from the limiting generator on large constant histories.

    Probes constant segments of norm R' on a doubling ladder starting at
    ``radius``; records the max l1 row deviation sum_j |q_ij - qhat_ij|
    over probed modes and directions.  PASS if the deviations decrease.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    eye = np.eye(m.dim)
    dirs = [eye[k] for k in range(m.dim)] + [-eye[k] for k in range(m.dim)]
    for _ in range(max(int(n_probe) - len(dirs), 0)):
        v = rng.standard_normal(m.dim)
        dirs.append(v / np.linalg.norm(v))
    dt = m.delay / 8.0
    radii = [radius * 2.0**k for k in range(n_radii)]
    devs = []
    for r in radii:
        worst = 0.0
        for d in dirs:
            seg = Segment.make_constant(r * d, m.delay, dt)
            for i in modes:
                row = m.rates_row(seg, i)
                ref = lin.qhat.row(i)
                targets = set(row) | set(ref)
                dev = sum(abs(row.get(j, 0.0) - ref.get(j, 0.0)) for j in targets)
                worst = max(worst, dev)
        devs.append(worst)
    return RadialCheck(
        name="rate_convergence",
        radii=tuple(radii),
        values=tuple(devs),
        passed=_nonincreasing(devs),
    )


def check_drift_condition(
    q,
    k0: int,
    eta,
    probe_modes: Sequence[int],
    probe_segments: Optional[Sequence[Segment]] = None,
) -> bool:
    """Mode-descent drift condition above level k0.

    With eta_j >= 0 for j > k0 (and eta_j = 0 for j <= k0), checks
    sum_{j > k0} q_ij eta_j <= -1 for every probed i > k0, including the
    implied diagonal term q_ii eta_i.  ``q`` is either a
    :class:`SparseGenerator` (rows constant) or a :class:`ModelSpec`
    (rows evaluated on the probe segments).
    """
    if callable(eta):
        eta_fn = eta
    else:
        table = dict(eta)
        eta_fn = lambda j: float(table.get(j, 0.0))

    def eta_at(j: int) -> float:
        if j <= k0:
            return 0.0
        v = float(eta_fn(j))
        if not np.isfinite(v) or v < 0:
            raise ValueError(f"eta({j}) = {v} must be finite and nonnegative")
        return v

    if isinstance(q, ModelSpec):
        if not probe_segments:
            raise ValueError("probe segments required for a path-dependent model")
        rows = [(i, q.rates_row(seg, i)) for seg in probe_segments for i in probe_modes]
    else:
        rows = [(i, q.row(i)) for i in probe_modes]

    for i, row in rows:
        if i <= k0:
            continue
        total = sum(row.values())
        s = -total * eta_at(i)  # diagonal term
        for j, rate in row.items():
            if j > k0:
                s += rate * eta_at(j)
        if s > -1.0 + 1e-12:
            return False
    return True


def check_local_lipschitz(
    m: ModelSpec,
    radius: float,
    modes: Sequence[int],
    n_pairs: int = 200,
    seed: int = 0,
) -> float:
    """Max finite-difference quotient of (drift, diffusion) on a ball.

    A smoke check for local regularity: returns the largest
    |f(x) - f(y)| / |x - y| over random pairs with |x|, |y| <= radius.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        x = rng.uniform(-1, 1, size=m.dim) * radius
        y = x + rng.uniform(-1, 1, size=m.dim) * 1e-3 * radius
        gap = np.linalg.norm(x - y)
        if gap == 0:
            continue
        for i in modes:
            db = np.linalg.norm(
                np.asarray(m.drift(x, i), float) - np.asarray(m.drift(y, i), float)
            )
            ds = np.linalg.norm(
                np.asarray(m.diffusion(x, i), float) - np.asarray(m.diffusion(y, i), float)
            )
            worst = max(worst, db / gap, ds / gap)
    return worst
