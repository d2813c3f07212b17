"""Built-in model families.

Each family builder returns a (ModelSpec, Linearization) pair.  Per-mode
parameters accept either a scalar (constant over modes) or a sequence
(values for modes 1..len, last value repeated beyond), which keeps every
coefficient sequence bounded by construction.
"""

from __future__ import annotations

import numpy as np

from .chain import SparseGenerator
from .model import Linearization, ModelSpec

__all__ = ["registry_get", "REGISTRY_NAMES"]

REGISTRY_NAMES = (
    "fluid_queue",
    "predator_prey",
    "switched_ou",
    "linear_2d",
    "controlled_scalar",
)


def _per_mode(value, name: str):
    """Scalar or clamped sequence -> callable over modes 1, 2, ..."""
    if np.isscalar(value):
        v = float(value)
        return (lambda i: v), v, v
    vals = [float(v) for v in value]
    if not vals:
        raise ValueError(f"{name}: empty per-mode sequence")

    def at(i: int) -> float:
        return vals[min(i, len(vals)) - 1]

    return at, min(vals), max(vals)


def _ou_family_targets(i: int) -> tuple:
    """Mean-reverting family: every mode feeds the two base modes (or the
    other base mode) and climbs one rung, all at one common rate."""
    if i == 1:
        return (2, 3)
    if i == 2:
        return (1, 3)
    return (1, 2, i + 1)


def _ou_family_qhat() -> SparseGenerator:
    def row(i: int) -> dict:
        return dict.fromkeys(_ou_family_targets(i), 1.0)

    return SparseGenerator(row, rate_bound=3.0, name="switched_ou_limit")


def _ou_family_rates(params: dict):
    """Rates of the mean-reverting family, their per-mode bound and their
    bound: the limit rates times the history factor 1 + c(i) / (sup_norm + 1),
    which is at most 1 + c(i)."""
    c, c_min, c_max = _per_mode(params.get("c", 1.0), "c")
    if c_min < 0:
        raise ValueError("rate offsets c must be nonnegative")

    def rates_row(seg, i):
        return dict.fromkeys(_ou_family_targets(i), 1.0 + c(i) / (seg.sup_norm() + 1.0))

    def mode_rate_bound(i):
        return len(_ou_family_targets(i)) * (1.0 + c(i))

    return rates_row, mode_rate_bound, 3.0 * (1.0 + c_max)


def _ladder_qhat() -> SparseGenerator:
    """Limit rates of the saturating-ladder family: return to mode 1 or
    climb one rung."""

    def row(i: int) -> dict:
        if i == 1:
            return {2: 1.0}
        return {1: 1.0, i + 1: 1.0}

    return SparseGenerator(row, rate_bound=2.0, name="controlled_scalar_limit")


def _switched_ou(params: dict):
    theta, _, th_max = _per_mode(params.get("theta", 1.0), "theta")
    mu, _, mu_max = _per_mode(params.get("mu", 0.0), "mu")
    sigma, sg_min, sg_max = _per_mode(params.get("sigma", 0.5), "sigma")
    rates_row, mode_rate_bound, rate_bound = _ou_family_rates(params)
    delay = float(params.get("delay", 1.0))

    def drift(x, i):
        return theta(i) * (mu(i) - np.asarray(x, dtype=float))

    def diffusion(x, i):
        return np.array([[sigma(i)]])

    spec = ModelSpec(
        dim=1,
        brownian_dim=1,
        drift=drift,
        diffusion=diffusion,
        rates_row=rates_row,
        rate_bound=rate_bound,
        mode_rate_bound=mode_rate_bound,
        delay=delay,
        zero_diffusion=(sg_min == 0.0 == sg_max),
        supports_batch=True,
        rates_depend_on_path=True,
    )
    lin = Linearization(
        b_mat=lambda i: np.array([[-theta(i)]]),
        sigma_mats=lambda i: [np.zeros((1, 1))],
        qhat=_ou_family_qhat(),
        coeff_bound=max(abs(th_max), 1e-12),
    )
    return spec, lin


def _controlled_scalar(params: dict):
    a_lin, _, a_max = _per_mode(params.get("A", 1.0), "A")
    b_in, _, b_max = _per_mode(params.get("B", 1.0), "B")
    c_aff, _, c_aff_max = _per_mode(params.get("C", 0.0), "C")
    sigma, _, sg_max = _per_mode(params.get("sigma", 0.0), "sigma")
    gain, _, gain_max = _per_mode(params.get("L", 0.0), "L")
    c_rate, c_min, _ = _per_mode(params.get("c", 1.0), "c")
    controllable = frozenset(int(i) for i in params.get("controllable", (1,)))
    delay = float(params.get("delay", 1.0))
    if c_min <= 0:
        raise ValueError("rate constants c must be positive")
    if any(i < 1 for i in controllable):
        raise ValueError("controllable modes are indexed from 1")

    def input_gain(i: int) -> float:
        return b_in(i) if i in controllable else 0.0

    def closed_a(i: int) -> float:
        return a_lin(i) - input_gain(i) * gain(i)

    def drift(x, i):
        return c_aff(i) + closed_a(i) * np.asarray(x, dtype=float)

    def diffusion(x, i):
        x = np.asarray(x, dtype=float)
        out = np.ones(x.shape + (2,))
        out[..., 0] = sigma(i) * x
        return out

    def rates_row(seg, i):
        z = np.linalg.norm(seg.value_at(-seg.delay), axis=-1)
        if i == 1:
            return {2: z / (c_rate(1) + z)}
        r = z / (c_rate(i) + z)
        return {1: r, i + 1: r}

    spec = ModelSpec(
        dim=1,
        brownian_dim=2,
        drift=drift,
        diffusion=diffusion,
        rates_row=rates_row,
        rate_bound=2.0,
        mode_rate_bound=lambda i: 1.0 if i == 1 else 2.0,
        delay=delay,
        supports_batch=True,
        rates_depend_on_path=True,
        meta={
            "input_matrix": lambda i: np.array([[input_gain(i)]]),
            "controllable": controllable,
        },
    )
    lin = Linearization(
        b_mat=lambda i: np.array([[closed_a(i)]]),
        sigma_mats=lambda i: [np.array([[sigma(i)]]), np.zeros((1, 1))],
        qhat=_ladder_qhat(),
        coeff_bound=max(abs(a_max) + abs(b_max) * abs(gain_max), abs(sg_max), 1e-12),
    )
    return spec, lin


def _fluid_queue(params: dict):
    f, _, f_max = _per_mode(params.get("f", (1.0, -2.0)), "f")
    rates_row, mode_rate_bound, rate_bound = _ou_family_rates(params)
    delay = float(params.get("delay", 1.0))

    def drift(x, i):
        x = np.asarray(x, dtype=float)
        v = f(i)
        # net rate applies off the boundary; only inflow acts at zero
        return np.where(x > 0.0, v, max(v, 0.0))

    def diffusion(x, i):
        return np.zeros((1, 1))

    spec = ModelSpec(
        dim=1,
        brownian_dim=1,
        drift=drift,
        diffusion=diffusion,
        rates_row=rates_row,
        rate_bound=rate_bound,
        mode_rate_bound=mode_rate_bound,
        delay=delay,
        post_step=lambda x: np.maximum(x, 0.0),
        zero_diffusion=True,
        supports_batch=True,
        rates_depend_on_path=True,
    )
    lin = Linearization(
        b_mat=lambda i: np.zeros((1, 1)),
        sigma_mats=lambda i: [np.zeros((1, 1))],
        qhat=_ou_family_qhat(),
        coeff_bound=1e-12,
    )
    return spec, lin


def _predator_prey(params: dict):
    beta = float(params.get("beta", 1.0))
    delta = float(params.get("delta", 1.0))
    c_comp = float(params.get("c_comp", 0.1))
    b_feed = float(params.get("B", 1.0))
    d_death = float(params.get("D", 1.0))
    c_crowd = float(params.get("C", 1.0))
    rho = float(params.get("rho", 1.0))
    sigma = float(params.get("sigma", 0.1))
    delay = float(params.get("delay", 1.0))
    n_max = int(params.get("n_max", 50))
    phi_cap = float(params.get("phi_cap", 1e4))
    weights = tuple(
        (float(s), float(w)) for s, w in params.get("mu_weights", ((0.0, 1.0),))
    )
    if min(beta, delta, c_comp, b_feed) < 0 or n_max < 2:
        raise ValueError("predator_prey parameters must be nonnegative, n_max >= 2")

    def drift(x, i):
        x = np.asarray(x, dtype=float)
        return x * (rho * b_feed * min(i, n_max) - d_death - c_crowd * x)

    def diffusion(x, i):
        x = np.asarray(x, dtype=float)
        return sigma * x[..., None]

    def feed_level(seg):
        return np.minimum(np.maximum(seg.integrate_against(weights)[..., 0], 0.0), phi_cap)

    def rates_row(seg, n):
        row = {}
        if n < n_max:
            row[n + 1] = beta * n
        if n >= 2:
            row[n - 1] = n * (delta + c_comp * n + b_feed * feed_level(seg))
        return row

    bound = max(
        beta * n + (n * (delta + c_comp * n + b_feed * phi_cap) if n >= 2 else 0.0)
        for n in range(1, n_max + 1)
    )

    def limit_row(n: int) -> dict:
        row = {}
        if n < n_max:
            row[n + 1] = beta * n
        if n >= 2:
            row[n - 1] = n * (delta + c_comp * n + b_feed * phi_cap)
        return row

    # feed_level <= phi_cap, so each limit row dominates its rate row
    mode_bounds = [sum(limit_row(n).values()) for n in range(1, n_max + 1)]

    spec = ModelSpec(
        dim=1,
        brownian_dim=1,
        drift=drift,
        diffusion=diffusion,
        rates_row=rates_row,
        rate_bound=bound,
        mode_rate_bound=lambda n: mode_bounds[n - 1],
        delay=delay,
        n_modes=n_max,
        post_step=lambda x: np.maximum(x, 0.0),
        supports_batch=True,
        rates_depend_on_path=True,
    )
    lin = Linearization(
        b_mat=lambda i: np.array([[rho * b_feed * min(i, n_max) - d_death]]),
        sigma_mats=lambda i: [np.array([[sigma]])],
        qhat=SparseGenerator(
            limit_row, rate_bound=bound, name="predator_prey_capped", n_modes=n_max
        ),
        coeff_bound=rho * b_feed * n_max + d_death + abs(sigma),
    )
    return spec, lin


def _linear_2d(params: dict):
    b_param = params.get("B", ((-1.0, 0.0), (0.0, -1.0)))
    a_param = params.get("A", (1.0, 1.0))
    c1, _, c1_max = _per_mode(params.get("c1", 1.0), "c1")
    c2, _, c2_max = _per_mode(params.get("c2", 1.0), "c2")
    delay = float(params.get("delay", 1.0))
    qhat_family = params.get("qhat", "switched_ou")

    b_arr = np.asarray(b_param, dtype=float)
    if b_arr.ndim == 2:
        b_mats = [b_arr]
    elif b_arr.ndim == 3:
        b_mats = [b_arr[k] for k in range(b_arr.shape[0])]
    else:
        raise ValueError("B must be a 2x2 matrix or a list of 2x2 matrices")
    if any(mb.shape != (2, 2) for mb in b_mats):
        raise ValueError("B matrices must be 2x2")

    a_arr = np.asarray(a_param, dtype=float)
    if a_arr.ndim == 1:
        a_vecs = [a_arr]
    elif a_arr.ndim == 2:
        a_vecs = [a_arr[k] for k in range(a_arr.shape[0])]
    else:
        raise ValueError("A must be a 2-vector or a list of 2-vectors")
    if any(av.shape != (2,) for av in a_vecs):
        raise ValueError("A vectors must have length 2")

    def b_of(i: int) -> np.ndarray:
        return b_mats[min(i, len(b_mats)) - 1]

    def a_of(i: int) -> np.ndarray:
        return a_vecs[min(i, len(a_vecs)) - 1]

    if qhat_family == "switched_ou":
        qhat = _ou_family_qhat()
    elif qhat_family == "controlled_scalar":
        qhat = _ladder_qhat()
    elif isinstance(qhat_family, (list, tuple)):
        qhat = SparseGenerator.from_triplets(qhat_family, name="linear_2d_custom")
    else:
        raise ValueError(f"unknown qhat family {qhat_family!r}")

    def drift(x, i):
        x = np.asarray(x, dtype=float)
        nrm = np.linalg.norm(x, axis=-1, keepdims=True)
        return x @ b_of(i).T + a_of(i) / (1.0 + nrm)

    def gate(x):
        s = np.abs(x[..., 0]) + np.abs(x[..., 1])
        return s / (2.0 + s)

    def diffusion(x, i):
        x = np.asarray(x, dtype=float)
        g = gate(x)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = c1(i) * x[..., 0] * g
        out[..., 1, 1] = c2(i) * x[..., 1] * g
        return out

    def rates_row(seg, i):
        return qhat.row(i)

    spec = ModelSpec(
        dim=2,
        brownian_dim=2,
        drift=drift,
        diffusion=diffusion,
        rates_row=rates_row,
        rate_bound=qhat.rate_bound,
        mode_rate_bound=lambda i: sum(qhat.row(i).values()),
        delay=delay,
        supports_batch=True,
        rates_depend_on_path=False,
    )
    coeff = max(
        max(np.linalg.norm(mb, 2) for mb in b_mats),
        abs(c1_max),
        abs(c2_max),
        1e-12,
    )
    lin = Linearization(
        b_mat=b_of,
        sigma_mats=lambda i: [
            np.diag([c1(i), 0.0]),
            np.diag([0.0, c2(i)]),
        ],
        qhat=qhat,
        coeff_bound=coeff,
    )
    return spec, lin


_BUILDERS = {
    "switched_ou": _switched_ou,
    "controlled_scalar": _controlled_scalar,
    "fluid_queue": _fluid_queue,
    "predator_prey": _predator_prey,
    "linear_2d": _linear_2d,
}


def registry_get(name: str, params: dict | None = None):
    """Look up a built-in family; returns (ModelSpec, Linearization)."""
    if name not in _BUILDERS:
        raise ValueError(
            f"unknown model {name!r}; available: {', '.join(sorted(_BUILDERS))}"
        )
    return _BUILDERS[name](dict(params or {}))
