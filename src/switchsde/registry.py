"""Built-in model families.

Each family builder returns a (ModelSpec, Linearization) pair.  Per-mode
parameters accept either a scalar (constant over modes) or a sequence
(values for modes 1..len, last value repeated beyond), which keeps every
coefficient sequence bounded by construction and lets the modes from the
longest length on share one drift and diffusion (``shared_coefficients_from``).
Each ``coeff_bound`` is derived, not declared: the largest spectral norm of
the linear drift and noise matrices up to the mode from which they repeat.
The repeat points are derived the same way: ``Linearization.repeats_from``
is the first mode from which those matrices equal the last listed mode's,
and the two unbounded limit generators declare the mode from which their
rows are shift-invariant (``SparseGenerator.repeats_from``).
Every per-mode value also reads a table over an int array of modes, built
from the same scalar formula (:func:`_modewise`), so that switched_ou,
controlled_scalar, fluid_queue and predator_prey declare ``mode_arrays``;
linear_2d does not, as a per-row product with per-mode matrices may not
round as its shared ``x @ B.T`` does.
"""

from __future__ import annotations

import numpy as np

from .chain import SparseGenerator, _integer
from .model import Linearization, ModelSpec

__all__ = ["registry_get", "REGISTRY_NAMES"]

REGISTRY_NAMES = (
    "fluid_queue",
    "predator_prey",
    "switched_ou",
    "linear_2d",
    "controlled_scalar",
)


# element rank -> how to name one element, and what a wrongly shaped one breaks
_ELEMENTS = {
    0: ("a number", ""),
    1: ("a {}-vector", "vectors must have length {}"),
    2: ("a {}x{} matrix", "matrices must be {}x{}"),
}


def _per_mode(value, name: str, shape: tuple = ()):
    """One value or a sequence of values for modes 1..len (the last repeated
    beyond), each a number or an array of ``shape`` -> (callable over modes
    1, 2, ..., the (len, *shape) array of values read)."""
    vals = np.asarray(value, dtype=float)
    if vals.ndim == len(shape):
        vals = vals[None]
    one, wrong = _ELEMENTS[len(shape)]
    if vals.ndim != len(shape) + 1:
        raise ValueError(f"{name} must be {one.format(*shape)} or a list of them")
    if vals.shape[1:] != shape:
        raise ValueError(f"{name} {wrong.format(*shape)}")
    if not len(vals):
        raise ValueError(f"{name}: empty per-mode sequence")
    seq = list(vals) if shape else vals.tolist()
    n, last = len(seq), seq[-1]
    return _modewise(lambda i: seq[i - 1] if i < n else last, n), vals


def _modewise(fn, top: int):
    """``fn`` over modes 1, 2, ..., which repeats fn(top) from mode top on,
    read off values of fn(1), ..., fn(top) made here: an int mode gets its
    value, and an int array of modes one row per mode from a table of them,
    a number as a (P, 1) column so that every value broadcasts over (P, n)
    states row by row.  Both give the bits of ``fn``."""
    rows = [fn(max(i, 1)) for i in range(top + 1)]  # row i: mode i (row 0 is never read)
    table = np.array(rows, dtype=float)
    table = table[:, None] if table.ndim == 1 else table

    def of(i):  # clipping reads mode top for every mode beyond it
        if isinstance(i, np.ndarray):
            return table.take(i, axis=0, mode="clip")
        return rows[i] if i < top else rows[top]

    return of


def _linearization(b_mat, sigma_mats, qhat: SparseGenerator, top: int) -> Linearization:
    """Linearization whose ``coeff_bound`` is the largest spectral norm of the
    drift and noise matrices of modes 1..top, from which on they repeat, and
    whose ``repeats_from`` is the first mode whose matrices are mode top's
    bit for bit, as are those of every mode between."""
    mats = np.array([(b_mat(i), *sigma_mats(i)) for i in range(1, top + 1)], dtype=float)
    bound = np.linalg.norm(mats.reshape(-1, *mats.shape[2:]), 2, axis=(1, 2)).max()
    k, last = top, mats[-1].tobytes()
    while k > 1 and mats[k - 2].tobytes() == last:
        k -= 1
    return Linearization(b_mat, sigma_mats, qhat, coeff_bound=float(bound), repeats_from=k)


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

    return SparseGenerator(row, rate_bound=3.0, name="switched_ou_limit", repeats_from=3)


def _ou_family_rates(params: dict):
    """Rates of the mean-reverting family, their per-mode bound and their
    bound: the limit rates times the history factor 1 + c(i) / (sup_norm + 1),
    which is at most 1 + c(i)."""
    c, cs = _per_mode(params.get("c", 1.0), "c")
    if cs.min() < 0:
        raise ValueError("rate offsets c must be nonnegative")

    def rates_row(seg, i):
        return dict.fromkeys(_ou_family_targets(i), 1.0 + c(i) / (seg.sup_norm() + 1.0))

    def mode_rate_bound(i):
        return len(_ou_family_targets(i)) * (1.0 + c(i))

    return rates_row, mode_rate_bound, 3.0 * (1.0 + float(cs.max()))


def _ladder_targets(i: int) -> tuple:
    """Saturating-ladder family: return to mode 1 or climb one rung."""
    return (2,) if i == 1 else (1, i + 1)


def _ladder_qhat() -> SparseGenerator:
    def row(i: int) -> dict:
        return dict.fromkeys(_ladder_targets(i), 1.0)

    return SparseGenerator(row, rate_bound=2.0, name="controlled_scalar_limit", repeats_from=2)


def _switched_ou(params: dict):
    theta, thetas = _per_mode(params.get("theta", 1.0), "theta")
    mu, mus = _per_mode(params.get("mu", 0.0), "mu")
    sigma, sigmas = _per_mode(params.get("sigma", 0.5), "sigma")
    rates_row, mode_rate_bound, rate_bound = _ou_family_rates(params)
    delay = float(params.get("delay", 1.0))
    top = max(len(thetas), len(mus), len(sigmas))

    def drift(x, i):
        return theta(i) * (mu(i) - np.asarray(x, dtype=float))

    noise = _modewise(lambda i: np.array([[sigma(i)]]), len(sigmas))

    spec = ModelSpec(
        dim=1,
        brownian_dim=1,
        drift=drift,
        diffusion=lambda x, i: noise(i),
        rates_row=rates_row,
        rate_bound=rate_bound,
        mode_rate_bound=mode_rate_bound,
        delay=delay,
        zero_diffusion=not sigmas.any(),
        shared_coefficients_from=top,
        mode_arrays=True,
    )
    lin = _linearization(
        lambda i: np.array([[-theta(i)]]), lambda i: [np.zeros((1, 1))], _ou_family_qhat(), top
    )
    return spec, lin


def _controlled_scalar(params: dict):
    a_lin, a_vals = _per_mode(params.get("A", 1.0), "A")
    b_in, b_vals = _per_mode(params.get("B", 1.0), "B")
    c_aff, c_affs = _per_mode(params.get("C", 0.0), "C")
    sigma, sigmas = _per_mode(params.get("sigma", 0.0), "sigma")
    gain, gains = _per_mode(params.get("L", 0.0), "L")
    c_rate, c_rates = _per_mode(params.get("c", 1.0), "c")
    controllable = frozenset(_integer("controllable mode", i)  # int() would floor 1.5
                             for i in params.get("controllable", (1,)))
    delay = float(params.get("delay", 1.0))
    if c_rates.min() <= 0:
        raise ValueError("rate constants c must be positive")
    # B and L act on the controllable modes only
    top = max(len(a_vals), len(c_affs), len(sigmas), max(controllable, default=0) + 1)

    def input_gain(i: int) -> float:
        return b_in(i) if i in controllable else 0.0

    # A, B, L and the controllable set all repeat from here on
    closed_a = _modewise(lambda i: a_lin(i) - input_gain(i) * gain(i),
                         max(top, len(b_vals), len(gains)))

    def drift(x, i):
        return c_aff(i) + closed_a(i) * np.asarray(x, dtype=float)

    def diffusion(x, i):
        x = np.asarray(x, dtype=float)
        out = np.ones(x.shape + (2,))
        out[..., 0] = sigma(i) * x
        return out

    def rates_row(seg, i):
        z = np.abs(seg.value_at(-seg.delay)[..., 0])  # sqrt(z * z) overflows past 1.3e154
        return dict.fromkeys(_ladder_targets(i), z / (c_rate(i) + z))

    spec = ModelSpec(
        dim=1,
        brownian_dim=2,
        drift=drift,
        diffusion=diffusion,
        rates_row=rates_row,
        rate_bound=2.0,
        mode_rate_bound=lambda i: float(len(_ladder_targets(i))),
        delay=delay,
        shared_coefficients_from=top,
        mode_arrays=True,
        meta={
            "input_matrix": lambda i: np.array([[input_gain(i)]]),
            "controllable": controllable,
        },
    )
    lin = _linearization(lambda i: np.array([[closed_a(i)]]),
                         lambda i: [np.array([[sigma(i)]]), np.zeros((1, 1))], _ladder_qhat(), top)
    return spec, lin


def _fluid_queue(params: dict):
    f, fs = _per_mode(params.get("f", (1.0, -2.0)), "f")
    rates_row, mode_rate_bound, rate_bound = _ou_family_rates(params)
    delay = float(params.get("delay", 1.0))

    inflow = _modewise(lambda i: max(f(i), 0.0), len(fs))

    def drift(x, i):
        x = np.asarray(x, dtype=float)
        # net rate applies off the boundary; only inflow acts at zero
        return np.where(x > 0.0, f(i), inflow(i))

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
        shared_coefficients_from=len(fs),
        mode_arrays=True,
    )
    lin = _linearization(
        lambda i: np.zeros((1, 1)), lambda i: [np.zeros((1, 1))], _ou_family_qhat(), len(fs)
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
    n_max = _integer("n_max", params.get("n_max", 50))
    phi_cap = float(params.get("phi_cap", 1e4))
    weights = tuple(
        (float(s), float(w)) for s, w in params.get("mu_weights", ((0.0, 1.0),))
    )
    if min(beta, delta, c_comp, b_feed) < 0 or n_max < 2:
        raise ValueError("predator_prey parameters must be nonnegative, n_max >= 2")

    growth = _modewise(lambda i: rho * b_feed * min(i, n_max) - d_death, n_max)

    def drift(x, i):
        x = np.asarray(x, dtype=float)
        return x * (growth(i) - c_crowd * x)

    def diffusion(x, i):
        x = np.asarray(x, dtype=float)
        return sigma * x[..., None]

    def feed_level(seg):
        return np.minimum(np.maximum(seg.integrate_against(weights)[..., 0], 0.0), phi_cap)

    def row(n, feed) -> dict:
        out = {}
        if n < n_max:
            out[n + 1] = beta * n
        if n >= 2:
            out[n - 1] = n * (delta + c_comp * n + b_feed * feed)
        return out

    # feed_level <= phi_cap, so each limit row dominates its rate row
    mode_bounds = [sum(row(n, phi_cap).values()) for n in range(1, n_max + 1)]

    def mode_bound(n: int) -> float:
        if not 1 <= n <= n_max:
            raise ValueError(f"mode {n} is outside the mode space 1..{n_max}")
        return mode_bounds[n - 1]

    qhat = SparseGenerator(lambda n: row(n, phi_cap), rate_bound=max(mode_bounds),
                           name="predator_prey_capped", n_modes=n_max)
    spec = ModelSpec(
        dim=1,
        brownian_dim=1,
        drift=drift,
        diffusion=diffusion,
        rates_row=lambda seg, n: row(n, feed_level(seg)),
        rate_bound=qhat.rate_bound,
        mode_rate_bound=mode_bound,
        delay=delay,
        post_step=lambda x: np.maximum(x, 0.0),
        mode_arrays=True,
    )
    lin = _linearization(lambda i: np.array([[growth(i)]]),
                         lambda i: [np.array([[sigma]])], qhat, n_max)
    return spec, lin


def _linear_2d(params: dict):
    b_of, b_mats = _per_mode(params.get("B", ((-1.0, 0.0), (0.0, -1.0))), "B", (2, 2))
    a_of, a_vecs = _per_mode(params.get("A", (1.0, 1.0)), "A", (2,))
    c1, c1s = _per_mode(params.get("c1", 1.0), "c1")
    c2, c2s = _per_mode(params.get("c2", 1.0), "c2")
    delay = float(params.get("delay", 1.0))
    qhat_family = params.get("qhat", "switched_ou")
    top = max(len(b_mats), len(a_vecs), len(c1s), len(c2s))

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
        nrm = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))  # as np.linalg.norm
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
        rates_depend_on_path=False,
        shared_coefficients_from=top,
    )
    lin = _linearization(b_of, lambda i: [np.diag([c1(i), 0.0]), np.diag([0.0, c2(i)])], qhat, top)
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
