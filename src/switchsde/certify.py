"""Recurrence and stabilizability certificates from linearization data.

The criterion weighs a per-mode spectral cost against the stationary law
of the limiting rate generator: if the weighted sum is strictly negative
after adding a bound for the mass truncated away and ``rounding_bound``,
the floating-point error bound of the weighted sum, the model is certified
positively recurrent.  N is capped at a finite mode count, where the tail
mass is exactly 0; otherwise it is either supplied by the caller or, by
default, extrapolated from the geometric decay of the stationary head;
the extrapolation is a heuristic, not a proof.  The stabilization variant
first closes the loop on the controllable modes with linear state feedback
u = -L(i) x.

Two printed forms of the stabilization cost are kept side by side and
selected with ``form``: ``thm37`` substitutes the closed-loop drift into
the recurrence cost, while ``thm41`` uses the alternate weighting
2 * Lambda_b + sum_j (Lambda_{a_j} - rho_j^2) with per-column noise
normal matrices a_j = sigma_j^T sigma_j.  The two differ by printed
constants; both are reported rather than reconciled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .chain import StationaryDist, TruncatedGenerator, stationary, truncate
from .model import Linearization

__all__ = [
    "Certificate",
    "GainPlan",
    "per_mode_cost",
    "certify_recurrence",
    "certify_stabilization",
    "search_gain",
    "estimate_tail_mass",
]

_FORMS = ("thm37", "thm41")

CERTIFIED = "CERTIFIED"
INCONCLUSIVE = "INCONCLUSIVE"

_UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class GainPlan:
    """Feedback gains on the controllable mode set.

    ``input_mats(i)`` returns the (n, m) input matrix B(i); ``gains`` maps
    controllable modes to (m, n) gain matrices L(i).  Modes outside the
    controllable set carry zero gain by construction; supplying a gain for
    one is an error.
    """

    controllable: frozenset
    gains: dict = field(default_factory=dict)
    input_mats: Optional[Callable[[int], np.ndarray]] = None

    def __post_init__(self):
        bad = [i for i in self.gains if i not in self.controllable]
        if bad:
            raise ValueError(f"gain supplied on uncontrolled modes {sorted(bad)}")

    def gain(self, i: int) -> Optional[np.ndarray]:
        if i not in self.controllable:
            return None
        return self.gains.get(i)


@dataclass
class Certificate:
    """Outcome of one certification run.

    ``partial_sum`` is the stationary-weighted cost over the first N
    modes, ``tail_bound`` the worst-case contribution of the remaining
    mass, ``rounding_bound`` the floating-point error bound
    gamma_N * sum_i |nu_i c_i| of the partial sum (gamma_N = N u / (1 - N u),
    u = 2^-53), and the verdict is CERTIFIED only when their total clears
    the margin and every assumption flag holds.
    """

    claim: str
    form: str
    per_mode_c: np.ndarray
    nu: StationaryDist
    partial_sum: float
    tail_bound: float
    rounding_bound: float
    tail_mass: float
    tail_mass_source: str
    margin_frac: float
    assumption_flags: dict
    verdict: str

    @property
    def total(self) -> float:
        return self.partial_sum + self.tail_bound + self.rounding_bound

    def to_dict(self, head: int = 12) -> dict:
        return {
            "claim": self.claim,
            "form": self.form,
            "per_mode_c": [float(v) for v in self.per_mode_c[:head]],
            "nu_head": [float(v) for v in self.nu.nu[:head]],
            "truncation": int(self.nu.truncation),
            "stationary_residual": float(self.nu.residual),
            "partial_sum": float(self.partial_sum),
            "tail_bound": float(self.tail_bound),
            "rounding_bound": float(self.rounding_bound),
            "tail_mass": float(self.tail_mass),
            "tail_mass_source": self.tail_mass_source,
            "margin_frac": float(self.margin_frac),
            "total": float(self.total),
            "assumptions": {k: bool(v) for k, v in sorted(self.assumption_flags.items())},
            "verdict": self.verdict,
        }


def _effective_drift(lin: Linearization, i: int, plan: Optional[GainPlan]) -> np.ndarray:
    b = np.asarray(lin.b_mat(i), dtype=float)
    if plan is not None and i in plan.controllable:
        gain = plan.gain(i)
        if gain is not None and plan.input_mats is not None:
            b = b - np.asarray(plan.input_mats(i), dtype=float) @ np.asarray(gain, dtype=float)
    return b


def _stacks(lin: Linearization, modes, plan: Optional[GainPlan]):
    """Effective drifts (N, n, n) and noise matrices (N, d, n, n) of ``modes``."""
    b = np.array([_effective_drift(lin, i, plan) for i in modes])
    sig = np.array([lin.sigma_mats(i) for i in modes], dtype=float)
    return _checked(b, sig)


def _checked(b: np.ndarray, sig: np.ndarray):
    if b.ndim != 3 or b.shape[1] != b.shape[2]:
        raise ValueError(f"expected square drift matrices, got stack shape {b.shape}")
    if sig.ndim != 4 or sig.shape[1] == 0 or sig.shape[2:] != b.shape[1:]:
        raise ValueError(
            f"each mode needs at least one noise matrix of the drift's shape; "
            f"got stack shape {sig.shape}"
        )
    if not (np.isfinite(b).all() and np.isfinite(sig).all()):
        raise ValueError("matrix entries must be finite")
    return b, sig


def _sym_eigs(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric parts of a stack of matrices."""
    return np.linalg.eigvalsh(0.5 * (mats + np.swapaxes(mats, -1, -2)))


def _costs(b: np.ndarray, sig: np.ndarray, form: str) -> np.ndarray:
    """Per-mode spectral costs from the stacks built by ``_stacks``.

    rho is the minimal |x^T s x| over the unit sphere: 0 when the symmetric
    part of s is indefinite, else its smallest absolute eigenvalue.
    """
    if form not in _FORMS:
        raise ValueError(f"form must be one of {_FORMS}")
    drift = _sym_eigs(b)[:, -1]
    eigs = _sym_eigs(sig)
    lo, hi = eigs[..., 0], eigs[..., -1]
    rho2 = np.where((lo < 0.0) & (hi > 0.0), 0.0, np.minimum(lo * lo, hi * hi))
    gram = np.swapaxes(sig, -1, -2) @ sig  # sigma_j^T sigma_j
    if form == "thm37":
        return drift + 0.5 * _sym_eigs(gram.sum(axis=1))[:, -1] - rho2.sum(axis=1)
    return 2.0 * drift + (_sym_eigs(gram)[..., -1] - rho2).sum(axis=1)


def _probe_norm(b: np.ndarray, sig: np.ndarray) -> float:
    """Largest spectral norm over the stacked drifts and noise matrices."""
    n = b.shape[1]
    mats = np.concatenate([b, sig.reshape(-1, n, n)])
    return float(np.linalg.norm(mats, 2, axis=(1, 2)).max())


def per_mode_cost(
    lin: Linearization,
    i: int,
    form: str = "thm37",
    plan: Optional[GainPlan] = None,
) -> float:
    """Spectral cost of mode i (negative is stabilizing)."""
    return float(_costs(*_stacks(lin, [i], plan), form)[0])


def estimate_tail_mass(nu: np.ndarray) -> float:
    """Geometric extrapolation of the stationary mass beyond the truncation.

    Fits the decay ratio on interior entries (the lumped boundary entry
    absorbs the tail and is excluded) and sums the implied geometric tail.
    Raises when the head shows no usable geometric decay.
    """
    nu = np.asarray(nu, dtype=float)
    if nu.size < 8:
        raise ValueError("need at least 8 stationary entries to extrapolate")
    interior = nu[-8:-2]
    if (interior <= 0).any():
        raise ValueError("stationary head contains zeros; supply tail_mass_bound")
    ratios = interior[1:] / interior[:-1]
    r = float(np.exp(np.mean(np.log(ratios))))
    if not (0.0 < r < 0.95):
        raise ValueError(
            f"no geometric decay in the stationary head (ratio {r:.3f}); "
            "supply tail_mass_bound"
        )
    # true mass at the boundary mode is roughly interior[-1] * r; sum the tail
    return float(interior[-1] * r * r / (1.0 - r))


def _certify(
    lin: Linearization,
    n_modes: int,
    claim: str,
    form: str,
    plan: Optional[GainPlan],
    tail_mass_bound: Optional[float],
    margin_frac: float,
    extra_flags: Optional[dict],
    law: Optional[tuple[TruncatedGenerator, StationaryDist]] = None,
    stacks: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> Certificate:
    if margin_frac < 0:
        raise ValueError("margin_frac must be nonnegative")
    n_modes = lin.qhat.clamp(n_modes)
    if law is None:
        tg = truncate(lin.qhat, n_modes)
        dist = stationary(tg)
    else:
        tg, dist = law
        if tg.size != n_modes:
            raise ValueError(f"law solved at N={tg.size}, certificate asks for N={n_modes}")
    if stacks is None:
        b, sig = _stacks(lin, range(1, n_modes + 1), plan)
    else:
        b, sig = stacks
        if b.shape[0] != n_modes:
            raise ValueError(f"stacks hold {b.shape[0]} modes, certificate asks for N={n_modes}")
    costs = _costs(b, sig, form)
    partial = float(dist.nu @ costs)
    gamma = n_modes * _UNIT_ROUNDOFF / (1.0 - n_modes * _UNIT_ROUNDOFF)
    rounding_bound = float(gamma * (dist.nu @ np.abs(costs)))

    if tail_mass_bound is not None and tail_mass_bound < 0:
        raise ValueError("tail_mass_bound must be nonnegative")
    if n_modes == lin.qhat.n_modes:
        tail_mass, source = 0.0, "finite_modes"  # no mode lies beyond N
    elif tail_mass_bound is not None:
        tail_mass, source = float(tail_mass_bound), "user"
    else:
        tail_mass, source = estimate_tail_mass(dist.nu), "extrapolated"
    tail_bound = float(np.max(np.abs(costs)) * tail_mass)

    plan_norm = 0.0
    if plan is not None and plan.input_mats is not None:
        for i in plan.controllable:
            gain = plan.gain(i)
            if gain is not None:
                plan_norm = max(
                    plan_norm,
                    np.linalg.norm(
                        np.asarray(plan.input_mats(i), float) @ np.asarray(gain, float), 2
                    ),
                )
    flags = {
        "qhat_conservative": bool(np.abs(tg.q.sum(axis=1)).max() == 0.0),
        "qhat_irreducible": True,  # stationary() raised otherwise
        "coeff_bound_ok": bool(_probe_norm(b, sig) <= lin.coeff_bound + plan_norm + 1e-9),
        "stationary_residual_ok": bool(dist.residual <= 1e-10),
    }
    if extra_flags:
        flags.update({k: bool(v) for k, v in extra_flags.items()})

    upper = partial + tail_bound + rounding_bound
    margin = margin_frac * abs(partial)
    certified = (upper < 0.0) and (upper <= -margin)
    verdict = CERTIFIED if certified and all(flags.values()) else INCONCLUSIVE
    return Certificate(
        claim=claim,
        form=form,
        per_mode_c=costs,
        nu=dist,
        partial_sum=partial,
        tail_bound=tail_bound,
        rounding_bound=rounding_bound,
        tail_mass=tail_mass,
        tail_mass_source=source,
        margin_frac=margin_frac,
        assumption_flags=flags,
        verdict=verdict,
    )


def certify_recurrence(
    lin: Linearization,
    n_modes: int,
    tail_mass_bound: Optional[float] = None,
    margin_frac: float = 0.1,
    extra_flags: Optional[dict] = None,
) -> Certificate:
    """Certify positive recurrence from the linearization alone."""
    return _certify(
        lin,
        n_modes,
        claim="positive_recurrence",
        form="thm37",
        plan=None,
        tail_mass_bound=tail_mass_bound,
        margin_frac=margin_frac,
        extra_flags=extra_flags,
    )


def certify_stabilization(
    lin: Linearization,
    plan: GainPlan,
    n_modes: int,
    tail_mass_bound: Optional[float] = None,
    form: str = "thm37",
    margin_frac: float = 0.1,
    extra_flags: Optional[dict] = None,
    *,
    law: Optional[tuple[TruncatedGenerator, StationaryDist]] = None,
    stacks: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> Certificate:
    """Certify weak stabilizability under the feedback plan.

    ``law`` is an already solved ``(truncate(lin.qhat, n_modes), stationary(...))``
    pair, and ``stacks`` the closed-loop ``(drifts, noise)`` stacks of modes
    1..N under ``plan``; ``search_gain`` passes both so that its grid shares
    one solve and one build of the gain-independent matrices.
    """
    if plan.input_mats is None:
        raise ValueError("gain plan needs input matrices")
    return _certify(
        lin,
        n_modes,
        claim="weak_stabilizability",
        form=form,
        plan=plan,
        tail_mass_bound=tail_mass_bound,
        margin_frac=margin_frac,
        extra_flags=extra_flags,
        law=law,
        stacks=stacks,
    )


def search_gain(
    lin: Linearization,
    input_mats: Callable[[int], np.ndarray],
    controllable,
    n_modes: int,
    budget: float = 1024.0,
    g_min: float = 0.25,
    form: str = "thm37",
    tail_mass_bound: Optional[float] = None,
    margin_frac: float = 0.1,
    *,
    law: Optional[tuple[TruncatedGenerator, StationaryDist]] = None,
) -> Optional[GainPlan]:
    """Scalar gain line search L(i) = g * I over a geometric grid.

    Tries g = 0 first (the already-stable case), then doubles g from
    ``g_min`` up to ``budget``; returns the first plan whose certificate
    is CERTIFIED at the requested margin, or None when the budget is
    exhausted.  The gain does not enter ``qhat``, so the stationary law is
    solved once (or taken from ``law``, as in
    :func:`certify_stabilization`) and shared by every grid point; the
    noise stack and the drifts of uncontrolled modes are built once, and
    each grid point restacks only the controllable modes.
    """
    controllable = frozenset(int(i) for i in controllable)
    if not controllable:
        raise ValueError("controllable set is empty")
    n_modes = lin.qhat.clamp(n_modes)
    n = np.asarray(lin.b_mat(min(controllable)), dtype=float).shape[0]
    grid = [0.0]
    g = float(g_min)
    while g <= budget * (1.0 + 1e-12):
        grid.append(g)
        g *= 2.0
    if law is None:
        tg = truncate(lin.qhat, n_modes)
        law = (tg, stationary(tg))
    b0, sig = _stacks(lin, range(1, n_modes + 1), None)
    restack = sorted(i for i in controllable if i <= n_modes)
    for g in grid:
        gains = {
            i: g * np.eye(np.asarray(input_mats(i), float).shape[1], n)
            for i in controllable
        }
        plan = GainPlan(controllable=controllable, gains=gains, input_mats=input_mats)
        b = b0.copy()
        for i in restack:
            b[i - 1] = _effective_drift(lin, i, plan)
        cert = certify_stabilization(
            lin,
            plan,
            n_modes,
            tail_mass_bound=tail_mass_bound,
            form=form,
            margin_frac=margin_frac,
            law=law,
            stacks=_checked(b, sig),
        )
        if cert.verdict == CERTIFIED:
            return plan
    return None
