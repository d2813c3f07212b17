"""Recurrence and stabilizability certificates from linearization data.

The criterion weighs a per-mode spectral cost against the stationary law
of the limiting rate generator: if the weighted sum is strictly negative
(after adding a rigorous bound for the mass truncated away), the model is
certified positively recurrent.  The stabilization variant first closes
the loop on the controllable modes with linear state feedback u = -L(i) x.

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

from .chain import StationaryDist, stationary, truncate
from .model import Linearization
from .spectra import a_of_i, summarize

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
    mass, and the verdict is CERTIFIED only when their total clears the
    margin and every assumption flag holds.
    """

    claim: str
    form: str
    per_mode_c: np.ndarray
    nu: StationaryDist
    partial_sum: float
    tail_bound: float
    tail_mass: float
    tail_mass_source: str
    margin_frac: float
    assumption_flags: dict
    verdict: str

    @property
    def total(self) -> float:
        return self.partial_sum + self.tail_bound

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


def per_mode_cost(
    lin: Linearization,
    i: int,
    form: str = "thm37",
    plan: Optional[GainPlan] = None,
) -> float:
    """Spectral cost of mode i (negative is stabilizing)."""
    if form not in _FORMS:
        raise ValueError(f"form must be one of {_FORMS}")
    b = _effective_drift(lin, i, plan)
    sigmas = [np.asarray(s, dtype=float) for s in lin.sigma_mats(i)]
    if form == "thm37":
        cost = summarize(b).lambda_max
        cost += 0.5 * summarize(a_of_i(sigmas)).lambda_max
        cost -= sum(summarize(s).rho ** 2 for s in sigmas)
        return float(cost)
    cost = 2.0 * summarize(b).lambda_max
    for s in sigmas:
        cost += summarize(s.T @ s).lambda_max - summarize(s).rho ** 2
    return float(cost)


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
) -> Certificate:
    if margin_frac < 0:
        raise ValueError("margin_frac must be nonnegative")
    tg = truncate(lin.qhat, n_modes)
    dist = stationary(tg)
    costs = np.array(
        [per_mode_cost(lin, i, form=form, plan=plan) for i in range(1, n_modes + 1)]
    )
    partial = float(dist.nu @ costs)

    if tail_mass_bound is not None:
        tail_mass = float(tail_mass_bound)
        source = "user"
        if tail_mass < 0:
            raise ValueError("tail_mass_bound must be nonnegative")
    else:
        tail_mass = estimate_tail_mass(dist.nu)
        source = "extrapolated"
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
    probe_norm = 0.0
    for i in range(1, n_modes + 1):
        probe_norm = max(probe_norm, np.linalg.norm(_effective_drift(lin, i, plan), 2))
        for s in lin.sigma_mats(i):
            probe_norm = max(probe_norm, np.linalg.norm(np.asarray(s, float), 2))
    flags = {
        "qhat_conservative": bool(np.abs(tg.q.sum(axis=1)).max() == 0.0),
        "qhat_irreducible": True,  # stationary() raised otherwise
        "coeff_bound_ok": bool(probe_norm <= lin.coeff_bound + plan_norm + 1e-9),
        "stationary_residual_ok": bool(dist.residual <= 1e-10),
    }
    if extra_flags:
        flags.update({k: bool(v) for k, v in extra_flags.items()})

    margin = margin_frac * abs(partial)
    certified = (partial + tail_bound < 0.0) and (partial + tail_bound <= -margin)
    verdict = CERTIFIED if certified and all(flags.values()) else INCONCLUSIVE
    return Certificate(
        claim=claim,
        form=form,
        per_mode_c=costs,
        nu=dist,
        partial_sum=partial,
        tail_bound=tail_bound,
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
) -> Certificate:
    """Certify weak stabilizability under the feedback plan."""
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
) -> Optional[GainPlan]:
    """Scalar gain line search L(i) = g * I over a geometric grid.

    Tries g = 0 first (the already-stable case), then doubles g from
    ``g_min`` up to ``budget``; returns the first plan whose certificate
    is CERTIFIED at the requested margin, or None when the budget is
    exhausted.
    """
    controllable = frozenset(int(i) for i in controllable)
    if not controllable:
        raise ValueError("controllable set is empty")
    n = np.asarray(lin.b_mat(min(controllable)), dtype=float).shape[0]
    grid = [0.0]
    g = float(g_min)
    while g <= budget * (1.0 + 1e-12):
        grid.append(g)
        g *= 2.0
    for g in grid:
        gains = {
            i: g * np.eye(np.asarray(input_mats(i), float).shape[1], n)
            for i in controllable
        }
        plan = GainPlan(controllable=controllable, gains=gains, input_mats=input_mats)
        cert = certify_stabilization(
            lin,
            plan,
            n_modes,
            tail_mass_bound=tail_mass_bound,
            form=form,
            margin_frac=margin_frac,
        )
        if cert.verdict == CERTIFIED:
            return plan
    return None
