"""Recurrence and stabilizability certificates from linearization data.

The criterion weighs a per-mode spectral cost against the stationary law
of the limiting rate generator: if the weighted sum is strictly negative
after adding ``rounding_bound``, the floating-point error bound of the
weighted sum, and the model's law leaves no mode out, the model is
certified positively recurrent.  ``solve_law`` picks the law from the
declarations of the linearization and its ``qhat`` alone and returns it as
one :class:`~switchsde.chain.StationaryDist`, which one formula weighs;
the law names where the bound on the mass it leaves out
(``tail_mass_source``) comes from:

* ``"exact_geometric"`` when ``qhat`` is infinite and both it and the
  linearization declare ``repeats_from``: :func:`~switchsde.chain.exact_law`
  solves a head of K' modes and the tail is geometric, so the sum over
  every mode has a closed form, nothing is left out and N plays no part;
* ``"finite_modes"`` when ``qhat`` declares a finite mode count: the same
  head solve over the whole chain, with no tail, whatever N;
* ``"unproved"`` on a truncation of an infinite chain to modes 1..N:
  nothing bounds the mass beyond N or the truncation's solve error, so
  the tail bound is infinite, the reason ``"tail unproved"`` and the
  partial sum over modes 1..N is reported only as a diagnostic; and on an
  exact law that could not be solved, which gives its own reason.

N thus changes a certificate only when ``qhat`` is infinite and either
repeat point is undeclared.

Both exact laws carry their head solve's error bound into ``rounding_bound``.

The stabilization variant first closes the loop on the controllable modes
with linear state feedback u = -L(i) x.

``_parts`` builds every certificate and ``_certify`` weighs it.  ``_parts``
resolves the level, solves the law and builds the closed-loop drifts of
modes 1..D and their gain-free noise part: D is N, or max(K, largest
controllable mode + 1) when the linearization declares ``repeats_from``
K, as every mode beyond costs c_D, so the per-mode work does not grow
with N, and the coefficient probe covers every mode, also those beyond N.  A gain moves
only the controllable drifts, so ``search_gain`` solves the law and builds
the noise part once per search.

Two printed forms of the stabilization cost are kept side by side and
selected with ``form``: ``thm37`` substitutes the closed-loop drift into
the recurrence cost, while ``thm41`` uses the alternate weighting
2 * Lambda_b + sum_j (Lambda_{a_j} - rho_j^2) with per-column noise
normal matrices a_j = sigma_j^T sigma_j.  The two differ by printed
constants; both are reported rather than reconciled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .chain import StationaryDist, _gamma, _integer, exact_law, stationary, truncate
from .model import Linearization

__all__ = [
    "Certificate",
    "GainPlan",
    "per_mode_cost",
    "certify_recurrence",
    "certify_stabilization",
    "search_gain",
    "solve_law",
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
    one is an error, and so is a controllable mode that is not an integer
    >= 1.
    """

    controllable: frozenset
    gains: dict
    input_mats: Callable[[int], np.ndarray]

    def __post_init__(self):
        for i in self.controllable:
            _integer("controllable mode", i)
        bad = [i for i in self.gains if i not in self.controllable]
        if bad:
            raise ValueError(f"gain supplied on uncontrolled modes {sorted(bad)}")

    def gain(self, i: int) -> Optional[np.ndarray]:
        return self.gains.get(i)


@dataclass
class Certificate:
    """Outcome of one certification run.

    ``partial_sum`` is the stationary-weighted cost over every mode the law
    holds: modes 1..N of a truncation, or every mode of an exact law, whose
    geometric tail (ratio rho) is summed in closed form.  ``tail_bound``
    weighs the mass the law leaves out (``tail_mass``, its source named by
    the law): 0, or infinite on an unproved law.  ``rounding_bound`` is the
    floating-point error bound of the partial sum: gamma_n / (1 - rho) *
    sum_i |nu_i c_i| (gamma_n = n u / (1 - n u), u = 2^-53), with n the
    mode count of a truncation or a finite chain (rho = 0) and n = 2m + 4
    on an exact geometric law, plus the largest |c_i| times the law's
    ``error`` bound from its head solve (0 on a truncation, which proves
    nothing).  On an exact geometric law ``nu`` holds nu_1..nu_m for the m
    modes written out, and its ``truncation`` is the head size K'.  The
    verdict is CERTIFIED only when the total clears the margin and every
    assumption flag holds.  ``reason`` names what decided it: the law's
    own reason when it proves nothing ("tail unproved" on a truncation,
    "tail reach > 1", "tail ratio >= 1" or "head size > 1000" on an exact
    law that could not be solved), else the first failing flag in sorted
    order, "partial sum >= 0", "rounding bound", "margin" or "certified".
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
    reason: str

    @property
    def total(self) -> float:
        return self.partial_sum + self.tail_bound + self.rounding_bound

    def to_dict(self) -> dict:
        """JSON-ready summary; costs and stationary weights of the first 12
        modes (none on an exact law that could not be solved)."""
        return {
            "claim": self.claim,
            "form": self.form,
            "per_mode_c": [float(v) for v in self.per_mode_c[:12]],
            "nu_head": [float(v) for v in self.nu.nu[:12]],
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
            "reason": self.reason,
        }


def _effective_drift(lin: Linearization, i: int, plan: Optional[GainPlan]) -> np.ndarray:
    b = np.asarray(lin.b_mat(i), dtype=float)
    gain = None if plan is None else plan.gain(i)
    if gain is not None:
        b = b - np.asarray(plan.input_mats(i), dtype=float) @ np.asarray(gain, dtype=float)
    return b


def _stacks(drifts) -> np.ndarray:
    """The closed-loop drifts of modes 1..D as a checked (D, n, n) stack."""
    b = np.asarray(drifts, dtype=float)
    if b.ndim != 3 or b.shape[1] != b.shape[2]:
        raise ValueError(f"expected square drift matrices, got stack shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("matrix entries must be finite")
    return b


def _sym_eigs(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric parts of a stack of matrices."""
    return np.linalg.eigvalsh(0.5 * (mats + np.swapaxes(mats, -1, -2)))


def _noise(lin: Linearization, modes, form: str, n: int) -> Callable:
    """The gain-free part of the costs of ``modes`` in ``form``: a function
    from their closed-loop drifts (a :func:`_stacks` stack of size ``n``) to
    their costs, the noise terms added in the printed order, and the largest
    spectral norm over drifts and noise matrices.  rho is the minimal
    |x^T s x| over the unit sphere: 0 when the symmetric part of s is
    indefinite, else its smallest absolute eigenvalue."""
    if form not in _FORMS:
        raise ValueError(f"form must be one of {_FORMS}")
    sig = np.array([lin.sigma_mats(i) for i in modes], dtype=float)
    if sig.ndim != 4 or sig.shape[1] == 0 or sig.shape[2:] != (n, n):
        raise ValueError(f"each mode needs at least one noise matrix of the drift's shape; "
                         f"got stack shape {sig.shape}")
    if not np.isfinite(sig).all():
        raise ValueError("matrix entries must be finite")
    eigs = _sym_eigs(sig)
    lo, hi = eigs[..., 0], eigs[..., -1]
    rho2 = np.where((lo < 0.0) & (hi > 0.0), 0.0, np.minimum(lo * lo, hi * hi))
    gram = np.swapaxes(sig, -1, -2) @ sig  # sigma_j^T sigma_j
    top = float(np.linalg.svd(sig, compute_uv=False).max())  # largest spectral norm
    if form == "thm37":
        scale, add, sub = 1.0, 0.5 * _sym_eigs(gram.sum(axis=1))[:, -1], rho2.sum(axis=1)
    else:
        scale, add, sub = 2.0, (_sym_eigs(gram)[..., -1] - rho2).sum(axis=1), 0.0

    def weigh(b: np.ndarray) -> tuple:
        norm = max(float(np.linalg.svd(b, compute_uv=False).max()), top)
        return scale * _sym_eigs(b)[:, -1] + add - sub, norm

    return weigh


def per_mode_cost(
    lin: Linearization,
    i: int,
    form: str = "thm37",
    plan: Optional[GainPlan] = None,
) -> float:
    """Spectral cost of mode i (negative is stabilizing); i is an integer >= 1."""
    _integer("mode", i)
    b = _stacks([_effective_drift(lin, i, plan)])
    return float(_noise(lin, [i], form, b.shape[1])(b)[0][0])


def _level(lin: Linearization, n_modes: int) -> int:
    """The truncation level a certificate weighs: every mode of a finite
    ``qhat``, whatever N, else N.  Raises ``ValueError`` unless N is an
    integer >= 2."""
    n = _integer("n_modes", n_modes, 2)
    return lin.qhat.n_modes or n


def solve_law(lin: Linearization, n_modes: int) -> StationaryDist:
    """The law a certificate of ``lin`` weighs (see the module docstring):
    the exact law of a finite ``qhat``, or of an infinite one when both
    repeat points are declared; else the stationary law of the truncation
    at N.  Raises ``ValueError`` as ``_level``,
    :func:`~switchsde.chain.exact_law` and
    :func:`~switchsde.chain.stationary` do."""
    n, q = _level(lin, n_modes), lin.qhat
    if q.n_modes is not None or (lin.repeats_from is not None and q.repeats_from is not None):
        return exact_law(q)
    return stationary(truncate(q, n))


def _terms(law: StationaryDist, head: np.ndarray) -> dict:
    """Certificate terms: the costs weighed by the law over every mode it
    holds, its geometric tail (if any) in closed form with nu and c written
    out to at least 12 modes, and the mass it leaves out: none, or on an
    unproved law an unbounded one."""
    left_out = np.inf if law.reason else 0.0
    if not law.nu.size:  # an exact law that could not be solved
        return dict(per_mode_c=head, nu=law, partial_sum=np.nan, tail_bound=left_out,
                    rounding_bound=np.nan, tail_mass=left_out, tail_mass_source=law.source)
    m = steps = law.nu.size  # a dot of m terms rounds m times
    if law.source == "exact_geometric":
        # nu and c written out to at least 12 modes; the tail adds the
        # powers of the ratio and its own sum, each term widened by
        # 1 / (1 - ratio)
        m = max(m, head.size, 12)
        steps = 2 * m + 4
    nu = law.extend(m)
    costs = np.concatenate([head, np.full(max(m - head.size, 0), head[-1])])[:m]  # c_D beyond D
    # modes beyond m all cost c_m and weigh nu_m ratio / (1 - ratio) together
    tail = nu[-1] * law.ratio / (1.0 - law.ratio)
    spread = float(nu @ np.abs(costs) + abs(costs[-1]) * tail)
    rounding = _gamma(steps) / (1.0 - law.ratio) * spread + np.max(np.abs(costs)) * law.error
    return dict(per_mode_c=costs, nu=replace(law, nu=nu),
                partial_sum=float(nu @ costs + costs[-1] * tail), tail_bound=left_out,
                rounding_bound=float(rounding), tail_mass=left_out, tail_mass_source=law.source)


def _parts(lin: Linearization, plan: Optional[GainPlan], n_modes: int, form: str) -> tuple:
    """What one certificate weighs (see the module docstring): its law, the
    closed-loop drifts of modes 1..D under ``plan`` and their noise part."""
    law, n = solve_law(lin, n_modes), _level(lin, n_modes)
    if lin.repeats_from is not None:
        n = max(lin.repeats_from, max(() if plan is None else plan.controllable, default=0) + 1)
    b = _stacks([_effective_drift(lin, i, plan) for i in range(1, n + 1)])
    return law, b, _noise(lin, range(1, n + 1), form, b.shape[1])


def _certify(
    lin: Linearization,
    law: StationaryDist,
    b: np.ndarray,
    noise: Callable,
    *,
    claim: str,
    form: str,
    plan: Optional[GainPlan],
    margin_frac: float,
    extra_flags: Optional[dict] = None,
) -> Certificate:
    """Weigh the costs of the drift stack ``b`` of modes 1..D (every mode
    beyond costs mode D's) under the noise part ``noise`` against ``law``."""
    if not margin_frac >= 0:  # written so that NaN fails it
        raise ValueError(f"margin_frac must be nonnegative, got {margin_frac}")
    head, norm = noise(b)
    terms = _terms(law, head)

    plan_norm = max([0.0] + [
        np.linalg.norm(np.asarray(plan.input_mats(i), float) @ np.asarray(gain, float), 2)
        for i, gain in plan.gains.items() if gain is not None]) if plan else 0.0
    flags = {
        # every law comes from exact_law or stationary, which raise otherwise
        "qhat_conservative": True,
        "qhat_irreducible": True,
        "coeff_bound_ok": bool(norm <= lin.coeff_bound + plan_norm + 1e-9),
        "stationary_residual_ok": bool(terms["nu"].residual <= 1e-10),
    }
    if extra_flags:
        flags.update({k: bool(v) for k, v in extra_flags.items()})

    partial = terms["partial_sum"]
    upper = partial + terms["tail_bound"] + terms["rounding_bound"]
    margin = margin_frac * abs(partial)
    failed = [k for k, ok in sorted(flags.items()) if not ok]
    tests = ((partial < 0.0, "partial sum >= 0"), (upper < 0.0, "rounding bound"),
             (upper <= -margin, "margin"))  # written so that NaN fails each
    reason = law.reason or (failed[0] if failed else
                          next((why for ok, why in tests if not ok), "certified"))
    verdict = CERTIFIED if reason == "certified" else INCONCLUSIVE
    return Certificate(
        claim=claim,
        form=form,
        margin_frac=margin_frac,
        assumption_flags=flags,
        verdict=verdict,
        reason=reason,
        **terms,
    )


def certify_recurrence(
    lin: Linearization,
    n_modes: int,
    margin_frac: float = 0.1,
    extra_flags: Optional[dict] = None,
) -> Certificate:
    """Certify positive recurrence from the linearization alone, weighed
    against the law ``solve_law`` picks (module docstring)."""
    return _certify(
        lin,
        *_parts(lin, None, n_modes, "thm37"),
        claim="positive_recurrence",
        form="thm37",
        plan=None,
        margin_frac=margin_frac,
        extra_flags=extra_flags,
    )


def certify_stabilization(
    lin: Linearization,
    plan: GainPlan,
    n_modes: int,
    form: str = "thm37",
    margin_frac: float = 0.1,
    extra_flags: Optional[dict] = None,
) -> Certificate:
    """Certify weak stabilizability under the feedback plan, weighed
    against the law ``solve_law`` picks (module docstring)."""
    return _certify(
        lin,
        *_parts(lin, plan, n_modes, form),
        claim="weak_stabilizability",
        form=form,
        plan=plan,
        margin_frac=margin_frac,
        extra_flags=extra_flags,
    )


def search_gain(
    lin: Linearization,
    input_mats: Callable[[int], np.ndarray],
    controllable,
    n_modes: int,
    budget: float = 1024.0,
    form: str = "thm37",
    margin_frac: float = 0.1,
) -> Optional[GainPlan]:
    """Scalar gain line search L(i) = g * I over a geometric grid.

    Tries g = 0 first (the already-stable case), then doubles g from
    0.25 up to ``budget``; returns the first plan whose certificate
    is CERTIFIED at the requested margin, or None when the budget is
    exhausted.  Each grid point's certificate is the one
    :func:`certify_stabilization` gives for its plan.  The gain enters
    neither ``qhat`` nor the noise, so the law, the noise part and the
    open-loop drifts are built once per search, and each grid point
    rebuilds only the drifts of the controllable modes, which are checked
    again with the rest.
    """
    controllable = frozenset(_integer("controllable mode", i) for i in controllable)
    if not controllable:
        raise ValueError("controllable set is empty")
    if not 0.0 <= budget < np.inf:  # an infinite budget would double g forever
        raise ValueError(f"budget must be finite and nonnegative, got {budget}")
    open_loop = GainPlan(controllable, {}, input_mats)
    law, b0, noise = _parts(lin, open_loop, n_modes, form)
    restack = sorted(i for i in controllable if i <= len(b0))
    g = 0.0
    while g <= budget * (1.0 + 1e-12):
        gains = {
            i: g * np.eye(np.asarray(input_mats(i), float).shape[1], b0.shape[1])
            for i in controllable
        }
        plan = GainPlan(controllable=controllable, gains=gains, input_mats=input_mats)
        b = b0.copy()
        for i in restack:
            b[i - 1] = _effective_drift(lin, i, plan)
        cert = _certify(
            lin,
            law,
            _stacks(b),
            noise,
            claim="weak_stabilizability",
            form=form,
            plan=plan,
            margin_frac=margin_frac,
        )
        if cert.verdict == CERTIFIED:
            return plan
        g = max(0.25, 2.0 * g)
    return None
