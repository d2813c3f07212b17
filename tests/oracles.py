"""Independent reference computations used to freeze expected values.

Nothing here imports the closed-form implementations under test; the
quadratic-form floor is estimated by sphere sampling refined with a local
simplex search, and stationary laws come from a null-space solve or,
for a geometric tail, from Fraction arithmetic checked against the
balance equations.  The Monte Carlo estimators are checked against
``simulate``, one path at a time: path k runs at a seed drawn from
(seed, k), so no oracle path shares the stream (seed, 1) of the estimator
it is compared with.  The Dynkin oracle adds ``apply_generator``, whose terms the generator tests
check one by one.  The Dynkin estimator's block pass is checked against
the plan-order pass it replaced (:func:`plan_dynkin_residual`): snapshots
sorted by mode at every step, then regrouped by a second sort per block,
through the same ``_generator``.  The cohort estimators (``coupling_decay``, ``occupation_stability``) are
checked against their per-start loop: one
:class:`BatchEnsemble` per radius or start, each on the stream (seed, 1).
The engine's thinning rounds are checked against a per-proposal loop over
rate-row dicts (:class:`ProposalLoopEnsemble`), its bernoulli draws on
rows that ignore the history against the walk over every mode group that
the per-path row totals replaced (:class:`GroupWalkEnsemble`), its
stretches against the one-step loop they replaced, with the noise always
through einsum (:class:`StepwiseEnsemble`, :func:`einsum_euler`), and its
picks against the dict walks :func:`pick_target` and :func:`couple`.
``simulate``, which draws the increments up to the next proposal in one
call, is checked against the loop it replaced, one draw per step and
every grid point through the hooks (:func:`stepwise_simulate`).  The exact law's
irreducibility test is checked against the graph walk
:func:`strongly_connected`.  A certificate's weighing of its law is
checked against the two term builders it replaced, one per kind of law:
:func:`exact_terms` and :func:`truncated_terms`, and its verdict on a
finite chain against the sum under the chain's exact law, solved in
Fractions (:func:`rational_stationary`).  Its costs and norm
probe are checked against the stacked builders they replaced, which took the noise
eigenvalues at every call: :func:`stacked_costs` and
:func:`stacked_probe_norm`.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh, null_space
from scipy.optimize import minimize

from switchsde.chain import StationaryDist
from switchsde.segment import Segment
from switchsde.sim import (
    BatchEnsemble,
    TrajectoryRecord,
    _check_inputs,
    _check_total,
    _euler,
    _fixed_targets,
    _gap,
    _pick,
    simulate,
)
from switchsde.verify import _collect, _generator, _Trapezoid, _values, apply_generator


def sampled_rho(mat, n_dirs=100_000, seed=0, n_polish=2):
    """min over the unit sphere of |x^T A x|, by sampling plus polish.

    Draws ``n_dirs`` directions, then runs Nelder-Mead on the scale-free
    objective |y^T S y| / |y|^2 from the ``n_polish`` best sampled starts.
    On the 100 Gaussian 2x2..5x5 matrices of acceptance criterion 2 the
    worst gap to the closed form was 9e-15 with 2 starts (5e-15 with 8, at
    twice the time).
    """
    mat = np.asarray(mat, dtype=float)
    sym = 0.5 * (mat + mat.T)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_dirs, sym.shape[0]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vals = np.abs(np.einsum("kn,nm,km->k", dirs, sym, dirs))
    best = np.argsort(vals)[:n_polish]

    def objective(y):
        nn = y @ y
        if nn == 0.0:
            return np.inf
        return abs(y @ sym @ y) / nn

    out = float(vals[best[0]])
    for k in best:
        res = minimize(
            objective,
            dirs[k],
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
        )
        out = min(out, float(res.fun))
    return out


def reference_extremes(mat):
    """Extreme eigenvalues of the symmetric part via scipy's solver."""
    mat = np.asarray(mat, dtype=float)
    w = eigh(0.5 * (mat + mat.T), eigvals_only=True)
    return float(w[-1]), float(w[0])


def nullspace_stationary(q):
    """Stationary row vector of a dense generator via scipy's null space."""
    ns = null_space(np.asarray(q, dtype=float).T)
    if ns.shape[1] != 1:
        raise ValueError(f"null space dimension {ns.shape[1]} != 1")
    v = ns[:, 0]
    v = np.abs(v)
    return v / v.sum()


def rational_stationary(row, n: int) -> list:
    """Stationary law of an irreducible generator on modes 1..n as
    Fractions, its rates ``row(i)`` read exactly: the balance equations of
    modes 1..n-1 and sum nu = 1, solved by Gauss-Jordan elimination."""
    q = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j, r in row(i + 1).items():
            q[i][j - 1] += Fraction(r)
            q[i][i] -= Fraction(r)
    a = [[q[i][m] for i in range(n)] + [Fraction(0)] for m in range(n - 1)]
    a.append([Fraction(1)] * (n + 1))
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [a[i][n] / a[i][i] for i in range(n)]


def ou_family_nu(k):
    """Closed-form stationary weights of the two-base-modes ladder."""
    if k in (1, 2):
        return 1.0 / 3.0
    return 2.0 * 3.0 ** (-(k - 1))


def ladder_nu(k):
    """Closed-form stationary weights of the return-to-base ladder."""
    return 2.0 ** (-k)


def rational_geometric_law(row, k):
    """Exact (head, rho) in Fractions of an infinite generator whose rows
    from k on are row k shifted, row k climbing one rung: head is
    nu_1..nu_K' and nu_j = nu_K' rho^(j - K') beyond, K' the largest of k
    and the targets of the rows below k.  Gauss-Jordan elimination on the
    balance equations of modes 2..K' and total mass 1, each mode's inflow
    from the whole tail summed as a geometric series; the result is then
    checked to balance every mode up to K' + 3 exactly."""
    rates = {i: {j: Fraction(r) for j, r in row(i).items() if r} for i in range(1, k + 1)}
    top = max([k] + [j for i in range(1, k) for j in rates[i]])

    def out(i):  # row i as Fractions, the shift applied beyond k
        return rates[i] if i <= k else {j + i - k if j >= k else j: r
                                        for j, r in rates[k].items()}

    rho = out(k).get(k + 1, Fraction(0)) / sum(out(k).values())
    series = rho / (1 - rho)  # sum over j > K' of nu_j / nu_K'

    def inflow(m):
        """Coefficients over nu_1..nu_K' of the net flow into mode m <= K'."""
        coef = [Fraction(0)] * top
        for i in range(1, top + 1):
            coef[i - 1] += out(i).get(m, 0)
            if i == m:
                coef[i - 1] -= sum(out(i).values())
        if m < k:  # every tail mode returns to m at row k's rate
            coef[top - 1] += out(k).get(m, 0) * series
        return coef

    system = [inflow(m) + [Fraction(0)] for m in range(2, top + 1)]
    system.append([Fraction(1)] * (top - 1) + [1 + series, Fraction(1)])
    for c in range(top):
        pivot = next(r for r in range(c, top) if system[r][c] != 0)
        system[c], system[pivot] = system[pivot], system[c]
        system[c] = [v / system[c][c] for v in system[c]]
        for r in range(top):
            if r != c and system[r][c] != 0:
                system[r] = [a - system[r][c] * b for a, b in zip(system[r], system[c])]
    head = [system[r][-1] for r in range(top)]

    def nu(j):
        return head[j - 1] if j <= top else head[-1] * rho ** (j - top)

    for m in range(1, top + 4):
        flow = sum(nu(i) * out(i).get(m, 0) for i in range(1, m + top + 2)) - nu(m) * sum(
            out(m).values())
        if m < k:
            flow += nu(m + top + 2) * out(k).get(m, 0) / (1 - rho)  # modes past the loop
        assert flow == 0, m
    assert sum(head) + head[-1] * series == 1
    return head, rho


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), u = 2^-53."""
    u = 2.0**-53
    return n * u / (1.0 - n * u)


def _extend(head: np.ndarray, n: int) -> np.ndarray:
    """Costs of modes 1..n from those of modes 1..D, c_D repeated beyond."""
    if head.size >= n:
        return head[:n]
    return np.concatenate([head, np.full(n - head.size, head[-1])])


def exact_terms(law, head: np.ndarray) -> dict:
    """Certificate terms on an exact law (``ratio`` > 0) or on a declared
    tail without one (no nu): the weighted sum over every mode in closed
    form, with nu and c written out to at least 12 modes; ``source`` is the
    source its law names and ``unproved`` the reason a certificate then
    gives, None when the tail is proved."""
    if not law.nu.size:
        nan = float("nan")
        return dict(per_mode_c=head, nu=StationaryDist(np.zeros(0), nan, 0), partial_sum=nan,
                    tail_bound=np.inf, rounding_bound=nan, source="unproved",
                    unproved=law.reason)
    m = max(law.truncation, head.size, 12)
    nu, costs = law.extend(m), _extend(head, m)
    # modes beyond m all cost c_m and weigh nu_m rho / (1 - rho) together
    tail = nu[-1] * law.ratio / (1.0 - law.ratio)
    partial = float(nu @ costs + costs[-1] * tail)
    spread = float(nu @ np.abs(costs) + abs(costs[-1]) * tail)
    rounding = _gamma(2 * m + 4) / (1.0 - law.ratio) * spread + np.max(np.abs(head)) * law.error
    return dict(per_mode_c=costs, nu=StationaryDist(nu, law.residual, law.truncation),
                partial_sum=partial, tail_bound=0.0, rounding_bound=float(rounding),
                source="exact_geometric", unproved=None)


def truncated_terms(lin, law, head: np.ndarray) -> dict:
    """Certificate terms on the law of modes 1..N: the weighted sum over
    modes 1..N; no mode lies beyond N on a finite chain, whose law carries
    the error bound of its solve, and on an infinite one nothing bounds the
    mass beyond N."""
    n = law.truncation
    costs = _extend(head, n)
    rounding = _gamma(n) * (law.nu @ np.abs(costs))
    if n == lin.qhat.n_modes:
        left_out, source, unproved = 0.0, "finite_modes", None
        rounding += np.max(np.abs(costs)) * law.error
    else:
        left_out, source, unproved = np.inf, "unproved", "tail unproved"
    return dict(per_mode_c=costs, nu=law, partial_sum=float(law.nu @ costs),
                tail_bound=left_out, rounding_bound=float(rounding),
                source=source, unproved=unproved)


def _sym_eigs(mats: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(0.5 * (mats + np.swapaxes(mats, -1, -2)))


def stacked_costs(b: np.ndarray, sig: np.ndarray, form: str) -> np.ndarray:
    """Per-mode spectral costs of the drifts (N, n, n) and noise matrices
    (N, d, n, n), every term taken from the stacks at once.

    rho is the minimal |x^T s x| over the unit sphere: 0 when the symmetric
    part of s is indefinite, else its smallest absolute eigenvalue.
    """
    drift = _sym_eigs(b)[:, -1]
    eigs = _sym_eigs(sig)
    lo, hi = eigs[..., 0], eigs[..., -1]
    rho2 = np.where((lo < 0.0) & (hi > 0.0), 0.0, np.minimum(lo * lo, hi * hi))
    gram = np.swapaxes(sig, -1, -2) @ sig  # sigma_j^T sigma_j
    if form == "thm37":
        return drift + 0.5 * _sym_eigs(gram.sum(axis=1))[:, -1] - rho2.sum(axis=1)
    return 2.0 * drift + (_sym_eigs(gram)[..., -1] - rho2).sum(axis=1)


def stacked_probe_norm(b: np.ndarray, sig: np.ndarray) -> float:
    """Largest spectral norm over the stacked drifts and noise matrices."""
    n = b.shape[1]
    mats = np.concatenate([b, sig.reshape(-1, n, n)])
    return float(np.linalg.norm(mats, 2, axis=(1, 2)).max())


def strongly_connected(rows: list) -> bool:
    """Whether every mode of ``rows`` ({column: rate} dicts, columns from 0,
    those past the last row ignored) reaches every other: all are reached
    from mode 1 forwards and backwards, by a graph walk."""
    n = len(rows)
    links = ([[j for j in row if j < n] for row in rows],
             [[i for i, row in enumerate(rows) if j in row] for j in range(n)])
    for step in links:
        seen, todo = {0}, [0]
        while todo:
            new = set(step[todo.pop()]) - seen
            seen |= new
            todo.extend(new)
        if len(seen) < n:
            return False
    return True


def pick_target(row: dict, u: float, scale: float, mode: int):
    """Walk the partition of [0, 1) induced by row rates / scale.

    Raises on a negative rate or when the row total exceeds ``scale``.
    """
    rates = row.values()
    _check_total(sum(rates), min(rates) if row else 0.0, scale, mode)
    acc = 0.0
    for j in sorted(row):
        acc += row[j] / scale
        if u < acc:
            return j
    return None


def couple(row: dict, ref: dict, u: float, bound: float, pair: tuple) -> tuple:
    """One basic-coupling proposal at offset ``u`` in [0, bound).

    ``pair`` holds (mode, mode_hat) and ``row``/``ref`` their rate rows.
    Both chains jump to j at rate min(q_ij, qhat_ij), one chain alone at
    the excess.  Returns the new pair and whether the chains came apart.
    """
    targets = sorted(set(row) | set(ref))
    rates = [(row.get(j, 0.0), ref.get(j, 0.0)) for j in targets]
    low = min(map(min, rates)) if rates else 0.0
    _check_total(sum(max(a, b) for a, b in rates), low, bound, pair)
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


def stepwise_simulate(model, phi0, i0, cfg, *, stop=None, on_grid=None):
    """``simulate`` one grid step at a time: each step draws its own
    increment, checks the state with ``np.isfinite`` and passes every grid
    point through one hook function, hooks or none."""
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
    stop_time = None

    def draw(t, scale, u=None):
        row = rates_row(seg, mode)
        targets = _fixed_targets(fixed, row, mode)
        if not targets:
            return mode
        rates = row.values()
        _check_total(sum(rates), min(rates), scale, mode)
        j = _pick(targets, [row[k] for k in targets], rng.random() if u is None else u, scale)
        if j is None:
            return mode
        jumps.append((t, mode, j))
        bound(j)
        return int(j)

    def at_grid(t, x, due):
        nonlocal stop_time
        if on_grid is not None:
            on_grid(t, seg, mode)
        hit = stop is not None and stop(t, seg, mode)
        if due or hit:
            rows.append((t, x, mode))
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
                if not np.isfinite(x).all():
                    blow_up = True
                    break
                t += dt
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


class ProposalLoopEnsemble(BatchEnsemble):
    """The batch engine with thinning run one proposal at a time.

    Each round rebuilds a {target: rate} dict per proposing path, walks it
    with :func:`pick_target` or :func:`couple`, writes each jump and clock
    back at once and draws each gap with ``rng.exponential(1 / bound)``.
    It draws what the engine draws, in the same order, so every state,
    mode, clock and count must come out equal.
    """

    def _dict_rows(self, active):
        modes = self.modes[active].tolist()
        if not self.model.rates_depend_on_path:
            return [dict(zip(*self._row(v)[:2])) for v in modes]
        at = {}
        for a, v in enumerate(modes):
            at.setdefault(v, []).append(a)
        rows = [None] * len(modes)
        for v, idx in at.items():
            targets, rates = self.rate_table(active[idx], v)
            for a, r in zip(idx, rates.tolist()):
                rows[a] = dict(zip(targets, r))
        return rows

    def _gap_at(self, bound):
        return self.rng.exponential(1.0 / bound) if bound > 0 else math.inf

    def _move(self, p, j):
        if j != self.modes[p]:
            self.modes[p] = j
            self.jumps += 1
            if not self.blown[p]:
                self._invalidate()

    def _propose(self, p, row):
        v = int(self.modes[p])
        self.proposals += 1
        if row:
            j = pick_target(row, self.rng.random(), self.model.thinning_bound(v), v)
            if j is not None:
                self._move(p, j)
                v = j
        self._next_ev[p] += self._gap_at(self.model.thinning_bound(v))

    def _propose_pair(self, p, row):
        v = int(self.modes[p])
        ref, bound = self._pair(v)
        self.proposals += 1
        (j, j_hat), lone = couple(row, ref, self.rng.random() * bound, bound, (v, v))
        self._move(p, j)
        self.modes_hat[p] = j_hat
        if lone:
            self.decouple_time[p] = self._next_ev[p]
            self._next_ev[p] = math.inf
        else:
            self._next_ev[p] += self._gap_at(self._pair(j)[1])

    def _update_modes_thinning(self):
        t1 = self.t + self.cfg.dt
        propose = self._propose if self.qhat is None else self._propose_pair
        while self._first_ev < t1:
            active = np.flatnonzero(self._next_ev < t1)
            for p, row in zip(active.tolist(), self._dict_rows(active)):
                propose(p, row)
            self._first_ev = self._next_ev.min(initial=math.inf)


def einsum_euler(x, drift, sigma, xi, dt, post):
    """The Euler step with its noise always through einsum, one column too."""
    out = x + drift * dt
    if xi is not None:
        out = out + np.einsum("...nd,...d->...n", sigma, xi) * math.sqrt(dt)
    if post is not None:
        projected = np.asarray(post(out), dtype=float)
        if projected.shape != out.shape:
            raise ValueError(f"post_step(x) gave shape {projected.shape} for states "
                             f"of shape {out.shape}")
        out = projected
    return out


class StepwiseEnsemble(BatchEnsemble):
    """The batch engine one grid step per call, every call on its own.

    Each step enters ``np.errstate``, reads the plan, gathers the states
    into its order, takes :func:`einsum_euler` and scatters them back, checks
    every state for a blow-up, updates the modes and pushes the ring with
    the states in path order.  It draws what the engine draws, so after as
    many steps as a stretch took every state, mode, clock, count and the
    stream must come out equal.
    """

    @np.errstate(over="ignore", invalid="ignore")
    def _advance_states(self):
        model, coef = self.model, self._coef
        order, classes = self._plan()
        xi = None
        if not model.zero_diffusion:
            xi = self.rng.standard_normal((self.n_paths, model.brownian_dim))
            xi = xi if order is None else xi[order]
        if coef is None:
            coef = self._evaluate(self.x if order is None else self.x[order], classes)
        x = einsum_euler(*coef, xi, self.cfg.dt, model.post_step)
        if order is None:
            self.x = x
        else:
            self.x[order] = x
        if not np.isfinite(self.x).all():
            bad = ~np.isfinite(self.x).all(axis=1)
            self.blown |= bad
            self.x = np.where(bad[:, None], 0.0, self.x)
            if self._totals is not None:
                self._totals[bad] = 0.0
            self._invalidate()
        self._coef = None

    def step(self):
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
                lo = self._head - self._head % self._block
                self._bmax[lo // self._block] = self._sq[lo:lo + self._block].max(axis=0)
            self._head = (self._head + 1) % self._hist.shape[0]
            self._norms = None
        self.t += self.cfg.dt

    def _advance(self, limit):
        raise AssertionError("the stepwise engine takes one step per call")

    def run(self, n_steps):
        for _ in range(n_steps):
            self.step()


class GroupWalkEnsemble(BatchEnsemble):
    """The batch engine with every bernoulli update walking the mode groups.

    Each step draws one uniform per path, then walks :meth:`groups` in
    ascending mode: it checks the mode's bound, reads its row (the cached
    running sums when the rates ignore the history, a checked
    ``rate_table`` when they read it) and moves the group's paths whose
    uniform falls below the row total to the target of the count of running
    sums <= u.  Blown paths are in no group, so they never jump, and a mode
    is read only while a live path is in it.  It draws what the engine
    draws, so every state, mode and count must come out equal.
    """

    def _update_modes_bernoulli(self):
        scale = 1.0 / self.cfg.dt
        u = self.rng.random(self.n_paths)
        for v, paths, _ in self.groups():
            self._bound(v)
            if self.model.rates_depend_on_path:
                targets, rates = self.rate_table(paths, v)
                cum = np.cumsum(rates / scale, axis=1)
                if targets:
                    _check_total(float(rates.sum(axis=1).max()), rates.min(), scale, v)
            else:
                targets, _, _, cum = self._row(v)
            if not targets:
                continue
            up = u[paths]
            at = (up < cum[..., -1]).nonzero()[0]
            if at.size:
                cum = cum if cum.ndim == 1 else cum[at]
                picks = (cum <= up[at, None]).sum(axis=1)
                self.modes[paths[at]] = np.array(targets, dtype=int)[picks]
                self.jumps += at.size
                self._invalidate()


def group_generator(V, x, hist, i, targets, rates, drift, sigma, delay, dt):
    """LV(., i) on the P paths of one mode group, term by term.

    States x (P, n), windows hist (m, P, n) or None, drift (P, n), sigma
    (P, n, d) or None, and rates (P, K) or (1, K) to ``targets``.  The
    trapezoid weights on the window grid -delay + dt * k are rebuilt here.
    """
    p, n = x.shape
    m = None if hist is None else hist.shape[0]

    def trapezoid(kernel, mode, f2h):
        w = np.full(m, dt)
        w[0] = w[-1] = 0.5 * dt
        w *= [float(kernel(s, mode)) for s in (-delay + dt * np.arange(m)).tolist()]
        return w @ f2h

    def windows(mode):
        return np.broadcast_to(V.f2(hist.reshape(m * p, n), mode), (m * p,)).reshape(m, p)

    def value(mode):
        out = np.broadcast_to(V.f1(x, mode), (p,))
        if V.f2 is None:
            return out
        return out + trapezoid(V.g, mode, windows(mode))

    grad = np.broadcast_to(V.grad_f1(x, i), (p, n))
    lv = (grad * drift).sum(axis=-1)
    if sigma is not None:
        hess = np.asarray(V.hess_f1(x, i), dtype=float)
        a = hess @ (sigma @ np.swapaxes(sigma, -1, -2))
        lv = lv + 0.5 * a.trace(axis1=-2, axis2=-1)
    if V.f2 is not None:
        f2h = windows(i)
        lv = lv + float(V.g(0.0, i)) * f2h[-1]
        lv = lv - float(V.g(-delay, i)) * f2h[0]
        lv = lv - trapezoid(V.dg, i, f2h)
    if len(targets):
        dv = np.array([value(j) for j in targets]) - value(i)
        # products, then a row sum: a dot product of a one-path group's rate
        # row may round as a fused multiply-add, which no generator takes
        lv = lv + (rates * dv.T).sum(axis=-1)
    return lv


def settle_counts(engine, n_steps, burn_steps, modes_track):
    """Occupation counts of a batch engine, step by step.

    Runs ``engine`` for ``n_steps``; step s counts at the mode it starts
    from when s >= burn_steps, for the paths it leaves finite.  Returns the
    (P, len(modes_track)) counts and the (P,) counted steps per path.
    """
    counts = np.zeros((len(modes_track), engine.n_paths), dtype=int)
    steps = np.zeros(engine.n_paths, dtype=int)
    for s in range(n_steps):
        left = engine.modes.copy()
        engine.step()
        if s >= burn_steps:
            ok = ~engine.blown
            for a, v in enumerate(modes_track):
                counts[a] += (left == v) & ok
            steps += ok
    return counts.T, steps


def path_configs(cfg, n_paths):
    """One config per oracle path k, at a seed drawn from (cfg.seed, k)."""
    seeds = (np.random.SeedSequence((cfg.seed, k)).generate_state(1)[0] for k in range(n_paths))
    return [replace(cfg, seed=int(s)) for s in seeds]


def path_occupation(model, phi0, i0, cfg, n_paths, modes_track, burn_in=0.0):
    """Mean and SE over per-path runs of the time fractions in ``modes_track``.

    A path counts the mode at the left endpoint of each recorded grid step
    after ``burn_in``; one that blows up counts the steps it completed.
    """
    burn_steps = int(round(burn_in / cfg.dt))
    frac = []
    for run in path_configs(replace(cfg, record_stride=1), n_paths):
        left = simulate(model, phi0, i0, run).modes[:-1][burn_steps:]
        frac.append([np.count_nonzero(left == v) / max(left.size, 1) for v in modes_track])
    frac = np.array(frac)
    return frac.mean(axis=0), frac.std(axis=0, ddof=1) / math.sqrt(n_paths)


def path_hitting_times(model, phi0, i0, cfg, n_paths, stop):
    """First grid times of ``stop(t, seg, mode)`` on the per-path runs that
    meet it before the horizon without blowing up."""
    runs = path_configs(replace(cfg, record_stride=10**9), n_paths)
    recs = (simulate(model, phi0, i0, run, stop=stop) for run in runs)
    return np.array([r.stop_time for r in recs if not r.blow_up and r.stop_time is not None])


def path_dynkin(V, model, phi0, i0, t, cfg, n_paths):
    """Per-path Dynkin residuals V(X_t, a_t) - V(phi0, i0) - sum LV dt.

    LV is ``apply_generator`` on each path's window at the left endpoint
    of every grid step before t; paths that blow up are dropped.
    """
    n_steps = int(round(t / cfg.dt))
    run = replace(cfg, horizon=n_steps * cfg.dt, record_stride=10**9)
    v0 = V.value(phi0, i0)
    out = []
    for path in path_configs(run, n_paths):
        acc = []

        def on_grid(tt, seg, mode):
            if tt < run.horizon - 0.5 * cfg.dt:
                acc.append(apply_generator(V, model, seg, mode) * cfg.dt)

        rec = simulate(model, phi0, i0, path, on_grid=on_grid)
        if not rec.blow_up:
            out.append(V.value(rec.terminal, int(rec.modes[-1])) - v0 - sum(acc))
    return np.array(out)


def plan_snapshot(e: BatchEnsemble, with_hist: bool) -> tuple:
    """The Dynkin snapshot in plan order: (order, plan, x, drift, sigma,
    windows), the live paths sorted by mode and each mode group's rates read
    at this step; a step the engine takes in path order, or over the live
    paths by index, is gathered into plan order, row by row."""
    groups = e.groups()
    order = e._order
    plan = [(v, rows, *e.rate_table(paths, v)) for v, paths, rows in groups]
    arrays = e.coefficients()
    taken = e._plan()[0]
    if taken is not order:  # the step ran in path order, or over the live paths by index
        at = order if taken is None else np.searchsorted(taken, order)
        arrays = [None if a is None else a[at] for a in arrays]
    return (order, plan, *arrays, e.history(order) if with_hist else None)


def plan_block_generator(V, block: list, trap) -> list:
    """LV of a block of :func:`plan_snapshot` steps in one ``_generator``
    pass, the rows regrouped by a second sort on (mode, target list) and by
    step within a group: (paths, LV) per step.  A block of several steps
    has no windows: a time-kernel block is one step."""
    if len(block) == 1:
        paths, plan, x, drift, sigma, hist = block[0]
        return [(paths, _generator(V, x, drift, sigma, _windows(hist), plan, trap))]
    steps = [((v, tuple(t)), rows.stop - rows.start, r) for _, plan, *_ in block
             for v, rows, t, r in plan]  # (key, rows, rates) per group of each step
    parts: dict = {}  # key -> [(rows, rates)], in step order
    for key, n, rates in steps:
        parts.setdefault(key, []).append((n, rates))
    rank = {key: a for a, key in enumerate(sorted(parts))}
    perm = np.argsort(np.repeat([rank[k] for k, _, _ in steps], [n for _, n, _ in steps]),
                      kind="stable")
    plan, a = [], 0
    for (v, targets), group in sorted(parts.items()):
        n, tables = zip(*group)
        ends = np.cumsum(n).tolist()
        rates = tables[0] if any(len(r) < k for k, r in group) else np.concatenate(tables)
        plan.append((v, slice(a, a + ends[-1]), list(targets), rates))
        a += ends[-1]
    orders, _, *arrays, hists = zip(*block)
    assert hists[0] is None
    x, drift, sigma = (None if s[0] is None else np.concatenate(s)[perm] for s in arrays)
    lv = _generator(V, x, drift, sigma, None, plan, trap)[np.argsort(perm)]
    starts = np.cumsum([0, *map(len, orders)]).tolist()
    return [(paths, lv[a:b]) for paths, a, b in zip(orders, starts, starts[1:])]


def _windows(hist):
    """``_generator``'s windows of row-aligned windows hist (m, P, n) or None."""
    return None if hist is None else lambda rows: hist[:, rows]


def plan_dynkin_residual(V, model, phi0, i0, t, cfg, n_paths, block_rows):
    """``dynkin_residual`` on :func:`plan_snapshot` blocks of at most
    ``block_rows`` path-steps, or of one step when V has a time kernel,
    each evaluated by :func:`plan_block_generator`."""
    n_steps = int(round(t / cfg.dt))
    with_hist = V.f2 is not None
    be = BatchEnsemble(model, phi0, i0, replace(cfg, horizon=n_steps * cfg.dt), n_paths,
                       track_history=with_hist)
    trap = _Trapezoid(model.delay, cfg.dt)
    acc = np.zeros(n_paths)
    block = []
    block_steps = 1 if with_hist else max(1, block_rows // n_paths)
    for k in range(n_steps):
        block.append(plan_snapshot(be, with_hist))
        if len(block) == block_steps or k == n_steps - 1:
            for paths, lv in plan_block_generator(V, block, trap):
                acc[paths] += lv * cfg.dt
            block = []
        be.step()
    vt = np.zeros(n_paths)
    for v, paths, _ in be.groups():
        vt[paths] = _values(V, be.x[paths], be.history(paths) if with_hist else None, v, trap)
    keep = ~be.blown
    return _collect(vt[keep] - V.value(phi0, i0) - acc[keep], n_paths)


def per_start_coupling(model, lin, radii, cfg, n_paths, i0=1, floor_frac=0.5):
    """The decoupling table of ``coupling_decay``, one engine per radius.

    Radius R runs ``n_paths`` coupled paths from the constant history
    R * e1 on the whole stream (seed, 1); a path counts when its chains
    part before the horizon, unless it blows up in that step, and leaves
    uncounted at a blow-up or once |X| < floor_frac * R.
    """
    rows = []
    for r in radii:
        start = np.zeros(model.dim)
        start[0] = r
        phi0 = Segment.make_constant(start, model.delay, cfg.dt)
        be = BatchEnsemble(model, phi0, i0, cfg, n_paths, qhat=lin.qhat)
        hits = 0
        for k in range(int(round(cfg.horizon / cfg.dt)) + 1):
            if k:
                be.step()
            done = np.isfinite(be.decouple_time) & ~be.blown
            hits += int(done.sum())
            with np.errstate(over="ignore"):
                below = np.linalg.norm(be.x, axis=1) < floor_frac * r
            live = ~(done | be.blown | below)
            if not live.all():
                be.keep(live)
                if be.n_paths == 0:
                    break
        p = hits / n_paths
        se = math.sqrt(max(p * (1.0 - p), 0.0) / n_paths)
        rows.append({
            "radius": float(r),
            "p_decouple": p,
            "std_error": se,
            "ci95": (max(p - 1.96 * se, 0.0), min(p + 1.96 * se, 1.0)),
            "n_paths": int(n_paths),
        })
    return rows


def per_start_occupation(model, starts, cfg, n_paths, burn_in, i0=1):
    """The report of ``occupation_stability``, one engine per start.

    Each start's ``n_paths`` paths run on the whole stream (seed, 1) and
    pool their live grid points from ``burn_in`` on into counts over 21
    |X| bins (width 0.25 on [0, 5], then overflow) and the mode buckets
    1, 2, 3 and above 3, binned one grid point at a time.
    """
    edges = np.linspace(0.0, 5.0, 21)
    k_head = 3
    hists = []
    for start in starts:
        phi0 = Segment.make_constant(np.atleast_1d(np.asarray(start, dtype=float)),
                                     model.delay, cfg.dt)
        be = BatchEnsemble(model, phi0, i0, cfg, n_paths)
        counts = np.zeros((edges.size, k_head + 1))
        for k in range(int(round(cfg.horizon / cfg.dt)) + 1):
            if k:
                be.step()
            if k * cfg.dt >= burn_in - 1e-12:
                live = ~be.blown
                with np.errstate(over="ignore"):
                    radii = np.linalg.norm(be.x[live], axis=1)
                rbin = np.clip(np.searchsorted(edges, radii, side="right") - 1, 0, edges.size - 1)
                bucket = np.minimum(be.modes[live], k_head + 1) - 1
                np.add.at(counts, (rbin, bucket), 1.0)
        hists.append(counts / counts.sum())
    dists = np.array([[np.abs(a - b).sum() for b in hists] for a in hists])
    return {"distances": dists, "histograms": hists, "radial_edges": edges, "k_head": k_head}
