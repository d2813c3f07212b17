"""Independent reference computations used to freeze expected values.

Nothing here imports the closed-form implementations under test; the
quadratic-form floor is estimated by sphere sampling refined with a local
simplex search, and stationary laws come from a null-space solve.  The
Monte Carlo estimators are checked against ``simulate``, one path at a
time: path k runs at a seed drawn from (seed, k), so no oracle path
shares the stream (seed, 1) of the estimator it is compared with.  The
Dynkin oracle adds ``apply_generator``, whose terms the generator tests
check one by one.  The cohort estimators (``coupling_decay``,
``occupation_stability``) are checked against their per-start loop: one
:class:`BatchEnsemble` per radius or start, each on the stream (seed, 1).
"""

import math
from dataclasses import replace

import numpy as np
from scipy.linalg import eigh, null_space
from scipy.optimize import minimize

from switchsde.segment import Segment
from switchsde.sim import BatchEnsemble, simulate
from switchsde.verify import apply_generator


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


def ou_family_nu(k):
    """Closed-form stationary weights of the two-base-modes ladder."""
    if k in (1, 2):
        return 1.0 / 3.0
    return 2.0 * 3.0 ** (-(k - 1))


def ladder_nu(k):
    """Closed-form stationary weights of the return-to-base ladder."""
    return 2.0 ** (-k)


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
        lv = lv + (rates[0] @ dv if rates.shape[0] == 1 else (rates * dv.T).sum(axis=-1))
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
