"""Command line interface.

Commands: simulate | certify | stationary | stabilize | verify
{hitting,descent,coupling,occupation} | dynkin.  All outputs are JSON or
CSV files under --out, embed the config hash and tool version, plus the
seed where the command draws (simulate, verify, dynkin), and are
byte-identical across reruns with the same flags.

Exit codes: 0 success, 1 valid-but-inconclusive outcome (certificate not
granted, gain search exhausted, estimate fully censored), 2 usage or
config errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .certify import CERTIFIED, certify_recurrence, certify_stabilization, search_gain
from .chain import convergence_sweep, stationary, truncate
from .config import load_generator, load_model_config
from .model import check_rate_convergence, check_sublinear_residuals
from .segment import Segment
from .sim import SimConfig, default_dt, simulate
from .verify import (
    ProductFunctional,
    coupling_decay,
    dynkin_residual,
    estimate_hitting_time,
    estimate_mode_descent,
    occupation_stability,
)


def _finite(obj):
    """``obj`` with its non-finite floats as None: JSON has no NaN or infinity."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not np.isfinite(obj) else obj


def _meta(cfg_hash: str, seed=None) -> dict:
    """The output stamp; only the commands that draw pass their ``seed``."""
    seeded = {} if seed is None else {"seed": int(seed)}
    return {**seeded, "config_hash": cfg_hash, "version": __version__}


def _open(out: str, name: str):
    """The file ``name`` in the output directory ``out`` (made if missing)."""
    os.makedirs(out, exist_ok=True)
    return open(os.path.join(out, name), "w", encoding="utf-8", newline="\n")


def _write_json(out: str, name: str, payload: dict) -> None:
    with _open(out, name) as fh:
        json.dump(_finite(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_csv(out: str, name: str, meta: dict, header: list, rows) -> None:
    with _open(out, name) as fh:
        fh.write(
            f"# seed={meta['seed']} config_hash={meta['config_hash']} "
            f"version={meta['version']}\n"
        )
        fh.write(",".join(header) + "\n")
        # ints and Python floats as their repr: csv.writer's bytes, which quote no number
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _sim_config(args, delay: float) -> SimConfig:
    dt = args.dt if args.dt is not None else default_dt(delay, args.T)
    return SimConfig(
        dt=dt,
        horizon=args.T,
        scheme=getattr(args, "scheme", "thinning"),  # verify coupling runs by thinning
        seed=args.seed,
        record_stride=getattr(args, "stride", 1),
    )


def _comma_list(args, flag: str, kind=float) -> list:
    """The entries of the comma list of ``--flag``, each read by ``kind``; an
    entry that ``kind`` cannot read, an empty one too, is an error naming the flag."""
    text = getattr(args, flag)
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"--{flag} {text!r}: {exc}") from None


def _start_segment(args, spec, dt: float) -> Segment:
    """The constant start window at --x0: one entry per coordinate, or one for all."""
    x0 = _comma_list(args, "x0")
    if len(x0) not in (1, spec.dim):
        raise ValueError(f"state has {len(x0)} entries, expected {spec.dim}")
    return Segment.make_constant(np.broadcast_to(x0, spec.dim), spec.delay, dt)


def _model_flags(spec, lin) -> dict:
    radii = (10.0, 100.0, 1000.0)
    dirs = [np.eye(spec.dim)[k] for k in range(spec.dim)]
    modes = (1, 2, 3)
    sub = check_sublinear_residuals(spec, lin, dirs, radii, modes, tol=0.5)
    conv = check_rate_convergence(spec, lin, radius=10.0, modes=modes)
    return {
        "sublinear_residuals": sub.passed,
        "rate_convergence": conv.passed,
    }


def _load(args):
    """The document of certify, stabilize or stationary.  Its
    truncation_hint (30 for a --generator file) is the default of
    stationary --N; a certificate reads it only where its law is a
    truncation, which no loadable model's is (README)."""
    generator = getattr(args, "generator", None)
    return load_generator(generator) if generator else load_model_config(args.model)


def cmd_simulate(args) -> int:
    loaded = load_model_config(args.model)
    spec = loaded.spec
    cfg = _sim_config(args, spec.delay)
    phi0 = _start_segment(args, spec, cfg.dt)
    rec = simulate(spec, phi0, args.i0, cfg)
    meta = _meta(loaded.config_hash, cfg.seed)
    _write_csv(args.out, "trajectory.csv", meta,
               ["t"] + [f"x{k + 1}" for k in range(spec.dim)] + ["mode"],
               ([t, *x, m] for t, x, m in
                zip(rec.times.tolist(), rec.states.tolist(), rec.modes.tolist())))
    _write_csv(args.out, "jumps.csv", meta, ["t", "from", "to"],
               ((float(t), int(a), int(b)) for t, a, b in rec.jump_times))
    _write_json(
        args.out,
        "summary.json",
        {
            "meta": meta,
            "model": loaded.name,
            "scheme": cfg.scheme,
            "dt": cfg.dt,
            "horizon": cfg.horizon,
            "n_recorded": int(rec.times.size),
            "n_jumps": len(rec.jump_times),
            "final_mode": int(rec.modes[-1]),
            "blow_up": bool(rec.blow_up),
        },
    )
    return 0


def cmd_certify(args) -> int:
    loaded = _load(args)
    cert = certify_recurrence(
        loaded.lin,
        loaded.truncation_hint,
        margin_frac=args.margin,
        extra_flags=_model_flags(loaded.spec, loaded.lin),
    )
    payload = {"meta": _meta(loaded.config_hash), "model": loaded.name}
    payload.update(cert.to_dict())
    _write_json(args.out, "certificate.json", payload)
    return 0 if cert.verdict == CERTIFIED else 1


def cmd_stationary(args) -> int:
    loaded = _load(args)
    n = loaded.truncation_hint if args.N is None else args.N
    dist = stationary(truncate(loaded.qhat, n))
    payload = {
        "meta": _meta(loaded.config_hash),
        "generator": loaded.name,
        "N": int(dist.truncation),
        "nu": [float(v) for v in dist.nu],
        "residual": float(dist.residual),
    }
    if args.levels:
        levels = _comma_list(args, "levels", int)
        payload["sweep"] = convergence_sweep(loaded.qhat, levels)
    _write_json(args.out, "stationary.json", payload)
    return 0


def cmd_stabilize(args) -> int:
    loaded = _load(args)
    n = loaded.truncation_hint
    meta = loaded.spec.meta
    if "input_matrix" not in meta or "controllable" not in meta:
        raise ValueError(f"model {loaded.name} declares no control inputs")
    plan = search_gain(
        loaded.lin,
        meta["input_matrix"],
        meta["controllable"],
        n,
        budget=args.budget,
        form=args.form,
        margin_frac=args.margin,
    )
    payload = {
        "meta": _meta(loaded.config_hash),
        "model": loaded.name,
        "form": args.form,
        "budget": float(args.budget),
        "found": plan is not None,
    }
    code = 1
    if plan is not None:
        cert = certify_stabilization(
            loaded.lin,
            plan,
            n,
            form=args.form,
            margin_frac=args.margin,
            extra_flags=_model_flags(loaded.spec, loaded.lin),
        )
        payload["gains"] = {
            str(i): np.asarray(plan.gains[i]).tolist() for i in sorted(plan.gains)
        }
        payload["certificate"] = cert.to_dict()
        code = 0 if cert.verdict == CERTIFIED else 1
    _write_json(args.out, "stabilization.json", payload)
    return code


def cmd_verify(args) -> int:
    loaded = load_model_config(args.model)
    spec, lin = loaded.spec, loaded.lin
    cfg = _sim_config(args, spec.delay)
    payload = {
        "meta": _meta(loaded.config_hash, cfg.seed),
        "model": loaded.name,
        "estimator": args.estimator,
        "dt": cfg.dt,
        "horizon": cfg.horizon,
        "n_paths": args.paths,
    }
    code = 0
    if args.estimator in ("hitting", "descent"):
        phi0 = _start_segment(args, spec, cfg.dt)
        if args.estimator == "hitting":
            payload["H"] = args.H
            est = estimate_hitting_time(spec, phi0, args.i0, args.H, args.k0, cfg, args.paths)
        else:
            est = estimate_mode_descent(spec, phi0, args.i0, args.k0, cfg, args.paths)
        payload.update(k0=args.k0, estimate=est.to_dict())
        code = 0 if est.usable else 1
    elif args.estimator == "coupling":
        radii = _comma_list(args, "radii")
        rows = coupling_decay(
            spec,
            lin,
            radii,
            cfg,
            args.paths,
            i0=args.i0,
            floor_frac=args.floor_frac,
        )
        payload["floor_frac"] = args.floor_frac
        payload["table"] = rows
    else:  # occupation
        starts = _comma_list(args, "starts")
        report = occupation_stability(
            spec,
            [np.full(spec.dim, s) for s in starts],
            cfg,
            args.paths,
            burn_in=args.burn_in,
            i0=args.i0,
        )
        payload["starts"] = starts
        payload["burn_in"] = args.burn_in
        payload["l1_distances"] = report["distances"].tolist()
    _write_json(args.out, f"verify_{args.estimator}.json", payload)
    return code


_FUNCTIONALS = {
    "quadratic": ProductFunctional(
        f1=lambda x, i: (np.asarray(x) ** 2).sum(axis=-1),
        grad_f1=lambda x, i: 2.0 * np.asarray(x),
        hess_f1=lambda x, i: 2.0 * np.eye(np.asarray(x).shape[-1]),
    ),
    "constant": ProductFunctional(
        f1=lambda x, i: np.ones(np.asarray(x).shape[:-1]),
        grad_f1=lambda x, i: np.zeros_like(np.asarray(x, dtype=float)),
        hess_f1=lambda x, i: np.zeros(
            (np.asarray(x).shape[-1], np.asarray(x).shape[-1])
        ),
    ),
}


def cmd_dynkin(args) -> int:
    loaded = load_model_config(args.model)
    spec = loaded.spec
    cfg = _sim_config(args, spec.delay)
    phi0 = _start_segment(args, spec, cfg.dt)
    fn = _FUNCTIONALS[args.functional]
    est = dynkin_residual(fn, spec, phi0, args.i0, args.T, cfg, args.paths)
    _write_json(
        args.out,
        "dynkin.json",
        {
            "meta": _meta(loaded.config_hash, cfg.seed),
            "model": loaded.name,
            "functional": args.functional,
            "t": args.T,
            "dt": cfg.dt,
            "n_paths": args.paths,
            "residual": est.to_dict(),
        },
    )
    return 0 if est.usable else 1


def _add_common(p, *flags):
    """The flags of every simulating command, plus those of ``flags`` among
    "scheme", "x0" (a start state) and "paths"."""
    p.add_argument("--model", required=True, help="model config JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--i0", type=int, default=1, help="start mode")
    if "scheme" in flags:
        p.add_argument("--scheme", choices=("thinning", "bernoulli"), default="thinning")
    if "x0" in flags:
        p.add_argument("--x0", default="1", help="start state, comma separated")
    if "paths" in flags:
        p.add_argument("--paths", type=int, default=1000)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="switchsde",
        description="Simulation and recurrence certificates for switching diffusions",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="one trajectory to CSV")
    _add_common(p, "scheme", "x0")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--stride", type=int, default=1, help="record every k-th step")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("certify", help="positive-recurrence certificate")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--margin", type=float, default=0.1)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("stationary", help="stationary law of the limiting generator")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model")
    source.add_argument("--generator", help="JSON triplet list")
    p.add_argument("--out", default="out")
    p.add_argument("--N", type=int, default=None, help="truncation level")
    p.add_argument("--levels", default=None, help="comma list for a convergence sweep")
    p.set_defaults(fn=cmd_stationary)

    p = sub.add_parser("stabilize", help="feedback gain search")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--budget", type=float, default=1024.0)
    p.add_argument("--form", choices=("thm37", "thm41"), default="thm37")
    p.add_argument("--margin", type=float, default=0.1)
    p.set_defaults(fn=cmd_stabilize)

    p = sub.add_parser("verify", help="Monte Carlo verification estimators")
    p.set_defaults(fn=cmd_verify)
    vsub = p.add_subparsers(dest="estimator", required=True)

    q = vsub.add_parser("hitting")
    _add_common(q, "scheme", "x0", "paths")
    q.add_argument("--T", type=float, default=200.0)
    q.add_argument("--H", type=float, default=1.0)
    q.add_argument("--k0", type=int, default=2)

    q = vsub.add_parser("descent")
    _add_common(q, "scheme", "x0", "paths")
    q.add_argument("--T", type=float, default=50.0)
    q.add_argument("--k0", type=int, default=2)

    q = vsub.add_parser("coupling")  # starts from --radii
    _add_common(q, "paths")
    q.add_argument("--T", type=float, default=10.0)
    q.add_argument("--radii", default="10,1000",
                   help="comma list of start radii R (history R*e1), run as one ensemble "
                   "of --paths paths per radius: a row depends on the whole list")
    q.add_argument("--floor-frac", dest="floor_frac", type=float, default=0.5)

    q = vsub.add_parser("occupation")  # starts from --starts
    _add_common(q, "scheme", "paths")
    q.add_argument("--T", type=float, default=50.0)
    q.add_argument("--starts", default="1,5",
                   help="comma list of start levels, run as one ensemble of --paths paths "
                   "per start: a histogram depends on the whole list")
    q.add_argument("--burn-in", dest="burn_in", type=float, default=10.0)

    p = sub.add_parser("dynkin", help="martingale-identity residual")
    _add_common(p, "scheme", "x0", "paths")
    p.add_argument("--t", dest="T", type=float, default=1.0, help="identity horizon")
    p.add_argument(
        "--functional", choices=sorted(_FUNCTIONALS), default="quadratic"
    )
    p.set_defaults(fn=cmd_dynkin)

    return ap


# the one parser of every in-process call: parse_args only reads it and fills
# a new namespace each time, so no call sees another's values
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    if getattr(args, "paths", 2) < 2:  # a standard error needs two paths
        print(f"{args.command}: --paths must be at least 2, got {args.paths}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
