"""In-memory layer tracing for switchsde, installed from outside the package.

``Tracer.install(sw)`` swaps the public functions of each switchsde module
for timing wrappers, in every switchsde module namespace that holds them
(modules import each other's functions by name), and wraps the Segment
and BatchEnsemble methods on their classes.  ``registry_get`` is wrapped
so that every model it builds carries timed ``rates_row``, ``drift`` and
``diffusion`` callables labelled with the family name.  ``uninstall``
restores every original object.  Nothing under ``src/`` changes.

Each thread keeps its own call stack, so a layer's self time is its
duration minus the time of the wrapped calls it made on the same thread.
Work a layer hands to pool threads is not subtracted; it shows up as the
pool threads' own spans.  Coarse layers (estimators, simulate, certificate
and chain calls, CLI commands) are kept as spans
``(id, name, start_ns, end_ns, parent_id, op_id, self_ns)``; hot leaves
(segment methods, rate rows, coefficients) are aggregated into call
counts and times only, to keep memory flat.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from dataclasses import replace

_ns = time.perf_counter_ns

SIM = "sim.simulate"
COUPLED = "sim.simulate_coupled"
SEARCH = "certify.search_gain"


class _Recorder:
    """Per-thread stack, call statistics, counters, maxima and spans."""

    def __init__(self):
        # frame: [label, start_ns, child_ns, args, kwargs, span_id]
        self.stack = [["<thread>", 0, 0, (), {}, None]]
        self.stats = {}
        self.counts = {}
        self.maxes = {}
        self.spans = []

    def reset(self):
        del self.stack[1:]
        self.stack[0][2] = 0
        self.stats.clear()
        self.counts.clear()
        self.maxes.clear()
        self.spans.clear()

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def high(self, key, value):
        if value > self.maxes.get(key, value - 1):
            self.maxes[key] = value


class Tracer:
    def __init__(self):
        self.op_id = None
        self._local = threading.local()
        self._recorders = []
        self._lock = threading.Lock()
        self._span_ids = iter(range(1, 1 << 62))
        self._patched = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _recorder(self):
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = _Recorder()
            self._local.rec = rec
            with self._lock:
                self._recorders.append(rec)
        return rec

    def reset(self):
        with self._lock:
            for rec in self._recorders:
                rec.reset()

    def snapshot(self):
        """Merged (stats, counts, maxes, spans) over every thread so far."""
        stats, counts, maxes, spans = {}, {}, {}, []
        with self._lock:
            recs = list(self._recorders)
        for rec in recs:
            for label, (calls, total, own) in rec.stats.items():
                acc = stats.setdefault(label, [0, 0, 0])
                acc[0] += calls
                acc[1] += total
                acc[2] += own
            for key, n in rec.counts.items():
                counts[key] = counts.get(key, 0) + n
            for key, v in rec.maxes.items():
                if key not in maxes or v > maxes[key]:
                    maxes[key] = v
            spans.extend(rec.spans)
        spans.sort(key=lambda s: s[2])
        return stats, counts, maxes, spans

    def wrap(self, label, fn, *, span=False, key=None, post=None):
        """Timing wrapper; ``key(*args, **kw)`` appends a suffix to the label,
        ``post(rec, frame, parent, result)`` updates counters on success."""
        recorder = self._recorder
        ids = self._span_ids
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = recorder()
            stack = rec.stack
            name = label if key is None else f"{label}.{key(*args, **kwargs)}"
            parent = stack[-1]
            sid = next(ids) if span else parent[5]
            frame = [name, 0, 0, args, kwargs, sid]
            stack.append(frame)
            frame[1] = start = _ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _ns()
                stack.pop()
                dur = end - start
                parent[2] += dur
                own = dur - frame[2]
                st = rec.stats.get(name)
                if st is None:
                    st = rec.stats[name] = [0, 0, 0]
                st[0] += 1
                st[1] += dur
                st[2] += own
                if span:
                    rec.spans.append(
                        (sid, name, start, end, parent[5], tracer.op_id, own)
                    )
            if post is not None:
                post(rec, frame, parent, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, modules, fn, wrapped):
        """Rebind ``fn`` to ``wrapped`` in every module namespace holding it."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def install(self, sw):
        mods = [m for n, m in sorted(sys.modules.items())
                if (n == "switchsde" or n.startswith("switchsde.")) and m is not None]
        seg_cls = sw.segment.Segment
        for meth, post in (("push", _post_push), ("sup_norm", None),
                           ("value_at", None), ("integrate_against", None)):
            self._set(seg_cls, meth,
                      self.wrap(f"segment.{meth}", getattr(seg_cls, meth), post=post))
        batch = sw.sim.BatchEnsemble
        self._set(batch, "step", self.wrap("sim.batch.step", batch.step, post=_post_batch_step))
        self._set(batch, "run", self.wrap("sim.batch.run", batch.run, span=True,
                                          post=_post_batch_run))

        spans = dict(span=True)
        plan = [
            (sw.sim, "simulate", SIM, dict(span=True, post=_post_simulate)),
            (sw.sim, "simulate_coupled", COUPLED, dict(span=True, post=_post_coupled)),
            (sw.verify, "apply_generator", "verify.apply_generator", {}),
            (sw.chain, "truncate", "chain.truncate", dict(span=True, key=_n_modes_key(1))),
            (sw.chain, "stationary", "chain.stationary",
             dict(span=True, key=lambda tg, *a, **k: f"n{tg.size}", post=_post_stationary)),
            (sw.chain, "convergence_sweep", "chain.convergence_sweep", spans),
            (sw.certify, "per_mode_cost", "certify.per_mode_cost", {}),
            (sw.certify, "certify_recurrence", "certify.certify_recurrence", spans),
            (sw.certify, "certify_stabilization", "certify.certify_stabilization",
             dict(span=True, post=_post_stabilization)),
            (sw.certify, "search_gain", SEARCH, dict(span=True, key=_n_modes_key(3))),
            (sw.spectra, "summarize", "spectra.summarize", {}),
            (sw.spectra, "a_of_i", "spectra.a_of_i", {}),
            (sw.config, "load_model_config", "config.load_model_config", spans),
            (sw.model, "check_sublinear_residuals", "model.check_sublinear_residuals", spans),
            (sw.model, "check_rate_convergence", "model.check_rate_convergence", spans),
        ]
        for name in ("estimate_hitting_time", "estimate_mode_descent", "coupling_decay",
                     "occupation_fractions", "occupation_stability", "dynkin_residual"):
            plan.append((sw.verify, name, f"verify.{name}", spans))
        for name in ("simulate", "certify", "stationary", "stabilize", "verify", "dynkin"):
            opts = dict(span=True, post=_post_cli_simulate) if name == "simulate" else spans
            plan.append((sw.cli, f"cmd_{name}", f"cli.{name}", opts))

        fn = sw.registry.registry_get
        self._patch_function(mods, fn, self._registry_get(fn))
        for mod, attr, label, opts in plan:
            fn = getattr(mod, attr)
            self._patch_function(mods, fn, self.wrap(label, fn, **opts))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _registry_get(self, original):
        tracer = self

        @functools.wraps(original)
        def registry_get(name, params=None):
            spec, lin = original(name, params)
            rates = tracer.wrap(f"registry.rates_row.{name}", spec.rates_row,
                                post=_post_rates_row)
            rates._bench_family = name
            spec = replace(
                spec,
                rates_row=rates,
                drift=tracer.wrap("registry.drift", spec.drift),
                diffusion=tracer.wrap("registry.diffusion", spec.diffusion),
            )
            return spec, lin

        return registry_get


def _n_modes_key(pos):
    def key(*args, **kwargs):
        n = kwargs["n_modes"] if "n_modes" in kwargs else args[pos]
        return f"n{int(n)}"

    return key


def family_of(model) -> str:
    return getattr(model.rates_row, "_bench_family", "custom")


# -- counters kept at the layer boundaries ---------------------------------

def _post_push(rec, frame, parent, result):
    if parent[0] is SIM or parent[0] is COUPLED:
        rec.count(parent[0] + ".steps")


def _post_rates_row(rec, frame, parent, result):
    if parent[0] is SIM and parent[3][3].scheme == "thinning":
        rec.count("sim.thinning.proposals." + family_of(parent[3][0]))


def _post_simulate(rec, frame, parent, result):
    model, cfg = frame[3][0], frame[3][3]
    fam = family_of(model)
    if result.blow_up:
        rec.count("sim.blowups")
    if frame[4].get("stop") is not None and result.stop_time is None and not result.blow_up:
        rec.count("sim.censored")
    if cfg.scheme == "thinning":
        rec.count("sim.thinning.accepted." + fam, len(result.jump_times))
    top = int(result.modes.max()) if result.modes.size else 0
    for _, _, to in result.jump_times:
        if to > top:
            top = int(to)
    rec.high("sim.max_mode." + fam, top)


def _post_coupled(rec, frame, parent, result):
    if result.blow_up:
        rec.count("sim.blowups")
    top = max(int(result.modes.max()), int(result.modes_hat.max()))
    rec.high("sim.max_mode." + family_of(frame[3][0]), top)


def _post_batch_step(rec, frame, parent, result):
    engine = frame[3][0]
    rec.count("sim.batch.path_steps", engine.n_paths)
    rec.high("sim.max_mode." + family_of(engine.model), int(engine.modes.max()))


def _post_batch_run(rec, frame, parent, result):
    rec.count("sim.blowups", int(frame[3][0].blown.sum()))


def _post_stationary(rec, frame, parent, result):
    if any(f[0].startswith(SEARCH) for f in rec.stack):
        rec.count("certify.search_gain.stationary_solves")


def _post_stabilization(rec, frame, parent, result):
    if any(f[0].startswith(SEARCH) for f in rec.stack):
        rec.count("certify.search_gain.grid_points")


def _post_cli_simulate(rec, frame, parent, result):
    out = frame[3][0].out
    total = 0
    for name in os.listdir(out):
        total += os.path.getsize(os.path.join(out, name))
    rec.count("cli.simulate.bytes_written", total)
