"""Per-layer metrics from one traced pass (see NOTES.md for what each moves).

Naming: ``.calls`` is calls per pass, ``.ns`` / ``.us`` is total time per
pass in that unit, ``.ms`` is mean milliseconds per call.  A layer the
workload never enters reports 0.
"""

from __future__ import annotations

from tracing import COUPLED, SEARCH, SIM

FAMILIES = ("controlled_scalar", "fluid_queue", "linear_2d", "predator_prey", "switched_ou")
ESTIMATORS = ("estimate_hitting_time", "estimate_mode_descent", "coupling_decay",
              "occupation_fractions", "occupation_stability", "dynkin_residual")
COMMANDS = ("simulate", "certify", "stationary", "stabilize", "verify", "dynkin")
LEVELS = (30, 300, 2000)


def metrics(snapshot, hints: dict) -> dict:
    stats, counts, maxes, _ = snapshot

    def calls(label):
        return stats.get(label, (0, 0, 0))[0]

    def total_ns(label):
        return stats.get(label, (0, 0, 0))[1]

    def self_ns(label):
        return stats.get(label, (0, 0, 0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    def mean_ms(label):
        return ratio(total_ns(label), calls(label)) / 1e6

    out = {}
    for meth in ("push", "sup_norm", "value_at", "integrate_against"):
        out[f"segment.{meth}.calls"] = calls(f"segment.{meth}")
        out[f"segment.{meth}.ns"] = total_ns(f"segment.{meth}")
    for fam in FAMILIES:
        out[f"registry.rates_row.calls.{fam}"] = calls(f"registry.rates_row.{fam}")
        out[f"registry.rates_row.ns.{fam}"] = total_ns(f"registry.rates_row.{fam}")
    out["registry.drift.ns"] = total_ns("registry.drift")
    out["registry.diffusion.ns"] = total_ns("registry.diffusion")
    for fam in FAMILIES:
        proposals = counts.get(f"sim.thinning.proposals.{fam}", 0)
        accepted = counts.get(f"sim.thinning.accepted.{fam}", 0)
        out[f"sim.thinning.proposals.{fam}"] = proposals
        out[f"sim.thinning.accepted.{fam}"] = accepted
        out[f"sim.thinning.acceptance_ratio.{fam}"] = ratio(accepted, proposals)
    out["sim.simulate.self_ns_per_step"] = ratio(self_ns(SIM), counts.get(SIM + ".steps", 0))
    out["sim.simulate_coupled.ns_per_step"] = ratio(
        total_ns(COUPLED), counts.get(COUPLED + ".steps", 0))
    out["sim.batch.step_ns_per_path_step"] = ratio(
        total_ns("sim.batch.step"), counts.get("sim.batch.path_steps", 0))
    out["sim.blowups"] = counts.get("sim.blowups", 0)
    out["sim.censored"] = counts.get("sim.censored", 0)
    out["sim.max_mode"] = max((v for k, v in maxes.items() if k.startswith("sim.max_mode.")),
                              default=0)
    out["sim.max_mode_over_N"] = max(
        (maxes[f"sim.max_mode.{fam}"] / hints[fam] for fam in hints
         if f"sim.max_mode.{fam}" in maxes), default=0.0)
    for est in ESTIMATORS:
        out[f"verify.{est}.ms"] = mean_ms(f"verify.{est}")
    out["verify.apply_generator.calls"] = calls("verify.apply_generator")
    out["verify.apply_generator.ns"] = total_ns("verify.apply_generator")
    for layer in ("truncate", "stationary"):
        for n in LEVELS:
            out[f"chain.{layer}.ms.n{n}"] = mean_ms(f"chain.{layer}.n{n}")
    out["chain.stationary.calls"] = sum(
        v[0] for k, v in stats.items() if k.startswith("chain.stationary."))
    out["certify.per_mode_cost.calls"] = calls("certify.per_mode_cost")
    out["certify.per_mode_cost.us"] = total_ns("certify.per_mode_cost") / 1e3
    out["certify.search_gain.ms.n1000"] = mean_ms(SEARCH + ".n1000")
    out["certify.search_gain.grid_points"] = counts.get(SEARCH + ".grid_points", 0)
    out["certify.search_gain.stationary_solves"] = counts.get(SEARCH + ".stationary_solves", 0)
    out["spectra.summarize.calls"] = calls("spectra.summarize")
    out["spectra.summarize.us"] = total_ns("spectra.summarize") / 1e3
    out["config.load_model_config.ms"] = mean_ms("config.load_model_config")
    out["model.flags.ms"] = ratio(
        total_ns("model.check_sublinear_residuals") + total_ns("model.check_rate_convergence"),
        calls("model.check_rate_convergence")) / 1e6
    for cmd in COMMANDS:
        out[f"cli.{cmd}.ms"] = mean_ms(f"cli.{cmd}")
    out["cli.simulate.bytes_written"] = counts.get("cli.simulate.bytes_written", 0)
    return out
