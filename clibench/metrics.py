"""Turning job reports into the benchmark's metrics.

``samples`` maps each job name to the reports of its successful runs, in
the order they ran.  Jobs run in rounds, one run of each job per round,
so every job has about the same number of samples.
"""

import statistics

from tracer import LAYERS

END_TO_END = (
    ("wall_s", "s"),
    ("desk_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "1"),
)

# (metric, unit) for figures of single functions: <layer>.<function>.<figure>
FUNCTION_METRICS = (
    ("perm.enumerate_group.self_s", "s"),
    ("perm.enumerate_group.elements", "count"),
    ("subgroups.intermediate_subgroups.self_s", "s"),
    ("subgroups.intermediate_subgroups.products", "count"),
    ("subgroups.intermediate_subgroups.found", "count"),
    ("subgroups.setwise_stabilizer.calls", "count"),
    ("subgroups.setwise_stabilizer.self_s", "s"),
    ("subgroups.system_from_block.self_s", "s"),
    ("subgroups.right_cosets.self_s", "s"),
    ("coset_graphs.symmetric_coset_graph.self_s", "s"),
    ("coset_graphs.symmetric_coset_graph.products", "count"),
    ("coset_graphs.symmetric_coset_graph.arcs", "count"),
    ("coset_graphs.orbitals.self_s", "s"),
    ("graphs.verify_action.calls", "count"),
    ("graphs.verify_action.self_s", "s"),
    ("graphs.enumerate_s_arcs.walked", "count"),
    ("graphs.are_isomorphic.calls", "count"),
    ("graphs.are_isomorphic.self_s", "s"),
    ("designs.block_rows.calls", "count"),
    ("designs.block_rows.rows", "count"),
    ("designs.block_rows.self_s", "s"),
    ("designs.check_polarity.self_s", "s"),
    ("designs.find_polarities.self_s", "s"),
    ("quotients.certify_quotient.self_s", "s"),
    ("quotients.induced_bipartite.calls", "count"),
    ("constructions.semidirect_product.self_s", "s"),
    ("constructions.semidirect_product.products", "count"),
    ("constructions.biggs_cover.self_s", "s"),
    ("constructions.validate_nchain.self_s", "s"),
    ("constructions.three_arc_graph.self_s", "s"),
    ("constructions.subgraph_graph.self_s", "s"),
)

# useful outcomes per unit of work: (metric, numerator, denominator)
RATIOS = (
    ("subgroups.intermediate_subgroups.products_per_subgroup",
     "subgroups.intermediate_subgroups.products", "subgroups.intermediate_subgroups.found"),
    ("coset_graphs.symmetric_coset_graph.products_per_arc",
     "coset_graphs.symmetric_coset_graph.products", "coset_graphs.symmetric_coset_graph.arcs"),
)

ALL_LAYERS = LAYERS + ("cli",)

PER_LAYER = (
    (("perm.products", "count"),)
    + FUNCTION_METRICS
    + tuple((name, "count/" + name.rsplit("_per_", 1)[1]) for name, _, _ in RATIOS)
    + tuple((f"{layer}.self_s", "s") for layer in ALL_LAYERS)
    + (("cli.claims", "count"), ("cli.claims_failed", "count"))
    + tuple((f"{layer}.errors", "count") for layer in ALL_LAYERS)
    + (("trace.overhead", "ratio"),)
)


# Time of child.reference() on an unloaded core of the 2-core x86-64 VM the
# bounds were set on, with CPython 3.11.  Times are reported at that speed.
REFERENCE_S = 0.0045
# How strongly sgk's jobs follow the reference loop when a neighbour loads
# the core.  In ten runs of each workload on that VM, the run-to-run spread
# of wall_s was lowest near 0.75; at 1 the tiny, allocation-bound loop
# over-corrects, and at 0 nothing is corrected.
LOAD_EXPONENT = 0.75


def _median(values):
    return statistics.median(values) if values else 0.0


def core_speed(res):
    """How much faster than this child's core the reference core runs."""
    return (REFERENCE_S / res["ref_s"]) ** LOAD_EXPONENT


def at_reference_speed(res, key):
    """``res[key]`` rescaled to a core that runs the reference loop in
    REFERENCE_S.

    On a shared host a neighbour can halve a core's speed for seconds at a
    time, and the scheduler cannot see it.  The reference loop ran in the
    same process just before the import and the job, so rescaling by it
    keeps the job's own cost and drops most of the neighbour's.
    """
    return res[key] * core_speed(res)


def typical_pass(jobs, samples):
    """One pass of ``jobs``: the sum of each job's median rescaled time."""
    return sum(
        _median([at_reference_speed(r, "job_s") for r in samples[job.name]])
        for job in jobs
    )


def end_to_end(jobs, samples, attempted, failed):
    values = {
        "wall_s": typical_pass(jobs, samples),
        "desk_s": typical_pass([job for job in jobs if job.desk], samples),
        "setup_s": _median(
            [at_reference_speed(r, "setup_s") for runs in samples.values() for r in runs]
        ),
        "peak_rss_mb": max((_median([r["maxrss_kb"] for r in runs])
                            for runs in samples.values() if runs), default=0) / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def job_figures(res):
    """Per-layer figures of one traced run of one job, times rescaled."""
    figures = dict.fromkeys((name for name, _ in PER_LAYER), 0)
    figures["cli.claims"] = res["claims"]
    figures["cli.claims_failed"] = res["claims_failed"]
    scale = core_speed(res)
    for fn, agg in res["layers"].items():
        layer = fn.split(".")[0]
        figures["perm.products"] += agg["products"]
        figures[f"{layer}.self_s"] += agg["self_s"] * scale
        figures[f"{layer}.errors"] += agg["errors"]
        for figure, value in agg.items():
            key = f"{fn}.{figure}"
            if key in figures:
                figures[key] += value * scale if figure == "self_s" else value
    return figures


def per_layer(jobs, plain, traced):
    """Per-job medians over traced runs, summed over the jobs.

    Counts repeat exactly from run to run, so their median is their value.
    """
    totals = dict.fromkeys((name for name, _ in PER_LAYER), 0)
    for job in jobs:
        runs = [job_figures(r) for r in traced[job.name]]
        for name in totals:
            totals[name] += _median([f[name] for f in runs])
    for name, num, den in RATIOS:
        totals[name] = totals[num] / totals[den] if totals[den] else 0.0
    base = typical_pass(jobs, plain)
    totals["trace.overhead"] = typical_pass(jobs, traced) / base if base else 0.0
    return {name: {"value": totals[name], "unit": unit} for name, unit in PER_LAYER}
