"""Per-layer metrics of a traced round, in the order BENCHMARK.json lists them.

Metrics of a layer a workload does not reach read 0.  The search counts
``hits`` and ``distinct_ratio`` are those of the 12/5 job, which every seed
runs first; ``nodes`` is per search job.  ``run.py`` adds the metrics that
need the untraced round: ``gates.search.ns_per_node``,
``gates.search.parallel_efficiency``, ``cli.import_s``,
``tracing_overhead_s`` and ``failed_ratio``.
"""
from __future__ import annotations

# name -> (unit, better)
PER_LAYER = {}


def _add(names, unit, better="lower"):
    for n in names:
        PER_LAYER[n] = (unit, better)


def _span(name):
    _add([f"{name}.calls"], "count")
    _add([f"{name}.self_s"], "s")


for _name in ("anyon.r_symbol.float", "anyon.r_symbol.mp",
              "anyon.f_matrix.float", "anyon.f_matrix.mp"):
    _span(_name)
_add(["anyon.pentagon_sweep.self_s"], "s")
_span("spaces.enumerate_basis")
_add(["spaces.enumerate_basis.distinct_inputs"], "count")
_span("spaces.IndefSpace.build")
_add(["spaces.control_basis_transform.self_s"], "s")
_span("braids.letter_matrix.float")
_span("braids.letter_matrix.mp")
_add(["braids.letter_matrix.memo_hit_ratio"], "ratio", "higher")
_add(["braids.letter_matrix.memo_entries"], "count")
_add(["braids.letter_matrix.memo_entries_per_job"], "count")
_span("braids.evaluate_word.float")
_span("braids.evaluate_word.mp")
_add(["braids.matrix_order.self_s", "braids.pseudo_unitarity_defect.self_s"], "s")
_add(["gates.search.nodes"], "count")
_add(["gates.search.ns_per_node"], "ns")
_add(["gates.search.kernel_self_s", "gates.search.dedupe_self_s"], "s")
_add(["gates.search.raw_hits", "gates.search.hits"], "count")
_add(["gates.search.distinct_ratio"], "ratio", "higher")
_add(["gates.search.parallel_efficiency"], "ratio", "higher")
_span("gates.reichardt_step.float")
_span("gates.reichardt_step.mp")
_add(["gates.controlled_gate.self_s"], "s")
_add(["gates.reichardt.underflowed_reports", "gates.mp_dps_after"], "count")
_add(["verify.run_all.self_s"], "s")
_add(["verify.checks.pass"], "count", "higher")
_add(["verify.checks.fail", "verify.checks.skipped"], "count")
_add(["cli.import_s", "tracing_overhead_s"], "s")
_add(["failed_ratio"], "ratio")

SPANS = [n[:-len(".calls")] for n in PER_LAYER if n.endswith(".calls")]
SELF_ONLY = {"anyon.pentagon_sweep", "spaces.control_basis_transform",
             "braids.matrix_order", "braids.pseudo_unitarity_defect",
             "gates.controlled_gate", "verify.run_all"}


def layer_metrics(tracer, wl, jobs, info, slowdown):
    """(metrics, count mismatches) of one traced round, times in reference seconds."""
    m = {}
    for span in SPANS:
        m[f"{span}.calls"] = tracer.calls[span]
        m[f"{span}.self_s"] = tracer.self_s[span]
    for span in SELF_ONLY:
        m[f"{span}.self_s"] = tracer.self_s[span]
    m["spaces.enumerate_basis.distinct_inputs"] = len(tracer.basis_inputs)

    hits, misses = (tracer.counts["braids.letter_matrix.memo_hits"],
                    tracer.counts["braids.letter_matrix.memo_misses"])
    m["braids.letter_matrix.memo_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["braids.letter_matrix.memo_entries"] = tracer.memo_growth
    m["braids.letter_matrix.memo_entries_per_job"] = tracer.memo_growth / len(jobs)

    searches = tracer.calls["gates.search_low_leakage"]
    m["gates.search.nodes"] = tracer.counts["gates.search.nodes"] / searches if searches else 0
    m["gates.search.kernel_self_s"] = tracer.self_s["gates.search.range"]
    m["gates.search.dedupe_self_s"] = tracer.self_s["gates.search_low_leakage"]
    first = (info.get("search_jobs") or [{"hits": 0, "distinct": 0}])[0]
    m["gates.search.raw_hits"] = tracer.raw_hits[0] if tracer.raw_hits else 0
    m["gates.search.hits"] = first["hits"]
    m["gates.search.distinct_ratio"] = first["distinct"] / first["hits"] if first["hits"] else 0.0

    m["gates.reichardt.underflowed_reports"] = info.get("underflowed_reports", 0)
    m["gates.mp_dps_after"] = info.get("mp_dps_after", 0)
    for status in ("pass", "fail", "skipped"):
        m[f"verify.checks.{status}"] = tracer.counts[f"verify.checks.{status}"]

    m = {k: v / slowdown if PER_LAYER[k][0] == "s" else v for k, v in m.items()}
    mismatches = [f"traced {label}: {seen} != exact {want}"
                  for label, seen, want in wl.expected_counts(jobs, tracer) if seen != want]
    return m, mismatches
