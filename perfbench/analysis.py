"""Metric math and output checks of the end-to-end benchmark.

Everything here is a pure function of the harness's JSON-lines records
(see harness.cpp) and the span file of a traced run, so the self-test
(test_analysis.py) can exercise it without building anything.
"""

import math
import statistics

# Simulated outputs compared bit-for-bit against the serial-engine
# expectations; "migration" is the MigrationResult of the operation.
OUTPUT_FIELDS = ("first_iter_sec", "measured_iter_sec", "fast_data_ratio",
                 "tlb_misses", "checksum")
MIGRATION_FIELDS = ("bytes", "ptes", "huge_split", "ranges", "sim_s")
EXPECTED_FIELDS = OUTPUT_FIELDS + tuple("migration." + f
                                        for f in MIGRATION_FIELDS)

MB = 1e6

# Span names that only structure the trace; their self time is time the
# trace does not attribute to any layer.
CONTAINER_SPANS = ("pass", "op")
# The benchmark's own work inside a traced pass (checks and shadow runs);
# excluded from the workload time the shares are taken of.
BENCH_SPANS = ("bench.shadow", "bench.validate", "bench.reference")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def high_percentile(values, beyond=10):
    """The highest percentile with at least `beyond` samples above it.

    Returns (percentile, value), or None when there are too few samples:
    a percentile p leaves n * (1 - p / 100) samples beyond it, so p is
    the largest whole percentile with n * (100 - p) >= 100 * beyond. The
    value is the nearest-rank sample at that percentile.
    """
    n = len(values)
    if n <= beyond:
        return None
    p = 100 - math.ceil(100 * beyond / n)
    if p <= 0:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * n))
    return p, ordered[rank - 1]


def ratio(numerator, base):
    """numerator / base, 0.0 when the base is 0 (the layer did no work)."""
    return numerator / base if base else 0.0


def timing_summary(values):
    """Median, the high percentile and the sample count of one timing."""
    summary = {"n": len(values), "median": median(values),
               "min": min(values), "max": max(values)}
    high = high_percentile(values)
    summary["high_percentile"] = (None if high is None
                                  else {"p": high[0], "value": high[1]})
    return summary


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def op_key(record):
    return "%s/%s/%s" % (record["kernel"], record["dataset"],
                         record["policy"])


def output_vector(record):
    """The checked outputs of one operation, in EXPECTED_FIELDS order."""
    vector = [record[f] for f in OUTPUT_FIELDS]
    vector += [record["migration"][f] for f in MIGRATION_FIELDS]
    return vector


def check_pass(ops, references, expected):
    """Checks one pass; returns one failure string per failed operation.

    An operation fails when its checksum differs from the apps/Reference
    result for its (kernel, dataset) or from another policy's on that
    graph, when any simulated output differs bit-for-bit from the serial
    expectation, or when its obs artifact did not validate. `references`
    maps (kernel, dataset) to the harness's reference record; one with a
    tolerance (PageRank, whose reference sums floats in another order)
    is met when every per-vertex value lies within it instead.
    """
    failures = []
    by_graph = {}
    for op in ops:
        by_graph.setdefault((op["kernel"], op["dataset"]),
                            set()).add(op["checksum"])
    for op in ops:
        key = op_key(op)
        problems = []
        graph = (op["kernel"], op["dataset"])
        reference = references.get(graph)
        if reference is None:
            problems.append("no reference result")
        elif reference["tolerance"] is not None:
            if not op["reference_max_abs_diff"] <= reference["tolerance"]:
                problems.append("result differs from reference by %g > %g"
                                % (op["reference_max_abs_diff"],
                                   reference["tolerance"]))
        elif op["checksum"] != reference["checksum"]:
            problems.append("checksum %d != reference %d"
                            % (op["checksum"], reference["checksum"]))
        if len(by_graph[graph]) > 1:
            problems.append("checksums differ across policies")
        want = expected.get(key)
        if want is None:
            problems.append("no serial expectation")
        else:
            got = output_vector(op)
            for name, g, w in zip(EXPECTED_FIELDS, got, want):
                if g != w:
                    problems.append("%s %r != serial %r" % (name, g, w))
        if op.get("artifact_ok") == 0:
            problems.append("invalid artifact: %s"
                            % op.get("artifact_error", ""))
        if problems:
            failures.append("%s: %s" % (key, "; ".join(problems)))
    return failures


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------

def end_to_end(passes, peak_rss_bytes, attempted, failed):
    """The end-to-end metrics of an untraced run (values and details)."""
    wall = [p["wall_s"] for p in passes]
    setup = [p["setup_s"] for p in passes]
    throughput = [ratio(sum(op["accesses"] for op in p["ops"]), p["wall_s"])
                  for p in passes]
    values = {
        "wall_s": median(wall),
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_bytes / MB,
        "accesses_per_s": median(throughput),
        "ok_ratio": ratio(attempted - failed, attempted),
    }
    details = {"wall_s": timing_summary(wall),
               "setup_s": timing_summary(setup),
               "accesses_per_s": timing_summary(throughput)}
    return values, details


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def load_spans(doc):
    """Span dicts from the harness's span file document."""
    fields = doc["fields"]
    return [dict(zip(fields, row)) for row in doc["spans"]]


def covered(intervals):
    """Length of the union of [start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Self time (ns) of every span: its duration minus the part of it
    that its child spans cover."""
    children = {}
    for index, span in enumerate(spans):
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append(index)
    result = []
    for index, span in enumerate(spans):
        kids = [(spans[k]["start_ns"], spans[k]["end_ns"])
                for k in children.get(index, ())]
        result.append(span["end_ns"] - span["start_ns"] - covered(kids))
    return result


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def atmem_speedup(ops):
    """The paper's headline number, informational (the output check pins
    it). With an all-slow baseline (Figure 5): the geometric mean over
    (kernel, dataset) of the all-slow measured time over ATMem's. With an
    mbind variant instead (Table 4): the geometric mean of mbind's
    simulated migration time over ATMem's."""
    by_graph = {}
    for op in ops:
        by_graph.setdefault((op["kernel"], op["dataset"]),
                            {})[op["policy"]] = op
    gains = []
    for runs in by_graph.values():
        atmem = runs.get("atmem")
        if atmem is None:
            continue
        if "all-slow" in runs:
            gains.append(ratio(runs["all-slow"]["measured_iter_sec"],
                               atmem["measured_iter_sec"]))
        elif "atmem-mbind" in runs:
            gains.append(ratio(runs["atmem-mbind"]["migration"]["sim_s"],
                               atmem["migration"]["sim_s"]))
    return _geomean(gains)


def _pass_layers(pass_record, spans, selfs):
    """Per-layer values of one traced pass."""
    ops = pass_record["ops"]
    ms = 1e-6  # ns -> ms
    by_name = {}
    durations = {}
    optimize_calls = []
    bodies = {}
    plain = {}
    untracked = {}
    shadow_graph = {s["op"]: (s["kernel"], s["dataset"])
                    for s in pass_record.get("shadows", [])}
    for span, own in zip(spans, selfs):
        name = span["name"]
        duration = span["end_ns"] - span["start_ns"]
        by_name[name] = by_name.get(name, 0) + own
        durations[name] = durations.get(name, 0) + duration
        if name == "core.optimize":
            optimize_calls.append(duration * ms)
        elif name == "core.body":
            bodies.setdefault(span["op"], []).append(
                (span["start_ns"], duration))
        elif name == "core.plain_body":
            plain.setdefault(shadow_graph[span["op"]], []).append(
                (span["start_ns"], duration))
        elif name == "apps.untracked":
            untracked[shadow_graph[span["op"]]] = duration

    def total(name):
        return by_name.get(name, 0) * ms

    def in_order(timed):
        return [duration for _, duration in sorted(timed)]

    plain = {graph: in_order(timed) for graph, timed in plain.items()}
    # Each profiled iteration's body minus the same iteration's plain body
    # in the shadow of its (kernel, dataset).
    profiler_ns = 0
    for op in ops:
        count = op["profiled_iterations"]
        if not count:
            continue
        profiled = in_order(bodies.get(op["op"], []))[:count]
        baseline = plain[(op["kernel"], op["dataset"])][:count]
        profiler_ns += sum(profiled) - sum(baseline)

    accesses = sum(op["accesses"] for op in ops)
    misses = sum(op["fast_misses"] + op["slow_misses"] for op in ops)
    tlb_lookups = sum(op["tlb_hits"] + op["tlb_misses"] for op in ops)
    atmem_ops = [op for op in ops if op["profiled_iterations"]]
    workload_ns = (durations.get("pass", 0)
                   - sum(durations.get(n, 0) for n in BENCH_SPANS))
    unattributed_ns = sum(by_name.get(n, 0) for n in CONTAINER_SPANS)
    body_ns = by_name.get("core.body", 0)
    return {
        "graph.build_ms": total("graph.build"),
        "graph.edges_per_s": ratio(pass_record["edges"],
                                   by_name.get("graph.build", 0) * 1e-9),
        "core.setup_ms": total("core.setup"),
        "mem.registered_mb": max(op["registered_bytes"] for op in ops) / MB,
        "core.body_ms": total("core.body"),
        "core.ns_per_access": ratio(body_ns, accesses),
        "sim.accesses": accesses,
        "sim.llc_hit_ratio": ratio(sum(op["llc_hits"] for op in ops),
                                   accesses),
        "sim.slow_miss_share": ratio(sum(op["slow_misses"] for op in ops),
                                     misses),
        "apps.untracked_ms": total("apps.untracked"),
        "core.tracking_factor": ratio(sum(d[0] for d in plain.values()),
                                      sum(untracked.values())),
        "core.end_iter_ms": total("core.end_iteration"),
        "core.misses_drained": sum(op["drained_misses"] for op in ops),
        "profiler.overhead_ms": profiler_ns * ms,
        "profiler.samples": sum(op["samples"] for op in ops),
        "profiler.sample_ratio": ratio(sum(op["samples"] for op in ops),
                                       sum(op["misses_seen"] for op in ops)),
        "core.optimize_ms": median(optimize_calls) if optimize_calls else 0.0,
        "core.optimize_total_ms": total("core.optimize"),
        "mem.moved_mb": sum(op["migration"]["bytes"] for op in ops) / MB,
        "mem.remigrated_mb": sum(e["bytes"] for op in ops
                                 for e in op["epochs"][1:]) / MB,
        "mem.ranges": sum(op["migration"]["ranges"] for op in ops),
        "mem.huge_pages_split": sum(op["migration"]["huge_split"]
                                    for op in ops),
        "mem.skipped_chunks": sum(op["skipped_chunks"] for op in ops),
        "sim.fast_data_ratio": (statistics.fmean(
            op["fast_data_ratio"] for op in atmem_ops) if atmem_ops else 0.0),
        "sim.migration_ms": sum(op["migration"]["sim_s"] for op in ops) * 1e3,
        "sim.tlb_misses": sum(op["tlb_misses"] for op in ops),
        "sim.tlb_miss_ratio": ratio(sum(op["tlb_misses"] for op in ops),
                                    tlb_lookups),
        "obs.export_ms": total("obs.export"),
        "obs.artifact_kb": sum(op["artifact_bytes"] for op in ops) / 1e3,
        "core.teardown_ms": total("core.teardown"),
        "apps.checksum_ms": total("apps.checksum"),
        "trace.unattributed_frac": ratio(unattributed_ns, workload_ns),
        "sim.atmem_speedup": atmem_speedup(ops),
    }


def per_layer(untraced, traced, spans, attempted, failed):
    """Per-layer metrics of a traced run: the median over traced passes of
    each layer's per-pass value, plus the tracing overhead measured
    against the run's own untraced passes."""
    selfs = self_times(spans)
    by_pass = {}
    for span, own in zip(spans, selfs):
        by_pass.setdefault(span["pass"], ([], []))
        by_pass[span["pass"]][0].append(span)
        by_pass[span["pass"]][1].append(own)
    rows = [_pass_layers(p, *by_pass.get(p["pass"], ([], [])))
            for p in traced]
    values = {name: median([row[name] for row in rows]) for name in rows[0]}

    def host(p):
        return p["setup_s"] + p["wall_s"]

    values["trace.overhead_frac"] = (
        median([host(p) for p in traced])
        / median([host(p) for p in untraced]) - 1.0)
    values["fail_ratio"] = ratio(failed, attempted)
    return values


# Timed layers whose self times partition a traced pass's workload time
# (with the unattributed rest).
SHARE_LAYERS = ("graph.build_ms", "core.setup_ms", "core.body_ms",
                "core.end_iter_ms", "core.optimize_total_ms",
                "apps.checksum_ms", "core.teardown_ms", "obs.export_ms")


def layer_shares(values):
    """Each timed layer's share of the traced workload time, for the
    benchmark doc's table."""
    timed = {k: values[k] for k in SHARE_LAYERS}
    layered = sum(timed.values())
    unattributed = values["trace.unattributed_frac"]
    whole = layered / (1.0 - unattributed) if unattributed < 1.0 else 0.0
    shares = {k: ratio(v, whole) for k, v in timed.items()}
    shares["unattributed"] = unattributed
    return shares
