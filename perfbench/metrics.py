"""Metrics of one benchmark run, derived from the raw record that
gbpol_perfbench writes (see src/recorder.hpp for its layout).

Untraced runs report the end-to-end metrics, traced runs the per-layer
metrics. Every function here is pure, so test_metrics.py can check it on
hand-made records.
"""

import math
import statistics

ROUTES = ("cilk4", "replicated4_steal", "owned4")
PATHS = ("cold", "cached", "delta", "memoized")

# Span name -> per-layer metric holding the median over ops of the span's
# total duration within the op.
SPAN_METRICS = {
    "surface": "surface.s",
    "prepared.build": "prepared.build_s",
    "born_lists.build": "born_lists.build_s",
    "born_far": "born_far.s",
    "born_near": "born_near.s",
    "born_push": "born_push.s",
    "epol_bins": "epol_bins.s",
    "epol_lists.build": "epol_lists.build_s",
    "epol_far": "epol_far.s",
    "epol_near": "epol_near.s",
}

# Op field of a serial decomposition -> (per-layer metric, unit).
DECOMPOSITION_FIELDS = {
    "qpoints": ("surface.qpoints", "count"),
    "footprint_mib": ("prepared.footprint_mb", "MiB"),
    "born_far_entries": ("born_lists.far_entries", "count"),
    "born_near_entries": ("born_lists.near_entries", "count"),
    "born_lists_mib": ("born_lists.mb", "MiB"),
    "epol_far_entries": ("epol_lists.far_entries", "count"),
    "epol_near_entries": ("epol_lists.near_entries", "count"),
    "epol_lists_mib": ("epol_lists.mb", "MiB"),
}

# The workload's own op kind: end-to-end metrics and trace.overhead use it.
OP_KIND = {"cold_serial": "cold", "parallel_routes": "route", "serving_mix": "serve"}


def percentile(samples, p):
    """Nearest-rank p-th percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(samples, ladder=(99.9, 99, 90, 75, 50), min_beyond=10):
    """The highest percentile of `ladder` with at least `min_beyond` samples
    beyond it, as (p, value); (None, None) when even the lowest has fewer."""
    for p in sorted(ladder, reverse=True):
        if samples_beyond(len(samples), p) >= min_beyond:
            return p, percentile(samples, p)
    return None, None


def energy_rel_err(energy, reference):
    """|E - E_ref| / |E_ref|."""
    return abs(energy - reference) / abs(reference)


def max_rel_err(ops, naive):
    """Largest relative error over ops whose reference energy is known."""
    errors = [energy_rel_err(o["energy"], naive[o["ref"]])
              for o in ops if o.get("ref") in naive and o.get("energy") is not None]
    return max(errors) if errors else None


def path_shares(ops):
    """Share of serve ops per path, over all serve ops given (every path of
    PATHS is present; paths not taken count 0)."""
    total = len(ops)
    counts = {p: 0 for p in PATHS}
    for o in ops:
        counts[o["path"]] = counts.get(o["path"], 0) + 1
    return {p: (counts[p] / total if total else 0.0) for p in PATHS}


def cache_hit_ratio(ops):
    """Prepared-cache hits over lookups: cached serves over cached + cold
    (memoized and delta serves never consult the cache)."""
    cached = sum(1 for o in ops if o["path"] == "cached")
    cold = sum(1 for o in ops if o["path"] == "cold")
    return cached / (cached + cold) if cached + cold else 0.0


def span_seconds(spans):
    """{span name: {op: total seconds of that span in that op}}."""
    out = {}
    for s in spans:
        per_op = out.setdefault(s["name"], {})
        per_op[s["op"]] = per_op.get(s["op"], 0.0) + (s["t1"] - s["t0"])
    return out


def failed_ops(record):
    return sum(1 for o in record["ops"] if o.get("failed"))


def attempted_ops(record):
    return sum(1 for o in record["ops"] if o["kind"] != "setup")


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(record, workload):
    ops = [o for o in record["ops"] if o["kind"] == OP_KIND[workload] and o["timed"]]
    times = [o["t"] for o in ops]
    setup = [o["t"] for o in record["ops"] if o["kind"] == "setup"]
    if workload == "serving_mix":
        # A memoized answer computes nothing; it carries the modeled time of
        # the serve it repeats, which this round did not spend again.
        rounds = {}
        for o in ops:
            spent = 0.0 if o["path"] == "memoized" else o["modeled_s"]
            rounds[o["round"]] = rounds.get(o["round"], 0.0) + spent
        modeled = statistics.median(rounds.values())
    else:
        modeled = _median(o.get("modeled_s") for o in ops)
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "ops_per_s": _metric(len(times) / sum(times), "1/s"),
        "op_p50_s": _metric(percentile(times, 50), "s"),
        "op_p90_s": _metric(percentile(times, 90), "s"),
        "modeled_makespan_s": _metric(modeled, "s"),
        "peak_rss_mb": _metric(record["peak_rss_mib"], "MiB"),
    }


def _serial_layers(record, out):
    """Span and list metrics of the serial call sequence (traced cold ops,
    serial probes, and the set-up spans of parallel_routes)."""
    per_span = span_seconds(record["spans"])
    for name, metric in SPAN_METRICS.items():
        out[metric] = _metric(_median(per_span.get(name, {}).values()), "s")
    decomposed = [o for o in record["ops"] if "born_far_entries" in o]
    for field, (metric, unit) in DECOMPOSITION_FIELDS.items():
        out[metric] = _metric(_median(o[field] for o in decomposed), unit)
    for layer, field in (("born_near", "born_near_pairs"), ("epol_near", "epol_near_pairs")):
        times = per_span.get(layer, {})
        rates = [o[field] / times[o["op"]] for o in decomposed if times.get(o["op"])]
        out[layer + ".pairs_per_s"] = _metric(_median(rates), "1/s")


def _route_layers(ops, naive, out):
    by_route = {r: [o for o in ops if o["route"] == r] for r in ROUTES}
    for r, rops in by_route.items():
        prefix = "route." + r
        out[prefix + ".wall_s"] = _metric(_median(o["t"] for o in rops), "s")
        out[prefix + ".modeled_s"] = _metric(_median(o["modeled_s"] for o in rops), "s")
        if r != "cilk4":  # OCT_CILK is one rank: no messages, no rank skew
            out[prefix + ".comm_s"] = _metric(_median(o["comm_s"] for o in rops), "s")
            out[prefix + ".rank_imbalance"] = _metric(
                _median(o["rank_imbalance"] for o in rops), "ratio")
            out["mpisim.%s.bytes_sent" % r] = _metric(
                _median(o["bytes_sent"] for o in rops), "bytes")
        out[prefix + ".energy_rel_err"] = _metric(max_rel_err(rops, naive) or 0.0, "ratio")
        for phase in ("born", "push", "epol"):
            key = phase + "_busy_s"
            out["%s.%s" % (prefix, key)] = _metric(_median(o.get(key) for o in rops), "s")
    cilk, replicated = by_route["cilk4"], by_route["replicated4_steal"]
    gaps = [energy_rel_err(c["energy"], p["energy"]) for c in cilk for p in replicated
            if c["ref"] == p["ref"]]
    out["route.cilk4.gap_vs_replicated"] = _metric(max(gaps) if gaps else 0.0, "ratio")
    out["balance.migrated_chunks"] = _metric(
        _median(o["migrated_chunks"] for o in replicated), "count")
    out["balance.steal_grants"] = _metric(_median(o["steal_grants"] for o in replicated), "count")
    owned = by_route["owned4"]
    out["halo.bytes"] = _metric(_median(o["halo_bytes"] for o in owned), "bytes")
    out["halo.owned_mb_per_rank"] = _metric(
        _median(o["owned_bytes_per_rank"] for o in owned) / 2.0**20, "MiB")
    out["ws.steals"] = _metric(_median(o["steals"] for o in cilk), "count")
    out["ws.tasks"] = _metric(_median(o["tasks"] for o in cilk), "count")
    out["ws.steal_success_rate"] = _metric(
        _median(o["steal_successes"] / o["steal_attempts"] for o in cilk
                if o.get("steal_attempts")), "ratio")


def _serve_layers(ops, evictions, out):
    shares = path_shares(ops)
    for p in PATHS:
        out["serve.%s.p50_s" % p] = _metric(_median(o["t"] for o in ops if o["path"] == p), "s")
        out["serve.%s.share" % p] = _metric(shares[p], "ratio")
    out["serve.cache_hit_ratio"] = _metric(cache_hit_ratio(ops), "ratio")
    out["serve.cache_evictions"] = _metric(evictions, "count")
    out["serve.queue_s"] = _metric(_median(o["queue_s"] for o in ops), "s")
    delta = [o for o in ops if o["path"] == "delta"]
    out["delta.reused_fraction"] = _metric(_median(o["reused_fraction"] for o in delta), "ratio")
    out["delta.dirty_leaves"] = _metric(_median(o["dirty_leaves"] for o in delta), "count")
    out["delta.lists_rebuilt"] = _metric(_median(o["lists_rebuilt"] for o in delta), "count")


def per_layer(record, workload):
    """Every per-layer metric. Layers the workload's own ops do not reach
    come from the probes its traced run adds (untimed ops)."""
    naive = record.get("naive", {})
    traced = [o for o in record["ops"] if o.get("traced")]
    out = {}
    _serial_layers(record, out)
    _route_layers([o for o in traced if o["kind"] == "route"], naive, out)
    serve = [o for o in traced if o["kind"] == "serve"]
    evictions = record.get("service", {}).get("cache_evictions", 0)
    _serve_layers(serve, evictions, out)

    kind = OP_KIND[workload]
    own = [o for o in record["ops"] if o["kind"] == kind and o["timed"]]
    out["energy_rel_err"] = _metric(max_rel_err(own, naive) or 0.0, "ratio")
    traced_t = [o["t"] for o in own if o["traced"]]
    untraced_t = [o["t"] for o in own if not o["traced"]]
    out["trace.overhead"] = _metric(
        percentile(traced_t, 50) / percentile(untraced_t, 50), "ratio")
    return out


def result(record, workload, trace):
    failed = failed_ops(record)
    metrics = per_layer(record, workload) if trace else end_to_end(record, workload)
    return {
        "correct": failed == 0 and not record["run_failures"],
        "attempted": attempted_ops(record),
        "failed": failed,
        "metrics": metrics,
    }


def context(record, workload):
    """Run context printed next to the result: the op count and the highest
    percentile with ten samples beyond it (the tail the run can support)."""
    ops = [o for o in record["ops"] if o["kind"] == OP_KIND[workload] and o["timed"]]
    times = [o["t"] for o in ops]
    p, value = tail_percentile(times)
    ctx = dict(record["context"])
    ctx.update({
        "ops": len(times),
        "op_p90_samples_beyond": samples_beyond(len(times), 90),
        "op_tail_percentile": p,
        "op_tail_s": value,
        "run_failures": record["run_failures"],
        "failures": [f for o in record["ops"] for f in o.get("failed", [])],
    })
    if "service" in record:
        ctx["service_window"] = record["service"]
        ctx["rounds"] = record["rounds"]
    return ctx
