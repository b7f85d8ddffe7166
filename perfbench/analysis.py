"""Pure functions behind run.py: percentiles, span self time, the Chrome
trace, and the metric tables built from per-iteration results.

Every iteration result is the JSON object one `perfbench` process prints
(see perfbench.cpp). Nothing here runs the program, so test_perfbench.py
can check it on synthetic input.
"""

import json
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

WORKLOADS = ("study", "sweep", "durable", "service")
LAYERS = ("bench", "population", "scan", "longitudinal", "snapshot", "obs",
          "report", "svc")
STAGES = ("connect", "helo", "mail", "rcpt", "data")


# ------------------------------------------------------------ percentiles --

def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, n), or None when n < 11: with fewer samples
    only the median is reported. The value is a sample, so it never exceeds
    the sample max.
    """
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return sorted(values)[k], 100.0 * (k + 1) / n, n


def p50_tail_n(values):
    """Median, tail value (the median again when n < 11), sample count."""
    t = tail(values)
    return median(values), t[0] if t else median(values), len(values)


# -------------------------------------------------------------- self time --

def self_times(spans):
    """Per-span self time: duration minus the union of its children's
    intervals, clipped to the span. `spans` hold start, end and parent (an
    index into the list, -1 for a root)."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            children[span["parent"]].append(i)
    result = []
    for i, span in enumerate(spans):
        lo, hi = span["start"], span["end"]
        covered, reach = 0.0, lo
        for a, b in sorted((spans[c]["start"], spans[c]["end"])
                           for c in children[i]):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        result.append((hi - lo) - covered)
    return result


def layer_self_ms(spans):
    totals = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        totals[span["layer"]] = totals.get(span["layer"], 0.0) + own * 1e3
    return totals


# ------------------------------------------------------------ chrome trace --

def chrome_trace(runs):
    """Trace-event JSON (loadable in Perfetto / chrome://tracing) for
    `runs`: a list of (run_id, offset_s, spans). Each run is one process
    row; span times are shifted by the run's offset."""
    events = []
    for pid, (run_id, offset, spans) in enumerate(runs, start=1):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 1, "args": {"name": run_id}})
        for i, span in enumerate(spans):
            args = dict(span.get("args", {}))
            args.update(run_id=run_id, span=i, parent=span["parent"])
            events.append({
                "ph": "X", "name": span["name"], "cat": span["layer"],
                "pid": pid, "tid": 1,
                "ts": (offset + span["start"]) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, runs):
    with open(path, "w") as out:
        json.dump(chrome_trace(runs), out)


# ----------------------------------------------------------------- checks --

def check_iteration(result, recorded):
    """Names of the checks one iteration failed. `recorded` is the digest
    recorded for this workload and seed, or None."""
    failed = [c["name"] + (f" ({c['detail']})" if c["detail"] else "")
              for c in result["checks"] if not c["ok"]]
    if recorded is not None and result["digest"] != recorded:
        failed.append(f"report digest {result['digest']} != recorded "
                      f"{recorded}")
    return failed


# ---------------------------------------------------------------- metrics --

def iteration_setup_s(result):
    """From launching the iteration's process to the end of its set-up:
    exec, loading and static initialisation, then the fleet build (or the
    service loop's construction)."""
    return result["ready_at"] - result["spawned_at"]


def end_to_end(results):
    """The end_to_end metrics of BENCHMARK.json: medians over iterations."""
    def med(fn):
        return median([fn(r) for r in results])
    return {
        "setup_s": (med(iteration_setup_s), "s"),
        "wall_s": (med(lambda r: r["wall_s"]), "s"),
        "cpu_s": (med(lambda r: r["cpu_s"]), "s"),
        "probes_per_s": (med(lambda r: r["probes"] / r["wall_s"]), "1/s"),
        "peak_rss_mb": (med(lambda r: r["peak_rss_kb"] / 1024.0), "MiB"),
        "written_mb": (med(lambda r: r["written_bytes"] / 2**20), "MiB"),
    }


def workload_extras(workload, results):
    """The workload-specific end-to-end figures, printed beside the
    BENCHMARK.json metrics: (name, value, unit, note) rows."""
    rows = []

    def per_iteration(key, index):
        """Median over iterations of one iteration's p50 (0) or tail (1)."""
        return median([p50_tail_n(r["samples"][key])[index] for r in results])

    if workload in ("study", "durable"):
        n = len(results[0]["samples"]["round_ms"])
        rows.append(("round_ms_p50", per_iteration("round_ms", 0), "ms",
                     f"n={n} rounds per iteration"))
        t = tail(results[0]["samples"]["round_ms"])
        if t:
            rows.append((f"round_ms_p{int(t[1])}",
                         per_iteration("round_ms", 1), "ms",
                         f"n={n}, 10 rounds beyond"))
    if workload == "service":
        samples = results[0]["samples"]["job_s"]
        rows.append(("jobs_per_s",
                     median([len(r["samples"]["job_s"]) / r["wall_s"]
                             for r in results]), "1/s", ""))
        rows.append(("job_s_p50", per_iteration("job_s", 0), "s",
                     f"n={len(samples)} job runs per iteration"))
        t = tail(samples)
        if t:
            rows.append(("job_s_tail", per_iteration("job_s", 1), "s",
                         f"p{t[1]:.1f}, n={t[2]}, 10 runs beyond"))
    return rows


def failed_share(workload, result):
    """Failed over attempted operations: addresses left transient-exhausted
    over addresses tested (scans), job runs not Done over runs submitted
    (service; the runner's check makes any such run a failed iteration)."""
    counts = result["counts"]
    if workload == "service":
        return 0.0
    tested = counts.get("faults.addresses_tested", 0)
    return counts.get("faults.exhausted", 0) / tested if tested else 0.0


# Every per_layer metric of BENCHMARK.json with its unit. A layer the
# workload does not run reads 0.
PER_LAYER = [
    ("population.build_s", "s"),
    ("population.hosts", "count"),
    ("population.domains", "count"),
    ("scan.campaign_s", "s"),
    ("scan.probe_attempts", "count"),
    ("scan.retries", "count"),
] + [(f"scan.stage_ms.{s}", "ms") for s in STAGES] + [
    ("faults.injected", "count"),
    ("faults.requeued", "count"),
    ("faults.breaker_trips", "count"),
    ("faults.exhausted", "count"),
    ("faults.exhausted_share", "ratio"),
    ("longitudinal.begin_s", "s"),
    ("longitudinal.round_ms_p50", "ms"),
    ("longitudinal.round_ms_p70", "ms"),
    ("longitudinal.round_ms_n", "count"),
    ("longitudinal.probes_per_round_p50", "count"),
    ("longitudinal.finish_s", "s"),
    ("dns.log_entries_begin", "count"),
    ("dns.log_entries", "count"),
    ("dns.distinct_qnames", "count"),
    ("dns.cache_hit_ratio", "ratio"),
    ("dns.cache_lookups", "count"),
    ("spf.cache_hits", "count"),
    ("spf.cache_misses", "count"),
    ("spf.cache_size", "count"),
    ("spf.cache_full", "bool"),
    ("spf.cache_hit_ratio", "ratio"),
    ("spf.cache_lookups", "count"),
    ("net.smtp_frames", "count"),
    ("net.dns_frames", "count"),
    ("util.busy_share.setup", "ratio"),
    ("util.busy_share.begin", "ratio"),
    ("util.busy_share.rounds", "ratio"),
    ("util.busy_share.finish", "ratio"),
    ("util.busy_share.campaign", "ratio"),
    ("util.busy_share.svc", "ratio"),
    ("snapshot.capture_ms_p50", "ms"),
    ("snapshot.capture_ms_total", "ms"),
    ("snapshot.encode_ms_p50", "ms"),
    ("snapshot.encode_ms_total", "ms"),
    ("snapshot.write_ms_p50", "ms"),
    ("snapshot.write_ms_total", "ms"),
    ("snapshot.n", "count"),
    ("snapshot.bytes", "bytes"),
    ("obs.line_ms_p50", "ms"),
    ("obs.line_ms_total", "ms"),
    ("obs.line_n", "count"),
    ("obs.prom_ms", "ms"),
    ("obs.families", "count"),
    ("report.render_ms", "ms"),
    ("svc.run_s", "s"),
    ("svc.ticks", "count"),
    ("svc.job_runs", "count"),
    ("svc.events", "count"),
    ("svc.bytes_per_tick", "bytes"),
    ("svc.state_bytes", "bytes"),
    ("svc.jobs_per_s", "1/s"),
    ("svc.job_s_p50", "s"),
    ("svc.job_s_tail", "s"),
    ("svc.job_s_n", "count"),
    ("svc.admission_wait_ticks_p50", "ticks"),
    ("svc.admission_wait_ticks_tail", "ticks"),
    ("svc.admission_wait_n", "count"),
] + [(f"{layer}.self_ms", "ms") for layer in LAYERS] + [
    ("trace.spans", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
]


def _busy(spans, name_prefix, threads):
    """CPU seconds over (wall seconds x threads) across matching spans."""
    cpu = wall = 0.0
    for span in spans:
        if span["name"].startswith(name_prefix):
            cpu += span["args"].get("cpu_s", 0.0)
            wall += span["end"] - span["start"]
    return cpu / (wall * threads) if wall > 0 else 0.0


def _ratio(hits, misses):
    total = hits + misses
    return hits / total if total else 0.0


def layer_values(workload, result):
    """Per-layer values of one traced iteration."""
    c = dict(result["counts"])
    s = result["samples"]
    spans = result["spans"]
    threads = result["threads"]
    v = {name: 0.0 for name, _ in PER_LAYER}
    for name in v:
        if name in c:
            v[name] = c[name]
    if workload != "service":
        v["population.build_s"] = result["setup_s"]
    v["faults.exhausted_share"] = failed_share(workload, result)

    if s.get("round_ms"):
        (v["longitudinal.round_ms_p50"], v["longitudinal.round_ms_p70"],
         v["longitudinal.round_ms_n"]) = p50_tail_n(s["round_ms"])
        v["longitudinal.probes_per_round_p50"] = median(s["round_probes"])

    dns_hits, dns_misses = c.get("dns.cache_hits", 0), c.get(
        "dns.cache_misses", 0)
    v["dns.cache_hit_ratio"] = _ratio(dns_hits, dns_misses)
    v["dns.cache_lookups"] = dns_hits + dns_misses
    spf_hits, spf_misses = c.get("spf.cache_hits", 0), c.get(
        "spf.cache_misses", 0)
    v["spf.cache_hit_ratio"] = _ratio(spf_hits, spf_misses)
    v["spf.cache_lookups"] = spf_hits + spf_misses

    v["util.busy_share.setup"] = _busy(spans, "Fleet", 1) or _busy(
        spans, "ServiceLoop::ServiceLoop", 1)
    v["util.busy_share.begin"] = _busy(spans, "Study::begin", threads)
    v["util.busy_share.rounds"] = _busy(spans, "Study::run_round", threads)
    v["util.busy_share.finish"] = _busy(spans, "Study::finish", threads)
    v["util.busy_share.campaign"] = _busy(spans, "Campaign::run", threads)
    v["util.busy_share.svc"] = _busy(spans, "ServiceLoop::run", threads)

    for part in ("capture", "encode", "write"):
        values = s.get(f"snapshot.{part}_ms", [])
        v[f"snapshot.{part}_ms_p50"] = median(values)
        v[f"snapshot.{part}_ms_total"] = sum(values)
        v["snapshot.n"] = len(values)
    lines = s.get("obs.line_ms", [])
    v["obs.line_ms_p50"] = median(lines)
    v["obs.line_ms_total"] = sum(lines)
    v["obs.line_n"] = len(lines)

    if s.get("job_s"):
        v["svc.jobs_per_s"] = len(s["job_s"]) / c["svc.run_s"]
        v["svc.job_s_p50"], v["svc.job_s_tail"], v["svc.job_s_n"] = (
            p50_tail_n(s["job_s"]))
    if s.get("svc.admission_wait_ticks"):
        (v["svc.admission_wait_ticks_p50"], v["svc.admission_wait_ticks_tail"],
         v["svc.admission_wait_n"]) = p50_tail_n(s["svc.admission_wait_ticks"])

    for layer, ms in layer_self_ms(spans).items():
        v[f"{layer}.self_ms"] = ms
    v["trace.spans"] = len(spans)
    return v


def per_layer(workload, traced, untraced):
    """Medians over traced iterations, plus the tracing overhead against
    the untraced iterations of the same run."""
    values = [layer_values(workload, r) for r in traced]
    out = {name: (median([v[name] for v in values]), unit)
           for name, unit in PER_LAYER}
    plain = median([r["wall_s"] for r in untraced])
    with_trace = median([r["wall_s"] for r in traced])
    out["trace.untraced_wall_s"] = (plain, "s")
    out["trace.traced_wall_s"] = (with_trace, "s")
    out["trace.overhead_s"] = (with_trace - plain, "s")
    out["trace.overhead_share"] = ((with_trace - plain) / plain
                                   if plain else 0.0, "ratio")
    return out
