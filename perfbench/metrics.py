"""Turns the driver's raw samples into the benchmark's metrics.

The driver (driver.cpp) records per-op host times, per-signal modeled times
and oracle verdicts, serve passes, layer counters and spans; every
percentile, ratio and search lives here so it can be unit-tested.

Sample sets:
  timed  -- ops of the timed phase: host-clock metrics and pass_share.
  model  -- set-up ops plus the first MODEL_OPS timed ops (untraced and
            traced runs draw the same inputs for them), or for
            serve_cluster the first SERVE_SWEEPS ladder sweeps. Modeled and
            accuracy metrics come from this fixed sample, so they repeat
            exactly for a given seed however fast the host is.
A traced run ends with pairs of overhead ops (one untraced, one traced, on
the same inputs); they give tracing_overhead and nothing else.
"""

import math

# Ops after set-up in the fixed modeled sample (batches of 8 signals).
MODEL_OPS = {"steady_2e18": 10, "cold_mixed_fleet": 21}
SERVE_SWEEPS = 2  # serve_cluster ladder sweeps in the modeled sample

# The benchmark's latency limit for slo_qps, modeled ms, on every workload.
# It sits between the completions of consecutive signals of a pipelined
# steady_2e18 batch (~2.3 ms apart), so a seed's jitter does not move a
# signal across it; serve_cluster's latency class stays far below it until
# requests are shed or rejected.
LATENCY_LIMIT_MS = 9.0


HARD_RECALL = 0.5  # below this on a clean signal the output is wrong

MIN_BEYOND = 10  # samples a reported tail percentile needs beyond it

STEPS = {"perm_filter": "1-2 perm+filter", "subfft": "3 subsampled fft",
         "cutoff": "4 cutoff", "reverse_hash": "5 reverse hash",
         "estimate": "6 estimate"}


class InsufficientSamples(ValueError):
    pass


def percentile(values, q, min_beyond=MIN_BEYOND):
    """Nearest-rank percentile (q in (0, 1]).

    A tail percentile (q > 0.5) is reported only when at least `min_beyond`
    samples rank above it; the median needs one sample.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise InsufficientSamples("no samples")
    rank = max(1, math.ceil(q * n))
    if q > 0.5 and n - rank < min_beyond:
        raise InsufficientSamples(
            f"p{round(q * 100)} of {n} samples has {n - rank} beyond it, "
            f"needs {min_beyond}")
    return xs[rank - 1]


def median(values):
    return percentile(values, 0.5)


def goodput(passed, seconds):
    """Operations that passed the check per second."""
    return passed / seconds if seconds > 0 else 0.0


def self_times(spans):
    """Self time per span: its duration minus the union of its children.

    spans: [name, t0, t1, parent, op] rows (parent is a row index or -1).
    """
    children = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    out = []
    for i, s in enumerate(spans):
        t0, t1 = s[1], s[2]
        covered, end = 0.0, t0
        for a, b in sorted((max(spans[c][1], t0), min(spans[c][2], t1))
                           for c in children.get(i, [])):
            a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        out.append((t1 - t0) - covered)
    return out


def slo_search(points, limit_ms):
    """Highest rate meeting the p90 latency limit, scanning rates upward.

    points: [(rate, latencies)] where a shed or rejected request's latency
    is math.inf. The scan stops at the first rate that misses, so a rate
    above a miss never counts. 0.0 when even the lowest rate misses.
    """
    best = 0.0
    for rate, lats in sorted(points, key=lambda p: p[0]):
        if percentile(lats, 0.9) > limit_ms:
            break
        best = rate
    return best


def _share(num, den):
    return num / den if den > 0 else 0.0


def _sigs(ops):
    return [s for op in ops for s in op["sigs"]]


def samples(raw):
    """(timed ops, model-sample ops) of one run."""
    ops = raw["ops"]
    timed = [op for op in ops if op["phase"] == "timed"]
    if raw["workload"] == "serve_cluster":
        model = [op for op in timed if op["extra"]["sweep"] < SERVE_SWEEPS]
    else:
        setup = [op for op in ops if op["phase"] == "setup"]
        model = setup + timed[:MODEL_OPS[raw["workload"]]]
    return timed, model


def end_to_end(raw):
    """Every end-to-end metric of one untraced run, plus its sample counts."""
    wl = raw["workload"]
    timed, model = samples(raw)
    tsigs = _sigs(timed)
    passed = sum(s["pass"] for s in tsigs)
    host_s = sum(op["host_ms"] for op in timed) / 1e3
    msigs = _sigs(model)
    mpass = [s for s in msigs if s["pass"]]
    m = {
        "setup_s": median(raw["setup_s"]),
        "host_sps": goodput(passed, host_s),
        "model_sps": goodput(len(mpass),
                             sum(op["model_ms"] for op in model) / 1e3),
        "pass_share": _share(passed, len(tsigs)),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    if wl == "serve_cluster":
        # Passes at one rate multiple pooled over the modeled sweeps.
        by_rate = {}
        for op in model:
            by_rate.setdefault(op["extra"]["mult"], []).append(op)
        done = [s for s in _sigs(by_rate[min(by_rate)])
                if s["outcome"] == "completed"]
        lat = [s["lat_ms"] for s in done if s["slo"] == "latency"]
        # Per sweep, since the host cost per request differs by rate.
        sweeps = {}
        for op in timed:
            sweeps.setdefault(op["extra"]["sweep"], []).append(op)
        m["host_ms_p50"] = median(
            [sum(op["host_ms"] for op in ops) / len(_sigs(ops))
             for ops in sweeps.values()])
        m["model_ms_p50"] = median([s["lat_ms"] for s in done
                                    if s["slo"] == "throughput"])
        # Throughput-class requests all have one shape. The two shapes'
        # errors differ by orders of magnitude, so a median over both would
        # flip between them from seed to seed; the other shape's errors
        # sit on a few discrete levels, where the median jumps as well.
        m["l1_err_p50"] = median([s["l1"] for s in mpass
                                  if s["slo"] == "throughput"])
        m["lat_p50_ms"] = median(lat)
        m["lat_p90_ms"] = percentile(lat, 0.9)
        m["tput_p90_ms"] = percentile(
            [s["lat_ms"] for s in done if s["slo"] == "throughput"], 0.9)
        m["slo_qps"] = slo_search(
            [(sum(op["extra"]["rate_rps"] for op in ops) / len(ops),
              [s["lat_ms"] if s["outcome"] == "completed" else math.inf
               for s in _sigs(ops) if s["slo"] == "latency"])
             for ops in by_rate.values()], LATENCY_LIMIT_MS)
    else:
        m["l1_err_p50"] = median([s["l1"] for s in mpass if not s["noisy"]])
        m["host_ms_p50"] = median([op["host_ms"] for op in timed])
        m["model_ms_p50"] = median([s["dev_ms"] for s in msigs])
        lat = [s["lat_ms"] for s in msigs]
        m["lat_p50_ms"] = median(lat)
        m["lat_p90_ms"] = percentile(lat, 0.9)
        m["tput_p90_ms"] = percentile([s["job_ms"] for s in msigs], 0.9)
        # No arrival process here: passing signals that complete within the
        # limit of their batch's dispatch, per modeled second.
        m["slo_qps"] = goodput(
            sum(s["pass"] and s["lat_ms"] <= LATENCY_LIMIT_MS for s in msigs),
            sum(op["model_ms"] for op in model) / 1e3)
    counts = {"timed_ops": len(timed), "model_ops": len(model),
              "model_signals": len(msigs), "model_passed": len(mpass)}
    return m, counts


# Modeled and accuracy metrics: a function of the seed alone.
DETERMINISTIC = ["model_sps", "model_ms_p50", "l1_err_p50", "lat_p50_ms",
                 "lat_p90_ms", "tput_p90_ms", "slo_qps"]


def deterministic(raw):
    m, counts = end_to_end(raw)
    d = {k: m[k] for k in DETERMINISTIC}
    d["model_passed"] = counts["model_passed"]
    return d


def hard_failures(raw):
    """(attempted, failed) over every checked signal of the run.

    A hard failure is a call that threw, or a clean signal the program
    completed with an empty spectrum or with fewer than HARD_RECALL of the
    planted locations: a broken program, not the occasional miss of a
    randomized algorithm. Misses of the accuracy budget, noisy-signal
    failures and shed or rejected requests are measured outcomes: they
    lower pass_share instead.
    """
    sigs = _sigs(raw["ops"])
    failed = sum(s["error"] or (not s["noisy"]
                                and s["outcome"] in ("", "completed")
                                and (s["empty"] or s["recall"] < HARD_RECALL))
                 for s in sigs)
    return len(sigs), failed


def per_layer(raw):
    """Every per-layer metric of one traced run (0 where the workload does
    not enter the layer)."""
    wl = raw["workload"]
    lay = raw["layers"]
    ops = raw["ops"]
    # Self times need every span (parents are row indices); the metrics
    # leave out the overhead ops' spans.
    selfs = self_times(raw["spans"])
    rows = [(s, t) for s, t in zip(raw["spans"], selfs)
            if s[4] < 0 or not ops[s[4]]["phase"].startswith("overhead")]
    spans = [s for s, _ in rows]
    timed, _ = samples(raw)
    tsigs = _sigs(timed)

    def get(key):
        return lay.get(key, 0.0)

    def dur(name):
        ds = [s[2] - s[1] for s in spans if s[0] == name]
        return median(ds) if ds else 0.0

    m = {
        "cusfft.plan.ctor_host_ms": dur("probe.plan_ctor"),
        "cusfft.plan.first_execute_host_ms": dur("probe.first_execute"),
        "cusfft.plan.replay_execute_host_ms": dur("probe.replay_execute"),
    }
    probes = get("step.probes")
    for short, key in STEPS.items():
        m["cusfft.plan.step_model_ms." + short] = _share(get("step." + key),
                                                         probes)
    cand = get("reg.cusfft_candidates_total")
    m["cusfft.plan.candidates_per_signal"] = _share(
        cand, get("reg.cusfft_signals_total"))
    m["cusfft.plan.candidate_yield"] = _share(
        sum(s["hits"] for s in tsigs), cand)

    rec, rep = get("reg.cusfft_graph_records_total"), get(
        "reg.cusfft_graph_replays_total")
    m["cusim.graph.replay_share"] = _share(rep, rec + rep)
    hits, misses = get("reg.cusfft_pool_hits_total"), get(
        "reg.cusfft_pool_misses_total")
    m["cusim.pool.hit_ratio"] = _share(hits, hits + misses)
    m["cusim.arena.reserved_bytes"] = get("arena_reserved_bytes")
    ks = get("kernel.signals")
    txb = get("kernel.tx_bytes")
    m["cusim.kernel.launches_per_signal"] = _share(get("kernel.launches"), ks)
    m["cusim.kernel.coalesced_transactions_per_signal"] = _share(
        get("kernel.coalesced_tx"), ks)
    m["cusim.kernel.random_transactions_per_signal"] = _share(
        get("kernel.random_tx"), ks)
    m["cusim.kernel.coalescing_efficiency"] = _share(
        get("kernel.bytes_useful"), txb)
    m["cusim.kernel.flops_per_signal"] = _share(get("kernel.flops"), ks)
    m["cusim.kernel.ops_per_byte"] = _share(get("kernel.flops"), txb)
    m["cusim.kernel.atomic_ops_per_signal"] = _share(
        get("kernel.atomic_ops"), ks)
    m["cusim.kernel.max_atomic_conflict"] = get("kernel.max_atomic_conflict")
    m["cusim.simulate_host_ms"] = dur("cusim.simulate")

    fh, fm = get("reg.filter_cache_hits"), get("reg.filter_cache_misses")
    m["signal.filter_cache_hit_ratio"] = _share(fh, fh + fm)
    m["signal.filter_build_host_ms"] = dur("probe.filter_build")

    m["cusfft.autopick.calibrate_host_ms"] = dur("cusfft.autopick.calibrate")
    m["cusfft.autopick.ffast_share"] = _share(
        sum(s["algo"] == "ffast" for s in tsigs), len(tsigs))
    for algo in ("cusfft", "ffast"):
        ran = [s for s in tsigs if s["algo"] == algo
               and s["outcome"] in ("", "completed")]
        m[f"sfft.{algo}.fail_share"] = _share(
            sum(not s["pass"] for s in ran), len(ran))
        m[f"sfft.{algo}.empty_share"] = _share(
            sum(s["empty"] for s in ran), len(ran))

    batches = get("fleet.batches")
    for key in ("imbalance", "pcie_stall_ms", "pcie_queue_ms", "util_min"):
        m["cusfft.multi_plan." + key] = _share(get("fleet." + key), batches)

    requests = len(tsigs) if wl == "serve_cluster" else 0
    m["cusfft.cluster_plan.nic_bytes"] = _share(
        get("reg.cusfft_cluster_nic_bytes_total"), requests)
    m["cusfft.cluster_plan.nic_stall_ms"] = _share(
        get("reg.cusfft_cluster_nic_stall_ms"), requests)
    m["cusfft.cluster_plan.nic_queue_ms"] = _share(
        get("reg.cusfft_cluster_nic_queue_ms"), requests)

    server_ms = sum(s[2] - s[1] for s in spans
                    if s[0].startswith("cusfft.server."))
    m["cusfft.server.host_ms"] = _share(server_ms, requests)
    # The server's own per-pass counts over the first sweep.
    first = [op["extra"] for op in timed
             if wl == "serve_cluster" and op["extra"]["sweep"] == 0]
    nb = sum(e["batches"] for e in first)
    m["cusfft.server.batches"] = nb
    m["cusfft.server.batch_fill"] = _share(
        sum(e["batch_fill"] * e["batches"] for e in first), nb)
    m["cusfft.server.queue_depth_max"] = max(
        [e["queue_depth_max"] for e in first] or [0])
    m["cusfft.server.shed"] = sum(e["shed"] for e in first)
    m["cusfft.server.rejected"] = sum(e["rejected"] for e in first)

    roots = [t for s, t in rows if s[0] == "op" and s[3] < 0]
    m["perfbench.op_self_ms"] = median(roots) if roots else 0.0
    m["perfbench.tracing_overhead"] = tracing_overhead(raw)
    return m


def tracing_overhead(raw):
    """Median host time of the traced overhead ops over that of the
    untraced ones, minus one. The ops come in pairs on the same inputs,
    one of each, in alternating order."""
    def med(phase):
        return median([op["host_ms"] for op in raw["ops"]
                       if op["phase"] == phase])

    return med("overhead_traced") / med("overhead_untraced") - 1.0
