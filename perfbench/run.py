#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  It builds perfbench/main.exe with dune,
runs the workload in fresh processes (so each peak RSS belongs to that
workload alone), checks every output, prints every metric by name with
its unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones (see README.md for what each means).  Any wrong
value, error reply, timeout or dropped connection makes the run fail
with exit status 1; a simulated count that differs between two
same-seed processes does too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SIM = ("sim_get_uniform", "sim_etc_mixed")
NATIVE = "native_zipf"
# set-ups per run at least: the metrics are medians over them, and most
# of the noise on a shared VM is per process (README.md)
MIN_PROCS = {"sim_get_uniform": 3, "sim_etc_mixed": 3, NATIVE: 7}
MAX_PROCS = 9
# The sim ops_per_s is adjusted to a reference host speed: a process
# whose probe (common.ml) reads a median of `p` ns per load reports its
# rate times (p / PROBE_REF_NS) ** PROBE_ELASTICITY.  The elasticity is the slope of
# log(sim rate) on log(probe ns) across processes, measured on both sim
# workloads (README.md).
PROBE_REF_NS = 150.0
PROBE_ELASTICITY = 2.0
EXTRA_PROCS_UNTIL_S = 90  # no process beyond MIN_PROCS starts after this
RUN_DEADLINE_S = 170  # a run must end within 180 s
run_start = time.monotonic()  # reset by run()
ATTRIBUTION_FLAG = 0.9


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("run from the repository root (no dune-project here)")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def run_proc(workload, seed, trace=False, tiny=False):
    args = [EXE, workload, "--seed", str(seed)]
    if trace:
        args.append("--trace")
    if tiny:
        args.append("--tiny")
    budget = run_start + RUN_DEADLINE_S - time.monotonic()
    try:
        r = subprocess.run(args, capture_output=True, text=True,
                           timeout=max(1.0, budget))
    except subprocess.TimeoutExpired:
        fail(f"{workload} process did not finish within the run's {RUN_DEADLINE_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{workload} process exited with status {r.returncode}")
    return json.loads(lines[-1])


def median(xs):
    return statistics.median(xs)


def proc_failures(p):
    if p["workload"] == NATIVE:
        return p["failed"]
    return p["wrong"] + p["missing"]


# ---- untraced: end-to-end metrics ---------------------------------------

def host_rate(p):
    """Simulated ops one sim process completed per host second of window."""
    return p["counts"]["client.completed"] / p["window_s"]


def adjusted_rate(p):
    """host_rate at the reference host speed."""
    probe = median(p["probe_ns"])
    return host_rate(p) * (probe / PROBE_REF_NS) ** PROBE_ELASTICITY


def run_plain(workload, seed, seconds, tiny):
    """Fresh processes with the same seed until the measured time reaches
    --seconds (at least MIN_PROCS[workload] of them); the metrics are
    medians."""
    procs, measured = [], 0.0
    while len(procs) < MIN_PROCS[workload] or (
            measured < seconds and len(procs) < MAX_PROCS
            and time.monotonic() - run_start < EXTRA_PROCS_UNTIL_S):
        p = run_proc(workload, seed, tiny=tiny)
        procs.append(p)
        if proc_failures(p):
            return procs, {}, {}, ["operations failed; see the counts above"]
        measured += p["window_s"] if workload in SIM else p["measured_s"]
    problems = []
    m = {
        "setup_s": (median([p["setup_s"] for p in procs]), "s"),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in procs]), "MB"),
    }
    if workload in SIM:
        c = procs[0]["counts"]
        if any(p["counts"] != c for p in procs[1:]):
            problems.append("simulated counts differ between same-seed processes")
        ghz = procs[0]["ghz"]
        rate = median([host_rate(p) for p in procs])
        m["ops_per_s"] = (median([adjusted_rate(p) for p in procs]), "1/s")
        m["p50_us"] = (c["client.p50_cycles"] / ghz / 1e3, "us")
        extra = {
            "sim_ops_per_host_s": (rate, "1/s"),
            "probe_ns": (median([r for p in procs for r in p["probe_ns"]]), "ns"),
            "sim_p99_us": (c["client.p99_cycles"] / ghz / 1e3, "us"),
            "sim_ops_in_window": (c["client.completed"], "count"),
            "window_s": (median([p["window_s"] for p in procs]), "s"),
        }
    else:
        if any(p["responded"] != p["attempted"] for p in procs):
            problems.append("server responses differ from the ops the generator sent")
        slo = median([p["slo_ops_per_s"] for p in procs])
        m["ops_per_s"] = (slo, "1/s")
        m["p50_us"] = (median([p["p50_us"] for p in procs]), "us")
        extra = {
            "slo_ops_per_s": (slo, "1/s"),
            "p99_us": (median([p["p99_us"] for p in procs]), "us"),
            "reference_rate": (procs[0]["ref_rate"], "1/s"),
            "reference_samples": (procs[0]["ref_samples"], "count"),
            "latency_limit_p50_us": (procs[0]["limit_us"], "us"),
            "server_rss_after_ladder_mb": (median([p["end_rss_mb"] for p in procs]), "MB"),
        }
    return procs, m, extra, problems


# ---- traced: per-layer metrics ------------------------------------------

SIM_LAYERS = [
    "sim.events", "sim.events_per_op", "sim.dispatch_ns", "sim.est_s",
    "mem.l1_hits", "mem.l2_hits", "mem.llc_hits", "mem.dram_fetches",
    "mem.invalidations_sent", "mem.dirty_transfers", "mem.ddio_misses",
    "mem.access_ns", "mem.est_s",
    "index.lookups", "index.cycles", "index.lookup_ns", "index.est_s",
    "store.item_read_cycles",
    "queue.forwarded", "queue.ring_cycles", "queue.ring_op_ns", "queue.est_s",
    "hotset.hit_rate", "hotset.find_cycles",
    "kvs.completed", "kvs.cr_hits", "kvs.mr_ops", "kvs.cr_busy_cycles",
    "kvs.mr_busy_cycles", "kvs.idle_cycles", "kvs.sim_p50_cycles",
    "kvs.sim_p99_cycles",
    "net.tx_messages", "net.rx_bytes",
    "workload.next_ns", "workload.est_s",
    "host.attributed_frac",
]
NATIVE_LAYERS = [
    "native.resp_encode_ns", "native.resp_parse_ns", "native.cr_hit_rate",
    "native.forwarded", "native.mr_ops", "native.steals",
    "loadgen.late_p99_us", "loadgen.backlog", "loadgen.get_p99_us",
    "loadgen.set_p99_us", "loadgen.p99_us", "loadgen.samples",
]
UNITS = {
    "_ns": "ns", "_s": "s", "_us": "us", "_frac": "ratio", "_rate": "ratio",
    "_cycles": "cycles", "_bytes": "bytes", "per_op": "count/op",
}


def unit_of(name):
    if name.endswith(".cycles"):
        return "cycles"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def sites_sum(sites, pred):
    return sum(v for k, v in sites.items() if pred(k))


def sim_layers(plain, traced):
    c, s, cal = traced["counts"], traced["sites"], traced["calibration"]
    completed = c["client.completed"]
    hier = {k: c["hierarchy." + k] for k in
            ("l1_hits", "l2_hits", "llc_hits", "dram_fetches",
             "invalidations_sent", "dirty_transfers")}
    lines = (hier["l1_hits"] + hier["l2_hits"] + hier["llc_hits"]
             + hier["dram_fetches"])
    near, far = cal["mem.near_access_ns"], cal["mem.far_access_ns"]
    access_ns = (hier["l1_hits"] * near + (lines - hier["l1_hits"]) * far) / lines
    cr_hits, fwd = c["kvs.cr_hits"], c["kvs.forwarded"]
    L = {
        "sim.events": c["sim.events"],
        "sim.events_per_op": c["sim.events"] / completed,
        "sim.dispatch_ns": cal["sim.dispatch_ns"],
        "sim.est_s": c["sim.events"] * cal["sim.dispatch_ns"] / 1e9,
        "mem.access_ns": access_ns,
        "mem.est_s": lines * access_ns / 1e9,
        "index.lookups": c["kvs.mr_ops"],
        "index.cycles": sites_sum(s, lambda k: k.startswith("btree.")),
        "index.lookup_ns": cal["index.lookup_ns"],
        "index.est_s": c["kvs.mr_ops"] * cal["index.lookup_ns"] / 1e9,
        "store.item_read_cycles": s.get("Item.read", 0),
        "queue.forwarded": fwd,
        "queue.ring_cycles": sites_sum(s, lambda k: k.startswith("Ring.")),
        "queue.ring_op_ns": cal["queue.ring_op_ns"],
        "queue.est_s": fwd * cal["queue.ring_op_ns"] / 1e9,
        "hotset.hit_rate": cr_hits / max(1, cr_hits + fwd),
        "hotset.find_cycles": s.get("Hotcache.find", 0),
        "kvs.completed": completed,
        "kvs.cr_hits": cr_hits,
        "kvs.mr_ops": c["kvs.mr_ops"],
        "kvs.cr_busy_cycles": c["kvs.cr_busy_cycles"],
        "kvs.mr_busy_cycles": c["kvs.mr_busy_cycles"],
        "kvs.idle_cycles": s.get("idle", 0),
        "kvs.sim_p50_cycles": c["client.p50_cycles"],
        "kvs.sim_p99_cycles": c["client.p99_cycles"],
        "net.tx_messages": c["link.tx_messages"],
        "net.rx_bytes": c["link.rx_bytes"],
        "workload.next_ns": cal["workload.next_ns"],
        "workload.est_s": c["client.sent"] * cal["workload.next_ns"] / 1e9,
    }
    for k, v in hier.items():
        L["mem." + k] = v
    L["mem.ddio_misses"] = c["nic.ddio_misses"]
    est = sum(L[k] for k in L if k.endswith(".est_s"))
    L["host.attributed_frac"] = est / plain["window_s"]
    L["trace.overhead_s"] = traced["window_s"] - plain["window_s"]
    return L


def native_layers(p):
    return {
        "native.resp_encode_ns": p["resp_encode_ns"],
        "native.resp_parse_ns": p["resp_parse_ns"],
        "native.cr_hit_rate": p["cr_hits"] / max(1, p["cr_hits"] + p["forwarded"]),
        "native.forwarded": p["forwarded"],
        "native.mr_ops": p["mr_ops"],
        "native.steals": p["steals"],
        "loadgen.late_p99_us": p["late_p99_us"],
        "loadgen.backlog": p["backlog"],
        "loadgen.get_p99_us": p["get_p99_us"],
        "loadgen.set_p99_us": p["set_p99_us"],
        "loadgen.p99_us": p["p99_us"],
        "loadgen.samples": p["ref_samples"],
        "trace.overhead_s": p["traced_elapsed_s"] - p["ref_elapsed_s"],
    }


def run_traced(workload, seed, tiny):
    """A traced process next to an untraced one of the same seed (sim), or
    one process timing the reference rate untraced then traced (native).
    Layers a workload does not run report 0."""
    problems = []
    if workload in SIM:
        plain = run_proc(workload, seed, tiny=tiny)
        traced = run_proc(workload, seed, trace=True, tiny=tiny)
        if plain["counts"] != traced["counts"]:
            problems.append("simulated counts differ between traced and untraced runs")
        procs = [plain, traced]
        layers = sim_layers(plain, traced)
    else:
        traced = run_proc(workload, seed, trace=True, tiny=tiny)
        procs = [traced]
        if proc_failures(traced):
            return procs, {}, {}, ["operations failed; see the counts above"]
        layers = native_layers(traced)
    full = {k: 0 for k in SIM_LAYERS + NATIVE_LAYERS + ["trace.overhead_s"]}
    full.update(layers)
    m = {k: (v, unit_of(k)) for k, v in full.items()}
    return procs, m, {}, problems


# ---- report ---------------------------------------------------------------

def report(workload, procs, metrics, extra, problems):
    attempted = sum(p["attempted"] for p in procs)
    failed = sum(proc_failures(p) for p in procs)
    print(f"perfbench {workload}: {len(procs)} process(es)")
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  error_rate = {failed / max(1, attempted):.6g} ratio"
          f" ({failed} failed of {attempted} checked)")
    frac = metrics.get("host.attributed_frac")
    if frac is not None and workload in SIM and frac[0] < ATTRIBUTION_FLAG:
        print(f"  FLAG host.attributed_frac = {frac[0]:.3f} < {ATTRIBUTION_FLAG}:"
              " the timed layers leave part of the window's host time unexplained")
    for p in procs:
        if proc_failures(p):
            kinds = ("wrong", "missing", "errors", "timeouts", "dropped")
            print("  FAILED ops in one process:",
                  {k: p[k] for k in kinds if k in p})
    for msg in problems:
        print(f"  MISMATCH: {msg}")
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return correct


def run(workload, seed, seconds, trace, tiny=False):
    global run_start
    run_start = time.monotonic()
    if trace:
        procs, m, extra, problems = run_traced(workload, seed, tiny)
    else:
        procs, m, extra, problems = run_plain(workload, seed, seconds, tiny)
    return report(workload, procs, m, extra, problems), m, procs


def selftest():
    """Tiny-scale pass over every workload in both modes: each metric of
    BENCHMARK.json must be printed with its unit, and the simulated counts
    must repeat exactly across runs with the same seed."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ok = True
    counts = {}
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            correct, m, procs = run(name, 11, 1, trace, tiny=True)
            ok &= correct
            for metric in spec[key]:
                got = m.get(metric["name"])
                if got is None or got[1] != metric["unit"]:
                    print(f"selftest: {name} trace={trace}: {metric['name']}"
                          f" missing or not in {metric['unit']}: {got}")
                    ok = False
            if name in SIM:
                counts.setdefault(name, []).extend(p["counts"] for p in procs)
    for name, cs in counts.items():
        if any(c != cs[0] for c in cs[1:]):
            print(f"selftest: {name}: simulated counts differ across same-seed runs")
            ok = False
    print("selftest:", "ok" if ok else "FAILED")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=SIM + (NATIVE,))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    build()
    if a.selftest:
        sys.exit(0 if selftest() else 1)
    if a.workload is None:
        fail("--workload is required")
    correct, _, _ = run(a.workload, a.seed, a.seconds, a.trace == 1)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
