#!/usr/bin/env python3
"""telemetry_check: schema and invariant validation for ikdp bench artifacts.

Validates the JSON documents the benches emit for CI upload, beyond "it
parses" (python3 -m json.tool): field presence, types, and the cross-field
invariants each schema promises.  Dispatches on the top-level "schema" field:

  ikdp.telemetry.v1     ExportRegistryJson output (trace_table2, bench_aio_ring):
                        counters are integers, histograms carry the full
                        quantile block with count/sum/min/max consistency.
                        The EXTENDED document's optional span sections are
                        validated when present: the "spans" census must
                        balance (ended == begun, open == 0, bad_ends == 0,
                        by_name sums to begun) and every "attribution" entry
                        must name a known charge bucket with non-negative
                        nanoseconds.

  ikdp.bench.v1         every bench's row table (BENCH_aio/fault/server/kop/
                        cache/ablate.json): dispatched on "bench" to a
                        declaration in BENCHES — required int/number/
                        string/bool row fields, the required mode set, the
                        row booleans that are hard gates, and the
                        cross-field invariants (ordered percentiles, request
                        and stream accounting, byte conservation, the kop
                        win conditions, ablation idle fractions).  Every entry
                        of "gates" (the bench's own checks) must be true.

Exit status: 0 when every file validates, 1 on any finding, 2 on usage
errors.  --json prints findings as a JSON list for tooling.

Run from anywhere:  python3 tools/telemetry_check/telemetry_check.py FILE...
"""

import argparse
import json
import sys

CHARGE_BUCKETS = {"process", "switch", "interrupt", "softclock",
                  "kop.process", "kop.interrupt", "kop.softclock"}
HISTOGRAM_FIELDS = ["count", "sum", "min", "max", "p50", "p90", "p99"]

LOCK_COUNTERS = [
    "lock.spin_acquisitions", "lock.sleep_acquisitions",
    "lock.sleep_contention", "lock.max_held", "lock.max_held_rank",
    "lock.order_edges", "lock.violations",
]


class Findings:
    def __init__(self):
        self.items = []

    def err(self, path, what):
        self.items.append({"file": path, "finding": what})


def is_int(v):
    # bool is an int subclass in python; a histogram count of `true` is a bug.
    return isinstance(v, int) and not isinstance(v, bool)


def is_num(v):
    return is_int(v) or isinstance(v, float)


def check_telemetry(path, doc, out):
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        out.err(path, "missing or non-object 'counters'")
    else:
        for name, v in counters.items():
            if not is_int(v):
                out.err(path, "counter %r is not an integer" % name)
        check_lock_counters(path, counters, out)

    histograms = doc.get("histograms")
    if not isinstance(histograms, dict):
        out.err(path, "missing or non-object 'histograms'")
    else:
        for name, h in histograms.items():
            if not isinstance(h, dict):
                out.err(path, "histogram %r is not an object" % name)
                continue
            for f in HISTOGRAM_FIELDS:
                if not is_num(h.get(f)):
                    out.err(path, "histogram %r missing numeric %r" % (name, f))
            if not all(is_num(h.get(f)) for f in HISTOGRAM_FIELDS):
                continue
            if h["count"] < 0 or h["sum"] < 0:
                out.err(path, "histogram %r has negative count/sum" % name)
            if h["count"] > 0 and not h["min"] <= h["p50"] <= h["p90"] <= h["p99"]:
                out.err(path, "histogram %r quantiles not ordered" % name)
            if h["count"] > 0 and h["max"] > h["sum"]:
                out.err(path, "histogram %r max exceeds sum" % name)

    # Optional extended sections (span census + attribution mirror).
    spans = doc.get("spans")
    if spans is not None:
        for f in ["begun", "ended", "bad_ends", "open"]:
            if not is_int(spans.get(f)):
                out.err(path, "spans section missing integer %r" % f)
                return
        if spans["bad_ends"] != 0:
            out.err(path, "spans.bad_ends = %d (lifecycle bug)" % spans["bad_ends"])
        if spans["ended"] != spans["begun"] or spans["open"] != 0:
            out.err(path, "span census unbalanced: begun=%d ended=%d open=%d"
                    % (spans["begun"], spans["ended"], spans["open"]))
        by_name = spans.get("by_name")
        if not isinstance(by_name, dict):
            out.err(path, "spans.by_name missing or not an object")
        elif sum(by_name.values()) != spans["begun"]:
            out.err(path, "spans.by_name sums to %d, begun is %d"
                    % (sum(by_name.values()), spans["begun"]))

    attribution = doc.get("attribution")
    if attribution is not None:
        if not isinstance(attribution, list) or not attribution:
            out.err(path, "'attribution' present but not a non-empty list")
            return
        for i, row in enumerate(attribution):
            where = "attribution[%d]" % i
            if not isinstance(row, dict):
                out.err(path, where + " is not an object")
                continue
            if row.get("bucket") not in CHARGE_BUCKETS:
                out.err(path, where + " has unknown bucket %r" % row.get("bucket"))
            if not isinstance(row.get("subsystem"), str) or not row["subsystem"]:
                out.err(path, where + " missing subsystem")
            if not is_int(row.get("span")) or row["span"] < 0:
                out.err(path, where + " span is not a non-negative integer")
            if not is_int(row.get("ns")) or row["ns"] < 0:
                out.err(path, where + " ns is not a non-negative integer")


def check_lock_counters(path, counters, out):
    """Validates the lock.* family (docs/klock.md).

    The family is all-or-nothing: a document that emits any lock.* counter
    must emit the whole set (the exporter writes them unconditionally), all
    non-negative, with lock.violations == 0 — a published artifact from a run
    that broke the lock discipline is a bug, not data.  max_held/max_held_rank
    must be zero when no lock was ever acquired.
    """
    present = [k for k in counters if k.startswith("lock.")]
    if not present:
        return
    vals = {}
    for f in LOCK_COUNTERS:
        v = counters.get(f)
        if not is_int(v):
            out.err(path, "lock.* family incomplete: missing integer %r" % f)
            return
        if v < 0:
            out.err(path, "counter %r is negative" % f)
            return
        vals[f] = v
    for k in present:
        if k not in LOCK_COUNTERS:
            out.err(path, "unknown lock.* counter %r" % k)
    if vals["lock.violations"] != 0:
        out.err(path, "lock.violations = %d (lock discipline broken)"
                % vals["lock.violations"])
    acquisitions = vals["lock.spin_acquisitions"] + vals["lock.sleep_acquisitions"]
    if acquisitions == 0 and (vals["lock.max_held"] != 0
                              or vals["lock.max_held_rank"] != 0):
        out.err(path, "lock.max_held/max_held_rank nonzero with zero acquisitions")


MODES = {"sync", "fasync", "ring"}

# Per-bench ikdp.bench.v1 declarations: the int/number/string/bool/hard-gate
# fields every row carries, its mode set, the `key` no two rows share (default:
# mode), and (finding, predicate) rules over each (row, config) and, once
# every mode has a complete row, over the rows by mode.
BENCHES = {
    "aio_ring": dict(
        modes=MODES, key=("mode", "n"),
        ints=["n", "traps", "trap_time_ns", "sigio"],
        nums=["throughput_kbs", "elapsed_s", "slowdown", "idle_fraction"],
        hard_gates=["verified"]),
    # `verified` is only meaningful on zero-fault cells, so it is no hard gate.
    "fault_matrix": dict(
        modes=MODES, key=("mode", "n", "dev_rate", "loss"),
        ints=["n", "completed", "errored", "first_errno", "ring_cqes", "bytes", "traps",
              "disk_errors", "disk_spikes", "frames_lost", "frames_jittered",
              "delwri_data_lost", "net_moved", "net_errno", "spans"],
        nums=["dev_rate", "loss", "elapsed_s"], bools=["verified"],
        hard_gates=["spans_balanced", "closure_ok", "quiescent", "engine_quiet",
                    "leaks_ok"],
        row_rules=[("completed+errored != n",
                    lambda r, c: r["completed"] + r["errored"] == r["n"])]),
    "splice_server": dict(
        modes=MODES,
        ints=["completed", "errored", "bytes", "p50_ns", "p99_ns", "p999_ns",
              "max_ns", "stall_flags", "server_traps", "sigio_handled", "spans"],
        nums=["elapsed_s", "goodput_bps"],
        hard_gates=["spans_balanced", "closure_ok", "overhead_zero"],
        row_rules=[
            ("completed+errored != requests",
             lambda r, c: r["completed"] + r["errored"] == c.get("requests")),
            ("percentiles not ordered",
             lambda r, c: r["p50_ns"] <= r["p99_ns"] <= r["p999_ns"] <= r["max_ns"]),
            ("completed work with non-positive p50/goodput",
             lambda r, c: r["completed"] == 0
             or (r["p50_ns"] > 0 and r["goodput_bps"] > 0)),
            ("no spans recorded", lambda r, c: r["spans"] > 0),
        ]),
    # The headline claim: the in-kernel filter beats the user-process round
    # trip on BOTH axes at equal offered load.
    "kop": dict(
        modes={"inkernel", "user"},
        ints=["bytes_in", "bytes_out", "chunks_in", "chunks_dropped",
              "syscall_traps", "kop_exec_ns"],
        nums=["elapsed_s", "goodput_bps", "cpu_availability"],
        hard_gates=["closure_ok", "spans_balanced"],
        row_rules=[
            ("bytes_out exceeds bytes_in",
             lambda r, c: r["bytes_out"] <= r["bytes_in"]),
            ("chunks_dropped exceeds chunks_in",
             lambda r, c: r["chunks_dropped"] <= r["chunks_in"]),
            ("cpu_availability outside [0, 1]",
             lambda r, c: 0.0 <= r["cpu_availability"] <= 1.0),
            ("delivered bytes with non-positive goodput",
             lambda r, c: r["bytes_out"] == 0 or r["goodput_bps"] > 0),
        ],
        doc_rules=[
            ("win condition failed: inkernel cpu_availability not above user",
             lambda m: m["inkernel"]["cpu_availability"]
             > m["user"]["cpu_availability"]),
            ("win condition failed: inkernel syscall_traps not below user",
             lambda m: m["inkernel"]["syscall_traps"] < m["user"]["syscall_traps"]),
        ]),
    # Host wall-clock sweep: one row per cache size.
    "cache_scaling": dict(key=("nbufs",), nums=["sim_ms"]),
    # One row per run of the mechanism and sizing ablation sweeps.
    "ablate": dict(
        key=("sweep", "disk", "setting", "path"),
        strs=["sweep", "disk", "setting", "path"],
        nums=["throughput_kbs", "slowdown", "elapsed_s", "idle_fraction"],
        hard_gates=["verified"],
        row_rules=[("idle_fraction outside [0, 1]",
                    lambda r, c: 0.0 <= r["idle_fraction"] <= 1.0)]),
}


def check_bench(path, doc, out):
    decl = BENCHES.get(doc.get("bench"))
    if decl is None:
        out.err(path, "unknown bench %r (known: %s)"
                % (doc.get("bench"), ", ".join(sorted(BENCHES))))
        return
    config = doc.get("config")
    if not isinstance(config, dict):
        out.err(path, "missing or non-object 'config'")
        config = {}
    gates = doc.get("gates")
    if not isinstance(gates, dict):
        out.err(path, "missing or non-object 'gates'")
        gates = {}
    for what in [w for w, passed in gates.items() if passed is not True]:
        out.err(path, "gates entry %r is false" % what)

    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        out.err(path, "missing or empty 'rows'")
        return
    modes, key_fields = decl.get("modes", set()), decl.get("key", ("mode",))
    hard_gates = decl.get("hard_gates", [])
    required = [("integer", f, is_int) for f in decl.get("ints", [])]
    required += [("numeric", f, is_num) for f in decl.get("nums", [])]
    required += [("string", f, lambda v: isinstance(v, str)) for f in decl.get("strs", [])]
    required += [("boolean", f, lambda v: isinstance(v, bool))
                 for f in decl.get("bools", []) + hard_gates]
    seen, by_mode = set(), {}
    for row in rows:
        if not isinstance(row, dict):
            out.err(path, "row is not an object")
            continue
        if modes and row.get("mode") not in modes:
            out.err(path, "row has unknown mode %r" % row.get("mode"))
            continue
        key = tuple(row.get(k) for k in key_fields)
        where = "row " + ", ".join("%s=%s" % kv for kv in zip(key_fields, key))
        if key in seen:
            out.err(path, "duplicate %s" % where)
        seen.add(key)
        missing = [(kind, f) for kind, f, ok in required if not ok(row.get(f))]
        for kind, f in missing:
            out.err(path, "%s: missing %s %r" % (where, kind, f))
        if missing:
            continue
        # The hard gates: a published row may never carry a failed one.
        for f in hard_gates:
            if row[f] is not True:
                out.err(path, "%s: hard gate %r is false" % (where, f))
        for finding, holds in decl.get("row_rules", []):
            if not holds(row, config):
                out.err(path, "%s: %s" % (where, finding))
        by_mode.setdefault(row.get("mode"), row)
    absent = modes - set(by_mode)
    if absent:
        out.err(path, "missing rows for mode(s): %s" % ", ".join(sorted(absent)))
        return
    for finding, holds in decl.get("doc_rules", []):
        if not holds(by_mode):
            out.err(path, finding)


CHECKERS = {
    "ikdp.telemetry.v1": check_telemetry,
    "ikdp.bench.v1": check_bench,
}


def check_file(path, out):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        out.err(path, "unreadable or invalid JSON: %s" % e)
        return
    if not isinstance(doc, dict):
        out.err(path, "top level is not an object")
        return
    schema = doc.get("schema")
    checker = CHECKERS.get(schema)
    if checker is None:
        out.err(path, "unknown schema %r (known: %s)"
                % (schema, ", ".join(sorted(CHECKERS))))
        return
    checker(path, doc, out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="JSON artifacts to validate")
    parser.add_argument("--json", action="store_true",
                        help="print findings as a JSON list")
    args = parser.parse_args(argv)

    out = Findings()
    for path in args.files:
        check_file(path, out)

    if args.json:
        print(json.dumps(out.items, indent=2))
    else:
        for item in out.items:
            print("%s: %s" % (item["file"], item["finding"]))
        print("telemetry_check: %d file(s), %d finding(s)"
              % (len(args.files), len(out.items)), file=sys.stderr)
    return 1 if out.items else 0


if __name__ == "__main__":
    sys.exit(main())
