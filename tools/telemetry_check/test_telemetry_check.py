#!/usr/bin/env python3
"""Self-test for telemetry_check: seeded-violation documents must be
rejected with the right finding, clean documents must pass, and the real
artifacts (when the benches have run in the working tree) must validate.

Run from the repo root (ctest does):
    python3 tools/telemetry_check/test_telemetry_check.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECK = os.path.join(HERE, "telemetry_check.py")
REPO = os.path.dirname(os.path.dirname(HERE))


def run_check(*paths):
    proc = subprocess.run(
        [sys.executable, CHECK, "--json"] + list(paths),
        capture_output=True, text=True, cwd=REPO)
    if proc.returncode == 2:
        raise RuntimeError("usage error: %s" % proc.stderr)
    return proc.returncode, json.loads(proc.stdout)


def clean_telemetry():
    return {
        "schema": "ikdp.telemetry.v1",
        "counters": {
            "cpu.switches": 10, "trace.dropped_events": 0,
            "lock.spin_acquisitions": 200, "lock.sleep_acquisitions": 4,
            "lock.sleep_contention": 0, "lock.max_held": 2,
            "lock.max_held_rank": 90, "lock.order_edges": 3,
            "lock.violations": 0,
        },
        "histograms": {
            "disk.service_time.RZ56": {
                "count": 4, "sum": 4000, "min": 500, "max": 1500,
                "p50": 1000, "p90": 1400, "p99": 1500,
            },
        },
        "spans": {
            "begun": 3, "ended": 3, "bad_ends": 0, "open": 0,
            "by_name": {"request": 1, "splice.stream": 2},
        },
        "attribution": [
            {"bucket": "process", "subsystem": "process", "span": 1, "ns": 100},
            {"bucket": "interrupt", "subsystem": "disk", "span": 2, "ns": 50},
        ],
    }


def bench_doc(name, config, rows):
    return {
        "schema": "ikdp.bench.v1", "bench": name, "config": config, "rows": rows,
        "gates": {"every row verified": True, "BENCH_x.json round-trips": True},
    }


def clean_aio_row(mode, n):
    return {
        "mode": mode, "n": n, "throughput_kbs": 3000.0, "elapsed_s": 0.5,
        "slowdown": 1.5, "traps": 2 * n, "trap_time_ns": 40000 * n, "sigio": 1,
        "idle_fraction": 0.1, "verified": True,
    }


def clean_aio_bench():
    return bench_doc("aio_ring", {"stream_kb": 8},
                     [clean_aio_row(m, n) for n in (1, 16)
                      for m in ("sync", "fasync", "ring")])


def clean_fault_row(mode, dev_rate):
    # Injected device errors legitimately leave a cell unverified.
    faulty = dev_rate > 0
    return {
        "mode": mode, "n": 2, "dev_rate": dev_rate, "loss": 0.25,
        "completed": 1 if faulty else 2, "errored": 1 if faulty else 0,
        "first_errno": 5 if faulty else 0, "ring_cqes": 2 if mode == "ring" else 0,
        "bytes": 131072, "elapsed_s": 0.4, "traps": 6, "disk_errors": 3 if faulty else 0,
        "disk_spikes": 1 if faulty else 0, "frames_lost": 4, "frames_jittered": 7,
        "delwri_data_lost": 0, "net_moved": 65536, "net_errno": 0, "spans": 12,
        "spans_balanced": True, "closure_ok": True, "quiescent": True,
        "engine_quiet": True, "leaks_ok": True, "verified": not faulty,
    }


def clean_fault_bench():
    return bench_doc("fault_matrix", {"grid": "small", "stream_kb": 128},
                     [clean_fault_row(m, e) for e in (0.0, 0.2)
                      for m in ("sync", "fasync", "ring")])


def clean_server_row(mode):
    return {
        "mode": mode, "completed": 190, "errored": 10, "bytes": 190000,
        "elapsed_s": 1.5, "p50_ns": 1000, "p99_ns": 2000, "p999_ns": 3000,
        "max_ns": 4000, "goodput_bps": 126666.0, "stall_flags": 0,
        "server_traps": 400, "sigio_handled": 20, "spans": 380,
        "spans_balanced": True, "closure_ok": True, "overhead_zero": True,
    }


def clean_server_bench():
    return bench_doc("splice_server",
                     {"grid": "small", "clients": 64, "objects": 16,
                      "object_kb": 16, "requests": 200, "offered_rps": 400.0,
                      "zipf_s": 1.0, "seed": 42},
                     [clean_server_row(m) for m in ("sync", "fasync", "ring")])


def clean_kop_row(mode):
    user = mode == "user"
    return {
        "mode": mode, "bytes_in": 819200, "bytes_out": 81920,
        "chunks_in": 100, "chunks_dropped": 0 if user else 90,
        "elapsed_s": 0.5, "goodput_bps": 163840.0,
        "cpu_availability": 0.55 if user else 0.80,
        "syscall_traps": 400 if user else 12, "kop_exec_ns": 0 if user else 90000,
        "closure_ok": True, "spans_balanced": True,
    }


def clean_kop_bench():
    return bench_doc("kop", {"object_kb": 800, "blocks": 100, "keep_every": 10,
                             "seed": 1},
                     [clean_kop_row(m) for m in ("inkernel", "user")])


def clean_cache_bench():
    rows = [{"nbufs": n, "ops": 1000, "wall_ms": 1.5, "sim_ms": 0.0,
             "hits": 990, "misses": 10} for n in (64, 512)]
    rows += [{"sched": s, "depth": 4, "requests": 2000, "sim_ms": 120.5,
              "coalesced": 3, "sort_passes": 7, "max_depth": 4}
             for s in ("fifo", "clook")]
    return bench_doc("cache_scaling", {}, rows)


def clean_ablate_row(sweep, disk, setting, path):
    return {
        "sweep": sweep, "disk": disk, "setting": setting, "path": path,
        "throughput_kbs": 1060, "slowdown": 1.83, "elapsed_s": 7.728,
        "idle_fraction": 0.12, "verified": True,
    }


def clean_ablate_bench():
    return bench_doc("ablate", {"file_mb": 8, "test_op_ms": 1},
                     [clean_ablate_row("cache_size", "RZ58", b, p)
                      for b in ("25", "400") for p in ("cp", "scp")])


# Every bench declaration with a clean document and its row hard gates.
BENCH_CASES = [
    (clean_aio_bench, ("verified",)),
    (clean_fault_bench, ("spans_balanced", "closure_ok", "quiescent",
                         "engine_quiet", "leaks_ok")),
    (clean_server_bench, ("spans_balanced", "closure_ok", "overhead_zero")),
    (clean_kop_bench, ("closure_ok", "spans_balanced")),
    (clean_cache_bench, ()),
    (clean_ablate_bench, ("verified",)),
]


class TelemetryCheckTest(unittest.TestCase):
    def check_doc(self, doc):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False) as f:
            json.dump(doc, f)
            path = f.name
        try:
            return run_check(path)
        finally:
            os.unlink(path)

    def assert_finding(self, doc, needle):
        rc, findings = self.check_doc(doc)
        self.assertEqual(rc, 1, "expected a finding for %r" % needle)
        self.assertTrue(any(needle in f["finding"] for f in findings),
                        "no finding matching %r in %r" % (needle, findings))

    def test_clean_telemetry_passes(self):
        rc, findings = self.check_doc(clean_telemetry())
        self.assertEqual(findings, [])
        self.assertEqual(rc, 0)

    def test_clean_bench_documents_pass(self):
        for clean, _ in BENCH_CASES:
            rc, findings = self.check_doc(clean())
            self.assertEqual(findings, [], clean.__name__)
            self.assertEqual(rc, 0)

    def test_unknown_bench_rejected(self):
        doc = clean_kop_bench()
        doc["bench"] = "kop2"
        self.assert_finding(doc, "unknown bench 'kop2'")

    def test_false_gates_entry_rejected(self):
        for clean, _ in BENCH_CASES:
            doc = clean()
            doc["gates"]["every row verified"] = False
            self.assert_finding(doc, "gates entry 'every row verified' is false")

    def test_unknown_schema_rejected(self):
        self.assert_finding({"schema": "nope.v9"}, "unknown schema")

    def test_invalid_json_rejected(self):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False) as f:
            f.write("{not json")
            path = f.name
        try:
            rc, findings = run_check(path)
        finally:
            os.unlink(path)
        self.assertEqual(rc, 1)
        self.assertIn("invalid JSON", findings[0]["finding"])

    def test_span_census_imbalance_rejected(self):
        doc = clean_telemetry()
        doc["spans"]["ended"] = 2
        doc["spans"]["open"] = 1
        self.assert_finding(doc, "span census unbalanced")

    def test_bad_ends_rejected(self):
        doc = clean_telemetry()
        doc["spans"]["bad_ends"] = 1
        self.assert_finding(doc, "bad_ends")

    def test_by_name_sum_mismatch_rejected(self):
        doc = clean_telemetry()
        doc["spans"]["by_name"]["request"] = 2
        self.assert_finding(doc, "by_name sums")

    def test_unknown_bucket_rejected(self):
        doc = clean_telemetry()
        doc["attribution"][0]["bucket"] = "dma"
        self.assert_finding(doc, "unknown bucket")

    def test_boolean_counter_rejected(self):
        doc = clean_telemetry()
        doc["counters"]["cpu.switches"] = True
        self.assert_finding(doc, "not an integer")

    def test_unordered_quantiles_rejected(self):
        doc = clean_telemetry()
        doc["histograms"]["disk.service_time.RZ56"]["p90"] = 10
        self.assert_finding(doc, "quantiles not ordered")

    def test_lock_violations_rejected(self):
        doc = clean_telemetry()
        doc["counters"]["lock.violations"] = 2
        self.assert_finding(doc, "lock discipline broken")

    def test_partial_lock_family_rejected(self):
        doc = clean_telemetry()
        del doc["counters"]["lock.order_edges"]
        self.assert_finding(doc, "lock.* family incomplete")

    def test_unknown_lock_counter_rejected(self):
        doc = clean_telemetry()
        doc["counters"]["lock.frobs"] = 1
        self.assert_finding(doc, "unknown lock.* counter")

    def test_lock_max_without_acquisitions_rejected(self):
        doc = clean_telemetry()
        doc["counters"]["lock.spin_acquisitions"] = 0
        doc["counters"]["lock.sleep_acquisitions"] = 0
        doc["counters"]["lock.order_edges"] = 0
        self.assert_finding(doc, "nonzero with zero acquisitions")

    def test_lockless_telemetry_passes(self):
        # Pre-klock documents carry no lock.* counters at all; still valid.
        doc = clean_telemetry()
        for k in list(doc["counters"]):
            if k.startswith("lock."):
                del doc["counters"][k]
        rc, findings = self.check_doc(doc)
        self.assertEqual(findings, [])
        self.assertEqual(rc, 0)

    def test_missing_mode_row_rejected(self):
        doc = clean_server_bench()
        doc["rows"] = doc["rows"][:2]
        self.assert_finding(doc, "missing rows for mode")

    def test_failed_hard_gate_rejected(self):
        for clean, gates in BENCH_CASES:
            for gate in gates:
                doc = clean()
                doc["rows"][1][gate] = False
                self.assert_finding(doc, "hard gate %r is false" % gate)

    def test_unverified_aio_row_rejected(self):
        doc = clean_aio_bench()
        doc["rows"][4]["verified"] = False
        self.assert_finding(doc, "row mode=fasync, n=16: hard gate 'verified' is false")

    def test_unverified_ablate_row_rejected(self):
        doc = clean_ablate_bench()
        doc["rows"][3]["verified"] = False
        self.assert_finding(
            doc, "row sweep=cache_size, disk=RZ58, setting=400, path=scp: "
            "hard gate 'verified' is false")

    def test_ablate_idle_fraction_outside_unit_rejected(self):
        doc = clean_ablate_bench()
        doc["rows"][0]["idle_fraction"] = -0.01
        self.assert_finding(doc, "idle_fraction outside [0, 1]")

    def test_ablate_row_without_key_string_rejected(self):
        doc = clean_ablate_bench()
        del doc["rows"][2]["setting"]
        self.assert_finding(doc, "missing string 'setting'")

    def test_fault_stream_accounting_rejected(self):
        doc = clean_fault_bench()
        doc["rows"][3]["errored"] = 0
        self.assert_finding(doc, "completed+errored != n")

    def test_unordered_percentiles_rejected(self):
        doc = clean_server_bench()
        doc["rows"][0]["p99_ns"] = 10
        self.assert_finding(doc, "percentiles not ordered")

    def test_request_accounting_rejected(self):
        doc = clean_server_bench()
        doc["rows"][2]["completed"] = 150
        self.assert_finding(doc, "completed+errored != requests")

    def test_kop_bucket_accepted(self):
        doc = clean_telemetry()
        doc["attribution"].append(
            {"bucket": "kop.softclock", "subsystem": "kop", "span": 2, "ns": 7})
        rc, findings = self.check_doc(doc)
        self.assertEqual(findings, [])
        self.assertEqual(rc, 0)

    def test_kop_missing_mode_rejected(self):
        doc = clean_kop_bench()
        doc["rows"] = doc["rows"][:1]
        self.assert_finding(doc, "missing rows for mode")

    def test_kop_availability_win_rejected(self):
        doc = clean_kop_bench()
        doc["rows"][0]["cpu_availability"] = 0.40  # inkernel below user
        self.assert_finding(doc, "win condition failed: inkernel cpu_availability")

    def test_kop_trap_win_rejected(self):
        doc = clean_kop_bench()
        doc["rows"][0]["syscall_traps"] = 500  # inkernel above user
        self.assert_finding(doc, "win condition failed: inkernel syscall_traps")

    def test_kop_byte_conservation_rejected(self):
        doc = clean_kop_bench()
        doc["rows"][0]["bytes_out"] = doc["rows"][0]["bytes_in"] + 1
        self.assert_finding(doc, "bytes_out exceeds bytes_in")

    def test_real_artifacts_validate_when_present(self):
        paths = [os.path.join(REPO, p)
                 for p in ("BENCH_telemetry.json", "BENCH_aio_telemetry.json",
                           "BENCH_aio.json", "BENCH_fault.json",
                           "BENCH_server.json", "BENCH_kop.json",
                           "BENCH_cache.json", "BENCH_ablate.json")]
        present = [p for p in paths if os.path.exists(p)]
        if not present:
            self.skipTest("benches have not run in this tree")
        rc, findings = run_check(*present)
        self.assertEqual(findings, [])
        self.assertEqual(rc, 0)


if __name__ == "__main__":
    unittest.main()
