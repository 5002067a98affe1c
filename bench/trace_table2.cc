// Traced Table 2 run (RZ56, splice): the observability layer end to end.
//
// Repeats the Table 2 RZ56/scp experiment three times — once bare, once with
// a TraceLog and the online telemetry collector attached, once more with the
// kspan collector minting request-scoped spans on top — and then:
//
//  1. proves zero tracing overhead in simulated time (all runs must agree
//     to the nanosecond on bytes, elapsed time, and throughput, and the
//     telemetry documents of the traced and spanned runs must be
//     byte-identical);
//  2. exports the trace as Chrome trace-event JSON (table2_rz56.trace.json,
//     loadable in Perfetto) and the metric registry as
//     BENCH_telemetry.json — the extended ikdp.telemetry.v1 document with
//     the optional "spans"/"attribution" sections rendered from the third
//     run;
//  3. re-parses both files with the bundled JSON reader and cross-checks
//     the telemetry against the experiment's reported numbers: chunk count,
//     bytes moved, per-disk transfer counts, histogram sums vs the disks'
//     busy-time counters, and the splice span vs reported elapsed time.
//
// Exits nonzero if any file fails to parse or any consistency check fails,
// so CI can gate on it.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "bench/bench_common.h"
#include "src/metrics/experiment.h"
#include "src/metrics/report.h"
#include "src/metrics/span_trace.h"
#include "src/metrics/telemetry.h"
#include "src/metrics/trace_export.h"
#include "src/sim/kspan.h"

using ikdp::bench::Slurp;

namespace {

ikdp::bench::CheckList g_checks;

void Check(bool cond, const char* what) { g_checks.Check(cond, what); }

}  // namespace

int main(int argc, char** argv) {
  const int64_t mb = ikdp::bench::ParseMb(argc, argv);
  const int64_t file_bytes = mb << 20;
  const int64_t chunks = file_bytes / 8192;
  std::printf("ikdp bench: traced Table 2 run (RZ56, splice, %lld MB)\n\n",
              static_cast<long long>(mb));

  ikdp::ExperimentConfig cfg;
  cfg.disk = ikdp::DiskKind::kRz56;
  cfg.use_splice = true;
  cfg.with_test_program = false;
  cfg.file_bytes = file_bytes;

  // Run 1: bare, the reference result.
  const ikdp::ExperimentResult bare = ikdp::RunCopyExperiment(cfg);

  // Run 2: traced, with the collector feeding histograms online and the
  // registry sampling every kernel counter at the end of the run.
  ikdp::TraceLog trace(1 << 18);
  ikdp::MetricsRegistry registry;
  ikdp::TelemetryCollector collector(&registry);
  collector.Attach(&trace);
  cfg.trace = &trace;
  // The Chrome trace is rendered while the machine is alive: disk records
  // are tagged with names the devices own.
  std::string chrome_trace;
  cfg.inspect = [&registry, &trace, &chrome_trace](ikdp::Kernel& kernel) {
    ikdp::CaptureKernelCounters(&registry, kernel);
    std::ostringstream os;
    ikdp::ExportChromeTrace(trace, os);
    chrome_trace = os.str();
  };
  const ikdp::ExperimentResult traced = ikdp::RunCopyExperiment(cfg);

  // Run 3: spans on top — the kspan collector records every request-scoped
  // span the kernel mints while a fresh trace/registry pair watches the same
  // run.  Span recording is pure host-side bookkeeping, so this run must
  // reproduce runs 1 and 2 to the nanosecond AND its telemetry document
  // (before the span sections) must be byte-identical to run 2's.
  ikdp::TraceLog span_trace_log(1 << 18);
  ikdp::MetricsRegistry span_registry;
  ikdp::TelemetryCollector span_collector(&span_registry);
  span_collector.Attach(&span_trace_log);
  std::map<ikdp::CpuSystem::ChargeKey, ikdp::SimDuration> attribution;
  cfg.trace = &span_trace_log;
  cfg.inspect = [&span_registry, &attribution](ikdp::Kernel& kernel) {
    ikdp::CaptureKernelCounters(&span_registry, kernel);
    attribution = kernel.cpu().attribution();
  };
  ikdp::KspanCollector spans;
  ikdp::AttachKspan(&spans);
  const ikdp::ExperimentResult spanned = ikdp::RunCopyExperiment(cfg);
  ikdp::AttachKspan(nullptr);

  std::printf("reference: %s\n", ikdp::Summary(bare).c_str());
  std::printf("traced:    %s\n", ikdp::Summary(traced).c_str());
  std::printf("spanned:   %s\n\n", ikdp::Summary(spanned).c_str());

  std::printf("zero-overhead (simulated results identical with trace attached):\n");
  Check(bare.ok && traced.ok, "both runs verified");
  Check(bare.bytes == traced.bytes, "bytes identical");
  Check(bare.elapsed_s == traced.elapsed_s, "elapsed identical to the nanosecond");
  Check(bare.throughput_kbs == traced.throughput_kbs, "throughput identical");
  Check(trace.total() > 0, "trace actually recorded events");
  Check(trace.total() <= (1 << 18), "ring did not wrap (full run retained)");

  std::printf("\nzero-overhead (span recording changes nothing):\n");
  Check(spanned.ok, "spanned run verified");
  Check(bare.bytes == spanned.bytes && bare.elapsed_s == spanned.elapsed_s &&
            bare.throughput_kbs == spanned.throughput_kbs,
        "spanned run identical to reference to the nanosecond");
  std::string span_err;
  Check(spans.begun() > 0, "spans actually recorded");
  Check(spans.CheckBalanced(&span_err), "every span closed exactly once");
  if (!span_err.empty()) {
    std::fprintf(stderr, "span imbalance: %s\n", span_err.c_str());
  }
  {
    std::ostringstream a;
    std::ostringstream b;
    ikdp::ExportRegistryJson(registry, a);
    ikdp::ExportRegistryJson(span_registry, b);
    Check(a.str() == b.str(), "telemetry byte-identical with spans on");
  }

  // --- exports ---
  const char* trace_path = "table2_rz56.trace.json";
  const char* telemetry_path = "BENCH_telemetry.json";
  {
    std::ofstream out(trace_path);
    out << chrome_trace;
  }
  {
    // The published document is the extended form: the base registry plus
    // the optional "spans"/"attribution" sections rendered from the third
    // run's span collector and CPU ledger (tools/telemetry_check validates
    // both layers in CI).
    std::ofstream out(telemetry_path);
    ikdp::ExportRegistryJson(span_registry, out, ikdp::RenderSpanSections(spans, attribution));
  }
  std::printf("\nwrote %s and %s\n\n", trace_path, telemetry_path);

  std::printf("round-trip (exports parse with the bundled JSON reader):\n");
  ikdp::JsonValue trace_json;
  ikdp::JsonValue telem_json;
  Check(ikdp::ParseJson(Slurp(trace_path), &trace_json), "trace JSON parses");
  Check(ikdp::ParseJson(Slurp(telemetry_path), &telem_json), "telemetry JSON parses");
  const ikdp::JsonValue* events = trace_json.Get("traceEvents");
  Check(events != nullptr && events->IsArray() && !events->items.empty(),
        "traceEvents is a non-empty array");
  const ikdp::JsonValue* schema = telem_json.Get("schema");
  Check(schema != nullptr && schema->IsString() && schema->str == ikdp::kTelemetrySchema,
        "telemetry schema is ikdp.telemetry.v1");
  const ikdp::JsonValue* spans_section = telem_json.Get("spans");
  Check(spans_section != nullptr && spans_section->Get("begun") != nullptr &&
            spans_section->Get("begun")->number == static_cast<double>(spans.begun()),
        "extended telemetry carries the span census");
  const ikdp::JsonValue* attr_section = telem_json.Get("attribution");
  Check(attr_section != nullptr && attr_section->IsArray() && !attr_section->items.empty(),
        "extended telemetry carries the attribution mirror");

  std::printf("\nconsistency (telemetry vs reported results):\n");
  const ikdp::LatencyHistogram* chunk_hist = registry.Histogram("splice.chunk_latency");
  Check(static_cast<int64_t>(chunk_hist->count()) == chunks,
        "splice chunk intervals == file blocks");
  Check(registry.GetCounter("splice.total_bytes") == file_bytes,
        "splice.total_bytes == file size");
  Check(registry.GetCounter("cache.delwri_write_errors") == 0, "no delwri write errors");

  // Per-disk: dispatch->complete intervals must account for every transfer
  // (one per request), and the histogram's time sum must equal the disk's
  // own busy-time ledger.
  for (const char* mount : {"srcfs", "dstfs"}) {
    const std::string prefix = std::string("disk.") + mount + ".";
    const int64_t transfers =
        registry.GetCounter(prefix + "reads") + registry.GetCounter(prefix + "writes");
    const std::string dev = mount[0] == 's' ? "RZ56.src" : "RZ56.dst";
    const ikdp::LatencyHistogram* h = registry.Histogram("disk.service_time." + dev);
    char label[96];
    std::snprintf(label, sizeof(label), "%s: service histogram count == %lld transfers", mount,
                  static_cast<long long>(transfers));
    Check(static_cast<int64_t>(h->count()) == transfers && transfers > 0, label);
    std::snprintf(label, sizeof(label), "%s: histogram sum == busy_time counter", mount);
    Check(h->sum() == registry.GetCounter(prefix + "busy_time_ns"), label);
    std::snprintf(label, sizeof(label), "%s: busy time <= elapsed", mount);
    Check(static_cast<double>(h->sum()) <= traced.elapsed_s * 1e9 + 1.0, label);
  }

  // The splice's async span in the Chrome trace must match the reported
  // elapsed time (the copy program adds open/close syscalls around it, so
  // allow a small margin).
  double span_begin = -1;
  double span_end = -1;
  int chunk_instants = 0;
  for (const ikdp::JsonValue& ev : events->items) {
    const ikdp::JsonValue* ph = ev.Get("ph");
    const ikdp::JsonValue* ts = ev.Get("ts");
    const ikdp::JsonValue* name = ev.Get("name");
    if (ph == nullptr || ts == nullptr || name == nullptr) {
      continue;
    }
    if (ph->str == "b") {
      span_begin = ts->number;
    } else if (ph->str == "e") {
      span_end = ts->number;
    } else if (ph->str == "n" && name->str.find("splice-chunk") != std::string::npos) {
      ++chunk_instants;
    }
  }
  Check(span_begin >= 0 && span_end > span_begin, "splice span present in Chrome trace");
  const double span_s = (span_end - span_begin) / 1e6;
  Check(span_s <= traced.elapsed_s && span_s > 0.9 * traced.elapsed_s,
        "splice span consistent with reported elapsed time");
  Check(chunk_instants == chunks, "every chunk completion present in Chrome trace");

  // Throughput from first principles: bytes over the elapsed time must land
  // on the reported number (KB = 1024 bytes, as the tables report).
  const double derived_kbs = static_cast<double>(traced.bytes) / 1024.0 / traced.elapsed_s;
  Check(std::fabs(derived_kbs - traced.throughput_kbs) / traced.throughput_kbs < 0.02,
        "trace-derived throughput matches reported");

  std::printf("\ndisk.service_time.RZ56.src:\n");
  std::ostringstream hist;
  registry.Histogram("disk.service_time.RZ56.src")->Print(hist);
  std::fputs(hist.str().c_str(), stdout);

  std::printf("\n%s\n", g_checks.ok ? "ALL CHECKS PASS" : "CHECKS FAILED");
  return g_checks.ok ? 0 : 1;
}
