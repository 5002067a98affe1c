// perfbench: runs one workload of the benchmark and prints its metrics.
//
//   perfbench --workload copy|churn|serve --seed N --seconds S --trace 0|1
//
// The run has two phases.  Bare passes (nothing attached) repeat the
// workload on fresh machines for S seconds of host time; they give the
// end-to-end metrics.  Traced passes then attach a TraceLog, the
// TelemetryCollector and a KspanCollector and must reproduce the bare
// passes' simulated results exactly; they give the per-layer metrics and
// the cost of tracing.  With --trace 0 the last line of stdout is a JSON
// object of the end-to-end metrics, with --trace 1 of the per-layer ones.
// The exit code is nonzero when a copy, a request or a gate failed.

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/workloads.h"
#include "src/kern/lock.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = value;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      a->trace = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 && a->seconds <= 600 &&
         (a->trace == 0 || a->trace == 1);
}

std::unique_ptr<Workload> Make(const std::string& name, uint64_t seed) {
  if (name == "copy") {
    return MakeCopy(seed);
  }
  if (name == "churn") {
    return MakeChurn(seed);
  }
  if (name == "serve") {
    return MakeServe(seed);
  }
  return nullptr;
}

uint64_t LockAcquisitions() {
  const ikdp::LockStats& s = ikdp::GlobalLockStats();
  return s.spin_acquisitions + s.sleep_acquisitions;
}

// The CPUs this process may run on.  Bare passes rotate over them: on a
// host whose CPUs are slowed unevenly by other work, a run that stayed on
// one CPU would measure that CPU's load, not the program.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        cpus.push_back(c);
      }
    }
  }
  return cpus;
}

void RunOn(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) {
    CPU_SET(c, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

void PrintMetrics(const char* title, const Metrics& m) {
  std::printf("%s\n", title);
  for (const auto& [name, vu] : m.items()) {
    std::printf("  %-30s %16.6f %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const auto& [name, vu] : m.items()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(), vu.first,
                vu.second.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

// Names of the simulated results each workload reports beside the layers;
// those a workload does not have read 0.
constexpr const char* kWorkloadResults[][2] = {
    {"wl.scp_kbs", "KB/s"},       {"wl.cp_kbs", "KB/s"},
    {"wl.avail_scp", "ratio"},    {"wl.avail_cp", "ratio"},
    {"wl.req_p50_ms", "sim_ms"},  {"wl.req_p99_ms", "sim_ms"},
    {"wl.req_samples", "count"},  {"wl.max_rps", "req/s"},
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload copy|churn|serve --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = Make(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);

  Checks checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // Bare passes: the timed phase.
  Pass first;
  std::vector<double> host_s;
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> host_layers;
  uint64_t bare_locks = 0;
  const std::vector<int> cpus = AllowedCpus();
  const Clock::time_point t0 = Clock::now();
  for (int n = 0; n == 0 || SecondsSince(t0) < args.seconds; ++n) {
    if (!cpus.empty()) {
      RunOn({cpus[static_cast<size_t>(n) % cpus.size()]});
    }
    const uint64_t locks = LockAcquisitions();
    const Clock::time_point start = Clock::now();
    Pass p = workload->Run(nullptr, &checks);
    host_s.push_back(SecondsSince(start));
    bare_locks = LockAcquisitions() - locks;
    attempted += p.attempted;
    failed += p.failed;
    if (p.setup_s >= 0) {
      setup_s.push_back(p.setup_s);
    }
    for (const auto& [name, vu] : p.host.items()) {
      host_layers[name].push_back(vu.first);
    }
    if (n == 0) {
      first = std::move(p);
    } else {
      checks.Check("every bare pass repeats the first exactly",
                   p.fingerprint == first.fingerprint);
    }
  }
  if (!cpus.empty()) {
    RunOn(cpus);
  }
  // Finish adds its own operations (serve's ladder) to the first pass.
  const uint64_t attempted_before = first.attempted;
  const uint64_t failed_before = first.failed;
  workload->Finish(&first, &checks);
  attempted += first.attempted - attempted_before;
  failed += first.failed - failed_before;
  const double peak_rss_mb = PeakRssMb();

  // Traced passes: per-layer numbers, and the gate that observing the
  // machine changes no simulated result.  At least three: copy builds its
  // machines inside RunCopyExperiment, so only a trace shows where its
  // set-up ends, and setup_s wants a median.
  Layers layers;
  std::vector<double> traced_s;
  std::vector<double> traced_setup_s;
  const Clock::time_point t1 = Clock::now();
  for (int n = 0; n < 3 || SecondsSince(t1) < args.seconds / 4; ++n) {
    Layers l;
    const uint64_t locks = LockAcquisitions();
    const Clock::time_point start = Clock::now();
    const Pass p = workload->Run(&l, &checks);
    traced_s.push_back(SecondsSince(start));
    l.lock_acquisitions = LockAcquisitions() - locks;
    attempted += p.attempted;
    failed += p.failed;
    if (p.setup_s >= 0) {
      traced_setup_s.push_back(p.setup_s);
    }
    checks.Check("a traced pass reproduces the bare pass to the nanosecond",
                 p.fingerprint == first.fingerprint);
    checks.Check("lock counters are per pass: traced and bare passes count the same",
                 l.lock_acquisitions == bare_locks);
    checks.Check("exact interval pairing agrees with the TelemetryCollector",
                 l.telemetry_intervals == l.ExactIntervals());
    if (n == 0) {
      layers = std::move(l);
    }
  }

  const double host = Median(host_s);

  std::printf("\n");
  Metrics out;
  if (args.trace == 0) {
    out.Set("throughput_kbs", first.sim.Get("throughput_kbs"), "KB/s");
    out.Set("cpu_avail", first.sim.Get("cpu_avail"), "ratio");
    out.Set("host_s", host, "s");
    out.Set("peak_rss_mb", peak_rss_mb, "MB");
    const std::vector<double>& setup = setup_s.empty() ? traced_setup_s : setup_s;
    out.Set("setup_s", Median(setup), "s");
    PrintMetrics("end-to-end (host figures are medians over passes):", out);
    std::printf("  (%zu bare passes, %zu setup samples)\n", host_s.size(), setup.size());
  } else {
    layers.Report(&out);
    const double events = static_cast<double>(first.events);
    out.Set("sim.events", events, "count");
    out.Set("sim.ns_per_event", events > 0 ? host * 1e9 / events : 0, "ns");
    const double first_ns = Median(host_layers["sim.ns_per_event.first"]);
    const double last_ns = Median(host_layers["sim.ns_per_event.last"]);
    out.Set("sim.ns_per_event.first", first_ns, "ns");
    out.Set("sim.ns_per_event.last", last_ns, "ns");
    out.Set("sim.ns_per_event_growth", first_ns > 0 ? last_ns / first_ns : 0, "ratio");
    RunProbes(&out);
    out.Set("trace.overhead_frac", Median(traced_s) / host - 1, "ratio");
    for (const auto& [name, unit] : kWorkloadResults) {
      out.Set(name, first.sim.Get(name), unit);
    }
    PrintMetrics("per-layer (traced pass; host probes are medians of 5):", out);
    std::printf("history growth: wakeup p10k/p1k = %.2f (%.0f ns / %.0f ns)",
                out.Get("kern.probe.wakeup_growth"), out.Get("kern.probe.wakeup_ns.p10k"),
                out.Get("kern.probe.wakeup_ns.p1k"));
    if (first_ns > 0) {
      std::printf("; churn ns/event last/first eighth of jobs = %.2f (%.1f ns / %.1f ns)",
                  last_ns / first_ns, last_ns, first_ns);
    }
    std::printf("\n");
  }

  std::printf("\ngates:\n");
  for (const auto& [what, ok] : checks.gates()) {
    std::printf("  %-78s %s\n", what.c_str(), ok ? "ok" : "FAIL");
  }
  attempted += checks.total();
  failed += checks.failed();
  std::printf("fail_ratio %.6f (%llu failed of %llu attempted)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  const bool correct = failed == 0;
  PrintJson(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
