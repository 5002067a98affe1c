// serve: SpliceServer in ring mode, 1000 clients in an open Poisson loop,
// Zipf(1.0) popularity over 64 x 16 KB objects (a 1 MB hot set, smaller
// than the cache).  The path is read-only from disk to the network: aio,
// the splice stream endpoint and net, with up to 64 streams in flight.
//
// Latency is exact: each request is timed from its scheduled arrival to
// its last delivered byte through SpliceServerHooks, so queueing counts.
// Besides the fixed-rate run, a ladder of offered rates finds max_rps, the
// highest rate whose p99 stays within the latency limit without a growing
// backlog.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/workload/splice_server.h"

namespace perfbench {
namespace {

constexpr int64_t kObjectBytes = 2 * ikdp::kBlockSize;
constexpr double kRate = 300.0;        // req/s offered in the fixed-rate run
constexpr int kRequests = 40000;       // in the fixed-rate run
constexpr int kLadderRequests = 80000; // per ladder rate: p99 at the knee needs many
constexpr double kLimitMs = 100.0;     // p99 latency limit for max_rps
constexpr double kLadderLow = 100.0;   // req/s, first rung
constexpr double kLadderStep = 1.04;   // ratio between rungs
constexpr int kRungs = 36;             // 100 .. ~410 req/s

ikdp::SpliceServerConfig Config(uint64_t seed, double rate, int requests) {
  ikdp::SpliceServerConfig cfg;
  cfg.n_clients = 1000;
  cfg.n_objects = 64;
  cfg.object_bytes = kObjectBytes;
  cfg.total_requests = requests;
  cfg.offered_rps = rate;
  cfg.zipf_s = 1.0;
  cfg.mode = ikdp::SubmitMode::kRing;
  cfg.ring_inflight = 64;
  cfg.seed = seed;
  return cfg;
}

struct ServeRun {
  ikdp::SpliceServerResult result;
  std::vector<double> latency_ms;  // by request id (arrival order)
  uint64_t bad = 0;                // errored or short requests
  uint64_t datagrams = 0;
  double setup_s = -1;             // host time until the first arrival
};

ServeRun RunOnce(const ikdp::SpliceServerConfig& cfg) {
  ServeRun run;
  run.latency_ms.assign(static_cast<size_t>(cfg.total_requests), 0);
  std::vector<ikdp::SimTime> arrival(static_cast<size_t>(cfg.total_requests), 0);
  const Clock::time_point start = Clock::now();
  ikdp::SpliceServerHooks hooks;
  hooks.on_start = [&](uint64_t id, ikdp::SimTime t) {
    if (run.setup_s < 0) {
      run.setup_s = SecondsSince(start);
    }
    arrival[id] = t;
  };
  hooks.on_progress = [&](uint64_t, ikdp::SimTime, int64_t) { ++run.datagrams; };
  hooks.on_end = [&](uint64_t id, ikdp::SimTime t, int64_t bytes, bool error) {
    run.latency_ms[id] = static_cast<double>(t - arrival[id]) / 1e6;
    if (error || bytes != cfg.object_bytes) {
      ++run.bad;
    }
  };
  run.result = ikdp::RunSpliceServer(cfg, hooks);
  return run;
}

// p99 within the limit, and no backlog that grows until the last arrival:
// that would lift even the median of the last tenth of arrivals past it.
bool MeetsLimit(const ServeRun& run) {
  const std::vector<double>& v = run.latency_ms;
  const std::vector<double> tail(v.end() - static_cast<std::ptrdiff_t>(v.size() / 10), v.end());
  return run.result.ok && run.bad == 0 && Percentile(v, 0.99) <= kLimitMs &&
         Median(tail) <= kLimitMs;
}

class Serve : public Workload {
 public:
  explicit Serve(uint64_t seed) : seed_(seed) {}

  Pass Run(Layers* layers, Checks* checks) override {
    Pass pass;
    const ikdp::SpliceServerConfig cfg = Config(seed_, kRate, kRequests);
    ikdp::KspanCollector spans;
    if (layers != nullptr) {
      ikdp::AttachKspan(&spans);
    }
    const ServeRun run = RunOnce(cfg);
    if (layers != nullptr) {
      ikdp::AttachKspan(nullptr);
    }
    const ikdp::SpliceServerResult& r = run.result;
    pass.setup_s = run.setup_s;
    pass.attempted = r.requests;
    pass.failed = r.requests - r.completed + run.bad;
    checks->Check("serve: every byte delivered",
                  r.bytes == static_cast<int64_t>(r.requests) * cfg.object_bytes);
    checks->Check("serve: CPU attribution closure (server and client)", r.closure_ok);

    Digest digest;
    for (int64_t v : {r.end_time, r.bytes, static_cast<int64_t>(r.completed),
                      static_cast<int64_t>(r.errored), static_cast<int64_t>(r.server_traps),
                      static_cast<int64_t>(r.sigio_handled), r.server_cpu.process_work,
                      r.server_cpu.context_switch, r.server_cpu.interrupt_work,
                      r.client_cpu.process_work, r.client_cpu.interrupt_work}) {
      digest.Add(v);
    }
    for (double ms : run.latency_ms) {
      digest.Add(ms);
    }
    pass.fingerprint = digest.value();

    const ikdp::CpuSystem::Stats& cpu = r.server_cpu;
    const double busy =
        static_cast<double>(cpu.process_work + cpu.context_switch + cpu.interrupt_work) /
        static_cast<double>(r.end_time);
    pass.sim.Set("cpu_avail", 1.0 - busy, "ratio");
    pass.sim.Set("wl.req_p50_ms", Percentile(run.latency_ms, 0.5), "sim_ms");
    pass.sim.Set("wl.req_p99_ms", Percentile(run.latency_ms, 0.99), "sim_ms");
    pass.sim.Set("wl.req_samples", static_cast<double>(run.latency_ms.size()), "count");

    if (layers != nullptr) {
      checks->Check("serve: every span ended exactly once", spans.CheckBalanced(nullptr));
      layers->AddSpans(spans);
      layers->AddAttribution(r.attribution);
      layers->switches += r.server_cpu.switches + r.client_cpu.switches;
      layers->interrupts += r.server_cpu.interrupts + r.client_cpu.interrupts;
      layers->syscalls += r.server_traps;
      layers->bytes += r.bytes;
      layers->datagrams += run.datagrams;
    }
    return pass;
  }

  // Binary search over the rung index (a faster offered rate only adds
  // load), then max_rps is where p99 reaches the limit, interpolated
  // linearly between the highest rung that meets it and the next one up.
  void Finish(Pass* first, Checks* checks) override {
    auto rate = [](int i) { return kLadderLow * std::pow(kLadderStep, i); };
    std::vector<double> p99(kRungs, 0);
    auto meets = [&](int i) {
      const ServeRun run = RunOnce(Config(seed_, rate(i), kLadderRequests));
      first->attempted += run.result.requests;
      first->failed += run.result.requests - run.result.completed + run.bad;
      p99[static_cast<size_t>(i)] = Percentile(run.latency_ms, 0.99);
      std::printf("  ladder %7.1f req/s: p99 %9.3f ms  %s\n", rate(i), p99[static_cast<size_t>(i)],
                  MeetsLimit(run) ? "meets" : "misses");
      return MeetsLimit(run);
    };
    std::printf("serve: ring mode, 1000 clients, Zipf 1.0 over 64 x 16 KB, %d requests per rate\n",
                kLadderRequests);
    int lo = -1;      // highest rung known to meet the limit
    int hi = kRungs;  // lowest rung known to miss it
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      (meets(mid) ? lo : hi) = mid;
    }
    double max_rps = lo >= 0 ? rate(lo) : 0.0;
    if (lo >= 0 && hi < kRungs && p99[static_cast<size_t>(hi)] > kLimitMs) {
      const double below = p99[static_cast<size_t>(lo)];
      const double above = p99[static_cast<size_t>(hi)];
      max_rps += (rate(hi) - rate(lo)) * (kLimitMs - below) / (above - below);
    }
    checks->Check("serve: some ladder rate meets the limit", lo >= 0);
    first->sim.Set("throughput_kbs", max_rps * static_cast<double>(kObjectBytes) / 1024, "KB/s");
    first->sim.Set("wl.max_rps", max_rps, "req/s");
    std::printf("  max_rps %.1f req/s (p99 <= %.0f ms)\n", max_rps, kLimitMs);
    std::printf("  at %.0f req/s: p50 %.3f ms, p99 %.3f ms over %.0f requests (%zu beyond p99)\n",
                kRate, first->sim.Get("wl.req_p50_ms"), first->sim.Get("wl.req_p99_ms"),
                first->sim.Get("wl.req_samples"),
                Beyond(static_cast<size_t>(first->sim.Get("wl.req_samples")), 0.99));
  }

 private:
  uint64_t seed_;
};

}  // namespace

std::unique_ptr<Workload> MakeServe(uint64_t seed) { return std::make_unique<Serve>(seed); }

}  // namespace perfbench
