// google-benchmark microbenchmarks of the simulator's host-side primitives:
// event queue, callout table, coroutine tasks, buffer cache operations,
// filesystem block mapping, descriptor lookup, the CPU attribution ledger,
// a process's CPU charge, the UDP datagram path and a warm serve request.
// These measure the *simulator's* execution cost (host CPU), not simulated
// time — they exist to keep the engine fast enough for the large parameter
// sweeps in the ablation benches.
//
// This binary counts heap allocations and the bytes they ask for (its own
// operator new).  Cases that call ReportAllocs show `allocs_per_iter`; those
// declared allocation-free in steady state make the binary exit 1 if their
// timed loop allocates, BM_KernelConstruct makes it exit 1 if building a
// machine allocates more than kMaxKernelConstructBytes, and
// BM_ServeRequestWarm if a serve request's count depends on the object's
// size or exceeds kMaxServeRequestAllocs, so micro_primitives_smoke gates
// them.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <new>
#include <optional>
#include <vector>

#include "src/buf/buffer_cache.h"
#include "src/dev/ram_disk.h"
#include "src/fs/filesystem.h"
#include "src/hw/costs.h"
#include "src/hw/link.h"
#include "src/kern/charge_ledger.h"
#include "src/kern/cpu.h"
#include "src/net/udp_socket.h"
#include "src/os/kernel.h"
#include "src/sim/callout.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/sim/sim_state.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/workload/splice_server.h"

namespace {
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_alloc_bytes{0};
bool g_alloc_gate_failed = false;
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
// GCC pairs the inlined free() with the builtin operator new it knows, not
// with the malloc above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace ikdp {
namespace {

// Counts the heap allocations from construction to Report(), which sets
// the case's `allocs_per_iter` counter.  With `must_be_zero`, a nonzero
// count fails the binary.
class AllocCount {
 public:
  AllocCount() : start_(g_allocs.load(std::memory_order_relaxed)) {}

  void Report(benchmark::State& state, bool must_be_zero) const {
    const uint64_t n = g_allocs.load(std::memory_order_relaxed) - start_;
    state.counters["allocs_per_iter"] =
        static_cast<double>(n) / static_cast<double>(std::max<int64_t>(state.iterations(), 1));
    if (must_be_zero && n != 0) {
      g_alloc_gate_failed = true;
      state.SkipWithError("allocates in steady state");
    }
  }

 private:
  uint64_t start_;
};

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  EventQueue q;
  SimTime when = 0;
  int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.Schedule(++t, [] {});
    }
    while (!q.empty()) {
      q.PopNext(&when)();
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_EventQueueCancel(benchmark::State& state) {
  EventQueue q;
  SimTime when = 0;
  for (auto _ : state) {
    EventId ids[64];
    for (int i = 0; i < 64; ++i) {
      ids[i] = q.Schedule(i, [] {});
    }
    for (EventId id : ids) {
      q.Cancel(id);
    }
    while (!q.empty()) {
      q.PopNext(&when)();
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueCancel);

// CpuSystem's burst re-arm (an interrupt steals cycles from a running
// burst): cancel the pending burst-end event and schedule it later, with
// 1k other events pending.
void BM_EventQueueRearmAtDepth1k(benchmark::State& state) {
  EventQueue q;
  for (int i = 0; i < 1000; ++i) {
    q.Schedule(Seconds(1000) + i, [] {});
  }
  SimTime end = 0;
  EventId burst = q.Schedule(end, [] {});
  for (auto _ : state) {
    q.Cancel(burst);
    burst = q.Schedule(++end, [] {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueRearmAtDepth1k);

// Schedule + pop of a closure with a 40-byte capture (a pointer plus a
// 32-byte callable object): a larger capture than any src/ event carries,
// still inside EventFn's 48 inline bytes.
void BM_EventQueueClosure40B(benchmark::State& state) {
  EventQueue q;
  SimTime when = 0;
  int64_t t = 0;
  int fired = 0;
  std::function<void()> done = [&fired] { ++fired; };
  for (auto _ : state) {
    q.Schedule(++t, [self = &q, on_sent = done] {
      benchmark::DoNotOptimize(self);
      on_sent();
    });
    q.PopNext(&when)();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueClosure40B);

void BM_SimulatorEventChain(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int hops = 0;
    std::function<void()> hop = [&] {
      if (++hops < 1000) {
        sim.After(10, hop);
      }
    };
    sim.After(0, hop);
    sim.Run();
    benchmark::DoNotOptimize(hops);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventChain);

void BM_CalloutTimeout(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    CalloutTable callouts(&sim, 256);
    for (int i = 0; i < 256; ++i) {
      callouts.Timeout([] {}, 1 + (i % 8));
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_CalloutTimeout);

// The splice write side's re-arm: one head-of-list callout per tick.
void BM_CalloutScheduleHeadTick(benchmark::State& state) {
  Simulator sim;
  CalloutTable callouts(&sim, 256);
  int fired = 0;
  auto tick = [&] {
    callouts.ScheduleHead([&fired] { ++fired; });
    callouts.ScheduleHead([&fired] { ++fired; });
    sim.Run();
  };
  for (int i = 0; i < 4; ++i) {
    tick();  // warm the bucket storage and the event arena
  }
  const AllocCount allocs;
  for (auto _ : state) {
    tick();
  }
  allocs.Report(state, /*must_be_zero=*/true);
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_CalloutScheduleHeadTick);

// One CPU ledger charge (CpuSystem::Attribute's body), cycling over a few
// subsystems; Arg(1) tags each charge with one of 64 spans.
void BM_CpuAttributeCharge(benchmark::State& state) {
  const bool spanned = state.range(0) != 0;
  static const char* const kSubsystems[] = {"process", "sched", "net", "disk", "splice"};
  ChargeLedger ledger;
  uint64_t i = 0;
  // One full period of the (bucket, subsystem, span) cycle creates every key.
  for (int w = 0; w < kNumChargeBuckets * 5 * 64; ++w, ++i) {
    ledger.Add(static_cast<ChargeBucket>(i % kNumChargeBuckets), kSubsystems[i % 5],
               spanned ? 1 + i % 64 : kNoSpan, 1);
  }
  const AllocCount allocs;
  for (auto _ : state) {
    ledger.Add(static_cast<ChargeBucket>(i % kNumChargeBuckets), kSubsystems[i % 5],
               spanned ? 1 + i % 64 : kNoSpan, 1);
    ++i;
  }
  allocs.Report(state, /*must_be_zero=*/true);
  benchmark::DoNotOptimize(ledger);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CpuAttributeCharge)->Arg(0)->Arg(1);

// One 1 KB datagram: SendAsync -> link -> delivery interrupt -> RecvAsync.
void BM_UdpDatagramRoundTrip(benchmark::State& state) {
  Simulator sim;
  CpuSystem cpu(&sim, DecStation5000Costs());
  NetworkLink wire(&sim, LoopbackParams());
  UdpSocket a(&cpu);
  UdpSocket b(&cpu);
  a.ConnectTo(&b, &wire);
  const BufData payload = std::make_shared<std::vector<uint8_t>>(1024, 0x5a);
  int64_t received = 0;
  auto round_trip = [&] {
    a.SendAsync(payload, 1024, [&received] { benchmark::DoNotOptimize(received); });
    b.RecvAsync(1024, [&received](BufData d, int64_t n) {
      received += n;
      benchmark::DoNotOptimize(d);
    });
    sim.Run();
  };
  for (int i = 0; i < 4; ++i) {
    round_trip();  // warm the payload pool, queues and event arena
  }
  const AllocCount allocs;
  for (auto _ : state) {
    round_trip();
  }
  allocs.Report(state, /*must_be_zero=*/true);
  if (received != (state.iterations() + 4) * 1024) {
    state.SkipWithError("a datagram was lost");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UdpDatagramRoundTrip);

// The hottest closure on the request path: a process's `co_await cpu.Use`
// (every syscall's CPU charge).  The timed loop runs inside the process,
// one Use per iteration, after one Sleep/Wakeup cycle has warmed the sleep
// path; Use keeps its arming closure inline, so the loop allocates nothing.
void BM_CpuUseWarm(benchmark::State& state) {
  Simulator sim;
  CpuSystem cpu(&sim, DecStation5000Costs());
  const int chan = 0;
  cpu.Spawn("user", [&cpu, &chan, &state](Process& p) -> Task<> {
    co_await cpu.Use(p, Microseconds(10));
    co_await cpu.Sleep(p, &chan, kPriWait);
    const AllocCount allocs;
    for (auto _ : state) {
      co_await cpu.Use(p, Microseconds(10));
    }
    allocs.Report(state, /*must_be_zero=*/true);
  });
  sim.Run();  // to the Sleep
  cpu.Wakeup(&chan);
  sim.Run();  // the timed loop
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CpuUseWarm);

// A lone process's Sleep -> Wakeup -> dispatch cycle: an event wakes the
// process, so every wakeup queues it on an empty run queue and every
// dispatch empties the queue again.  The run queue is linked through the
// processes themselves, so the cycle allocates nothing — with the race
// detector on (IKDP_KRACE) too: its same-timestamp ancestor sets reuse
// their storage.
void BM_CpuSleepWakeup(benchmark::State& state) {
  Simulator sim;
  CpuSystem cpu(&sim, DecStation5000Costs());
  const int chan = 0;
  cpu.Spawn("user", [&sim, &cpu, &chan, &state](Process& p) -> Task<> {
    co_await cpu.Sleep(p, &chan, kPriWait);
    // One warm-up cycle grows the event queue's slot pool.
    sim.After(0, [&cpu, &chan] { cpu.Wakeup(&chan); });
    co_await cpu.Sleep(p, &chan, kPriWait);
    const AllocCount allocs;
    for (auto _ : state) {
      sim.After(0, [&cpu, &chan] { cpu.Wakeup(&chan); });
      co_await cpu.Sleep(p, &chan, kPriWait);
    }
    allocs.Report(state, /*must_be_zero=*/true);
  });
  sim.Run();  // to the first Sleep
  cpu.Wakeup(&chan);
  sim.Run();  // the timed loop
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CpuSleepWakeup);

// A coroutine frame comes from the run's frame pool (SimState::frames), so
// once one task has run, spawning the next allocates nothing.
void BM_TaskSpawnResume(benchmark::State& state) {
  Simulator sim;
  auto body = [&sim]() -> Task<> {
    for (int i = 0; i < 100; ++i) {
      co_await SuspendAndCall(
          [&sim](std::coroutine_handle<> h) { sim.After(1, [h] { h.resume(); }); });
    }
  };
  auto spawn_and_run = [&body, &sim] {
    Task<> t = body();
    t.Start();
    sim.Run();
  };
  spawn_and_run();  // warms the frame pool and the event arena
  const AllocCount allocs;
  for (auto _ : state) {
    spawn_and_run();
  }
  allocs.Report(state, /*must_be_zero=*/true);
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_TaskSpawnResume);

void BM_BufferCacheHitCycle(benchmark::State& state) {
  Simulator sim;
  CpuSystem cpu(&sim, DecStation5000Costs());
  BufferCache cache(&cpu, 64);
  RamDisk ram(&cpu, 4 << 20);
  // Warm one block, then measure hit lookups through the async interface.
  bool warmed = false;
  cache.BreadAsync(&ram, 1, [&](Buf& b) {
    cache.Brelse(&b);
    warmed = true;
  });
  sim.Run();
  if (!warmed) {
    state.SkipWithError("warmup failed");
    return;
  }
  for (auto _ : state) {
    cache.BreadAsync(&ram, 1, [&](Buf& b) { cache.Brelse(&b); });
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferCacheHitCycle);

void BM_FsBmapWarm(benchmark::State& state) {
  Simulator sim;
  CpuSystem cpu(&sim, DecStation5000Costs());
  BufferCache cache(&cpu, 64);
  RamDisk ram(&cpu, 64 << 20);
  FileSystem fs(&cpu, &cache, &ram, "bench");
  Inode* ip = fs.CreateFileInstant("f", 4 << 20, [](int64_t) { return 0; });
  int64_t lbn = 0;
  for (auto _ : state) {
    int64_t pbn = 0;
    cpu.Spawn("b", [&](Process& p) -> Task<> {
      pbn = co_await fs.Bmap(p, ip, lbn % ip->SizeBlocks(), false);
    });
    sim.Run();
    benchmark::DoNotOptimize(pbn);
    ++lbn;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FsBmapWarm);

// Kernel::GetFile on a process holding 1,000 open descriptors (the
// SpliceServer ring server's table size).
void BM_KernelGetFile1kFds(benchmark::State& state) {
  Simulator sim;
  Kernel kernel(&sim, DecStation5000Costs());
  RamDisk ram(&kernel.cpu(), 4 << 20);
  kernel.MountFs(&ram, "fs")->CreateFileInstant("f", kBlockSize, [](int64_t) { return 0; });
  Process* proc = nullptr;
  kernel.Spawn("opener", [&](Process& p) -> Task<> {
    proc = &p;
    for (int i = 0; i < 1000; ++i) {
      co_await kernel.Open(p, "fs:f", kOpenRead);
    }
  });
  sim.Run();
  int fd = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.GetFile(*proc, 3 + fd));
    fd = (fd + 7) % 1000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelGetFile1kFds);

// Building a default machine allocates headers and tables, not data: each
// buffer-cache frame arrives with the first block its buffer maps, so 400
// buffers cost their headers here, not 400 x 8 KB.
constexpr uint64_t kMaxKernelConstructBytes = 256 << 10;

void BM_KernelConstruct(benchmark::State& state) {
  Simulator sim;
  std::optional<Kernel> kernel;
  uint64_t worst = 0;
  for (auto _ : state) {
    const uint64_t before = g_alloc_bytes.load(std::memory_order_relaxed);
    kernel.emplace(&sim, DecStation5000Costs());
    worst = std::max(worst, g_alloc_bytes.load(std::memory_order_relaxed) - before);
    kernel.reset();
  }
  state.counters["bytes_per_construct"] = static_cast<double>(worst);
  if (worst > kMaxKernelConstructBytes) {
    g_alloc_gate_failed = true;
    state.SkipWithError("machine construction allocates more than 256 KiB");
  }
}
BENCHMARK(BM_KernelConstruct);

// Heap allocations of one warm serve request in ring mode: RunSpliceServer
// with one client fetching one object of `blocks` blocks, at a rate so low
// that requests run one at a time, each counted from its arrival to the
// next.  Returns the most common count over the warm requests: a request
// that finishes after the next one arrives moves its ring retirement's
// allocation into that request's window, and the callout table's and the
// server's vectors still grow to their high-water marks early in the window.
uint64_t WarmServeRequestAllocs(int64_t blocks) {
  constexpr int kRequests = 64;
  constexpr int kWarmFrom = 8;
  SpliceServerConfig cfg;
  cfg.n_clients = 1;
  cfg.n_objects = 1;
  cfg.object_bytes = blocks * kBlockSize;
  cfg.total_requests = kRequests;
  cfg.offered_rps = 1.0;
  cfg.mode = SubmitMode::kRing;
  std::vector<uint64_t> at_arrival(kRequests, 0);
  SpliceServerHooks hooks;
  hooks.on_start = [&at_arrival](uint64_t id, SimTime) {
    at_arrival[id] = g_allocs.load(std::memory_order_relaxed);
  };
  if (!RunSpliceServer(cfg, hooks).ok) {
    return UINT64_MAX;
  }
  std::map<uint64_t, int> requests_with;  // allocation count -> requests
  for (size_t i = kWarmFrom; i + 1 < at_arrival.size(); ++i) {
    ++requests_with[at_arrival[i + 1] - at_arrival[i]];
  }
  return std::max_element(requests_with.begin(), requests_with.end(),
                          [](const auto& a, const auto& b) { return a.second < b.second; })
      ->first;
}

// A serve request allocates per splice, not per block: its iodone, chunk
// and wire payload live in storage the splice already has, and its ring op,
// splice descriptor and chunk slots are recycled slots (src/sim/slot_pool.h).
// The bound is the count measured when that became so: the endpoint build
// (6), the open file (1) and the server's cookie map node (1).  With the
// race detector on (IKDP_KRACE), its access table and channel map take a
// node for every object address they have not seen, so the gate holds with
// it off.
constexpr uint64_t kMaxServeRequestAllocs = 8;

void BM_ServeRequestWarm(benchmark::State& state) {
  uint64_t two_blocks = 0;
  uint64_t eight_blocks = 0;
  for (auto _ : state) {
    two_blocks = WarmServeRequestAllocs(2);
    eight_blocks = WarmServeRequestAllocs(8);
  }
  state.counters["allocs_2blk"] = static_cast<double>(two_blocks);
  state.counters["allocs_8blk"] = static_cast<double>(eight_blocks);
  if (!Krace().enabled() &&
      (two_blocks != eight_blocks || two_blocks > kMaxServeRequestAllocs)) {
    g_alloc_gate_failed = true;
    state.SkipWithError("a warm serve request allocates per block or above the bound");
  }
}
BENCHMARK(BM_ServeRequestWarm);

void BM_Rng(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Rng);

}  // namespace
}  // namespace ikdp

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return g_alloc_gate_failed ? 1 : 0;
}
