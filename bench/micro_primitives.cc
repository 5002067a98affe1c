// google-benchmark microbenchmarks of the simulator's host-side primitives:
// event queue, callout table, coroutine tasks, buffer cache operations,
// filesystem block mapping and descriptor lookup.  These measure the
// *simulator's* execution cost (host CPU), not simulated time — they exist
// to keep the engine fast enough for the large parameter sweeps in the
// ablation benches.

#include <benchmark/benchmark.h>

#include <functional>

#include "src/buf/buffer_cache.h"
#include "src/dev/ram_disk.h"
#include "src/fs/filesystem.h"
#include "src/hw/costs.h"
#include "src/kern/cpu.h"
#include "src/os/kernel.h"
#include "src/sim/callout.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace ikdp {
namespace {

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

// Schedule + pop of a closure with a 40-byte capture (a `this` pointer plus
// a std::function, like NetworkLink's transmit-done event).
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

void BM_TaskSpawnResume(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    auto body = [&sim]() -> Task<> {
      for (int i = 0; i < 100; ++i) {
        co_await SuspendAndCall(
            [&sim](std::coroutine_handle<> h) { sim.After(1, [h] { h.resume(); }); });
      }
    };
    Task<> t = body();
    t.Start();
    sim.Run();
  }
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

BENCHMARK_MAIN();
