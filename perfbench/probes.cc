// Host-cost probes of single simulator primitives, each timed from outside
// through the primitive's public functions and reported as the median of
// five repetitions, in ns per operation.

#include <algorithm>
#include <functional>
#include <vector>

#include "perfbench/workloads.h"
#include "src/buf/buffer_cache.h"
#include "src/dev/ram_disk.h"
#include "src/fs/filesystem.h"
#include "src/sim/callout.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"

namespace perfbench {
namespace {

constexpr int kReps = 5;

// Median over kReps of `body(ops)` host time per op; `body` runs the ops.
double NsPerOp(int ops, const std::function<void(int)>& body) {
  std::vector<double> ns;
  for (int rep = 0; rep < kReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    body(ops);
    ns.push_back(SecondsSince(t0) * 1e9 / ops);
  }
  return Median(ns);
}

// Schedule + PopNext with `depth` other events pending.
double QueueNs(int depth) {
  ikdp::EventQueue q;
  for (int i = 0; i < depth; ++i) {
    q.Schedule(ikdp::Seconds(1000) + i, [] {});
  }
  ikdp::SimTime t = 0;
  return NsPerOp(200000, [&](int ops) {
    ikdp::SimTime when = 0;
    for (int i = 0; i < ops; ++i) {
      q.Schedule(++t, [] {});
      q.PopNext(&when)();
    }
  });
}

// CpuSystem::Wakeup on a channel nobody sleeps on, after `history`
// processes have run and exited.
double WakeupNs(int history) {
  ikdp::Simulator sim;
  ikdp::CpuSystem cpu(&sim, ikdp::DecStation5000Costs());
  for (int i = 0; i < history; ++i) {
    cpu.Spawn("exited", [](ikdp::Process&) -> ikdp::Task<> { co_return; });
  }
  sim.Run();
  const int idle_channel = 0;
  return NsPerOp(2000, [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      cpu.Wakeup(&idle_channel);
    }
  });
}

// One CpuSystem::Spawn call with 1k processes of history.
double SpawnNs() {
  ikdp::Simulator sim;
  ikdp::CpuSystem cpu(&sim, ikdp::DecStation5000Costs());
  for (int i = 0; i < 1000; ++i) {
    cpu.Spawn("exited", [](ikdp::Process&) -> ikdp::Task<> { co_return; });
  }
  sim.Run();
  std::vector<double> ns;
  for (int rep = 0; rep < kReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 200; ++i) {
      cpu.Spawn("probe", [](ikdp::Process&) -> ikdp::Task<> { co_return; });
    }
    ns.push_back(SecondsSince(t0) * 1e9 / 200);
    sim.Run();
  }
  return Median(ns);
}

// CalloutTable::Timeout one tick ahead, then the softclock that fires it.
double CalloutNs() {
  ikdp::Simulator sim;
  ikdp::CalloutTable callouts(&sim, 256);
  return NsPerOp(20000, [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      callouts.Timeout([] {}, 1);
      sim.Run();
    }
  });
}

// BufferCache::BreadAsync on a cached block, plus its Brelse.
double BreadHitNs() {
  ikdp::Simulator sim;
  ikdp::CpuSystem cpu(&sim, ikdp::DecStation5000Costs());
  ikdp::BufferCache cache(&cpu, 64);
  ikdp::RamDisk ram(&cpu, 4 << 20);
  auto release = [&cache](ikdp::Buf& b) { cache.Brelse(&b); };
  cache.BreadAsync(&ram, 1, release);
  sim.Run();
  return NsPerOp(100000, [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      cache.BreadAsync(&ram, 1, release);
    }
    sim.Run();
  });
}

// FileSystem::Bmap of a block already mapped and cached, from one process,
// over the direct and single-indirect blocks of a 4 MB file.
double BmapNs() {
  ikdp::Simulator sim;
  ikdp::CpuSystem cpu(&sim, ikdp::DecStation5000Costs());
  ikdp::BufferCache cache(&cpu, 64);
  ikdp::RamDisk ram(&cpu, 64 << 20);
  ikdp::FileSystem fs(&cpu, &cache, &ram, "probe");
  ikdp::Inode* ip = fs.CreateFileInstant("f", 4 << 20, [](int64_t) { return 0; });
  const int64_t blocks = ip->SizeBlocks();
  auto walk = [&](int ops) {
    cpu.Spawn("bmap", [&, ops](ikdp::Process& p) -> ikdp::Task<> {
      for (int i = 0; i < ops; ++i) {
        co_await fs.Bmap(p, ip, i % blocks, false);
      }
    });
    sim.Run();
  };
  walk(static_cast<int>(blocks));
  return NsPerOp(50000, walk);
}

}  // namespace

void RunProbes(Metrics* out) {
  const double p1k = WakeupNs(1000);
  const double p10k = WakeupNs(10000);
  out->Set("sim.probe.queue_ns.d64", QueueNs(64), "ns");
  out->Set("sim.probe.queue_ns.d4096", QueueNs(4096), "ns");
  out->Set("sim.probe.callout_ns", CalloutNs(), "ns");
  out->Set("kern.probe.wakeup_ns.p1k", p1k, "ns");
  out->Set("kern.probe.wakeup_ns.p10k", p10k, "ns");
  out->Set("kern.probe.wakeup_growth", p10k / p1k, "ratio");
  out->Set("kern.probe.spawn_ns", SpawnNs(), "ns");
  out->Set("buf.probe.bread_hit_ns", BreadHitNs(), "ns");
  out->Set("fs.probe.bmap_ns", BmapNs(), "ns");
}

}  // namespace perfbench
