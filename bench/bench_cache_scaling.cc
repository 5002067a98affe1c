// Buffer-cache hot-path scaling benchmark.
//
// Unlike the ablation benches (which report *simulated* time), this one
// measures the HOST wall clock of the simulator's own hot path: a process
// hammering Bread/Brelse cache hits over a working set that exactly fills
// the cache.  Every hit must unlink the buffer from the LRU free list, so
// this is the operation whose cost must stay O(1) as the cache grows —
// a linear freelist scan makes the sweep superlinear in nbufs and poisons
// every cache-size ablation above a few hundred buffers.
//
// A second sweep drives the DiskModel request queue at increasing depths
// under each scheduler policy, reporting simulated completion time plus the
// scheduler's coalescing/sorting counters.
//
// Results are printed and also written to BENCH_cache.json (schema
// ikdp.bench.v1, one row per sweep point) in the current directory so the
// perf trajectory of this path is machine-readable.

#include <chrono>
#include <cstdio>
#include <functional>

#include "bench/bench_common.h"
#include "src/buf/buffer_cache.h"
#include "src/dev/ram_disk.h"
#include "src/hw/costs.h"
#include "src/hw/disk.h"
#include "src/kern/cpu.h"
#include "src/sim/simulator.h"

namespace {

struct QueueRow {
  const char* sched = "";
  int depth = 0;
  double sim_ms = 0;
  uint64_t coalesced = 0;
  uint64_t sort_passes = 0;
  size_t max_depth = 0;
};

// Drives the DiskModel with `depth` outstanding random-ish block requests,
// refilled on every completion, for `total` requests.  Reports simulated
// completion time and the scheduler counters.
QueueRow RunQueueSweep(ikdp::DiskSched sched, int depth, int total) {
  using namespace ikdp;
  Simulator sim;
  DiskParams p = Rz56Params();
  p.sched = sched;
  DiskModel disk(&sim, p);

  constexpr int64_t kBlock = 8192;
  const int64_t nblocks = p.capacity_bytes / kBlock;
  uint64_t lcg = 0x2545f4914f6cdd1dull;
  int submitted = 0;
  int completed = 0;
  // Count in-flight requests ourselves: inside a completion callback the
  // disk still reports itself busy, so QueueDepth() never drops below 1.
  std::function<void()> refill = [&] {
    while (submitted < total && submitted - completed < depth) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      // Half the stream is a sequential run (coalescable), half random.
      const int64_t blk = (submitted % 2 == 0)
                              ? (submitted / 2) % nblocks
                              : static_cast<int64_t>((lcg >> 33) % static_cast<uint64_t>(nblocks));
      ++submitted;
      disk.Submit(DiskRequest{blk * kBlock, kBlock, true, [&](bool) {
        ++completed;
        refill();
      }});
    }
  };
  refill();
  sim.Run();

  QueueRow row;
  row.sched = sched == DiskSched::kFifo ? "fifo" : "clook";
  row.depth = depth;
  row.sim_ms = ToSeconds(sim.Now()) * 1e3;
  row.coalesced = disk.stats().coalesced;
  row.sort_passes = disk.stats().queue_sort_passes;
  row.max_depth = disk.stats().max_queue_depth;
  return row;
}

struct CacheRow {
  int nbufs = 0;
  int64_t ops = 0;
  double wall_ms = 0;
  double sim_ms = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

CacheRow RunCacheSweep(int nbufs, int64_t ops) {
  using namespace ikdp;
  Simulator sim;
  CpuSystem cpu(&sim, DecStation5000Costs());
  BufferCache cache(&cpu, nbufs);
  RamDisk ram(&cpu, 64ll << 20);

  CacheRow row;
  row.nbufs = nbufs;
  row.ops = ops;
  const auto t0 = std::chrono::steady_clock::now();
  cpu.Spawn("hammer", [&](Process& p) -> Task<> {
    // Warm the cache: one miss per frame, after which the working set
    // exactly fills the pool and every further access is a hit.  Hits are
    // drawn uniformly at random (deterministic LCG), so the hit buffer sits
    // at a uniformly distributed depth of the LRU list — cyclic patterns
    // always reuse the least-recently-used buffer and would let a linear
    // freelist scan terminate at the list head.
    for (int64_t i = 0; i < nbufs; ++i) {
      Buf* b = co_await cache.Bread(p, &ram, i);
      cache.Brelse(b);
    }
    uint64_t lcg = 0x853c49e6748fea9bull;
    for (int64_t i = 0; i < ops; ++i) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      const int64_t blk = static_cast<int64_t>((lcg >> 33) % static_cast<uint64_t>(nbufs));
      Buf* b = co_await cache.Bread(p, &ram, blk);
      cache.Brelse(b);
    }
  });
  sim.Run();
  const auto t1 = std::chrono::steady_clock::now();
  row.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  row.sim_ms = ikdp::ToSeconds(sim.Now()) * 1e3;
  row.hits = cache.stats().hits;
  row.misses = cache.stats().misses;
  return row;
}

}  // namespace

int main() {
  // One row per sweep point: cache rows carry nbufs, queue rows sched and depth.
  ikdp::bench::BenchArtifact artifact("cache_scaling");
  std::printf("ikdp bench: buffer-cache hot-path scaling (host wall clock)\n\n");
  std::printf("  %-7s | %-9s | %-10s | %-10s | %-10s\n", "nbufs", "ops", "wall ms", "hits",
              "misses");
  std::printf("  --------+-----------+------------+------------+-----------\n");
  constexpr int64_t kOps = 200000;
  for (int nbufs : {64, 512, 4096}) {
    const CacheRow r = RunCacheSweep(nbufs, kOps);
    std::printf("  %5d   | %7lld   | %8.1f   | %8llu   | %8llu\n", r.nbufs,
                static_cast<long long>(r.ops), r.wall_ms, static_cast<unsigned long long>(r.hits),
                static_cast<unsigned long long>(r.misses));
    artifact.rows.emplace_back()
        .Int("nbufs", r.nbufs)
        .Int("ops", r.ops)
        .Num("wall_ms", r.wall_ms, 2)
        .Num("sim_ms", r.sim_ms, 2)
        .Int("hits", r.hits)
        .Int("misses", r.misses);
  }

  std::printf("\nikdp bench: disk request queue, scheduler x depth (simulated time)\n\n");
  std::printf("  %-6s | %-6s | %-10s | %-10s | %-11s | %-9s\n", "sched", "depth", "sim ms",
              "coalesced", "sort passes", "max depth");
  std::printf("  -------+--------+------------+------------+-------------+----------\n");
  constexpr int kQueueRequests = 2000;
  for (ikdp::DiskSched sched : {ikdp::DiskSched::kFifo, ikdp::DiskSched::kCLook}) {
    for (int depth : {1, 4, 16}) {
      const QueueRow r = RunQueueSweep(sched, depth, kQueueRequests);
      std::printf("  %-6s | %4d   | %8.1f   | %8llu   | %9llu   | %7zu\n", r.sched, r.depth,
                  r.sim_ms, static_cast<unsigned long long>(r.coalesced),
                  static_cast<unsigned long long>(r.sort_passes), r.max_depth);
      artifact.rows.emplace_back()
          .Str("sched", r.sched)
          .Int("depth", r.depth)
          .Int("requests", kQueueRequests)
          .Num("sim_ms", r.sim_ms, 2)
          .Int("coalesced", r.coalesced)
          .Int("sort_passes", r.sort_passes)
          .Int("max_depth", r.max_depth);
    }
  }

  std::printf("\nwrote BENCH_cache.json\n");
  ikdp::bench::CheckList checks;
  artifact.Write("BENCH_cache.json", &checks);
  return checks.ok ? 0 : 1;
}
