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
// Results are printed and also written to BENCH_cache.json (schema
// ikdp.bench.v1, one row per cache size) in the current directory so the
// perf trajectory of this path is machine-readable.

#include <chrono>
#include <cstdio>

#include "bench/bench_common.h"
#include "src/buf/buffer_cache.h"
#include "src/dev/ram_disk.h"
#include "src/hw/costs.h"
#include "src/kern/cpu.h"
#include "src/sim/simulator.h"

namespace {

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
  // One row per sweep point, keyed by nbufs.
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

  std::printf("\nwrote BENCH_cache.json\n");
  ikdp::bench::CheckList checks;
  artifact.Write("BENCH_cache.json", &checks);
  return checks.ok ? 0 : 1;
}
