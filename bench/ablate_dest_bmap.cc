// Ablation: the special destination bmap (paper Section 5.2.1).
//
// "The destination file is mapped similarly to the source file, except a
// special version of bmap() is used for improved performance which avoids
// delayed-writes of freshly allocated, zero-filled blocks."  With the stock
// bmap, premapping the whole destination dirties one zero-filled cache
// buffer per block; the splice's own writes then overwrite them, and any
// zero block forced out by cache pressure first is pure wasted disk I/O.

#include <cstdio>

#include "src/metrics/experiment.h"

int main() {
  using ikdp::DiskKind;
  bool all_ok = true;  // a FAILED row fails the run
  std::printf("ikdp bench: destination-bmap ablation (8 MB scp)\n\n");
  std::printf("  %-5s | %-14s | %-14s | %-10s | %-10s\n", "disk", "KB/s (special)",
              "KB/s (stock)", "F (special)", "F (stock)");
  std::printf("  ------+----------------+----------------+------------+-----------\n");
  for (DiskKind disk : {DiskKind::kRam, DiskKind::kRz56, DiskKind::kRz58}) {
    ikdp::ExperimentConfig cfg;
    cfg.disk = disk;
    cfg.use_splice = true;
    cfg.with_test_program = true;
    cfg.splice_options.stock_destination_bmap = false;
    const ikdp::ExperimentResult special = ikdp::RunCopyExperiment(cfg);
    cfg.splice_options.stock_destination_bmap = true;
    const ikdp::ExperimentResult stock = ikdp::RunCopyExperiment(cfg);
    std::printf("  %-5s | %10.0f     | %10.0f     | %8.2f   | %8.2f %s\n",
                ikdp::DiskKindName(disk), special.throughput_kbs, stock.throughput_kbs,
                special.slowdown, stock.slowdown,
                special.ok && stock.ok ? "" : "FAILED");
    all_ok = all_ok && special.ok && stock.ok;
  }
  std::printf(
      "\nExpected shape: the stock bmap pays an extra in-memory zero-fill per block\n"
      "at splice-setup time and floods the cache with dirty zero blocks (an 8 MB\n"
      "destination is 1024 blocks against a 400-buffer cache, forcing wasted\n"
      "writes), costing setup latency and some throughput.\n");
  return all_ok ? 0 : 1;
}
