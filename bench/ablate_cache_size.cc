// Ablation: buffer cache size.
//
// The paper's machine dedicates 3.2 MB (400 x 8 KB buffers) to the cache
// (Section 6.1).  splice touches at most ~10 buffers regardless of cache
// size (bounded by the flow-control watermarks), so it is exactly flat
// across the sweep — the "avoid the memory interface" argument of Section
// 2, made measurable.
//
// cp shows the opposite of the naive intuition: a LARGER cache makes the
// copy SLOWER.  Delayed writes accumulate in a big cache and are dumped in
// an unoverlapped burst at fsync time, while a small cache forces victim
// flushes early, overlapping destination writes with source reads — the
// classic write-behind pipelining effect.

#include <cstdio>

#include "src/metrics/experiment.h"

int main() {
  using ikdp::DiskKind;
  bool all_ok = true;  // a FAILED row fails the run
  std::printf("ikdp bench: buffer-cache size sweep (8 MB copy, RZ58 disks)\n\n");
  std::printf("  %-7s | %-10s | %-10s | %-8s | %-8s\n", "bufs", "cp KB/s", "scp KB/s", "F_cp",
              "F_scp");
  std::printf("  --------+------------+------------+----------+---------\n");
  for (int bufs : {25, 50, 100, 200, 400, 800}) {
    ikdp::ExperimentConfig cfg;
    cfg.disk = DiskKind::kRz58;
    cfg.cache_bufs = bufs;
    cfg.with_test_program = true;
    cfg.use_splice = false;
    const ikdp::ExperimentResult cp = ikdp::RunCopyExperiment(cfg);
    cfg.use_splice = true;
    const ikdp::ExperimentResult scp = ikdp::RunCopyExperiment(cfg);
    std::printf("  %4d    | %8.0f   | %8.0f   | %6.2f   | %6.2f %s\n", bufs, cp.throughput_kbs,
                scp.throughput_kbs, cp.slowdown, scp.slowdown,
                cp.ok && scp.ok ? "" : "FAILED");
    all_ok = all_ok && cp.ok && scp.ok;
  }
  std::printf(
      "\nMeasured shape: splice exactly flat; cp fastest with a SMALL cache\n"
      "(early victim flushes overlap the destination writes with source reads;\n"
      "a big cache defers them into an unoverlapped fsync tail).\n");
  return all_ok ? 0 : 1;
}
