// Ablation: the shared-data-area (zero-copy) write side (paper Section
// 5.2.3).
//
// "The data pointer in the new buffer header is saved and altered to point
// to the same address the data pointer in the read-side buffer does, so both
// buffers share a common data area.  We thus avoid copying between cache
// buffers."  Turning zero_copy off makes the write handler bcopy each block
// between buffers (charged as kernel copy time), isolating how much of
// splice's win comes from copy avoidance versus context-switch avoidance.

#include <cstdio>

#include "src/metrics/experiment.h"

int main() {
  using ikdp::DiskKind;
  bool all_ok = true;  // a FAILED row fails the run
  std::printf("ikdp bench: zero-copy ablation (8 MB scp)\n\n");
  std::printf("  %-5s | %-12s | %-12s | %-8s | %-8s\n", "disk", "scp KB/s", "scp KB/s", "F_scp",
              "F_scp");
  std::printf("  %-5s | %-12s | %-12s | %-8s | %-8s\n", "", "(zero-copy)", "(bcopy)",
              "(zero-copy)", "(bcopy)");
  std::printf("  ------+--------------+--------------+----------+---------\n");
  for (DiskKind disk : {DiskKind::kRam, DiskKind::kRz56, DiskKind::kRz58}) {
    ikdp::ExperimentConfig cfg;
    cfg.disk = disk;
    cfg.use_splice = true;
    cfg.with_test_program = true;
    cfg.splice_options.zero_copy = true;
    const ikdp::ExperimentResult zc = ikdp::RunCopyExperiment(cfg);
    cfg.splice_options.zero_copy = false;
    const ikdp::ExperimentResult bc = ikdp::RunCopyExperiment(cfg);
    std::printf("  %-5s | %10.0f   | %10.0f   | %6.2f   | %6.2f %s\n",
                ikdp::DiskKindName(disk), zc.throughput_kbs, bc.throughput_kbs, zc.slowdown,
                bc.slowdown, zc.ok && bc.ok ? "" : "FAILED");
    all_ok = all_ok && zc.ok && bc.ok;
  }
  std::printf(
      "\nExpected shape: the copy costs CPU availability everywhere (higher F), and\n"
      "costs throughput where the CPU is the bottleneck (RAM disk); disk-bound\n"
      "splices lose little throughput but still steal more cycles.\n");
  return all_ok ? 0 : 1;
}
