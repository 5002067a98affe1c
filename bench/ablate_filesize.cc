// Ablation: file size.
//
// The paper reports only the 8 MB case: "Alternative sizes for the file were
// statistically indistinguishable from the 8MB representative case listed
// above" (Section 6.2).  This bench sweeps the copied file size and reports
// the availability factors and throughputs, which should be flat once the
// file comfortably exceeds the buffer cache warm-up region.

#include <cstdio>

#include "src/metrics/experiment.h"

int main() {
  using ikdp::DiskKind;
  bool all_ok = true;  // a FAILED row fails the run
  std::printf("ikdp bench: file-size sweep (RZ58 disks)\n\n");
  std::printf("  %-6s | %-8s | %-8s | %-10s | %-10s | I\n", "size", "F_cp", "F_scp", "cp KB/s",
              "scp KB/s");
  std::printf("  -------+----------+----------+------------+------------+------\n");
  for (int64_t mb : {1, 2, 4, 8, 16, 24}) {
    ikdp::ExperimentConfig cfg;
    cfg.disk = DiskKind::kRz58;
    cfg.file_bytes = mb << 20;
    cfg.with_test_program = true;
    cfg.use_splice = false;
    const ikdp::ExperimentResult cp = ikdp::RunCopyExperiment(cfg);
    cfg.use_splice = true;
    const ikdp::ExperimentResult scp = ikdp::RunCopyExperiment(cfg);
    std::printf("  %3lld MB | %6.2f   | %6.2f   | %8.0f   | %8.0f   | %4.2f %s\n",
                static_cast<long long>(mb), cp.slowdown, scp.slowdown, cp.throughput_kbs,
                scp.throughput_kbs, cp.slowdown / scp.slowdown,
                cp.ok && scp.ok ? "" : "FAILED");
    all_ok = all_ok && cp.ok && scp.ok;
  }
  std::printf(
      "\nPaper claim: sizes other than 8 MB are statistically indistinguishable;\n"
      "the factors should be stable across the sweep.\n");
  return all_ok ? 0 : 1;
}
