// Ablation: splice flow-control watermarks (paper Section 5.2.4).
//
// The paper uses read-low = 3, write-high = 5, refill batches of 5, and
// argues these "prevent both the source from being underutilized and the
// destination from being overwhelmed"; the callout deferral "avoids
// lock-step behavior ... by allowing I/O operations at the source and
// destination points to proceed simultaneously".  This bench sweeps the
// watermark triple — including the degenerate (1, 1, 1) lock-step — and
// reports scp throughput and CPU availability per configuration on the two
// disk types where pipelining matters most.

#include <cstdio>

#include "src/metrics/experiment.h"

namespace {

struct Config {
  const char* label;
  int low;
  int high;
  int batch;
  int inflight;
};

}  // namespace

int main() {
  using ikdp::DiskKind;
  bool all_ok = true;  // a FAILED row fails the run
  std::printf("ikdp bench: splice flow-control watermark ablation (8 MB scp)\n\n");
  const Config configs[] = {
      {"lock-step (1,1,1)", 1, 1, 1, 2},
      {"shallow   (2,2,2)", 2, 2, 2, 4},
      {"paper     (3,5,5)", 3, 5, 5, 8},
      {"deep      (6,10,10)", 6, 10, 10, 16},
      {"deeper    (12,20,20)", 12, 20, 20, 32},
  };
  for (DiskKind disk : {DiskKind::kRz56, DiskKind::kRz58, DiskKind::kRam}) {
    std::printf("%s disks:\n", ikdp::DiskKindName(disk));
    std::printf("  %-22s | %-10s | %-8s |\n", "watermarks", "scp KB/s", "F_scp");
    std::printf("  -----------------------+------------+----------+----------------\n");
    for (const Config& c : configs) {
      ikdp::ExperimentConfig cfg;
      cfg.disk = disk;
      cfg.use_splice = true;
      cfg.with_test_program = true;
      cfg.splice_options.read_low_watermark = c.low;
      cfg.splice_options.write_high_watermark = c.high;
      cfg.splice_options.refill_batch = c.batch;
      cfg.splice_options.max_inflight_chunks = c.inflight;
      const ikdp::ExperimentResult r = ikdp::RunCopyExperiment(cfg);
      std::printf("  %-22s | %8.0f   | %6.2f   | %s\n", c.label, r.throughput_kbs, r.slowdown,
                  r.ok ? "     (verified)" : "FAILED");
      all_ok = all_ok && r.ok;
    }
    std::printf("\n");
  }
  std::printf(
      "Expected shape: lock-step costs throughput on seek-bound disks (no\n"
      "read/write overlap); the paper's (3,5,5) recovers most of the deep-queue\n"
      "throughput while bounding buffer usage.\n");
  return all_ok ? 0 : 1;
}
