// Ablation: the callout-list write-side deferral (paper Section 5.2.3).
//
// "The callout list is used to decouple the I/O access periods at the source
// and destination I/O devices.  Avoiding lock-step behavior by introducing
// the asynchrony provided by the callout list improves performance by
// allowing I/O operations at the source and destination points to proceed
// simultaneously."
//
// Two sweeps: (a) softclock frequency hz, which sets the granularity at
// which deferred write handlers run (and thus paces synchronous-device
// splices); (b) deferral disabled entirely — the write side runs inside the
// read-completion handler, recoupling the devices.

#include <cstdio>

#include "src/metrics/experiment.h"

int main() {
  using ikdp::DiskKind;
  bool all_ok = true;  // a FAILED row fails the run
  std::printf("ikdp bench: callout-deferral ablation (8 MB scp)\n\n");

  std::printf("hz sweep (write handlers run on softclock ticks):\n");
  std::printf("  %-5s | %-5s | %-10s | %-8s\n", "disk", "hz", "scp KB/s", "F_scp");
  std::printf("  ------+-------+------------+---------\n");
  for (DiskKind disk : {DiskKind::kRam, DiskKind::kRz58}) {
    for (int hz : {64, 128, 256, 512, 1024}) {
      ikdp::ExperimentConfig cfg;
      cfg.disk = disk;
      cfg.use_splice = true;
      cfg.with_test_program = true;
      cfg.hz = hz;
      const ikdp::ExperimentResult r = ikdp::RunCopyExperiment(cfg);
      std::printf("  %-5s | %5d | %8.0f   | %6.2f %s\n", ikdp::DiskKindName(disk), hz,
                  r.throughput_kbs, r.slowdown, r.ok ? "" : "FAILED");
      all_ok = all_ok && r.ok;
    }
  }

  std::printf("\ndeferral on/off (write handler via callout vs inside read handler):\n");
  std::printf("  %-5s | %-10s | %-10s | %-8s | %-8s\n", "disk", "KB/s (on)", "KB/s (off)",
              "F (on)", "F (off)");
  std::printf("  ------+------------+------------+----------+---------\n");
  for (DiskKind disk : {DiskKind::kRam, DiskKind::kRz56, DiskKind::kRz58}) {
    ikdp::ExperimentConfig cfg;
    cfg.disk = disk;
    cfg.use_splice = true;
    cfg.with_test_program = true;
    cfg.splice_options.callout_deferral = true;
    const ikdp::ExperimentResult on = ikdp::RunCopyExperiment(cfg);
    cfg.splice_options.callout_deferral = false;
    const ikdp::ExperimentResult off = ikdp::RunCopyExperiment(cfg);
    std::printf("  %-5s | %8.0f   | %8.0f   | %6.2f   | %6.2f %s\n", ikdp::DiskKindName(disk),
                on.throughput_kbs, off.throughput_kbs, on.slowdown, off.slowdown,
                on.ok && off.ok ? "" : "FAILED");
    all_ok = all_ok && on.ok && off.ok;
  }
  std::printf(
      "\nExpected shape: higher hz lets a synchronous-device splice move more\n"
      "chunks per second (the per-tick budget turns over faster) at a CPU\n"
      "availability cost; disabling deferral couples the devices and removes the\n"
      "pacing entirely (fast but CPU-hungry on the RAM disk).\n");
  return all_ok ? 0 : 1;
}
