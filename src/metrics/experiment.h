// The experiment harness for the paper's evaluation (Section 6).
//
// One call builds a fresh machine modelled on the paper's configuration —
// DECstation 5000/200 costs, a 3.2 MB buffer cache, hz = 256, and a pair of
// identical disks of the chosen type, each with its own filesystem — places
// an 8 MB source file on the first disk, and copies it to the second with
// either cp (read/write) or scp (splice), optionally while the CPU-bound
// test program runs.
//
// Reported metrics map onto the paper's tables:
//  * slowdown F = elapsed / (test ops completed x op cost): how much slower
//    the test program ran than in the IDLE environment (Table 1);
//  * throughput = bytes / elapsed (Table 2, measured with the test program
//    disabled).
//
// Every run verifies the destination file's bytes against the source content
// before reporting, so a throughput number can never come from a broken
// copy.  Each source block carries its own logical block number, so a block
// landing at the wrong offset fails verification too.

#ifndef SRC_METRICS_EXPERIMENT_H_
#define SRC_METRICS_EXPERIMENT_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>

#include "src/hw/costs.h"
#include "src/kern/cpu.h"
#include "src/sim/trace.h"
#include "src/splice/splice_engine.h"

namespace ikdp {

class FileSystem;
class Kernel;
struct Inode;

enum class DiskKind { kRam, kRz56, kRz58 };

const char* DiskKindName(DiskKind k);

struct ExperimentConfig {
  // Sequential read-ahead blocks on both filesystems (4.2BSD's breada: 1).
  // Declared first on purpose: perfbench's churn loop is linked after the
  // code built from this struct, and of the natural positions only this one
  // keeps the loop's 64-byte alignment (its host time moves ~25% without).
  int read_ahead_blocks = 1;
  DiskKind disk = DiskKind::kRam;
  int64_t file_bytes = 8 << 20;  // the paper's 8 MB representative case
  bool use_splice = false;       // scp vs cp
  bool with_test_program = true; // Table 1 vs Table 2 mode
  CostConfig costs = DecStation5000Costs();
  SpliceOptions splice_options{};
  int cache_bufs = 400;  // 3.2 MB of 8 KB buffers
  int hz = 256;

  // Optional observability taps.  `trace` (when non-null) is attached to
  // the machine before the run — recording never advances simulated time,
  // so results are identical with or without it.  `inspect` runs after the
  // copy verifies, while the kernel is still alive, so callers can sample
  // per-subsystem stats (e.g. CaptureKernelCounters) that the plain result
  // struct does not carry.
  TraceLog* trace = nullptr;
  std::function<void(Kernel&)> inspect;
};

struct ExperimentResult {
  ExperimentConfig config;
  bool ok = false;           // copy completed and contents verified
  int64_t bytes = 0;
  double elapsed_s = 0;
  double throughput_kbs = 0;  // KB/s, paper units

  // Test-program metrics (with_test_program runs only).
  int64_t test_ops = 0;
  // F = ideal ops over [copy start, copy end] / ops counted from t = 0.
  // The count also holds the test program's first 100 ms quantum (it runs
  // before the copier starts) and the op in flight at copy end, so F is
  // biased low by ~101 ops and can dip below 1.0 for a short copy.
  double slowdown = 0;

  // Machine-level accounting over the copy interval.
  CpuSystem::Stats cpu;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t splice_transients = 0;
  // Fraction of the run the CPU sat idle, from the accounting identity
  // process_work + context_switch + interrupt_work + idle == elapsed.
  // Always in [0, 1]; the harness asserts non-negativity every run.
  double idle_fraction = 0;
};

// The source file's content: logical block `lbn` holds one fixed 8 KB
// pattern with its first 8 bytes replaced by lbn (little-endian), cut to
// bytes.size() for a short last block.  A FileSystem::BlockFill.
void FillSourceBlock(int64_t lbn, std::span<uint8_t> bytes);

// True when `ip` on `fs` is exactly `nbytes` of FillSourceBlock content, as
// the device holds it now.
bool MatchesSource(FileSystem* fs, Inode* ip, int64_t nbytes);

// Runs one copy experiment on a fresh machine.
ExperimentResult RunCopyExperiment(const ExperimentConfig& config);

// Formats a one-line summary (for harness logs).
std::string Summary(const ExperimentResult& r);

}  // namespace ikdp

#endif  // SRC_METRICS_EXPERIMENT_H_
