#include "src/metrics/experiment.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "src/dev/disk_driver.h"
#include "src/dev/ram_disk.h"
#include "src/fs/filesystem.h"
#include "src/hw/disk.h"
#include "src/metrics/report.h"
#include "src/os/kernel.h"
#include "src/sim/simulator.h"
#include "src/workload/programs.h"

namespace ikdp {

namespace {

// The test program's unit of work, and cp's read/write size.
constexpr SimDuration kTestOpCost = Milliseconds(1);
constexpr int64_t kCpChunk = 8192;

std::unique_ptr<BlockDevice> MakeDisk(DiskKind kind, CpuSystem* cpu, Simulator* sim,
                                      const char* role) {
  // The two disks of a run get distinct names ("RZ56.src" / "RZ56.dst"):
  // trace records tag transfers by device name, and identically-named
  // devices would collide in the (device, serial) pairing key and share a
  // lane in the exported Chrome trace.
  switch (kind) {
    case DiskKind::kRam:
      // "The ram disk driver uses 16MB of statically allocated memory."
      return std::make_unique<RamDisk>(cpu, 16ll << 20);
    case DiskKind::kRz56: {
      DiskParams p = Rz56Params();
      p.name += std::string(".") + role;
      return std::make_unique<DiskDriver>(cpu, sim, std::move(p));
    }
    case DiskKind::kRz58: {
      DiskParams p = Rz58Params();
      p.name += std::string(".") + role;
      return std::make_unique<DiskDriver>(cpu, sim, std::move(p));
    }
  }
  return nullptr;
}

}  // namespace

void FillSourceBlock(int64_t lbn, std::span<uint8_t> bytes) {
  static const std::array<uint8_t, kBlockSize> kPattern = [] {
    std::array<uint8_t, kBlockSize> p{};
    for (size_t i = 0; i < p.size(); ++i) {
      p[i] = static_cast<uint8_t>((i * 2654435761u) >> 5 & 0xff);
    }
    return p;
  }();
  std::copy_n(kPattern.begin(), bytes.size(), bytes.begin());
  for (size_t k = 0; k < std::min<size_t>(bytes.size(), 8); ++k) {
    bytes[k] = static_cast<uint8_t>(static_cast<uint64_t>(lbn) >> (8 * k));
  }
}

bool MatchesSource(FileSystem* fs, Inode* ip, int64_t nbytes) {
  if (ip == nullptr || ip->size != nbytes) {
    return false;
  }
  std::array<uint8_t, kBlockSize> want;
  return fs->VisitFileInstant(ip, [&want](int64_t lbn, std::span<const uint8_t> got) {
    FillSourceBlock(lbn, std::span<uint8_t>(want).first(got.size()));
    return std::equal(got.begin(), got.end(), want.begin());
  });
}

const char* DiskKindName(DiskKind k) {
  switch (k) {
    case DiskKind::kRam:
      return "RAM";
    case DiskKind::kRz56:
      return "RZ56";
    case DiskKind::kRz58:
      return "RZ58";
  }
  return "?";
}

ExperimentResult RunCopyExperiment(const ExperimentConfig& config) {
  ExperimentResult result;
  result.config = config;

  Simulator sim;
  Kernel kernel(&sim, config.costs, config.cache_bufs, config.hz);
  kernel.splice_options() = config.splice_options;
  if (config.trace != nullptr) {
    kernel.AttachTrace(config.trace);
  }

  std::unique_ptr<BlockDevice> src_dev = MakeDisk(config.disk, &kernel.cpu(), &sim, "src");
  std::unique_ptr<BlockDevice> dst_dev = MakeDisk(config.disk, &kernel.cpu(), &sim, "dst");
  FileSystem* src_fs = kernel.MountFs(src_dev.get(), "srcfs");
  FileSystem* dst_fs = kernel.MountFs(dst_dev.get(), "dstfs");
  src_fs->set_read_ahead_blocks(config.read_ahead_blocks);
  dst_fs->set_read_ahead_blocks(config.read_ahead_blocks);

  // Pre-create the source file directly on the device: the measurement
  // starts with a cold read cache ("we ensured a read cache cold start
  // condition", Section 6.1).
  Inode* src_ip = src_fs->CreateFileInstant("big", config.file_bytes, FillSourceBlock);
  if (src_ip == nullptr) {
    return result;
  }

  TestProgramState test_state;
  if (config.with_test_program) {
    kernel.Spawn("test", [&kernel, &test_state](Process& p) -> Task<> {
      co_await TestProgram(kernel, p, kTestOpCost, &test_state);
    });
  }

  CopyResult copy;
  const std::string src_path = "srcfs:big";
  const std::string dst_path = "dstfs:copy";
  kernel.Spawn(config.use_splice ? "scp" : "cp",
               [&kernel, &config, &copy, src_path, dst_path, &test_state](Process& p) -> Task<> {
                 if (config.use_splice) {
                   co_await ScpProgram(kernel, p, src_path, dst_path, &copy);
                 } else {
                   co_await CpProgram(kernel, p, src_path, dst_path, kCpChunk, &copy);
                 }
                 test_state.stop = true;
               });

  sim.Run();
  // Attribution closure is a hard gate for every experiment-backed bench,
  // not a report: a ledger whose per-span mirror drifts from the totals
  // invalidates every per-request number downstream, so die loudly even in
  // release builds (assert() is compiled out there).
  {
    std::string closure_err;
    if (!kernel.cpu().CheckAttributionClosure(&closure_err)) {
      std::fprintf(stderr, "FATAL: attribution closure violated: %s\n", closure_err.c_str());
      std::abort();
    }
  }
  if (!copy.ok || kernel.cpu().alive() != 0) {
    return result;
  }

  // Verify the destination byte-for-byte (after pushing residual delayed
  // metadata writes straight to the device).
  kernel.cache().FlushAllInstant();
  if (!MatchesSource(dst_fs, dst_fs->Lookup("copy"), config.file_bytes)) {
    return result;
  }

  result.ok = true;
  result.bytes = copy.bytes;
  result.elapsed_s = copy.ElapsedSeconds();
  result.throughput_kbs = copy.ThroughputKbs();
  result.cpu = kernel.cpu().stats();
  result.cache_hits = kernel.cache().stats().hits;
  result.cache_misses = kernel.cache().stats().misses;
  result.splice_transients = kernel.cache().stats().transient_allocs;
  // The accounting identity is a run-level invariant: busy time charged to
  // processes, switches, and interrupts can never exceed elapsed time.  A
  // negative idle fraction means double-charged CPU somewhere — fail loudly
  // rather than publish numbers from a broken ledger.
  result.idle_fraction = IdleFraction(kernel, sim.Now());
  assert(result.idle_fraction >= 0.0 && result.idle_fraction <= 1.0);

  if (config.inspect) {
    config.inspect(kernel);
  }

  if (config.with_test_program) {
    result.test_ops = test_state.ops;
    // In the IDLE environment the test program completes exactly
    // elapsed / op_cost operations (no contention, no interrupts), so the
    // slowdown factor is elapsed / (ops x op_cost).
    const double ideal_ops = static_cast<double>(copy.end - copy.start) /
                             static_cast<double>(kTestOpCost);
    result.slowdown = result.test_ops > 0
                          ? ideal_ops / static_cast<double>(result.test_ops)
                          : 0.0;
  }
  return result;
}

std::string Summary(const ExperimentResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-4s %-3s %s: %.0f KB/s, %.3f s, F=%.2f, ops=%lld, %s",
                DiskKindName(r.config.disk), r.config.use_splice ? "scp" : "cp",
                r.config.with_test_program ? "loaded" : "idle", r.throughput_kbs, r.elapsed_s,
                r.slowdown, static_cast<long long>(r.test_ops), r.ok ? "verified" : "FAILED");
  return buf;
}

}  // namespace ikdp
