// Tests for the workload programs (cp, scp, the CPU-bound test program) and
// the experiment harness, using small files so the whole Table-1/Table-2
// machinery is exercised quickly.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "src/dev/ram_disk.h"
#include "src/metrics/experiment.h"
#include "src/metrics/tables.h"
#include "src/os/kernel.h"
#include "src/workload/programs.h"

namespace ikdp {
namespace {

uint8_t Fill(int64_t i) { return static_cast<uint8_t>((i * 2654435761u) >> 5 & 0xff); }

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest()
      : kernel_(&sim_, DecStation5000Costs()),
        src_(&kernel_.cpu(), 16 << 20),
        dst_(&kernel_.cpu(), 16 << 20) {
    src_fs_ = kernel_.MountFs(&src_, "src");
    dst_fs_ = kernel_.MountFs(&dst_, "dst");
  }

  Simulator sim_;
  Kernel kernel_;
  RamDisk src_;
  RamDisk dst_;
  FileSystem* src_fs_;
  FileSystem* dst_fs_;
};

TEST_F(WorkloadTest, CpCopiesAndSyncs) {
  constexpr int64_t kBytes = 20 * kBlockSize;
  src_fs_->CreateFileInstant("f", kBytes, Fill);
  CopyResult result;
  kernel_.Spawn("cp", [&](Process& p) -> Task<> {
    co_await CpProgram(kernel_, p, "src:f", "dst:g", 8192, &result);
  });
  sim_.Run();
  ASSERT_EQ(kernel_.cpu().alive(), 0);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.bytes, kBytes);
  EXPECT_GT(result.end, result.start);
  // fsync ran: the destination device holds the data already.
  Inode* ip = dst_fs_->Lookup("g");
  ASSERT_NE(ip, nullptr);
  kernel_.cache().FlushAllInstant();  // metadata only
  const std::vector<uint8_t> back = dst_fs_->ReadFileInstant(ip);
  for (int64_t i = 0; i < kBytes; ++i) {
    ASSERT_EQ(back[static_cast<size_t>(i)], Fill(i)) << i;
  }
}

// The copy check compares every block with the source generator, and each
// source block carries its logical block number, so a destination block
// that lands at another block's offset (a bmap, splice or disksort mapping
// bug) fails verification even though every block holds pattern bytes.
TEST_F(WorkloadTest, VerificationCatchesSwappedDestinationBlocks) {
  constexpr int64_t kBytes = 10 * kBlockSize + 100;  // short last block
  ASSERT_NE(src_fs_->CreateFileInstant("f", kBytes, FillSourceBlock), nullptr);
  CopyResult result;
  kernel_.Spawn("cp", [&](Process& p) -> Task<> {
    co_await CpProgram(kernel_, p, "src:f", "dst:g", 8192, &result);
  });
  sim_.Run();
  ASSERT_TRUE(result.ok);
  kernel_.cache().FlushAllInstant();
  Inode* ip = dst_fs_->Lookup("g");
  ASSERT_TRUE(MatchesSource(dst_fs_, ip, kBytes));
  EXPECT_FALSE(MatchesSource(dst_fs_, ip, kBytes - 1));

  const int64_t a = ip->direct[2];
  const int64_t b = ip->direct[5];
  const std::span<const uint8_t> view_a = dst_.PeekBlock(a);
  const std::vector<uint8_t> old_a(view_a.begin(), view_a.end());
  dst_.PokeBlock(a, dst_.PeekBlock(b));
  dst_.PokeBlock(b, old_a);
  EXPECT_FALSE(MatchesSource(dst_fs_, ip, kBytes));
}

TEST(SourceContentTest, BlocksCarryTheirNumberEvenWhenShort) {
  std::vector<uint8_t> whole(kBlockSize);
  FillSourceBlock(0x0807060504030201, whole);
  EXPECT_EQ(std::vector<uint8_t>(whole.begin(), whole.begin() + 8),
            (std::vector<uint8_t>{1, 2, 3, 4, 5, 6, 7, 8}));
  std::vector<uint8_t> other(kBlockSize);
  FillSourceBlock(0, other);
  EXPECT_TRUE(std::equal(whole.begin() + 8, whole.end(), other.begin() + 8));
  std::vector<uint8_t> tail(3);
  FillSourceBlock(0x030201, tail);
  EXPECT_EQ(tail, (std::vector<uint8_t>{1, 2, 3}));
}

TEST_F(WorkloadTest, ScpCopiesViaSplice) {
  constexpr int64_t kBytes = 20 * kBlockSize;
  src_fs_->CreateFileInstant("f", kBytes, Fill);
  CopyResult result;
  kernel_.Spawn("scp", [&](Process& p) -> Task<> {
    co_await ScpProgram(kernel_, p, "src:f", "dst:g", &result);
  });
  sim_.Run();
  ASSERT_EQ(kernel_.cpu().alive(), 0);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.bytes, kBytes);
  EXPECT_EQ(kernel_.splice_engine().stats().splices_completed, 1u);
}

TEST_F(WorkloadTest, ScpUsesLessProcessCpuThanCp) {
  constexpr int64_t kBytes = 64 * kBlockSize;
  src_fs_->CreateFileInstant("f", kBytes, Fill);
  CopyResult cp_result;
  CopyResult scp_result;
  Process* cp_proc = kernel_.Spawn("cp", [&](Process& p) -> Task<> {
    co_await CpProgram(kernel_, p, "src:f", "dst:g1", 8192, &cp_result);
  });
  sim_.Run();
  Process* scp_proc = kernel_.Spawn("scp", [&](Process& p) -> Task<> {
    co_await ScpProgram(kernel_, p, "src:f", "dst:g2", &scp_result);
  });
  sim_.Run();
  ASSERT_TRUE(cp_result.ok);
  ASSERT_TRUE(scp_result.ok);
  // The core claim, at the process level: splice removes the per-block
  // copyin/copyout and syscalls from the calling process.
  EXPECT_LT(scp_proc->stats().cpu_time, cp_proc->stats().cpu_time / 4);
  // The splice blocks the caller exactly once for the whole transfer (cp on
  // a synchronous RAM disk never blocks at all, so only scp's bound is
  // meaningful here; the per-block sleep comparison lives in the SCSI
  // experiments).
  EXPECT_LE(scp_proc->stats().voluntary_switches, 2u);
}

TEST_F(WorkloadTest, CpMissingSourceFailsCleanly) {
  CopyResult result;
  kernel_.Spawn("cp", [&](Process& p) -> Task<> {
    co_await CpProgram(kernel_, p, "src:missing", "dst:g", 8192, &result);
  });
  sim_.Run();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.bytes, 0);
}

TEST_F(WorkloadTest, TestProgramCountsOps) {
  TestProgramState state;
  kernel_.Spawn("test", [&](Process& p) -> Task<> {
    co_await TestProgram(kernel_, p, Milliseconds(2), &state);
  });
  sim_.After(Milliseconds(101), [&] { state.stop = true; });
  sim_.Run();
  // 2 ms ops for ~101 ms: 50 full ops plus the one that observes stop.
  EXPECT_GE(state.ops, 50);
  EXPECT_LE(state.ops, 52);
}

TEST(ExperimentTest, SmallRamExperimentVerifies) {
  ExperimentConfig cfg;
  cfg.disk = DiskKind::kRam;
  cfg.file_bytes = 1 << 20;
  cfg.use_splice = true;
  cfg.with_test_program = true;
  const ExperimentResult r = RunCopyExperiment(cfg);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.bytes, 1 << 20);
  EXPECT_GT(r.throughput_kbs, 0);
  EXPECT_GE(r.slowdown, 1.0);
  EXPECT_GT(r.test_ops, 0);
  EXPECT_GT(r.splice_transients, 0u);
}

TEST(ExperimentTest, ThroughputOrderingScpBeatsCpOnRam) {
  ExperimentConfig cfg;
  cfg.disk = DiskKind::kRam;
  cfg.file_bytes = 2 << 20;
  cfg.with_test_program = false;
  cfg.use_splice = false;
  const ExperimentResult cp = RunCopyExperiment(cfg);
  cfg.use_splice = true;
  const ExperimentResult scp = RunCopyExperiment(cfg);
  ASSERT_TRUE(cp.ok);
  ASSERT_TRUE(scp.ok);
  EXPECT_GT(scp.throughput_kbs, cp.throughput_kbs * 1.2);
}

TEST(ExperimentTest, AvailabilityOrderingScpBeatsCp) {
  for (DiskKind disk : {DiskKind::kRam, DiskKind::kRz56, DiskKind::kRz58}) {
    ExperimentConfig cfg;
    cfg.disk = disk;
    cfg.file_bytes = 2 << 20;
    cfg.with_test_program = true;
    cfg.use_splice = false;
    const ExperimentResult cp = RunCopyExperiment(cfg);
    cfg.use_splice = true;
    const ExperimentResult scp = RunCopyExperiment(cfg);
    ASSERT_TRUE(cp.ok) << DiskKindName(disk);
    ASSERT_TRUE(scp.ok) << DiskKindName(disk);
    EXPECT_GT(cp.slowdown, scp.slowdown) << DiskKindName(disk);
    EXPECT_GE(scp.slowdown, 0.99) << DiskKindName(disk);
  }
}

TEST(ExperimentTest, TableRunnersProduceCompleteRows) {
  const auto t1 = RunTable1(1 << 20);
  ASSERT_EQ(t1.size(), 3u);
  for (const auto& row : t1) {
    EXPECT_TRUE(row.cp.ok);
    EXPECT_TRUE(row.scp.ok);
    EXPECT_GT(row.MeasuredImprovement(), 1.0);
  }
  const auto t2 = RunTable2(1 << 20);
  ASSERT_EQ(t2.size(), 3u);
  for (const auto& row : t2) {
    EXPECT_TRUE(row.cp.ok);
    EXPECT_TRUE(row.scp.ok);
    EXPECT_GT(row.MeasuredImprovementPct(), 0.0);
  }
}

TEST(ExperimentTest, SummaryStringMentionsVerification) {
  ExperimentConfig cfg;
  cfg.disk = DiskKind::kRam;
  cfg.file_bytes = 1 << 20;
  cfg.use_splice = true;
  const ExperimentResult r = RunCopyExperiment(cfg);
  const std::string s = Summary(r);
  EXPECT_NE(s.find("verified"), std::string::npos);
  EXPECT_NE(s.find("scp"), std::string::npos);
}

}  // namespace
}  // namespace ikdp
