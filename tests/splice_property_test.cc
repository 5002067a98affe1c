// Property tests for the splice engine: for every combination of disk type,
// transfer size, and engine options, a file-to-file splice must move exactly
// the requested bytes, preserve content byte-for-byte, respect the
// flow-control bounds, and leave the machine quiescent.  Cancellation must
// converge and release every buffer.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/dev/disk_driver.h"
#include "src/dev/ram_disk.h"
#include "src/hw/disk.h"
#include "src/os/kernel.h"
#include "src/splice/file_endpoint.h"

namespace ikdp {
namespace {

uint8_t Fill(int64_t i) { return static_cast<uint8_t>((i * 131 + 17) & 0xff); }

// The engine takes a sink list; these splices have one sink.
std::vector<std::unique_ptr<SpliceSink>> OneSink(std::unique_ptr<SpliceSink> sink) {
  std::vector<std::unique_ptr<SpliceSink>> sinks;
  sinks.push_back(std::move(sink));
  return sinks;
}

enum class PDisk { kRam, kRz56, kRz58 };

const char* PDiskName(PDisk d) {
  switch (d) {
    case PDisk::kRam:
      return "Ram";
    case PDisk::kRz56:
      return "Rz56";
    case PDisk::kRz58:
      return "Rz58";
  }
  return "?";
}

struct PropertyCase {
  PDisk disk;
  int64_t bytes;
  bool zero_copy;
  bool callout_deferral;
};

std::string CaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  const PropertyCase& c = info.param;
  return std::string(PDiskName(c.disk)) + "_" + std::to_string(c.bytes) + "B" +
         (c.zero_copy ? "_zc" : "_copy") + (c.callout_deferral ? "_defer" : "_direct");
}

class SplicePropertyTest : public ::testing::TestWithParam<PropertyCase> {
 protected:
  std::unique_ptr<BlockDevice> MakeDev(PDisk kind, Kernel& k, Simulator& sim) {
    switch (kind) {
      case PDisk::kRam:
        return std::make_unique<RamDisk>(&k.cpu(), 32 << 20);
      case PDisk::kRz56:
        return std::make_unique<DiskDriver>(&k.cpu(), &sim, Rz56Params());
      case PDisk::kRz58:
        return std::make_unique<DiskDriver>(&k.cpu(), &sim, Rz58Params());
    }
    return nullptr;
  }
};

TEST_P(SplicePropertyTest, MovesExactlyAndPreservesContent) {
  const PropertyCase& c = GetParam();
  Simulator sim;
  Kernel kernel(&sim, DecStation5000Costs());
  kernel.splice_options().zero_copy = c.zero_copy;
  kernel.splice_options().callout_deferral = c.callout_deferral;
  auto src_dev = MakeDev(c.disk, kernel, sim);
  auto dst_dev = MakeDev(c.disk, kernel, sim);
  FileSystem* src_fs = kernel.MountFs(src_dev.get(), "src");
  FileSystem* dst_fs = kernel.MountFs(dst_dev.get(), "dst");
  Inode* src_ip = src_fs->CreateFileInstant("f", c.bytes, Fill);
  ASSERT_NE(src_ip, nullptr);

  int64_t moved = -1;
  kernel.Spawn("scp", [&](Process& p) -> Task<> {
    const int s = co_await kernel.Open(p, "src:f", kOpenRead);
    const int d = co_await kernel.Open(p, "dst:g", kOpenWrite | kOpenCreate);
    moved = co_await kernel.Splice(p, s, d, kSpliceEof);
  });
  sim.Run();

  // Quiescence: no live processes, no active descriptors, no busy buffers.
  ASSERT_EQ(kernel.cpu().alive(), 0);
  EXPECT_EQ(kernel.splice_engine().active(), 0);
  EXPECT_EQ(moved, c.bytes);
  EXPECT_EQ(kernel.cache().PendingWrites(dst_dev.get()), 0);

  kernel.cache().FlushAllInstant();
  Inode* dst_ip = dst_fs->Lookup("g");
  ASSERT_NE(dst_ip, nullptr);
  EXPECT_EQ(dst_ip->size, c.bytes);
  const std::vector<uint8_t> back = dst_fs->ReadFileInstant(dst_ip);
  ASSERT_EQ(static_cast<int64_t>(back.size()), c.bytes);
  for (int64_t i = 0; i < c.bytes; ++i) {
    ASSERT_EQ(back[static_cast<size_t>(i)], Fill(i)) << "byte " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SplicePropertyTest,
    ::testing::Values(
        // Size edge cases on the RAM disk.
        PropertyCase{PDisk::kRam, 1, true, true}, PropertyCase{PDisk::kRam, kBlockSize - 1, true, true},
        PropertyCase{PDisk::kRam, kBlockSize, true, true},
        PropertyCase{PDisk::kRam, kBlockSize + 1, true, true},
        PropertyCase{PDisk::kRam, 7 * kBlockSize + 123, true, true},
        PropertyCase{PDisk::kRam, 100 * kBlockSize, true, true},
        // Crossing the indirect-block boundary.
        PropertyCase{PDisk::kRam, 15 * kBlockSize, true, true},
        // SCSI disks, interrupt-driven completion.
        PropertyCase{PDisk::kRz56, 3 * kBlockSize, true, true},
        PropertyCase{PDisk::kRz56, 40 * kBlockSize + 57, true, true},
        PropertyCase{PDisk::kRz58, 25 * kBlockSize, true, true},
        // Option ablations.
        PropertyCase{PDisk::kRam, 20 * kBlockSize, false, true},
        PropertyCase{PDisk::kRam, 20 * kBlockSize, true, false},
        PropertyCase{PDisk::kRam, 20 * kBlockSize, false, false},
        PropertyCase{PDisk::kRz58, 20 * kBlockSize, false, true},
        PropertyCase{PDisk::kRz58, 20 * kBlockSize, true, false}),
    CaseName);

// Watermark sweep: every (low, high, batch) combination must preserve
// correctness; the pending counters must respect the configured bounds.
class WatermarkPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(WatermarkPropertyTest, BoundsHoldAndContentSurvives) {
  const auto [low, high, batch] = GetParam();
  Simulator sim;
  Kernel kernel(&sim, DecStation5000Costs());
  DiskDriver src_dev(&kernel.cpu(), &sim, Rz56Params());
  DiskDriver dst_dev(&kernel.cpu(), &sim, Rz56Params());
  FileSystem* src_fs = kernel.MountFs(&src_dev, "src");
  FileSystem* dst_fs = kernel.MountFs(&dst_dev, "dst");
  constexpr int64_t kBytes = 30 * kBlockSize;
  Inode* src_ip = src_fs->CreateFileInstant("f", kBytes, Fill);
  Inode* dst_ip = dst_fs->Create("g");

  SpliceOptions opts;
  opts.read_low_watermark = low;
  opts.write_high_watermark = high;
  opts.refill_batch = batch;
  opts.max_inflight_chunks = batch + high;

  SpliceDescriptor::Stats observed;
  int64_t moved = -1;
  kernel.Spawn("driver", [&](Process& p) -> Task<> {
    std::vector<int64_t> smap =
        co_await src_fs->MapRange(p, src_ip, kBytes / kBlockSize, false, false);
    std::vector<int64_t> dmap =
        co_await dst_fs->MapRange(p, dst_ip, kBytes / kBlockSize, true, true);
    auto source = std::make_unique<FileSpliceSource>(&kernel.cache(), src_fs->dev(),
                                                     std::move(smap), kBytes);
    auto sink =
        std::make_unique<FileSpliceSink>(&kernel.cache(), dst_fs->dev(), std::move(dmap));
    struct Waiter {
      bool done = false;
    } w;
    SpliceDescriptor* d = nullptr;
    d = kernel.splice_engine().Start(std::move(source), OneSink(std::move(sink)), opts,
                                     [&](const SpliceCompletion& c) {
                                       moved = c.io_error ? -1 : c.bytes_moved;
                                       observed = d->stats();
                                       w.done = true;
                                       kernel.cpu().Wakeup(&w);
                                     });
    while (!w.done) {
      co_await kernel.cpu().Sleep(p, &w, kPriWait);
    }
  });
  sim.Run();
  ASSERT_EQ(kernel.cpu().alive(), 0);
  EXPECT_EQ(moved, kBytes);
  EXPECT_LE(observed.max_pending_reads, batch);
  dst_ip->size = kBytes;  // engine-level run bypasses the syscall's updater
  kernel.cache().FlushAllInstant();
  const std::vector<uint8_t> back = dst_fs->ReadFileInstant(dst_ip);
  for (int64_t i = 0; i < kBytes; ++i) {
    ASSERT_EQ(back[static_cast<size_t>(i)], Fill(i)) << "byte " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Watermarks, WatermarkPropertyTest,
                         ::testing::Combine(::testing::Values(1, 3, 6),   // read low
                                            ::testing::Values(1, 5, 10),  // write high
                                            ::testing::Values(1, 5, 8))); // refill batch

// Cancellation: a splice cancelled mid-flight stops issuing reads, drains,
// reports partial progress, and releases every cache buffer.
TEST(SpliceCancelTest, ConvergesAndReleasesBuffers) {
  Simulator sim;
  Kernel kernel(&sim, DecStation5000Costs());
  DiskDriver src_dev(&kernel.cpu(), &sim, Rz56Params());
  DiskDriver dst_dev(&kernel.cpu(), &sim, Rz56Params());
  FileSystem* src_fs = kernel.MountFs(&src_dev, "src");
  FileSystem* dst_fs = kernel.MountFs(&dst_dev, "dst");
  constexpr int64_t kBytes = 200 * kBlockSize;
  Inode* src_ip = src_fs->CreateFileInstant("f", kBytes, Fill);
  Inode* dst_ip = dst_fs->Create("g");

  int64_t moved = -1;
  SpliceDescriptor* d = nullptr;
  kernel.Spawn("driver", [&](Process& p) -> Task<> {
    std::vector<int64_t> smap =
        co_await src_fs->MapRange(p, src_ip, kBytes / kBlockSize, false, false);
    std::vector<int64_t> dmap =
        co_await dst_fs->MapRange(p, dst_ip, kBytes / kBlockSize, true, true);
    auto source = std::make_unique<FileSpliceSource>(&kernel.cache(), src_fs->dev(),
                                                     std::move(smap), kBytes);
    auto sink =
        std::make_unique<FileSpliceSink>(&kernel.cache(), dst_fs->dev(), std::move(dmap));
    d = kernel.splice_engine().Start(
        std::move(source), OneSink(std::move(sink)), SpliceOptions{},
        [&](const SpliceCompletion& c) { moved = c.io_error ? -1 : c.bytes_moved; });
  });
  sim.After(Milliseconds(300), [&] {
    ASSERT_NE(d, nullptr);
    kernel.splice_engine().Cancel(d);
  });
  sim.Run();
  EXPECT_GE(moved, 0);
  EXPECT_LT(moved, kBytes);          // genuinely cancelled mid-flight
  EXPECT_GT(moved, 2 * kBlockSize);  // but after real progress
  EXPECT_EQ(kernel.splice_engine().active(), 0);
  EXPECT_EQ(kernel.cache().PendingWrites(&dst_dev), 0);
  // All cache buffers must be back on the free list (none busy): a fresh
  // full-cache sweep of GetBlk must succeed without sleeping.
  int got = 0;
  kernel.Spawn("sweeper", [&](Process& p) -> Task<> {
    std::vector<Buf*> held;
    for (int i = 0; i < kernel.cache().nbufs(); ++i) {
      held.push_back(co_await kernel.cache().GetBlk(p, &src_dev, 10000 + i));
      ++got;
    }
    for (Buf* b : held) {
      kernel.cache().Brelse(b);
    }
  });
  sim.Run();
  EXPECT_EQ(got, kernel.cache().nbufs());
}

}  // namespace
}  // namespace ikdp
