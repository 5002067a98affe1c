// Unit and property tests for the FFS-like filesystem: directory ops, bmap
// (direct / indirect / double-indirect), the read/write data path, fsync,
// allocation contiguity, the splice-flavoured no-zero-fill mapping, and the
// discard of freed blocks on both block devices.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/buf/buffer_cache.h"
#include "src/dev/disk_driver.h"
#include "src/dev/ram_disk.h"
#include "src/fs/filesystem.h"
#include "src/hw/costs.h"
#include "src/hw/disk.h"
#include "src/kern/cpu.h"
#include "src/os/kernel.h"
#include "src/sim/simulator.h"
#include "src/workload/programs.h"

namespace ikdp {
namespace {

uint8_t Fill(int64_t i) { return static_cast<uint8_t>((i * 2654435761u) >> 7 & 0xff); }

class FsTest : public ::testing::Test {
 protected:
  FsTest()
      : cpu_(&sim_, DecStation5000Costs()),
        cache_(&cpu_, 64),
        ram_(&cpu_, 64 << 20),
        fs_(&cpu_, &cache_, &ram_, "ramfs") {}

  void RunProc(std::function<Task<>(Process&)> body) {
    cpu_.Spawn("test", std::move(body));
    sim_.Run();
    ASSERT_EQ(cpu_.alive(), 0) << "process deadlocked";
  }

  Simulator sim_;
  CpuSystem cpu_;
  BufferCache cache_;
  RamDisk ram_;
  FileSystem fs_;
};

TEST_F(FsTest, CreateLookupRemove) {
  Inode* a = fs_.Create("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(fs_.Lookup("a"), a);
  EXPECT_EQ(fs_.Create("a"), nullptr);  // duplicate
  EXPECT_EQ(fs_.Lookup("b"), nullptr);
  EXPECT_TRUE(fs_.Remove("a"));
  EXPECT_FALSE(fs_.Remove("a"));
  EXPECT_EQ(fs_.Lookup("a"), nullptr);
}

TEST_F(FsTest, WriteThenReadSmallFile) {
  RunProc([&](Process& p) -> Task<> {
    Inode* ip = fs_.Create("f");
    std::vector<uint8_t> data(1000);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = Fill(static_cast<int64_t>(i));
    }
    const int64_t wrote = co_await fs_.Write(p, ip, 0, data.data(), 1000);
    EXPECT_EQ(wrote, 1000);
    EXPECT_EQ(ip->size, 1000);
    std::vector<uint8_t> back;
    const int64_t got = co_await fs_.Read(p, ip, 0, 2000, &back);
    EXPECT_EQ(got, 1000);
    EXPECT_EQ(back, data);
  });
}

TEST_F(FsTest, WriteSpansIndirectBlocks) {
  // 20 blocks crosses the 12-direct boundary into the indirect block.
  constexpr int64_t kBytes = 20 * kBlockSize;
  RunProc([&](Process& p) -> Task<> {
    Inode* ip = fs_.Create("big");
    std::vector<uint8_t> data(kBytes);
    for (int64_t i = 0; i < kBytes; ++i) {
      data[static_cast<size_t>(i)] = Fill(i);
    }
    co_await fs_.Write(p, ip, 0, data.data(), kBytes);
    EXPECT_NE(ip->indirect, 0);
    std::vector<uint8_t> back;
    co_await fs_.Read(p, ip, 0, kBytes, &back);
    EXPECT_EQ(back, data);
  });
}

TEST_F(FsTest, BmapDoubleIndirectReach) {
  // Logical block beyond 12 + 2048 needs the double-indirect path.
  const int64_t lbn = kDirectBlocks + kPtrsPerBlock + 5;
  RunProc([&](Process& p) -> Task<> {
    Inode* ip = fs_.Create("huge");
    const int64_t pbn = co_await fs_.Bmap(p, ip, lbn, /*alloc=*/true, /*for_splice=*/true);
    EXPECT_NE(pbn, 0);
    EXPECT_NE(ip->dindirect, 0);
    // Re-mapping without alloc returns the same block.
    const int64_t again = co_await fs_.Bmap(p, ip, lbn, /*alloc=*/false);
    EXPECT_EQ(again, pbn);
  });
}

TEST_F(FsTest, BmapUnmappedReturnsZeroWithoutAlloc) {
  RunProc([&](Process& p) -> Task<> {
    Inode* ip = fs_.Create("sparse");
    EXPECT_EQ(co_await fs_.Bmap(p, ip, 0, false), 0);
    EXPECT_EQ(co_await fs_.Bmap(p, ip, 100, false), 0);
    EXPECT_EQ(co_await fs_.Bmap(p, ip, 5000, false), 0);
  });
}

TEST_F(FsTest, SequentialAllocationIsContiguous) {
  RunProc([&](Process& p) -> Task<> {
    Inode* ip = fs_.Create("seq");
    std::vector<int64_t> map =
        co_await fs_.MapRange(p, ip, 32, /*alloc=*/true, /*for_splice=*/true);
    int contiguous = 0;
    for (size_t i = 1; i < map.size(); ++i) {
      if (map[i] == map[i - 1] + 1) {
        ++contiguous;
      }
    }
    // Data blocks are contiguous except where indirect blocks interleave.
    EXPECT_GE(contiguous, 29);
  });
}

TEST_F(FsTest, StockBmapZeroFillsFreshBlocks) {
  RunProc([&](Process& p) -> Task<> {
    Inode* ip = fs_.Create("zf");
    co_await fs_.MapRange(p, ip, 8, /*alloc=*/true, /*for_splice=*/false);
  });
  EXPECT_EQ(fs_.stats().zero_fill_writes, 8u);
}

TEST_F(FsTest, SpliceBmapSkipsZeroFill) {
  RunProc([&](Process& p) -> Task<> {
    Inode* ip = fs_.Create("nzf");
    co_await fs_.MapRange(p, ip, 8, /*alloc=*/true, /*for_splice=*/true);
  });
  EXPECT_EQ(fs_.stats().zero_fill_writes, 0u);
}

TEST_F(FsTest, InstantFileRoundTrip) {
  constexpr int64_t kBytes = 3 * kBlockSize + 777;
  Inode* ip = fs_.CreateFileInstant("inst", kBytes, Fill);
  ASSERT_NE(ip, nullptr);
  EXPECT_EQ(ip->size, kBytes);
  const std::vector<uint8_t> back = fs_.ReadFileInstant(ip);
  ASSERT_EQ(static_cast<int64_t>(back.size()), kBytes);
  for (int64_t i = 0; i < kBytes; ++i) {
    ASSERT_EQ(back[static_cast<size_t>(i)], Fill(i)) << "byte " << i;
  }
}

TEST_F(FsTest, InstantFileReadableThroughTimedPath) {
  constexpr int64_t kBytes = 16 * kBlockSize;  // crosses into indirect
  Inode* ip = fs_.CreateFileInstant("inst2", kBytes, Fill);
  ASSERT_NE(ip, nullptr);
  RunProc([&](Process& p) -> Task<> {
    std::vector<uint8_t> back;
    const int64_t got = co_await fs_.Read(p, ip, 0, kBytes, &back);
    EXPECT_EQ(got, kBytes);
    for (int64_t i = 0; i < kBytes; ++i) {
      EXPECT_EQ(back[static_cast<size_t>(i)], Fill(i)) << "byte " << i;
    }
  });
}

TEST_F(FsTest, TimedWriteVisibleInstantlyAfterFsync) {
  constexpr int64_t kBytes = 5 * kBlockSize;
  RunProc([&](Process& p) -> Task<> {
    Inode* ip = fs_.Create("sync");
    std::vector<uint8_t> data(kBytes);
    for (int64_t i = 0; i < kBytes; ++i) {
      data[static_cast<size_t>(i)] = Fill(i);
    }
    co_await fs_.Write(p, ip, 0, data.data(), kBytes);
    co_await fs_.Fsync(p, ip);
  });
  Inode* ip = fs_.Lookup("sync");
  ASSERT_NE(ip, nullptr);
  const std::vector<uint8_t> back = fs_.ReadFileInstant(ip);
  for (int64_t i = 0; i < kBytes; ++i) {
    ASSERT_EQ(back[static_cast<size_t>(i)], Fill(i)) << "byte " << i;
  }
}

TEST_F(FsTest, RemoveFreesAllBlocks) {
  const int64_t before = fs_.FreeBlocks();
  Inode* ip = fs_.CreateFileInstant("tmp", 40 * kBlockSize, Fill);
  ASSERT_NE(ip, nullptr);
  EXPECT_LT(fs_.FreeBlocks(), before);
  fs_.Remove("tmp");
  EXPECT_EQ(fs_.FreeBlocks(), before);
}

TEST_F(FsTest, PartialOverwritePreservesNeighbours) {
  Inode* ip = fs_.CreateFileInstant("ow", 2 * kBlockSize, Fill);
  RunProc([&](Process& p) -> Task<> {
    const std::vector<uint8_t> patch(100, 0xEE);
    co_await fs_.Write(p, ip, kBlockSize - 50, patch.data(), 100);
    std::vector<uint8_t> back;
    co_await fs_.Read(p, ip, 0, 2 * kBlockSize, &back);
    EXPECT_EQ(back[static_cast<size_t>(kBlockSize - 51)], Fill(kBlockSize - 51));
    for (int64_t i = kBlockSize - 50; i < kBlockSize + 50; ++i) {
      EXPECT_EQ(back[static_cast<size_t>(i)], 0xEE) << i;
    }
    EXPECT_EQ(back[static_cast<size_t>(kBlockSize + 50)], Fill(kBlockSize + 50));
  });
}

TEST_F(FsTest, ReadAtEofReturnsZero) {
  Inode* ip = fs_.CreateFileInstant("eof", 100, Fill);
  RunProc([&](Process& p) -> Task<> {
    std::vector<uint8_t> back;
    EXPECT_EQ(co_await fs_.Read(p, ip, 100, 10, &back), 0);
    EXPECT_EQ(co_await fs_.Read(p, ip, 1000, 10, &back), 0);
    // Short read at the tail.
    EXPECT_EQ(co_await fs_.Read(p, ip, 90, 100, &back), 10);
  });
}

TEST_F(FsTest, SparseFileReadsZeros) {
  RunProc([&](Process& p) -> Task<> {
    Inode* ip = fs_.Create("holes");
    const std::vector<uint8_t> tail(10, 0x77);
    // Write only at offset 3 blocks; blocks 0-2 stay holes.
    co_await fs_.Write(p, ip, 3 * kBlockSize, tail.data(), 10);
    std::vector<uint8_t> back;
    co_await fs_.Read(p, ip, 0, kBlockSize, &back);
    for (uint8_t b : back) {
      EXPECT_EQ(b, 0);
    }
    co_await fs_.Read(p, ip, 3 * kBlockSize, 10, &back);
    EXPECT_EQ(back, tail);
  });
}

TEST_F(FsTest, WriteChargesCopyinToProcess) {
  Process* proc = nullptr;
  cpu_.Spawn("writer", [&](Process& p) -> Task<> {
    proc = &p;
    Inode* ip = fs_.Create("w");
    std::vector<uint8_t> data(8 * kBlockSize, 1);
    co_await fs_.Write(p, ip, 0, data.data(), static_cast<int64_t>(data.size()));
  });
  sim_.Run();
  // copyin of 64 KB at ~10 MB/s is ~6.4 ms, plus RAM-disk-free (delayed
  // writes, no flush) bookkeeping.
  EXPECT_GT(proc->stats().cpu_time, Milliseconds(6));
}

// The physical blocks behind `ip`: direct, single-indirect and the blocks the
// single-indirect block points to, read straight off the device.
std::vector<int64_t> FileBlocks(BlockDevice* dev, const Inode& ip) {
  std::vector<int64_t> blocks;
  for (int64_t pbn : ip.direct) {
    if (pbn != 0) {
      blocks.push_back(pbn);
    }
  }
  if (ip.indirect != 0) {
    blocks.push_back(ip.indirect);
    const std::span<const uint8_t> ind = dev->PeekBlock(ip.indirect);
    for (int64_t i = 0; i < kPtrsPerBlock; ++i) {
      uint32_t pbn = 0;
      std::memcpy(&pbn, ind.data() + i * 4, 4);
      if (pbn != 0) {
        blocks.push_back(pbn);
      }
    }
  }
  return blocks;
}

// Removes a 20-block file (direct plus single-indirect) and checks that
// every block it held now reads back as zeros.
void ExpectRemovedBlocksReadZero(FileSystem* fs) {
  Inode* ip = fs->CreateFileInstant("gone", 20 * kBlockSize, Fill);
  ASSERT_NE(ip, nullptr);
  const std::vector<int64_t> blocks = FileBlocks(fs->dev(), *ip);
  ASSERT_EQ(blocks.size(), 21u);
  auto is_zero = [fs](int64_t pbn) {
    return std::ranges::equal(fs->dev()->PeekBlock(pbn), kZeroBlock);
  };
  for (int64_t pbn : blocks) {
    ASSERT_FALSE(is_zero(pbn)) << "block " << pbn;
  }
  ASSERT_TRUE(fs->Remove("gone"));
  for (int64_t pbn : blocks) {
    EXPECT_TRUE(is_zero(pbn)) << "block " << pbn;
  }
}

TEST_F(FsTest, RemovedBlocksReadZeroOnRamDisk) { ExpectRemovedBlocksReadZero(&fs_); }

TEST_F(FsTest, RemovedBlocksReadZeroOnDiskDriver) {
  DiskDriver disk(&cpu_, &sim_, Rz58Params());
  FileSystem fs(&cpu_, &cache_, &disk, "rz58");
  ExpectRemovedBlocksReadZero(&fs);
  EXPECT_EQ(disk.StoredBlocks(), 0u);
}

// 200 timed O_TRUNC rewrites of one file, alternating cp and scp, on each
// block device.  Each rewrite frees the previous copy's blocks; the device's
// block store must track the live blocks instead of every block ever written.
class FsDiscardTest : public ::testing::TestWithParam<bool> {};  // true: RamDisk

TEST_P(FsDiscardTest, TruncRewritesKeepDiskStoreBounded) {
  constexpr int64_t kBytes = 16 * kBlockSize;  // into the single-indirect block
  constexpr int kRewrites = 200;
  Simulator sim;
  Kernel kernel(&sim, DecStation5000Costs());
  std::unique_ptr<BlockDevice> disk;
  if (GetParam()) {
    disk = std::make_unique<RamDisk>(&kernel.cpu(), 16 << 20);
  } else {
    disk = std::make_unique<DiskDriver>(&kernel.cpu(), &sim, Rz58Params());
  }
  FileSystem* fs = kernel.MountFs(disk.get(), "fs");
  ASSERT_NE(fs->CreateFileInstant("src", kBytes, Fill), nullptr);
  std::vector<uint8_t> expect(kBytes);
  for (int64_t i = 0; i < kBytes; ++i) {
    expect[static_cast<size_t>(i)] = Fill(i);
  }
  int verified = 0;
  size_t max_stored = 0;
  kernel.Spawn("rewriter", [&](Process& p) -> Task<> {
    for (int i = 0; i < kRewrites; ++i) {
      CopyResult r;
      if (i % 2 == 0) {
        co_await CpProgram(kernel, p, "fs:src", "fs:dst", kBlockSize, &r);
      } else {
        co_await ScpProgram(kernel, p, "fs:src", "fs:dst", &r);
      }
      // scp leaves the indirect block's pointer updates as delayed writes;
      // ReadFileInstant reads the device, so land them first.
      kernel.cache().FlushAllInstant();
      if (!r.ok || r.bytes != kBytes || fs->ReadFileInstant(fs->Lookup("dst")) != expect) {
        break;
      }
      ++verified;
      const int64_t live = fs->TotalDataBlocks() - fs->FreeBlocks();
      EXPECT_LE(static_cast<int64_t>(disk->StoredBlocks()), live) << "rewrite " << i;
      max_stored = std::max(max_stored, disk->StoredBlocks());
    }
  });
  sim.Run();
  ASSERT_EQ(kernel.cpu().alive(), 0) << "process deadlocked";
  EXPECT_EQ(verified, kRewrites);
  // Source and destination: 16 data blocks and one indirect block each.
  EXPECT_EQ(max_stored, 34u);
}

INSTANTIATE_TEST_SUITE_P(BothDevices, FsDiscardTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "RamDisk" : "DiskDriver";
                         });

// Parameterized sweep: write files of many sizes and verify contents through
// the timed path (covers direct, indirect and double-indirect shapes).
class FsSizeSweep : public FsTest, public ::testing::WithParamInterface<int64_t> {};

TEST_P(FsSizeSweep, RoundTrip) {
  const int64_t nbytes = GetParam();
  Inode* ip = fs_.CreateFileInstant("sweep", nbytes, Fill);
  ASSERT_NE(ip, nullptr);
  RunProc([&](Process& p) -> Task<> {
    std::vector<uint8_t> back;
    int64_t off = 0;
    bool ok = true;
    while (off < nbytes) {
      const int64_t got = co_await fs_.Read(p, ip, off, 64 * 1024, &back);
      if (got <= 0) {
        break;
      }
      for (int64_t i = 0; i < got && ok; ++i) {
        ok = back[static_cast<size_t>(i)] == Fill(off + i);
      }
      off += got;
    }
    EXPECT_TRUE(ok);
    EXPECT_EQ(off, nbytes);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, FsSizeSweep,
                         ::testing::Values(1, 512, kBlockSize - 1, kBlockSize, kBlockSize + 1,
                                           12 * kBlockSize,               // all direct
                                           13 * kBlockSize,               // first indirect
                                           (12 + 2048) * kBlockSize,      // full single indirect
                                           (12 + 2048 + 3) * kBlockSize,  // into double indirect
                                           1000000));

}  // namespace
}  // namespace ikdp
