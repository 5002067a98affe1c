// Unit tests for the device layer: DiskDriver (disksort, interrupts),
// RamDisk, the block store both share, PacedSink, FrameSource, NullDevice.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "src/buf/buffer_cache.h"
#include "src/dev/disk_driver.h"
#include "src/dev/frame_source.h"
#include "src/dev/null_device.h"
#include "src/dev/paced_sink.h"
#include "src/dev/ram_disk.h"
#include "src/hw/costs.h"
#include "src/hw/disk.h"
#include "src/kern/cpu.h"
#include "src/sim/simulator.h"

namespace ikdp {
namespace {

class DevTest : public ::testing::Test {
 protected:
  DevTest() : cpu_(&sim_, DecStation5000Costs()) {}

  Simulator sim_;
  CpuSystem cpu_;
};

Buf MakeIoBuf(BlockDevice* dev, int64_t blkno, bool read, BufferCache* cache = nullptr) {
  Buf b;
  b.cache = cache;
  b.dev = dev;
  b.blkno = blkno;
  b.data = MakeBufData();
  // In-flight I/O must be on an owned buffer: BufStateChecker aborts a
  // Strategy/Biodone on a non-busy header.
  b.Set(kBufBusy);
  if (read) {
    b.Set(kBufRead);
  }
  return b;
}

TEST_F(DevTest, DiskDriverCompletesViaInterruptAndCallback) {
  DiskDriver drv(&cpu_, &sim_, Rz56Params());
  std::vector<uint8_t> pat(kBlockSize, 0xAB);
  drv.PokeBlock(5, pat);

  Buf b;
  b.dev = &drv;
  b.blkno = 5;
  b.data = MakeBufData();
  b.Set(kBufBusy);
  b.Set(kBufRead);
  b.Set(kBufCall);
  bool done = false;
  b.iodone = [&](Buf& self) {
    done = true;
    EXPECT_EQ((*self.data)[0], 0xAB);
  };
  // Route Biodone through the kBufCall hook without a cache: emulate by
  // calling the strategy and letting the driver call Biodone -> needs cache.
  // Instead, attach a minimal cache-free completion by using the iodone
  // directly: the driver requires a cache pointer, so create one.
  BufferCache cache(&cpu_, 4);
  b.cache = &cache;
  drv.Strategy(b);
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(drv.stats().interrupts, 1u);
  EXPECT_GT(cpu_.stats().interrupt_work, 0);
}

TEST_F(DevTest, DisksortOrdersElevatorSweep) {
  DiskDriver drv(&cpu_, &sim_, Rz56Params());
  BufferCache cache(&cpu_, 4);
  std::vector<int64_t> completion_order;
  std::vector<Buf> bufs;
  bufs.reserve(4);
  const int64_t blknos[] = {100, 50, 150, 75};
  for (int64_t blk : blknos) {
    bufs.push_back(MakeIoBuf(&drv, blk, /*read=*/true, &cache));
  }
  for (auto& b : bufs) {
    b.Set(kBufCall);
    b.iodone = [&](Buf& self) { completion_order.push_back(self.blkno); };
    drv.Strategy(b);
  }
  sim_.Run();
  // First issued request (100) goes straight to hardware; the rest sort into
  // an ascending sweep from 100: 150 first run, then 50, 75 next sweep.
  EXPECT_EQ(completion_order, (std::vector<int64_t>{100, 150, 50, 75}));
}

TEST_F(DevTest, RamDiskSynchronousCompletion) {
  RamDisk ram(&cpu_, 1 << 20);
  BufferCache cache(&cpu_, 4);
  Buf b = MakeIoBuf(&ram, 3, /*read=*/false, &cache);
  MakeWritable(b.data)[0] = 0x5A;
  b.Set(kBufCall);
  bool done = false;
  b.iodone = [&](Buf&) { done = true; };
  const SimDuration charge = ram.Strategy(b);
  EXPECT_TRUE(done);  // completed before Strategy returned
  EXPECT_EQ(charge, cpu_.costs().BcopyTime(kBlockSize));
  EXPECT_EQ(ram.PeekBlock(3)[0], 0x5A);
}

TEST_F(DevTest, PacedSinkDrainsAtConfiguredRate) {
  PacedSink dac(&sim_, "speaker", /*rate_bps=*/8000.0, /*fifo_bytes=*/16000);
  BufData chunk = MakeBufData();
  SimTime done_at = -1;
  ASSERT_TRUE(dac.WriteAsync(chunk, 8000, [&] { done_at = sim_.Now(); }));
  sim_.Run();
  EXPECT_EQ(done_at, Seconds(1));  // 8000 bytes at 8 KB/s
}

TEST_F(DevTest, PacedSinkRejectsWhenFifoFull) {
  PacedSink dac(&sim_, "speaker", 8000.0, 10000);
  BufData chunk = MakeBufData();
  EXPECT_TRUE(dac.WriteAsync(chunk, 8000, nullptr));
  EXPECT_FALSE(dac.WriteAsync(chunk, 8000, nullptr));  // 16000 > 10000
  EXPECT_LE(dac.WriteSpace(), 2000);
  // After a second of draining there is room again.
  sim_.RunUntil(Seconds(1));
  EXPECT_TRUE(dac.WriteAsync(chunk, 8000, nullptr));
}

TEST_F(DevTest, PacedSinkBackToBackChunksQueue) {
  PacedSink dac(&sim_, "dac", 1000.0, 1 << 20);
  BufData chunk = MakeBufData();
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(dac.WriteAsync(chunk, 1000, [&] { done.push_back(sim_.Now()); }));
  }
  sim_.Run();
  EXPECT_EQ(done, (std::vector<SimTime>{Seconds(1), Seconds(2), Seconds(3)}));
  EXPECT_EQ(dac.bytes_accepted(), 3000);
}

TEST_F(DevTest, FrameSourceDeliversFramesOnSchedule) {
  FrameSource fb(&sim_, "fb0", /*frame_bytes=*/1024, /*frame_interval=*/Milliseconds(100));
  std::vector<SimTime> arrivals;
  std::vector<int64_t> sizes;
  std::function<void()> pump = [&] {
    fb.ReadAsync(2048, [&](BufData data, int64_t n) {
      arrivals.push_back(sim_.Now());
      sizes.push_back(n);
      (void)data;
      if (arrivals.size() < 3) {
        pump();
      }
    });
  };
  pump();
  sim_.Run();
  EXPECT_EQ(arrivals, (std::vector<SimTime>{Milliseconds(100), Milliseconds(200),
                                            Milliseconds(300)}));
  EXPECT_EQ(sizes, (std::vector<int64_t>{1024, 1024, 1024}));
}

TEST_F(DevTest, FrameSourceContentIsVerifiable) {
  FrameSource fb(&sim_, "fb0", 512, Milliseconds(10));
  BufData got;
  int64_t got_n = 0;
  fb.ReadAsync(512, [&](BufData d, int64_t n) {
    got = std::move(d);
    got_n = n;
  });
  sim_.Run();
  ASSERT_EQ(got_n, 512);
  std::vector<uint8_t> expect;
  FrameSource::FillFrame(0, 512, &expect);
  EXPECT_TRUE(std::equal(expect.begin(), expect.end(), got->begin()));
}

TEST_F(DevTest, FrameSourcePartialReadsWalkTheFrame) {
  FrameSource fb(&sim_, "fb0", 1024, Milliseconds(10));
  std::vector<int64_t> sizes;
  std::function<void()> pump = [&] {
    fb.ReadAsync(400, [&](BufData, int64_t n) {
      sizes.push_back(n);
      if (sizes.size() < 3) {
        pump();
      }
    });
  };
  pump();
  sim_.Run();
  // 400 + 400 + 224 covers one 1024-byte frame.
  EXPECT_EQ(sizes, (std::vector<int64_t>{400, 400, 224}));
}

TEST_F(DevTest, FrameSourceRejectsConcurrentRequests) {
  FrameSource fb(&sim_, "fb0", 512, Milliseconds(10));
  EXPECT_TRUE(fb.ReadAsync(512, [](BufData, int64_t) {}));
  EXPECT_FALSE(fb.ReadAsync(512, [](BufData, int64_t) {}));
  sim_.Run();
}

TEST_F(DevTest, NullDeviceAcceptsEverything) {
  NullDevice null(&sim_);
  BufData chunk = MakeBufData();
  int done = 0;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(null.WriteAsync(chunk, kBlockSize, [&] { ++done; }));
  }
  sim_.Run();
  EXPECT_EQ(done, 100);
  EXPECT_EQ(null.bytes_sunk(), 100 * kBlockSize);
  EXPECT_EQ(sim_.Now(), 0);
}

TEST_F(DevTest, DiskDriverPipelinesQueuedRequests) {
  DiskDriver drv(&cpu_, &sim_, Rz58Params());
  BufferCache cache(&cpu_, 32);
  int done = 0;
  std::vector<Buf> bufs;
  bufs.reserve(16);
  for (int64_t i = 0; i < 16; ++i) {
    bufs.push_back(MakeIoBuf(&drv, i, /*read=*/true, &cache));
  }
  const SimTime t0 = sim_.Now();
  for (auto& b : bufs) {
    b.Set(kBufCall);
    b.iodone = [&](Buf&) { ++done; };
    drv.Strategy(b);
  }
  sim_.Run();
  EXPECT_EQ(done, 16);
  // Sequential stream of 16 blocks: after the first seek+rotation the rest
  // ride the media/cache, so well under 16 * (seek + rotation).
  EXPECT_LT(sim_.Now() - t0, Milliseconds(120));
  // Every request queued in the driver's disksort; the drive itself saw at
  // most the one in service plus the next, submitted from its completion.
  // A driver that queued deeper into the hardware would need a drive-side
  // scheduler, which DiskModel does not have.
  EXPECT_EQ(drv.stats().max_queue_depth, 16u);
  EXPECT_LE(drv.disk().stats().max_queue_depth, 2u);
}

// The block-store contract, which both devices share (src/buf/buf.h).
class DevStoreTest : public DevTest, public ::testing::WithParamInterface<bool> {
 protected:
  DevStoreTest() : cache_(&cpu_, 4) {
    if (GetParam()) {
      dev_ = std::make_unique<RamDisk>(&cpu_, 16 << 20);
    } else {
      dev_ = std::make_unique<DiskDriver>(&cpu_, &sim_, Rz56Params());
    }
  }

  // Runs one transfer of `b` through the device's strategy routine.
  void Transfer(Buf& b) {
    bool done = false;
    b.Set(kBufCall);
    b.iodone = [&done](Buf&) { done = true; };
    dev_->Strategy(b);
    sim_.Run();
    ASSERT_TRUE(done);
  }

  static bool IsZero(std::span<const uint8_t> bytes) {
    return std::ranges::all_of(bytes, [](uint8_t v) { return v == 0; });
  }

  BufferCache cache_;
  std::unique_ptr<BlockDevice> dev_;
};

TEST_P(DevStoreTest, NeverWrittenBlockReadsZeros) {
  EXPECT_TRUE(IsZero(dev_->PeekBlock(9)));
  Buf b = MakeIoBuf(dev_.get(), 9, /*read=*/true, &cache_);
  std::ranges::fill(MakeWritable(b.data), 0xEE);
  Transfer(b);
  EXPECT_TRUE(IsZero(*b.data));
  EXPECT_EQ(dev_->StoredBlocks(), 0u);
}

TEST_P(DevStoreTest, ShortPokeIsZeroPadded) {
  dev_->PokeBlock(4, std::vector<uint8_t>(kBlockSize, 0xAB));
  dev_->PokeBlock(4, std::vector<uint8_t>(100, 0xCD));
  const std::span<const uint8_t> blk = dev_->PeekBlock(4);
  ASSERT_EQ(blk.size(), static_cast<size_t>(kBlockSize));
  EXPECT_TRUE(std::ranges::all_of(blk.first(100), [](uint8_t v) { return v == 0xCD; }));
  EXPECT_TRUE(IsZero(blk.subspan(100)));
}

TEST_P(DevStoreTest, DiscardedBlockReadsZeros) {
  Buf w = MakeIoBuf(dev_.get(), 6, /*read=*/false, &cache_);
  std::ranges::fill(MakeWritable(w.data), 0x77);
  Transfer(w);
  ASSERT_EQ(dev_->PeekBlock(6)[0], 0x77);
  dev_->Discard(6);
  EXPECT_TRUE(IsZero(dev_->PeekBlock(6)));
  Buf r = MakeIoBuf(dev_.get(), 6, /*read=*/true, &cache_);
  Transfer(r);
  EXPECT_TRUE(IsZero(*r.data));
  EXPECT_EQ(dev_->StoredBlocks(), 0u);
}

TEST_P(DevStoreTest, StoresOnlyWrittenBlocks) {
  EXPECT_EQ(dev_->StoredBlocks(), 0u);
  constexpr int kWrites = 5;
  for (int i = 0; i < kWrites; ++i) {
    Buf w = MakeIoBuf(dev_.get(), 100 + 7 * i, /*read=*/false, &cache_);
    MakeWritable(w.data)[0] = static_cast<uint8_t>(i + 1);
    Transfer(w);
    EXPECT_EQ(dev_->StoredBlocks(), static_cast<size_t>(i + 1));
  }
  EXPECT_EQ(dev_->PeekBlock(100 + 7 * 3)[0], 4);
}

INSTANTIATE_TEST_SUITE_P(BothDevices, DevStoreTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "RamDisk" : "DiskDriver";
                         });

}  // namespace
}  // namespace ikdp
