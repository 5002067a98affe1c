// Tests for the in-kernel pipe: byte-stream semantics, back-pressure, EOF,
// broken-pipe behaviour, and splices into and out of pipe ends
// (sendfile-style patterns).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/dev/ram_disk.h"
#include "src/ipc/pipe.h"
#include "src/os/kernel.h"
#include "src/splice/stream_endpoint.h"

namespace ikdp {
namespace {

uint8_t Fill(int64_t i) { return static_cast<uint8_t>((i * 89 + 5) & 0xff); }

// --- Pipe object semantics (no kernel) ---

TEST(PipeUnitTest, WriteThenReadRoundTrip) {
  Pipe pipe(1024);
  const BufData data = std::make_shared<std::vector<uint8_t>>(std::vector<uint8_t>{'a', 'b', 'c'});
  ASSERT_TRUE(pipe.WriteAsync(data, 3, nullptr));
  std::string got;
  ASSERT_TRUE(pipe.ReadAsync(16, [&](BufData d, int64_t n) {
    got.assign(d->begin(), d->begin() + n);
  }));
  EXPECT_EQ(got, "abc");
  EXPECT_EQ(pipe.Buffered(), 0);
}

TEST(PipeUnitTest, ReadBlocksUntilData) {
  Pipe pipe(1024);
  int64_t got = -1;
  ASSERT_TRUE(pipe.ReadAsync(16, [&](BufData, int64_t n) { got = n; }));
  EXPECT_EQ(got, -1);  // parked
  auto data = MakeBufData();
  pipe.WriteAsync(data, 5, nullptr);
  EXPECT_EQ(got, 5);
}

TEST(PipeUnitTest, WriteRefusedWhenFull) {
  Pipe pipe(10);
  auto data = MakeBufData();
  EXPECT_TRUE(pipe.WriteAsync(data, 6, nullptr));
  EXPECT_FALSE(pipe.WriteAsync(data, 6, nullptr));  // 12 > 10
  EXPECT_EQ(pipe.WriteSpace(), 4);
  EXPECT_EQ(pipe.stats().writes_refused, 1u);
}

TEST(PipeUnitTest, WriteDoneFiresWhenReaderDrains) {
  Pipe pipe(100);
  auto data = MakeBufData();
  bool drained = false;
  ASSERT_TRUE(pipe.WriteAsync(data, 50, [&] { drained = true; }));
  EXPECT_FALSE(drained);
  pipe.ReadAsync(20, [](BufData, int64_t) {});
  EXPECT_FALSE(drained);  // 30 bytes still buffered
  pipe.ReadAsync(40, [](BufData, int64_t) {});
  EXPECT_TRUE(drained);
}

TEST(PipeUnitTest, EofAfterWriteEndCloses) {
  Pipe pipe(100);
  auto data = MakeBufData();
  pipe.WriteAsync(data, 4, nullptr);
  pipe.CloseWriteEnd();
  int64_t first = -1;
  pipe.ReadAsync(16, [&](BufData, int64_t n) { first = n; });
  EXPECT_EQ(first, 4);  // residual bytes still readable
  int64_t second = -1;
  pipe.ReadAsync(16, [&](BufData, int64_t n) { second = n; });
  EXPECT_EQ(second, 0);  // then EOF
}

TEST(PipeUnitTest, CloseWriteEndWakesParkedReaderWithEof) {
  Pipe pipe(100);
  int64_t got = -1;
  pipe.ReadAsync(16, [&](BufData, int64_t n) { got = n; });
  EXPECT_EQ(got, -1);
  pipe.CloseWriteEnd();
  EXPECT_EQ(got, 0);
}

TEST(PipeUnitTest, BrokenPipeRefusesWritesAndReleasesWriters) {
  Pipe pipe(100);
  auto data = MakeBufData();
  bool released = false;
  pipe.WriteAsync(data, 60, [&] { released = true; });
  pipe.CloseReadEnd();
  EXPECT_TRUE(released);  // blocked writer is unstuck (data lost)
  EXPECT_FALSE(pipe.WriteAsync(data, 1, nullptr));
}

// A coalescing splice source asked for the next chunk while the current one
// is still gathering refuses, and keeps the bytes gathered so far.
TEST(PipeUnitTest, CoalescingSourceRefusesSecondReadAndKeepsPartialChunk) {
  Pipe pipe(64);
  DeviceSpliceSource src(&pipe, /*total_bytes=*/-1, /*chunk_bytes=*/8, /*coalesce=*/true);
  const BufData data = std::make_shared<std::vector<uint8_t>>(8, 7);
  std::vector<int64_t> delivered;
  ASSERT_TRUE(pipe.WriteAsync(data, 3, nullptr));
  ASSERT_TRUE(src.StartRead(0, [&](SpliceChunk c) { delivered.push_back(c.nbytes); }));
  EXPECT_TRUE(delivered.empty());  // 3 of 8 bytes gathered
  EXPECT_FALSE(src.StartRead(1, [&](SpliceChunk) { delivered.push_back(-1); }));
  ASSERT_TRUE(pipe.WriteAsync(data, 5, nullptr));
  EXPECT_EQ(delivered, std::vector<int64_t>{8});
}

// --- pipe(2) through the kernel ---

class PipeKernelTest : public ::testing::Test {
 protected:
  PipeKernelTest() : kernel_(&sim_, DecStation5000Costs()), ram_(&kernel_.cpu(), 16 << 20) {
    fs_ = kernel_.MountFs(&ram_, "fs");
  }

  Simulator sim_;
  Kernel kernel_;
  RamDisk ram_;
  FileSystem* fs_;
};

TEST_F(PipeKernelTest, ProducerConsumerByteStream) {
  constexpr int64_t kBytes = 100000;
  int rfd = -1;
  int wfd = -1;
  bool plumbed = false;
  int64_t received = 0;
  bool content_ok = true;

  // One process creates the pipe, then producer and consumer share it (the
  // harness shares the Process-keyed fd table through captured fd ints plus
  // GetFile, standing in for fork-time descriptor inheritance).
  Process* owner = kernel_.Spawn("owner", [&](Process& p) -> Task<> {
    EXPECT_EQ(co_await kernel_.CreatePipe(p, &rfd, &wfd), 0);
    plumbed = true;
    // Producer side, same process: write the stream then close.
    std::vector<uint8_t> chunk(4096);
    int64_t sent = 0;
    while (sent < kBytes) {
      const int64_t n = std::min<int64_t>(4096, kBytes - sent);
      for (int64_t i = 0; i < n; ++i) {
        chunk[static_cast<size_t>(i)] = Fill(sent + i);
      }
      const int64_t put = co_await kernel_.Write(p, wfd, chunk.data(), n);
      EXPECT_EQ(put, n);
      sent += n;
    }
    co_await kernel_.Close(p, wfd);  // EOF for the reader
  });

  kernel_.Spawn("consumer", [&](Process& p) -> Task<> {
    while (!plumbed) {
      co_await kernel_.SleepFor(p, Milliseconds(1));
    }
    std::vector<uint8_t> buf;
    for (;;) {
      // Read through the owner's descriptor object.
      std::shared_ptr<File> f = kernel_.GetFile(*owner, rfd);
      EXPECT_TRUE(f != nullptr);
      if (f == nullptr) {
        break;
      }
      const int64_t n = co_await f->Read(p, 8192, &buf);
      if (n <= 0) {
        break;
      }
      for (int64_t i = 0; i < n && content_ok; ++i) {
        content_ok = buf[static_cast<size_t>(i)] == Fill(received + i);
      }
      received += n;
    }
  });

  sim_.Run();
  ASSERT_EQ(kernel_.cpu().alive(), 0);
  EXPECT_EQ(received, kBytes);
  EXPECT_TRUE(content_ok);
}

TEST_F(PipeKernelTest, FileToPipeSplice) {
  // sendfile pattern: splice a file into the pipe; a reader drains it.
  constexpr int64_t kBytes = 24 * kBlockSize;
  fs_->CreateFileInstant("src", kBytes, Fill);
  int rfd = -1;
  int wfd = -1;
  int64_t moved = -1;
  int64_t received = 0;
  bool content_ok = true;
  bool plumbed = false;

  Process* owner = kernel_.Spawn("splicer", [&](Process& p) -> Task<> {
    co_await kernel_.CreatePipe(p, &rfd, &wfd);
    plumbed = true;
    const int src = co_await kernel_.Open(p, "fs:src", kOpenRead);
    moved = co_await kernel_.Splice(p, src, wfd, kSpliceEof);
    co_await kernel_.Close(p, wfd);
  });

  kernel_.Spawn("drainer", [&](Process& p) -> Task<> {
    while (!plumbed) {
      co_await kernel_.SleepFor(p, Milliseconds(1));
    }
    std::vector<uint8_t> buf;
    for (;;) {
      std::shared_ptr<File> f = kernel_.GetFile(*owner, rfd);
      const int64_t n = co_await f->Read(p, 8192, &buf);
      if (n <= 0) {
        break;
      }
      for (int64_t i = 0; i < n && content_ok; ++i) {
        content_ok = buf[static_cast<size_t>(i)] == Fill(received + i);
      }
      received += n;
    }
  });

  sim_.Run();
  ASSERT_EQ(kernel_.cpu().alive(), 0);
  EXPECT_EQ(moved, kBytes);
  EXPECT_EQ(received, kBytes);
  EXPECT_TRUE(content_ok);
}

TEST_F(PipeKernelTest, PipeToFileSpliceSingleProcess) {
  // Within one process: fill the pipe, close the write end, then splice the
  // residue into a file (bounded by the pipe's EOF).
  constexpr int64_t kBytes = 3 * kBlockSize;  // fits the pipe's 32 KB ring
  int rfd = -1;
  int wfd = -1;
  int64_t moved = -1;
  kernel_.Spawn("p", [&](Process& p) -> Task<> {
    co_await kernel_.CreatePipe(p, &rfd, &wfd);
    std::vector<uint8_t> data(kBytes);
    for (int64_t i = 0; i < kBytes; ++i) {
      data[static_cast<size_t>(i)] = Fill(i);
    }
    co_await kernel_.Write(p, wfd, data);
    co_await kernel_.Close(p, wfd);  // EOF backs the byte bound below
    const int dst = co_await kernel_.Open(p, "fs:out", kOpenWrite | kOpenCreate);
    // Splicing INTO a file needs a byte bound (the destination is premapped);
    // an unbounded pipe->file splice is rejected, which the next test checks.
    moved = co_await kernel_.Splice(p, rfd, dst, kBytes);
  });
  sim_.Run();
  ASSERT_EQ(kernel_.cpu().alive(), 0);
  EXPECT_EQ(moved, kBytes);
  kernel_.cache().FlushAllInstant();
  Inode* ip = fs_->Lookup("out");
  ASSERT_NE(ip, nullptr);
  EXPECT_EQ(ip->size, kBytes);
  const std::vector<uint8_t> back = fs_->ReadFileInstant(ip);
  for (int64_t i = 0; i < kBytes; ++i) {
    ASSERT_EQ(back[static_cast<size_t>(i)], Fill(i)) << i;
  }
}

TEST_F(PipeKernelTest, UnboundedSpliceIntoFileRejected) {
  int rfd = -1;
  int wfd = -1;
  int64_t rval = 0;
  kernel_.Spawn("p", [&](Process& p) -> Task<> {
    co_await kernel_.CreatePipe(p, &rfd, &wfd);
    const int dst = co_await kernel_.Open(p, "fs:out2", kOpenWrite | kOpenCreate);
    rval = co_await kernel_.Splice(p, rfd, dst, kSpliceEof);
  });
  sim_.Run();
  EXPECT_EQ(rval, -1);
}

TEST_F(PipeKernelTest, SpliceRejectsWrongEnds) {
  int rfd = -1;
  int wfd = -1;
  fs_->CreateFileInstant("src", kBlockSize, Fill);
  int64_t from_write_end = 0;
  int64_t into_read_end = 0;
  kernel_.Spawn("p", [&](Process& p) -> Task<> {
    co_await kernel_.CreatePipe(p, &rfd, &wfd);
    const int src = co_await kernel_.Open(p, "fs:src", kOpenRead);
    into_read_end = co_await kernel_.Splice(p, src, rfd, kSpliceEof);
    from_write_end = co_await kernel_.Splice(p, wfd, src, kSpliceEof);
  });
  sim_.Run();
  EXPECT_EQ(into_read_end, -1);
  EXPECT_EQ(from_write_end, -1);
}

}  // namespace
}  // namespace ikdp
