// Tests for the Kernel syscall layer: open/close/read/write/lseek/fcntl/
// fsync semantics and error paths, pause/itimer/SIGIO, socket descriptors,
// and multi-process behaviour.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "src/dev/frame_source.h"
#include "src/dev/null_device.h"
#include "src/dev/paced_sink.h"
#include "src/dev/ram_disk.h"
#include "src/os/kernel.h"

namespace ikdp {
namespace {

uint8_t Fill(int64_t i) { return static_cast<uint8_t>((i * 11 + 3) & 0xff); }

class OsTest : public ::testing::Test {
 protected:
  OsTest() : kernel_(&sim_, DecStation5000Costs()), ram_(&kernel_.cpu(), 16 << 20) {
    fs_ = kernel_.MountFs(&ram_, "fs");
  }

  void Run(std::function<Task<>(Process&)> body) {
    kernel_.Spawn("test", std::move(body));
    sim_.Run();
    ASSERT_EQ(kernel_.cpu().alive(), 0) << "process deadlocked";
  }

  Simulator sim_;
  Kernel kernel_;
  RamDisk ram_;
  FileSystem* fs_;
};

TEST_F(OsTest, OpenMissingFileFails) {
  Run([&](Process& p) -> Task<> {
    EXPECT_EQ(co_await kernel_.Open(p, "fs:nope", kOpenRead), -1);
    EXPECT_EQ(co_await kernel_.Open(p, "nofs:x", kOpenRead), -1);
    EXPECT_EQ(co_await kernel_.Open(p, "/dev/nodev", kOpenRead), -1);
    EXPECT_EQ(co_await kernel_.Open(p, "garbage", kOpenRead), -1);
  });
}

TEST_F(OsTest, OpenCreateMakesFile) {
  Run([&](Process& p) -> Task<> {
    const int fd = co_await kernel_.Open(p, "fs:new", kOpenWrite | kOpenCreate);
    EXPECT_GE(fd, 3);
    EXPECT_NE(fs_->Lookup("new"), nullptr);
    EXPECT_EQ(co_await kernel_.Close(p, fd), 0);
  });
}

TEST_F(OsTest, OpenTruncEmptiesFile) {
  fs_->CreateFileInstant("t", 3 * kBlockSize, Fill);
  Run([&](Process& p) -> Task<> {
    const int fd = co_await kernel_.Open(p, "fs:t", kOpenWrite | kOpenTrunc);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(fs_->Lookup("t")->size, 0);
  });
}

TEST_F(OsTest, ReadWriteRoundTripThroughFds) {
  Run([&](Process& p) -> Task<> {
    const int w = co_await kernel_.Open(p, "fs:f", kOpenWrite | kOpenCreate);
    std::vector<uint8_t> data(5000);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = Fill(static_cast<int64_t>(i));
    }
    EXPECT_EQ(co_await kernel_.Write(p, w, data), 5000);
    co_await kernel_.Close(p, w);
    const int r = co_await kernel_.Open(p, "fs:f", kOpenRead);
    std::vector<uint8_t> back;
    EXPECT_EQ(co_await kernel_.Read(p, r, 10000, &back), 5000);
    EXPECT_EQ(back, data);
    // Sequential reads advance the offset; at EOF read returns 0.
    EXPECT_EQ(co_await kernel_.Read(p, r, 10, &back), 0);
  });
}

TEST_F(OsTest, LseekRepositions) {
  fs_->CreateFileInstant("s", 2 * kBlockSize, Fill);
  Run([&](Process& p) -> Task<> {
    const int fd = co_await kernel_.Open(p, "fs:s", kOpenRead);
    EXPECT_EQ(co_await kernel_.Lseek(p, fd, kBlockSize), kBlockSize);
    std::vector<uint8_t> back;
    co_await kernel_.Read(p, fd, 4, &back);
    EXPECT_EQ(back[0], Fill(kBlockSize));
    // Negative offsets and bad fds fail.
    EXPECT_EQ(co_await kernel_.Lseek(p, fd, -5), -1);
    EXPECT_EQ(co_await kernel_.Lseek(p, 99, 0), -1);
  });
}

TEST_F(OsTest, BadFdOperationsFail) {
  Run([&](Process& p) -> Task<> {
    std::vector<uint8_t> buf;
    EXPECT_EQ(co_await kernel_.Read(p, 42, 10, &buf), -1);
    EXPECT_EQ(co_await kernel_.Write(p, 42, nullptr, 0), -1);
    EXPECT_EQ(co_await kernel_.Close(p, 42), -1);
    EXPECT_EQ(co_await kernel_.Fcntl(p, 42, true), -1);
    EXPECT_EQ(co_await kernel_.FsyncFd(p, 42), -1);
  });
}

TEST_F(OsTest, CloseInvalidatesFd) {
  Run([&](Process& p) -> Task<> {
    const int fd = co_await kernel_.Open(p, "fs:c", kOpenWrite | kOpenCreate);
    EXPECT_EQ(co_await kernel_.Close(p, fd), 0);
    std::vector<uint8_t> buf;
    EXPECT_EQ(co_await kernel_.Read(p, fd, 10, &buf), -1);
    EXPECT_EQ(co_await kernel_.Close(p, fd), -1);  // double close
  });
}

TEST_F(OsTest, FsyncPushesDelayedWrites) {
  Run([&](Process& p) -> Task<> {
    const int fd = co_await kernel_.Open(p, "fs:d", kOpenWrite | kOpenCreate);
    std::vector<uint8_t> data(kBlockSize, 0x3C);
    co_await kernel_.Write(p, fd, data);
    EXPECT_EQ(ram_.stats().writes, 0u);  // delayed
    EXPECT_EQ(co_await kernel_.FsyncFd(p, fd), 0);
    EXPECT_GT(ram_.stats().writes, 0u);
  });
}

TEST_F(OsTest, FcntlSetsAndClearsFasync) {
  Run([&](Process& p) -> Task<> {
    const int fd = co_await kernel_.Open(p, "fs:a", kOpenWrite | kOpenCreate);
    EXPECT_EQ(co_await kernel_.Fcntl(p, fd, true), 0);
    EXPECT_TRUE(kernel_.GetFile(p, fd)->fasync);
    EXPECT_EQ(co_await kernel_.Fcntl(p, fd, false), 0);
    EXPECT_FALSE(kernel_.GetFile(p, fd)->fasync);
  });
}

TEST_F(OsTest, SpliceStatusTracksAsyncSpliceInFlight) {
  // splice_status is the FASYNC completion probe for offset-less endpoints:
  // 1 while an async splice involving the fd is in flight, 0 once it
  // finished (cleared before SIGIO posts, so a handler can trust a 0), -1
  // on a bad fd.
  fs_->CreateFileInstant("src", 8 * kBlockSize, Fill);
  int sigio = 0;
  Run([&](Process& p) -> Task<> {
    kernel_.Sigaction(p, kSigIo, [&] { ++sigio; });
    const int src = co_await kernel_.Open(p, "fs:src", kOpenRead);
    const int dst = co_await kernel_.Open(p, "fs:dst", kOpenWrite | kOpenCreate);
    EXPECT_EQ(co_await kernel_.SpliceStatus(p, 99), -1);
    EXPECT_EQ(co_await kernel_.SpliceStatus(p, src), 0);

    EXPECT_EQ(co_await kernel_.Fcntl(p, dst, true), 0);  // FASYNC -> async splice
    EXPECT_EQ(co_await kernel_.Splice(p, src, dst, 8 * kBlockSize), 0);
    // Both endpoints report in-flight while the stream moves.
    EXPECT_EQ(co_await kernel_.SpliceStatus(p, src), 1);
    EXPECT_EQ(co_await kernel_.SpliceStatus(p, dst), 1);

    co_await kernel_.Pause(p);  // SIGIO announces completion
    EXPECT_EQ(sigio, 1);
    EXPECT_EQ(co_await kernel_.SpliceStatus(p, src), 0);
    EXPECT_EQ(co_await kernel_.SpliceStatus(p, dst), 0);
    EXPECT_EQ(co_await kernel_.SpliceError(p, dst), 0);
    EXPECT_EQ(co_await kernel_.Tell(p, dst), 8 * kBlockSize);
  });
}

TEST_F(OsTest, PauseWaitsForSignalAndRunsHandler) {
  Process* proc = nullptr;
  SimTime woke = -1;
  int handled = 0;
  kernel_.Spawn("waiter", [&](Process& p) -> Task<> {
    proc = &p;
    kernel_.Sigaction(p, kSigAlrm, [&] { ++handled; });
    co_await kernel_.Pause(p);
    woke = sim_.Now();
  });
  sim_.After(Milliseconds(25), [&] { kernel_.cpu().Post(*proc, kSigAlrm); });
  sim_.Run();
  EXPECT_GE(woke, Milliseconds(25));
  EXPECT_EQ(handled, 1);
}

TEST_F(OsTest, ItimerFiresPeriodically) {
  std::vector<SimTime> fires;
  Run([&](Process& p) -> Task<> {
    kernel_.Sigaction(p, kSigAlrm, [&] { fires.push_back(sim_.Now()); });
    kernel_.Setitimer(p, Milliseconds(100));
    for (int i = 0; i < 5; ++i) {
      co_await kernel_.Pause(p);
    }
    kernel_.StopItimer(p);
  });
  ASSERT_EQ(fires.size(), 5u);
  for (size_t i = 1; i < fires.size(); ++i) {
    const SimDuration gap = fires[i] - fires[i - 1];
    // Callout-tick quantized ~100 ms intervals.
    EXPECT_GE(gap, Milliseconds(90));
    EXPECT_LE(gap, Milliseconds(110));
  }
}

TEST_F(OsTest, StopItimerHaltsSignals) {
  int fires = 0;
  Run([&](Process& p) -> Task<> {
    kernel_.Sigaction(p, kSigAlrm, [&] { ++fires; });
    kernel_.Setitimer(p, Milliseconds(50));
    co_await kernel_.Pause(p);
    kernel_.StopItimer(p);
    co_await kernel_.SleepFor(p, Milliseconds(500));
  });
  EXPECT_EQ(fires, 1);
}

TEST_F(OsTest, SleepForAdvancesTime) {
  SimTime end = -1;
  Run([&](Process& p) -> Task<> {
    co_await kernel_.SleepFor(p, Milliseconds(123));
    end = sim_.Now();
  });
  EXPECT_GE(end, Milliseconds(123));
  EXPECT_LT(end, Milliseconds(125));
}

TEST_F(OsTest, DeviceFileWriteBlocksAtDevicePace) {
  PacedSink dac(&sim_, "dac", /*rate_bps=*/8192.0, /*fifo_bytes=*/8192);
  kernel_.RegisterCharDev("dac", &dac);
  SimTime end = -1;
  Run([&](Process& p) -> Task<> {
    const int fd = co_await kernel_.Open(p, "/dev/dac", kOpenWrite);
    std::vector<uint8_t> data(3 * 8192, 1);
    EXPECT_EQ(co_await kernel_.Write(p, fd, data), 3 * 8192);
    end = sim_.Now();
  });
  // 3 chunks into an 8 KB FIFO draining at 8 KB/s: the last accepted write
  // waits for ~2 chunks to drain.
  EXPECT_GT(end, MillisecondsF(1900.0));
}

TEST_F(OsTest, SocketFdsReadAndWrite) {
  UdpSocket a(&kernel_.cpu());
  UdpSocket b(&kernel_.cpu());
  NetworkLink wire(&sim_, LoopbackParams());
  a.ConnectTo(&b, &wire);
  std::string got;
  kernel_.Spawn("tx", [&](Process& p) -> Task<> {
    const int fd = kernel_.OpenSocket(p, &a);
    const std::vector<uint8_t> msg{'h', 'i', '!'};
    co_await kernel_.Write(p, fd, msg);
  });
  kernel_.Spawn("rx", [&](Process& p) -> Task<> {
    const int fd = kernel_.OpenSocket(p, &b);
    std::vector<uint8_t> buf;
    const int64_t n = co_await kernel_.Read(p, fd, 100, &buf);
    got.assign(buf.begin(), buf.begin() + n);
  });
  sim_.Run();
  ASSERT_EQ(kernel_.cpu().alive(), 0);
  EXPECT_EQ(got, "hi!");
}

TEST_F(OsTest, FdTablesArePerProcess) {
  int fd_a = -1;
  int fd_b = -1;
  int64_t cross_read = 0;
  kernel_.Spawn("a", [&](Process& p) -> Task<> {
    fd_a = co_await kernel_.Open(p, "fs:pa", kOpenWrite | kOpenCreate);
  });
  kernel_.Spawn("b", [&](Process& p) -> Task<> {
    fd_b = co_await kernel_.Open(p, "fs:pb", kOpenWrite | kOpenCreate);
    // a's descriptor number is not visible here unless b opened it too.
    std::vector<uint8_t> buf;
    cross_read = co_await kernel_.Read(p, fd_b + 1, 10, &buf);
  });
  sim_.Run();
  ASSERT_EQ(kernel_.cpu().alive(), 0);
  EXPECT_EQ(fd_a, 3);
  EXPECT_EQ(fd_b, 3);  // independent numbering
  EXPECT_EQ(cross_read, -1);
}

TEST_F(OsTest, OpenReusesTheLowestClosedFd) {
  Run([&](Process& p) -> Task<> {
    const int a = co_await kernel_.Open(p, "fs:a", kOpenWrite | kOpenCreate);
    const int b = co_await kernel_.Open(p, "fs:b", kOpenWrite | kOpenCreate);
    const int c = co_await kernel_.Open(p, "fs:c", kOpenWrite | kOpenCreate);
    EXPECT_EQ(a, 3);
    EXPECT_EQ(b, 4);
    EXPECT_EQ(c, 5);
    EXPECT_EQ(co_await kernel_.Close(p, b), 0);
    EXPECT_EQ(co_await kernel_.Open(p, "fs:d", kOpenWrite | kOpenCreate), b);
    EXPECT_EQ(co_await kernel_.Open(p, "fs:e", kOpenWrite | kOpenCreate), 6);
    // Two holes: the lower one is filled first.
    EXPECT_EQ(co_await kernel_.Close(p, c), 0);
    EXPECT_EQ(co_await kernel_.Close(p, a), 0);
    EXPECT_EQ(co_await kernel_.Dup(p, b), a);
    EXPECT_EQ(co_await kernel_.Dup(p, b), c);
  });
}

TEST_F(OsTest, BadDescriptorsAreRejected) {
  Run([&](Process& p) -> Task<> {
    const int fd = co_await kernel_.Open(p, "fs:x", kOpenWrite | kOpenCreate);
    EXPECT_EQ(co_await kernel_.Close(p, fd), 0);
    for (const int bad : {fd, 0, 1, 2, -1, 1000}) {
      std::vector<uint8_t> buf;
      EXPECT_EQ(co_await kernel_.Read(p, bad, 10, &buf), -1) << "fd " << bad;
      EXPECT_EQ(co_await kernel_.Close(p, bad), -1) << "fd " << bad;
      EXPECT_EQ(co_await kernel_.Dup(p, bad), -1) << "fd " << bad;
      EXPECT_EQ(kernel_.GetFile(p, bad), nullptr) << "fd " << bad;
    }
  });
}

TEST_F(OsTest, ProcessesNumberFdsIndependently) {
  std::vector<int> fds_a;
  std::vector<int> fds_b;
  kernel_.Spawn("a", [&](Process& p) -> Task<> {
    fds_a.push_back(co_await kernel_.Open(p, "fs:qa", kOpenWrite | kOpenCreate));
    fds_a.push_back(co_await kernel_.Open(p, "fs:qa", kOpenRead));
    co_await kernel_.Close(p, fds_a[0]);
    co_await kernel_.SleepFor(p, Milliseconds(10));
    fds_a.push_back(co_await kernel_.Open(p, "fs:qa", kOpenRead));
  });
  kernel_.Spawn("b", [&](Process& p) -> Task<> {
    for (int i = 0; i < 3; ++i) {
      fds_b.push_back(co_await kernel_.Open(p, "fs:qb", kOpenWrite | kOpenCreate));
    }
  });
  sim_.Run();
  ASSERT_EQ(kernel_.cpu().alive(), 0);
  EXPECT_EQ(fds_a, (std::vector<int>{3, 4, 3}));  // a's hole, not b's opens
  EXPECT_EQ(fds_b, (std::vector<int>{3, 4, 5}));
}

TEST_F(OsTest, SyscallsChargeTrapOverhead) {
  Process* proc = nullptr;
  kernel_.Spawn("t", [&](Process& p) -> Task<> {
    proc = &p;
    for (int i = 0; i < 10; ++i) {
      (void)co_await kernel_.Open(p, "fs:nope", kOpenRead);
    }
  });
  sim_.Run();
  EXPECT_GE(proc->stats().cpu_time, 10 * kernel_.cpu().costs().syscall_overhead);
}

TEST_F(OsTest, SpliceOnDeviceSourceBoundedByBytes) {
  NullDevice null(&sim_);
  PacedSink dac(&sim_, "fastdac", 10e6, 1 << 20);
  kernel_.RegisterCharDev("null", &null);
  kernel_.RegisterCharDev("dac", &dac);
  fs_->CreateFileInstant("audio", 4 * kBlockSize, Fill);
  Run([&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "fs:audio", kOpenRead);
    const int dst = co_await kernel_.Open(p, "/dev/dac", kOpenWrite);
    // Two half-file splices.
    EXPECT_EQ(co_await kernel_.Splice(p, src, dst, 2 * kBlockSize), 2 * kBlockSize);
    EXPECT_EQ(co_await kernel_.Splice(p, src, dst, 2 * kBlockSize), 2 * kBlockSize);
    EXPECT_EQ(co_await kernel_.Splice(p, src, dst, 2 * kBlockSize), 0);  // EOF
  });
  EXPECT_EQ(dac.bytes_accepted(), 4 * kBlockSize);
}

TEST_F(OsTest, ManyProcessesShareTheMachine) {
  constexpr int kProcs = 8;
  int done = 0;
  for (int i = 0; i < kProcs; ++i) {
    kernel_.Spawn("worker", [&, i](Process& p) -> Task<> {
      const std::string name = "fs:w" + std::to_string(i);
      const int fd = co_await kernel_.Open(p, name, kOpenWrite | kOpenCreate);
      std::vector<uint8_t> data(kBlockSize, static_cast<uint8_t>(i));
      co_await kernel_.Write(p, fd, data);
      co_await kernel_.FsyncFd(p, fd);
      co_await kernel_.Close(p, fd);
      ++done;
    });
  }
  sim_.Run();
  ASSERT_EQ(kernel_.cpu().alive(), 0);
  EXPECT_EQ(done, kProcs);
  for (int i = 0; i < kProcs; ++i) {
    Inode* ip = fs_->Lookup(std::string("w").append(std::to_string(i)));
    ASSERT_NE(ip, nullptr);
    EXPECT_EQ(ip->size, kBlockSize);
  }
}


TEST_F(OsTest, DupSharesOpenFileAndOffset) {
  fs_->CreateFileInstant("dd", 2 * kBlockSize, Fill);
  Run([&](Process& p) -> Task<> {
    const int a = co_await kernel_.Open(p, "fs:dd", kOpenRead);
    const int b = co_await kernel_.Dup(p, a);
    EXPECT_GE(b, 0);
    EXPECT_NE(a, b);
    std::vector<uint8_t> buf;
    co_await kernel_.Read(p, a, 100, &buf);
    // The dup shares the seek offset: reading via b continues at 100.
    co_await kernel_.Read(p, b, 1, &buf);
    EXPECT_EQ(buf[0], Fill(100));
    // Closing one descriptor leaves the other usable.
    co_await kernel_.Close(p, a);
    EXPECT_EQ(co_await kernel_.Read(p, b, 1, &buf), 1);
    EXPECT_EQ(co_await kernel_.Dup(p, 99), -1);
  });
}

TEST_F(OsTest, SpliceOntoSameInodeRejected) {
  fs_->CreateFileInstant("self", 4 * kBlockSize, Fill);
  int64_t rval = 0;
  Run([&](Process& p) -> Task<> {
    const int a = co_await kernel_.Open(p, "fs:self", kOpenRead);
    const int b = co_await kernel_.Open(p, "fs:self", kOpenWrite);
    rval = co_await kernel_.Splice(p, a, b, kSpliceEof);
  });
  EXPECT_EQ(rval, -1);
}


TEST_F(OsTest, DeviceFileReadDeliversFrames) {
  FrameSource fb(&sim_, "fb0", /*frame_bytes=*/1000, /*frame_interval=*/Milliseconds(20));
  kernel_.RegisterCharDev("fb0", &fb);
  Run([&](Process& p) -> Task<> {
    const int fd = co_await kernel_.Open(p, "/dev/fb0", kOpenRead);
    std::vector<uint8_t> buf;
    const int64_t n = co_await kernel_.Read(p, fd, 4096, &buf);
    EXPECT_EQ(n, 1000);  // one frame
    EXPECT_GE(sim_.Now(), Milliseconds(20));  // waited for scan-out
    std::vector<uint8_t> expect;
    FrameSource::FillFrame(0, 1000, &expect);
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(), buf.begin()));
    // Writing to a pure source fails cleanly (no deadlock).
    EXPECT_EQ(co_await kernel_.Write(p, fd, buf.data(), 10), -1);
  });
}

// --- splice setup refusals ---------------------------------------------------
//
// Every setup refusal, driven through each splice front-end: splice(2),
// splice_multi(2) and a ring SQE.  Each row pins what the caller sees (-1,
// or the CQE's errno), the errno SpliceError reports on both ends, the
// source's offset (a bind refusal must not consume it) and whether the
// engine started anything.

enum class FrontEnd { kSplice, kSpliceMulti, kRing };

enum class Refusal {
  kBadSrcFd,
  kBadDstFd,
  kBadLength,
  kSelfSplice,
  kMisaligned,
  kSourceHole,
  kUnboundedIntoFile,
  kDropOverFile,
  kWrongFanOut,
  kDestinationFull,
};

struct RefusalOutcome {
  int64_t ret = 0;          // splice/splice_multi return, or the CQE's errno
  int src_error = 0;        // SpliceError(src); -1 for a bad descriptor
  int dst_error = 0;        // SpliceError of the first destination
  int64_t src_offset = -1;  // Tell(src); -1 unless a regular file
  uint64_t started = 0;     // SpliceEngine splices_started
  bool operator==(const RefusalOutcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const RefusalOutcome& o) {
  return os << "{ret " << o.ret << ", src_error " << o.src_error << ", dst_error "
            << o.dst_error << ", src_offset " << o.src_offset << ", started " << o.started
            << "}";
}

// A fresh machine per row: a 16-block source on a RAM filesystem, a
// filesystem with 8 data blocks for the device-full row, a frame source for the
// unbounded row and two null devices as fan-out sinks.
class RefusalWorld {
 public:
  RefusalWorld()
      : kernel_(&sim_, DecStation5000Costs()),
        ram_(&kernel_.cpu(), 16 << 20),
        tiny_(&kernel_.cpu(), 24 * kBlockSize),
        cam_(&sim_, "cam", kBlockSize, Milliseconds(10)),
        null0_(&sim_),
        null1_(&sim_) {
    FileSystem* fs = kernel_.MountFs(&ram_, "fs");
    kernel_.MountFs(&tiny_, "tiny");
    kernel_.RegisterCharDev("cam", &cam_);
    kernel_.RegisterCharDev("null0", &null0_);
    kernel_.RegisterCharDev("null1", &null1_);
    fs->CreateFileInstant("src", 16 * kBlockSize, Fill);
  }

  RefusalOutcome Run(Refusal r, FrontEnd fe) {
    RefusalOutcome out;
    kernel_.Spawn("test", [&](Process& p) -> Task<> {
      int src = co_await kernel_.Open(p, "fs:src", kOpenRead);
      int dst = co_await kernel_.Open(p, "fs:dst", kOpenWrite | kOpenCreate);
      const int null0 = co_await kernel_.Open(p, "/dev/null0", kOpenWrite);
      const int null1 = co_await kernel_.Open(p, "/dev/null1", kOpenWrite);
      int64_t nbytes = kSpliceEof;
      KopProgram prog;
      KopStage route;
      route.kind = KopStageKind::kRoute;
      route.len = 1;
      route.n_sinks = 2;
      prog.stages.push_back(route);
      switch (r) {
        case Refusal::kBadSrcFd:
          src = 99;
          break;
        case Refusal::kBadDstFd:
          dst = 99;
          break;
        case Refusal::kBadLength:
          nbytes = -5;
          break;
        case Refusal::kSelfSplice:
          dst = co_await kernel_.Open(p, "fs:src", kOpenWrite);
          break;
        case Refusal::kMisaligned:
          co_await kernel_.Lseek(p, src, 100);
          break;
        case Refusal::kSourceHole: {
          // Blocks 0-2 of "holes" are never written.
          src = co_await kernel_.Open(p, "fs:holes", kOpenWrite | kOpenCreate);
          co_await kernel_.Lseek(p, src, 3 * kBlockSize);
          const std::vector<uint8_t> block(kBlockSize, 0x5a);
          co_await kernel_.Write(p, src, block);
          co_await kernel_.Lseek(p, src, 0);
          break;
        }
        case Refusal::kUnboundedIntoFile:
          src = co_await kernel_.Open(p, "/dev/cam", kOpenRead);
          break;
        case Refusal::kDropOverFile:
          prog.stages[0].kind = KopStageKind::kFilter;
          prog.stages[0].filter_mode = KopFilterMode::kKeepIfEq;
          prog.stages[0].n_sinks = 1;
          break;
        case Refusal::kWrongFanOut:
          prog.stages[0].n_sinks = 3;
          break;
        case Refusal::kDestinationFull:
          dst = co_await kernel_.Open(p, "tiny:dst", kOpenWrite | kOpenCreate);
          break;
      }
      // splice and splice_multi bind the source's program; a ring SQE names
      // its own.  splice_multi needs a route program whatever the row.
      const bool bind = r == Refusal::kDropOverFile || r == Refusal::kWrongFanOut ||
                        fe == FrontEnd::kSpliceMulti;
      const int kop_id = bind ? co_await kernel_.KopLoad(p, prog) : 0;
      EXPECT_EQ(kop_id > 0, bind);
      if (fe != FrontEnd::kRing && bind) {
        co_await kernel_.KopAttach(p, src, kop_id);
      }
      // splice_multi's destinations are two null devices, except that a
      // row's own regular-file destination leads (and is refused there) and
      // a bad descriptor comes second.
      std::vector<int> dsts = {null0, null1};
      if (r == Refusal::kSelfSplice || r == Refusal::kUnboundedIntoFile ||
          r == Refusal::kDropOverFile || r == Refusal::kDestinationFull) {
        dsts[0] = dst;
      } else if (r == Refusal::kBadDstFd) {
        dsts[1] = dst;
      }
      switch (fe) {
        case FrontEnd::kSplice:
          out.ret = co_await kernel_.Splice(p, src, dst, nbytes);
          break;
        case FrontEnd::kSpliceMulti:
          out.ret = co_await kernel_.SpliceMulti(p, src, dsts, nbytes);
          dst = dsts[0];
          break;
        case FrontEnd::kRing: {
          const int ring = co_await kernel_.RingSetup(p, RingConfig{});
          SpliceSqe sqe;
          sqe.src_fd = src;
          sqe.dst_fd = dst;
          sqe.nbytes = nbytes;
          sqe.cookie = 7;
          sqe.kop_id = kop_id;
          EXPECT_EQ(kernel_.RingPrepare(p, ring, sqe), 0);
          EXPECT_EQ(co_await kernel_.RingEnter(p, ring, 1, 1), 1);
          SpliceCqe cqe;
          EXPECT_EQ(kernel_.RingHarvest(p, ring, &cqe, 1), 1);
          EXPECT_EQ(cqe.cookie, 7u);
          out.ret = cqe.error;
          break;
        }
      }
      out.src_error = co_await kernel_.SpliceError(p, src);
      out.dst_error = co_await kernel_.SpliceError(p, dst);
      out.src_offset = co_await kernel_.Tell(p, src);
    });
    sim_.Run();
    EXPECT_EQ(kernel_.cpu().alive(), 0) << "process deadlocked";
    out.started = kernel_.splice_engine().stats().splices_started;
    return out;
  }

 private:
  Simulator sim_;
  Kernel kernel_;
  RamDisk ram_;
  RamDisk tiny_;
  FrameSource cam_;
  NullDevice null0_;
  NullDevice null1_;
};

TEST(SpliceRefusalTest, EveryFrontEndRefusesSetupAlike) {
  constexpr int kInval = kErrInval;
  struct Row {
    const char* name;
    Refusal refusal;
    RefusalOutcome splice;
    RefusalOutcome multi;
    RefusalOutcome ring;
  };
  const Row rows[] = {
      {"bad source fd", Refusal::kBadSrcFd,
       {-1, -1, 0, -1, 0}, {-1, -1, 0, -1, 0}, {kErrBadf, -1, 0, -1, 0}},
      {"bad destination fd", Refusal::kBadDstFd,
       {-1, 0, -1, 0, 0}, {-1, 0, 0, 0, 0}, {kErrBadf, 0, -1, 0, 0}},
      {"negative length", Refusal::kBadLength,
       {-1, 0, 0, 0, 0}, {-1, 0, 0, 0, 0}, {kInval, 0, 0, 0, 0}},
      {"file onto itself", Refusal::kSelfSplice,
       {-1, 0, 0, 0, 0}, {-1, kInval, 0, 0, 0}, {kInval, 0, 0, 0, 0}},
      {"misaligned offset", Refusal::kMisaligned,
       {-1, kInval, kInval, 100, 0}, {-1, kInval, kInval, 100, 0}, {kInval, 0, 0, 100, 0}},
      {"hole in the source", Refusal::kSourceHole,
       {-1, kInval, kInval, 0, 0}, {-1, kInval, kInval, 0, 0}, {kInval, 0, 0, 0, 0}},
      {"unbounded into a file", Refusal::kUnboundedIntoFile,
       {-1, kInval, kInval, -1, 0}, {-1, kInval, 0, -1, 0}, {kInval, 0, 0, -1, 0}},
      {"dropping program over a file", Refusal::kDropOverFile,
       {-1, kInval, kInval, 0, 0}, {-1, kInval, 0, 0, 0}, {kInval, 0, 0, 0, 0}},
      {"wrong fan-out", Refusal::kWrongFanOut,
       {-1, kInval, kInval, 0, 0}, {-1, kInval, kInval, 0, 0}, {kInval, 0, 0, 0, 0}},
      {"destination premap fills the device", Refusal::kDestinationFull,
       {-1, kErrNoSpc, kErrNoSpc, 0, 0}, {-1, kInval, 0, 0, 0}, {kErrNoSpc, 0, 0, 0, 0}},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    EXPECT_EQ(RefusalWorld().Run(row.refusal, FrontEnd::kSplice), row.splice) << "splice";
    EXPECT_EQ(RefusalWorld().Run(row.refusal, FrontEnd::kSpliceMulti), row.multi)
        << "splice_multi";
    EXPECT_EQ(RefusalWorld().Run(row.refusal, FrontEnd::kRing), row.ring) << "ring";
  }
}

TEST(SpliceRefusalTest, RetryAfterFreeingSpaceMovesEveryByte) {
  // A destination premap that runs out of space refuses the splice before
  // any byte moves, so the source offset stays put: once space is freed,
  // the same call moves the whole file.
  constexpr int64_t kBytes = 4 * kBlockSize;
  Simulator sim;
  Kernel kernel(&sim, DecStation5000Costs());
  RamDisk ram(&kernel.cpu(), 16 << 20);
  RamDisk tiny(&kernel.cpu(), 24 * kBlockSize);  // 8 data blocks
  FileSystem* fs = kernel.MountFs(&ram, "fs");
  FileSystem* small = kernel.MountFs(&tiny, "tiny");
  fs->CreateFileInstant("src", kBytes, Fill);
  small->CreateFileInstant("filler", 6 * kBlockSize, Fill);
  kernel.Spawn("test", [&](Process& p) -> Task<> {
    const int src = co_await kernel.Open(p, "fs:src", kOpenRead);
    const int dst = co_await kernel.Open(p, "tiny:dst", kOpenWrite | kOpenCreate);
    EXPECT_EQ(co_await kernel.Splice(p, src, dst, kSpliceEof), -1);
    EXPECT_EQ(co_await kernel.SpliceError(p, dst), kErrNoSpc);
    EXPECT_EQ(co_await kernel.Tell(p, src), 0);
    EXPECT_TRUE(small->Remove("filler"));
    EXPECT_EQ(co_await kernel.Splice(p, src, dst, kSpliceEof), kBytes);
    EXPECT_EQ(co_await kernel.Tell(p, src), kBytes);
  });
  sim.Run();
  ASSERT_EQ(kernel.cpu().alive(), 0) << "process deadlocked";
  kernel.cache().FlushAllInstant();
  const std::vector<uint8_t> back = small->ReadFileInstant(small->Lookup("dst"));
  ASSERT_EQ(static_cast<int64_t>(back.size()), kBytes);
  for (int64_t i = 0; i < kBytes; ++i) {
    ASSERT_EQ(back[static_cast<size_t>(i)], Fill(i)) << "byte " << i;
  }
}

}  // namespace
}  // namespace ikdp
