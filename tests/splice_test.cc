// Integration tests for the splice engine and syscall: file-to-file copies
// across disk types, content integrity, flow-control invariants, async
// (FASYNC + SIGIO) completion, socket and device endpoints, and the
// zero-copy buffer-sharing machinery.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/dev/disk_driver.h"
#include "src/dev/null_device.h"
#include "src/dev/paced_sink.h"
#include "src/dev/ram_disk.h"
#include "src/hw/costs.h"
#include "src/hw/disk.h"
#include "src/net/udp_socket.h"
#include "src/os/kernel.h"
#include "src/sim/simulator.h"
#include "src/splice/file_endpoint.h"

namespace ikdp {
namespace {

uint8_t Fill(int64_t i) { return static_cast<uint8_t>((i * 40503u + 13) >> 3 & 0xff); }

// The engine takes a sink list; these splices have one sink.
std::vector<std::unique_ptr<SpliceSink>> OneSink(std::unique_ptr<SpliceSink> sink) {
  std::vector<std::unique_ptr<SpliceSink>> sinks;
  sinks.push_back(std::move(sink));
  return sinks;
}

// A machine with two RAM disks and two SCSI disks, all mounted.
class SpliceTest : public ::testing::Test {
 protected:
  SpliceTest()
      : kernel_(&sim_, DecStation5000Costs()),
        rama_(&kernel_.cpu(), 16 << 20),
        ramb_(&kernel_.cpu(), 16 << 20),
        scsia_(&kernel_.cpu(), &sim_, Rz56Params()),
        scsib_(&kernel_.cpu(), &sim_, Rz56Params()) {
    fs_rama_ = kernel_.MountFs(&rama_, "rama");
    fs_ramb_ = kernel_.MountFs(&ramb_, "ramb");
    fs_scsia_ = kernel_.MountFs(&scsia_, "scsia");
    fs_scsib_ = kernel_.MountFs(&scsib_, "scsib");
  }

  void Run(std::function<Task<>(Process&)> body) {
    kernel_.Spawn("test", std::move(body));
    sim_.Run();
    ASSERT_EQ(kernel_.cpu().alive(), 0) << "process deadlocked";
  }

  // Verifies dst file contents equal Fill over [0, nbytes) after flushing.
  void VerifyFile(FileSystem* fs, const std::string& name, int64_t nbytes) {
    kernel_.cache().FlushAllInstant();  // metadata may still be delayed-write
    Inode* ip = fs->Lookup(name);
    ASSERT_NE(ip, nullptr);
    EXPECT_EQ(ip->size, nbytes);
    const std::vector<uint8_t> back = fs->ReadFileInstant(ip);
    ASSERT_EQ(static_cast<int64_t>(back.size()), nbytes);
    for (int64_t i = 0; i < nbytes; ++i) {
      ASSERT_EQ(back[static_cast<size_t>(i)], Fill(i)) << "byte " << i;
    }
  }

  Simulator sim_;
  Kernel kernel_;
  RamDisk rama_;
  RamDisk ramb_;
  DiskDriver scsia_;
  DiskDriver scsib_;
  FileSystem* fs_rama_;
  FileSystem* fs_ramb_;
  FileSystem* fs_scsia_;
  FileSystem* fs_scsib_;
};

TEST_F(SpliceTest, FileToFileRamDisks) {
  constexpr int64_t kBytes = 64 * kBlockSize;
  fs_rama_->CreateFileInstant("src", kBytes, Fill);
  int64_t moved = -1;
  Run([&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "rama:src", kOpenRead);
    const int dst = co_await kernel_.Open(p, "ramb:dst", kOpenWrite | kOpenCreate);
    EXPECT_GE(src, 0);
    EXPECT_GE(dst, 0);
    moved = co_await kernel_.Splice(p, src, dst, kSpliceEof);
  });
  EXPECT_EQ(moved, kBytes);
  VerifyFile(fs_ramb_, "dst", kBytes);
}

TEST_F(SpliceTest, FileToFileScsiDisks) {
  constexpr int64_t kBytes = 32 * kBlockSize;
  fs_scsia_->CreateFileInstant("src", kBytes, Fill);
  int64_t moved = -1;
  Run([&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "scsia:src", kOpenRead);
    const int dst = co_await kernel_.Open(p, "scsib:dst", kOpenWrite | kOpenCreate);
    moved = co_await kernel_.Splice(p, src, dst, kSpliceEof);
  });
  EXPECT_EQ(moved, kBytes);
  VerifyFile(fs_scsib_, "dst", kBytes);
}

TEST_F(SpliceTest, PartialTailBlock) {
  constexpr int64_t kBytes = 5 * kBlockSize + 1234;
  fs_rama_->CreateFileInstant("src", kBytes, Fill);
  int64_t moved = -1;
  Run([&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "rama:src", kOpenRead);
    const int dst = co_await kernel_.Open(p, "ramb:dst", kOpenWrite | kOpenCreate);
    moved = co_await kernel_.Splice(p, src, dst, kSpliceEof);
  });
  EXPECT_EQ(moved, kBytes);
  VerifyFile(fs_ramb_, "dst", kBytes);
}

TEST_F(SpliceTest, SizeLimitedSpliceAdvancesOffset) {
  constexpr int64_t kBytes = 16 * kBlockSize;
  fs_rama_->CreateFileInstant("src", kBytes, Fill);
  std::vector<int64_t> moved;
  Run([&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "rama:src", kOpenRead);
    const int dst = co_await kernel_.Open(p, "ramb:dst", kOpenWrite | kOpenCreate);
    // Four sequential quarter-file splices, like the paper's video frames.
    for (int i = 0; i < 4; ++i) {
      moved.push_back(co_await kernel_.Splice(p, src, dst, 4 * kBlockSize));
    }
    // A fifth returns 0: EOF.
    moved.push_back(co_await kernel_.Splice(p, src, dst, 4 * kBlockSize));
  });
  EXPECT_EQ(moved, (std::vector<int64_t>{4 * kBlockSize, 4 * kBlockSize, 4 * kBlockSize,
                                         4 * kBlockSize, 0}));
  VerifyFile(fs_ramb_, "dst", kBytes);
}

TEST_F(SpliceTest, AsyncSpliceSignalsSigio) {
  constexpr int64_t kBytes = 8 * kBlockSize;
  fs_rama_->CreateFileInstant("src", kBytes, Fill);
  int sigio_count = 0;
  int64_t rval = -1;
  SimTime signalled_at = -1;
  Run([&](Process& p) -> Task<> {
    kernel_.Sigaction(p, kSigIo, [&] {
      ++sigio_count;
      signalled_at = sim_.Now();
    });
    const int src = co_await kernel_.Open(p, "rama:src", kOpenRead);
    const int dst = co_await kernel_.Open(p, "ramb:dst", kOpenWrite | kOpenCreate);
    co_await kernel_.Fcntl(p, src, /*fasync=*/true);
    rval = co_await kernel_.Splice(p, src, dst, kSpliceEof);
    EXPECT_EQ(sigio_count, 0);  // returned immediately, transfer in flight
    co_await kernel_.Pause(p);
  });
  EXPECT_EQ(rval, 0);
  EXPECT_EQ(sigio_count, 1);
  EXPECT_GT(signalled_at, 0);
  VerifyFile(fs_ramb_, "dst", kBytes);
}

TEST_F(SpliceTest, CallingProcessKeepsRunningDuringAsyncSplice) {
  constexpr int64_t kBytes = 128 * kBlockSize;  // 1 MB between SCSI disks
  fs_scsia_->CreateFileInstant("src", kBytes, Fill);
  int64_t ops_before_sigio = 0;
  bool done = false;
  Run([&](Process& p) -> Task<> {
    kernel_.Sigaction(p, kSigIo, [&] { done = true; });
    const int src = co_await kernel_.Open(p, "scsia:src", kOpenRead);
    const int dst = co_await kernel_.Open(p, "scsib:dst", kOpenWrite | kOpenCreate);
    co_await kernel_.Fcntl(p, src, true);
    co_await kernel_.Splice(p, src, dst, kSpliceEof);
    // "A calling process may continue user-mode execution while I/O is
    // proceeding between objects."
    while (!done) {
      co_await kernel_.cpu().Use(p, Milliseconds(1));
      ++ops_before_sigio;
      p.TakeSignals();
    }
  });
  // The 1 MB SCSI-to-SCSI transfer takes hundreds of ms; the process must
  // have made substantial progress meanwhile.
  EXPECT_GT(ops_before_sigio, 100);
  VerifyFile(fs_scsib_, "dst", kBytes);
}

TEST_F(SpliceTest, FlowControlRespectsWatermarks) {
  // Drive the engine directly so the descriptor's flow-control stats can be
  // inspected before it is destroyed.
  constexpr int64_t kBytes = 64 * kBlockSize;
  Inode* src_ip = fs_scsia_->CreateFileInstant("src", kBytes, Fill);
  Inode* dst_ip = fs_scsib_->Create("dst");
  SpliceDescriptor::Stats observed;
  int64_t moved = -1;
  Run([&](Process& p) -> Task<> {
    std::vector<int64_t> smap =
        co_await fs_scsia_->MapRange(p, src_ip, kBytes / kBlockSize, false, false);
    std::vector<int64_t> dmap =
        co_await fs_scsib_->MapRange(p, dst_ip, kBytes / kBlockSize, true, true);
    auto source = std::make_unique<FileSpliceSource>(&kernel_.cache(), fs_scsia_->dev(),
                                                     std::move(smap), kBytes);
    auto sink =
        std::make_unique<FileSpliceSink>(&kernel_.cache(), fs_scsib_->dev(), std::move(dmap));
    struct Waiter {
      bool done = false;
    } w;
    SpliceDescriptor* d =
        kernel_.splice_engine().Start(std::move(source), OneSink(std::move(sink)),
                                      SpliceOptions{}, [&](const SpliceCompletion& c) {
                                        moved = c.io_error ? -1 : c.bytes_moved;
                                        observed = d->stats();
                                        w.done = true;
                                        kernel_.cpu().Wakeup(&w);
                                      });
    while (!w.done) {
      co_await kernel_.cpu().Sleep(p, &w, kPriWait);
    }
  });
  EXPECT_EQ(moved, kBytes);
  // "up to five additional reads" — never more than the refill batch.
  EXPECT_LE(observed.max_pending_reads, 5);
  EXPECT_GE(observed.max_pending_reads, 2);  // real pipelining happened
  EXPECT_LE(observed.max_pending_writes, 8);
  EXPECT_GT(observed.refills, 0u);
}

TEST_F(SpliceTest, SpliceRejectsMisalignedOffset) {
  fs_rama_->CreateFileInstant("src", 4 * kBlockSize, Fill);
  int64_t rval = 0;
  Run([&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "rama:src", kOpenRead);
    const int dst = co_await kernel_.Open(p, "ramb:dst", kOpenWrite | kOpenCreate);
    co_await kernel_.Lseek(p, src, 100);  // misaligned
    rval = co_await kernel_.Splice(p, src, dst, kSpliceEof);
  });
  EXPECT_EQ(rval, -1);
}

TEST_F(SpliceTest, SpliceRejectsBadFds) {
  int64_t rval = 0;
  Run([&](Process& p) -> Task<> {
    rval = co_await kernel_.Splice(p, 7, 8, kSpliceEof);
  });
  EXPECT_EQ(rval, -1);
}

TEST_F(SpliceTest, EmptySourceCompletesWithZero) {
  fs_rama_->CreateFileInstant("empty", 0, Fill);
  int64_t rval = -1;
  Run([&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "rama:empty", kOpenRead);
    const int dst = co_await kernel_.Open(p, "ramb:dst", kOpenWrite | kOpenCreate);
    rval = co_await kernel_.Splice(p, src, dst, kSpliceEof);
  });
  EXPECT_EQ(rval, 0);
}

TEST_F(SpliceTest, FileToPacedDeviceRunsAtPlaybackRate) {
  // 64 KB of "audio" at 64 KB/s should take ~1 s, driven by the device.
  constexpr int64_t kBytes = 8 * kBlockSize;
  fs_rama_->CreateFileInstant("audio", kBytes, Fill);
  PacedSink dac(&sim_, "speaker", /*rate_bps=*/65536.0, /*fifo_bytes=*/4 * kBlockSize);
  kernel_.RegisterCharDev("speaker", &dac);
  SimTime done_at = -1;
  Run([&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "rama:audio", kOpenRead);
    const int dst = co_await kernel_.Open(p, "/dev/speaker", kOpenWrite);
    const int64_t moved = co_await kernel_.Splice(p, src, dst, kSpliceEof);
    EXPECT_EQ(moved, kBytes);
    done_at = sim_.Now();
  });
  EXPECT_EQ(dac.bytes_accepted(), kBytes);
  EXPECT_GT(done_at, MillisecondsF(900.0));
  EXPECT_LT(done_at, MillisecondsF(1300.0));
}

TEST_F(SpliceTest, FileToSocketToFileRelay) {
  // a: file -> socket splice; b: receives and writes (read/write loop).
  constexpr int64_t kBytes = 16 * kBlockSize;
  fs_rama_->CreateFileInstant("src", kBytes, Fill);
  UdpSocket sa(&kernel_.cpu());
  UdpSocket sb(&kernel_.cpu());
  NetworkLink wire(&sim_, EthernetParams());
  sa.ConnectTo(&sb, &wire);

  kernel_.Spawn("sender", [&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "rama:src", kOpenRead);
    const int sock = kernel_.OpenSocket(p, &sa);
    const int64_t moved = co_await kernel_.Splice(p, src, sock, kSpliceEof);
    EXPECT_EQ(moved, kBytes);
    // End-of-stream datagram.
    co_await kernel_.Write(p, sock, nullptr, 0);
  });
  int64_t received = 0;
  bool eof = false;
  kernel_.Spawn("receiver", [&](Process& p) -> Task<> {
    const int sock = kernel_.OpenSocket(p, &sb);
    const int dst = co_await kernel_.Open(p, "ramb:dst", kOpenWrite | kOpenCreate);
    std::vector<uint8_t> buf;
    while (!eof) {
      const int64_t n = co_await kernel_.Read(p, sock, kBlockSize, &buf);
      if (n == 0) {
        eof = true;
        break;
      }
      if (n < 0) {
        continue;
      }
      co_await kernel_.Write(p, dst, buf.data(), n);
      received += n;
    }
    co_await kernel_.FsyncFd(p, dst);
  });
  sim_.Run();
  ASSERT_EQ(kernel_.cpu().alive(), 0);
  EXPECT_EQ(received, kBytes);
  VerifyFile(fs_ramb_, "dst", kBytes);
}

TEST_F(SpliceTest, WriteDuringFlightLeavesDatagramBytes) {
  // The datagram a file -> socket splice sends shares the source block's
  // cache buffer.  A write() into that block while the datagram is still
  // on a slow wire writes a private copy (MakeWritable), so the receiver
  // gets the bytes as they were at send and the file gets the new ones.
  fs_rama_->CreateFileInstant("src", kBlockSize, Fill);
  UdpSocket sa(&kernel_.cpu());
  UdpSocket sb(&kernel_.cpu());
  LinkParams slow = EthernetParams();
  slow.propagation_delay = Seconds(1);
  NetworkLink wire(&sim_, slow);
  sa.ConnectTo(&sb, &wire);
  bool rewritten = false;
  std::vector<uint8_t> got;
  ASSERT_TRUE(sb.RecvAsync(kBlockSize, [&](BufData d, int64_t n) {
    EXPECT_TRUE(rewritten) << "the datagram arrived before the write";
    got.assign(d->begin(), d->begin() + n);
  }));
  Run([&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "rama:src", kOpenRead);
    const int sock = kernel_.OpenSocket(p, &sa);
    EXPECT_EQ(co_await kernel_.Splice(p, src, sock, kSpliceEof), kBlockSize);
    const int w = co_await kernel_.Open(p, "rama:src", kOpenWrite);
    const std::vector<uint8_t> junk(kBlockSize, 0xEE);
    EXPECT_EQ(co_await kernel_.Write(p, w, junk.data(), kBlockSize), kBlockSize);
    rewritten = true;
  });
  ASSERT_EQ(static_cast<int64_t>(got.size()), kBlockSize);
  for (int64_t i = 0; i < kBlockSize; ++i) {
    ASSERT_EQ(got[static_cast<size_t>(i)], Fill(i)) << "byte " << i;
  }
  kernel_.cache().FlushAllInstant();
  const std::vector<uint8_t> now = fs_rama_->ReadFileInstant(fs_rama_->Lookup("src"));
  EXPECT_EQ(now, std::vector<uint8_t>(kBlockSize, 0xEE));
}

TEST_F(SpliceTest, SocketToSocketSplice) {
  // src proc writes datagrams into socket s1 -> s2; a relay process splices
  // s2 -> s3 entirely in-kernel; sink proc reads from s4.
  // UDP has no end-to-end backpressure: the producer can outrun the relay,
  // so the intermediate receive buffers must absorb the full burst for this
  // test to be lossless (drops are legal and exercised in net_test).
  UdpSocket s1(&kernel_.cpu());
  UdpSocket s2(&kernel_.cpu(), 48 * 1024, 256 * 1024);
  UdpSocket s3(&kernel_.cpu());
  UdpSocket s4(&kernel_.cpu(), 48 * 1024, 256 * 1024);
  NetworkLink l12(&sim_, EthernetParams());
  NetworkLink l34(&sim_, EthernetParams());
  s1.ConnectTo(&s2, &l12);
  s3.ConnectTo(&s4, &l34);

  constexpr int kDgrams = 20;
  constexpr int64_t kDgram = 4096;

  kernel_.Spawn("producer", [&](Process& p) -> Task<> {
    const int out = kernel_.OpenSocket(p, &s1);
    std::vector<uint8_t> payload(kDgram);
    for (int i = 0; i < kDgrams; ++i) {
      for (int64_t j = 0; j < kDgram; ++j) {
        payload[static_cast<size_t>(j)] = Fill(i * kDgram + j);
      }
      co_await kernel_.Write(p, out, payload);
    }
    co_await kernel_.Write(p, out, nullptr, 0);  // EOF marker
  });

  int64_t relayed = -1;
  kernel_.Spawn("relay", [&](Process& p) -> Task<> {
    const int in = kernel_.OpenSocket(p, &s2);
    const int out = kernel_.OpenSocket(p, &s3);
    relayed = co_await kernel_.Splice(p, in, out, kSpliceEof);
    // Forward the end-of-stream marker downstream.
    co_await kernel_.Write(p, out, nullptr, 0);
  });

  int64_t received = 0;
  bool content_ok = true;
  kernel_.Spawn("consumer", [&](Process& p) -> Task<> {
    const int in = kernel_.OpenSocket(p, &s4);
    std::vector<uint8_t> buf;
    for (;;) {
      const int64_t n = co_await kernel_.Read(p, in, kDgram, &buf);
      if (n <= 0) {
        break;
      }
      for (int64_t j = 0; j < n && content_ok; ++j) {
        content_ok = buf[static_cast<size_t>(j)] == Fill(received + j);
      }
      received += n;
    }
  });

  sim_.Run();
  ASSERT_EQ(kernel_.cpu().alive(), 0);
  EXPECT_EQ(relayed, kDgrams * kDgram);
  EXPECT_EQ(received, kDgrams * kDgram);
  EXPECT_TRUE(content_ok);
  // The relay's splice forwarded the EOF marker too, so the consumer exits.
}

TEST_F(SpliceTest, ZeroCopyAblationStillCorrect) {
  constexpr int64_t kBytes = 16 * kBlockSize;
  fs_rama_->CreateFileInstant("src", kBytes, Fill);
  kernel_.splice_options().zero_copy = false;
  Run([&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "rama:src", kOpenRead);
    const int dst = co_await kernel_.Open(p, "ramb:dst", kOpenWrite | kOpenCreate);
    const int64_t moved = co_await kernel_.Splice(p, src, dst, kSpliceEof);
    EXPECT_EQ(moved, kBytes);
  });
  VerifyFile(fs_ramb_, "dst", kBytes);
}

TEST_F(SpliceTest, NoCalloutDeferralAblationStillCorrect) {
  constexpr int64_t kBytes = 16 * kBlockSize;
  fs_scsia_->CreateFileInstant("src", kBytes, Fill);
  kernel_.splice_options().callout_deferral = false;
  Run([&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "scsia:src", kOpenRead);
    const int dst = co_await kernel_.Open(p, "scsib:dst", kOpenWrite | kOpenCreate);
    const int64_t moved = co_await kernel_.Splice(p, src, dst, kSpliceEof);
    EXPECT_EQ(moved, kBytes);
  });
  VerifyFile(fs_scsib_, "dst", kBytes);
}

TEST_F(SpliceTest, ZeroCopySharesDataAreas) {
  // With zero copy, the splice must not perform RAM-disk-to-RAM-disk byte
  // copies beyond the device transfers themselves: the transient write
  // header aliases the read buffer.  Observable as transient allocations
  // with zero extra bcopy charges in the cache.
  constexpr int64_t kBytes = 8 * kBlockSize;
  fs_rama_->CreateFileInstant("src", kBytes, Fill);
  Run([&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "rama:src", kOpenRead);
    const int dst = co_await kernel_.Open(p, "ramb:dst", kOpenWrite | kOpenCreate);
    co_await kernel_.Splice(p, src, dst, kSpliceEof);
  });
  EXPECT_EQ(kernel_.cache().stats().transient_allocs, 8u);
  VerifyFile(fs_ramb_, "dst", kBytes);
}

TEST_F(SpliceTest, ConcurrentSplicesShareTheEngine) {
  constexpr int64_t kBytes = 32 * kBlockSize;
  fs_rama_->CreateFileInstant("s1", kBytes, Fill);
  fs_scsia_->CreateFileInstant("s2", kBytes, Fill);
  int64_t m1 = -1;
  int64_t m2 = -1;
  kernel_.Spawn("a", [&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "rama:s1", kOpenRead);
    const int dst = co_await kernel_.Open(p, "ramb:d1", kOpenWrite | kOpenCreate);
    m1 = co_await kernel_.Splice(p, src, dst, kSpliceEof);
  });
  kernel_.Spawn("b", [&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "scsia:s2", kOpenRead);
    const int dst = co_await kernel_.Open(p, "scsib:d2", kOpenWrite | kOpenCreate);
    m2 = co_await kernel_.Splice(p, src, dst, kSpliceEof);
  });
  sim_.Run();
  ASSERT_EQ(kernel_.cpu().alive(), 0);
  EXPECT_EQ(m1, kBytes);
  EXPECT_EQ(m2, kBytes);
  EXPECT_EQ(kernel_.splice_engine().stats().splices_completed, 2u);
  VerifyFile(fs_ramb_, "d1", kBytes);
  VerifyFile(fs_scsib_, "d2", kBytes);
}


TEST_F(SpliceTest, ConcurrentFasyncSplicesCompleteWithCoalescedSigio) {
  // N concurrent FASYNC splices from ONE process: the paper's mechanism
  // carries no per-operation status, and pending SIGIOs coalesce, so the
  // process must discover per-stream completion itself (tell(2) on the
  // destination offset, which moves only when a splice finishes).
  constexpr int kStreams = 4;
  constexpr int64_t kBytes = 16 * kBlockSize;
  for (int i = 0; i < kStreams; ++i) {
    fs_rama_->CreateFileInstant(std::string("s").append(std::to_string(i)), kBytes, Fill);
  }
  int sigio_count = 0;
  Run([&](Process& p) -> Task<> {
    kernel_.Sigaction(p, kSigIo, [&] { ++sigio_count; });
    std::vector<int> dfd(kStreams);
    for (int i = 0; i < kStreams; ++i) {
      const int src = co_await kernel_.Open(p, "rama:s" + std::to_string(i), kOpenRead);
      dfd[static_cast<size_t>(i)] = co_await kernel_.Open(
          p, "ramb:d" + std::to_string(i), kOpenWrite | kOpenCreate);
      co_await kernel_.Fcntl(p, src, /*fasync=*/true);
      EXPECT_EQ(co_await kernel_.Splice(p, src, dfd[static_cast<size_t>(i)], kBytes), 0);
    }
    std::vector<bool> done(kStreams, false);
    int remaining = kStreams;
    while (remaining > 0) {
      const int sweep_start = sigio_count;
      for (int i = 0; i < kStreams; ++i) {
        if (done[static_cast<size_t>(i)]) {
          continue;
        }
        if (co_await kernel_.Tell(p, dfd[static_cast<size_t>(i)]) >= kBytes) {
          done[static_cast<size_t>(i)] = true;
          --remaining;
        }
      }
      if (remaining == 0) {
        break;
      }
      if (sigio_count != sweep_start) {
        continue;  // a completion landed mid-sweep; re-sweep instead of pausing
      }
      co_await kernel_.Pause(p);
    }
  });
  // Signals coalesce: anywhere from one SIGIO (all N merged) to one each.
  EXPECT_GE(sigio_count, 1);
  EXPECT_LE(sigio_count, kStreams);
  for (int i = 0; i < kStreams; ++i) {
    VerifyFile(fs_ramb_, std::string("d").append(std::to_string(i)), kBytes);
  }
}

TEST_F(SpliceTest, AsyncCompletionSigioInterruptsSyncSplice) {
  // Cancel-while-pending ordering: a pending async splice completes while
  // the same process sits in a long SYNCHRONOUS splice.  The completion's
  // SIGIO interrupts the sync splice (a signal cancels it, Section 3), the
  // call returns its partial count, and the async transfer is unaffected.
  // The RAM-disk async splice is paced by the softclock (~250 ms for 1 MB),
  // long enough for the SCSI sync splice to make real progress first.
  constexpr int64_t kAsyncBytes = 128 * kBlockSize;  // RAM: ~250 ms
  constexpr int64_t kSyncBytes = 512 * kBlockSize;   // SCSI: hundreds of ms
  fs_rama_->CreateFileInstant("a", kAsyncBytes, Fill);
  fs_scsia_->CreateFileInstant("big", kSyncBytes, Fill);
  int sigio_count = 0;
  int64_t sync_moved = -1;
  Run([&](Process& p) -> Task<> {
    kernel_.Sigaction(p, kSigIo, [&] { ++sigio_count; });
    const int asrc = co_await kernel_.Open(p, "rama:a", kOpenRead);
    const int adst = co_await kernel_.Open(p, "ramb:da", kOpenWrite | kOpenCreate);
    co_await kernel_.Fcntl(p, asrc, /*fasync=*/true);
    EXPECT_EQ(co_await kernel_.Splice(p, asrc, adst, kAsyncBytes), 0);
    const int ssrc = co_await kernel_.Open(p, "scsia:big", kOpenRead);
    const int sdst = co_await kernel_.Open(p, "scsib:dbig", kOpenWrite | kOpenCreate);
    sync_moved = co_await kernel_.Splice(p, ssrc, sdst, kSpliceEof);
    EXPECT_EQ(sigio_count, 1);  // the handler ran at the sync splice's exit
  });
  // The sync splice was cut short by the async completion's signal...
  EXPECT_GT(sync_moved, 0);
  EXPECT_LT(sync_moved, kSyncBytes);
  // ...and the async transfer still finished intact.
  VerifyFile(fs_ramb_, "da", kAsyncBytes);
  EXPECT_EQ(kernel_.splice_engine().active(), 0);
}

TEST_F(SpliceTest, SignalInterruptsSynchronousSplice) {
  // Section 3: the splice runs "until an end of file condition is reached or
  // the operation is interrupted by the caller".  A signal during a long
  // synchronous splice cancels it; the call returns the partial byte count.
  constexpr int64_t kBytes = 512 * kBlockSize;  // 4 MB over slow SCSI disks
  fs_scsia_->CreateFileInstant("long", kBytes, Fill);
  int64_t moved = -1;
  SimTime returned_at = -1;
  Process* proc = kernel_.Spawn("splicer", [&](Process& p) -> Task<> {
    kernel_.Sigaction(p, kSigAlrm, [] {});
    const int src = co_await kernel_.Open(p, "scsia:long", kOpenRead);
    const int dst = co_await kernel_.Open(p, "scsib:part", kOpenWrite | kOpenCreate);
    moved = co_await kernel_.Splice(p, src, dst, kSpliceEof);
    returned_at = sim_.Now();
  });
  sim_.After(Milliseconds(500), [&] { kernel_.cpu().Post(*proc, kSigAlrm); });
  sim_.Run();
  ASSERT_EQ(kernel_.cpu().alive(), 0);
  // Partial progress: more than nothing, far less than the whole file, and
  // the call returned promptly after the signal (in-flight chunks drained).
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kBytes / 2);
  EXPECT_GE(returned_at, Milliseconds(500));
  EXPECT_LT(returned_at, Milliseconds(900));
  EXPECT_EQ(kernel_.splice_engine().active(), 0);
}

}  // namespace
}  // namespace ikdp
