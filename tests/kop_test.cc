// Tests for kop, the verifiable in-kernel splice operators: the static
// verifier (seeded-violation fixtures per rule class), the interpreter
// (checksum/filter/transform/route semantics and the short-chunk runtime
// re-check), the kop_load/kop_attach syscalls, operator execution inside
// sync and ring splices, the fault machinery on mid-stream rejection
// (sticky errno, LINKED-sibling cancellation, no leaked buffers), fan-out
// routing via splice_multi, the CPU attribution closure with the kop.*
// charge buckets populated, and the trace consumers closing every chunk
// read an operator drops or a reject abandons.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/dev/disk_driver.h"
#include "src/dev/null_device.h"
#include "src/dev/ram_disk.h"
#include "src/hw/costs.h"
#include "src/hw/disk.h"
#include "src/kop/kop.h"
#include "src/metrics/span_trace.h"
#include "src/metrics/telemetry.h"
#include "src/net/udp_socket.h"
#include "src/os/kernel.h"
#include "src/sim/kspan.h"
#include "src/sim/simulator.h"

namespace ikdp {
namespace {

uint8_t Fill(int64_t i) { return static_cast<uint8_t>((i * 40503u + 13) >> 3 & 0xff); }

KopStage ChecksumStage() {
  KopStage s;
  s.kind = KopStageKind::kChecksum;
  return s;
}

KopProgram ChecksumProgram() {
  KopProgram p;
  p.stages.push_back(ChecksumStage());
  return p;
}

// Keep a chunk iff its first byte equals `arg`.
KopProgram KeepIfFirstByteIs(uint8_t arg) {
  KopProgram p;
  KopStage s;
  s.kind = KopStageKind::kFilter;
  s.filter_mode = KopFilterMode::kKeepIfEq;
  s.off = 0;
  s.len = 1;
  s.arg = arg;
  p.stages.push_back(s);
  return p;
}

// Abort the stream iff a chunk's first byte equals `arg`.
KopProgram AbortIfFirstByteIs(uint8_t arg) {
  KopProgram p;
  KopStage s;
  s.kind = KopStageKind::kFilter;
  s.filter_mode = KopFilterMode::kAbortIfEq;
  s.off = 0;
  s.len = 1;
  s.arg = arg;
  p.stages.push_back(s);
  return p;
}

KopProgram RouteProgram(int n_sinks) {
  KopProgram p;
  KopStage s;
  s.kind = KopStageKind::kRoute;
  s.off = 0;
  s.len = 1;
  s.n_sinks = n_sinks;
  p.stages.push_back(s);
  return p;
}

SpliceChunk MakeChunk(int64_t nbytes, uint8_t fill) {
  SpliceChunk c;
  c.nbytes = nbytes;
  c.data = std::make_shared<std::vector<uint8_t>>(static_cast<size_t>(kBlockSize), fill);
  return c;
}

// --- verifier -------------------------------------------------------------

TEST(KopVerifyTest, AcceptsLinearPrograms) {
  KopProgram p;
  p.stages.push_back(ChecksumStage());
  KopStage t;
  t.kind = KopStageKind::kTransform;
  t.arg = 0x5a;
  p.stages.push_back(t);
  EXPECT_TRUE(KopVerify(p, kBlockSize).empty());
  EXPECT_EQ(p.SinkCount(), 1);
  EXPECT_FALSE(p.CanDrop());

  KopProgram f = KeepIfFirstByteIs(0xab);
  EXPECT_TRUE(KopVerify(f, kBlockSize).empty());
  EXPECT_TRUE(f.CanDrop());

  KopProgram r = RouteProgram(2);
  EXPECT_TRUE(KopVerify(r, kBlockSize).empty());
  EXPECT_EQ(r.SinkCount(), 2);
}

TEST(KopVerifyTest, SeededViolationsEachFlagTheirRule) {
  const std::set<std::string> want = {"empty-program", "too-many-stages",
                                      "unbounded-loop", "out-of-chunk",
                                      "route-not-last", "sink-mismatch"};
  std::set<std::string> seen;
  for (const KopSeededViolation& v : KopSeededViolations(kBlockSize)) {
    const std::vector<KopFinding> findings = KopVerify(v.program, kBlockSize);
    ASSERT_FALSE(findings.empty()) << "seeded violation for " << v.rule << " passed";
    bool flagged = false;
    for (const KopFinding& f : findings) {
      flagged = flagged || f.rule == v.rule;
    }
    EXPECT_TRUE(flagged) << "seeded violation for " << v.rule
                         << " was rejected, but under a different rule";
    seen.insert(v.rule);
  }
  // One fixture per rule class: the table and the rule set stay in sync.
  EXPECT_EQ(seen, want);
}

// --- interpreter ----------------------------------------------------------

TEST(KopExecTest, ChecksumFoldsDeterministically) {
  const KopProgram p = ChecksumProgram();
  const CostConfig costs = DecStation5000Costs();
  KopRunState a;
  KopRunState b;
  SpliceChunk c1 = MakeChunk(kBlockSize, 0x3c);
  SpliceChunk c2 = MakeChunk(kBlockSize, 0x3c);
  const KopOutcome o1 = KopExecChunk(p, c1, &a, costs);
  KopExecChunk(p, c2, &b, costs);
  EXPECT_EQ(o1.kind, KopOutcome::Kind::kPass);
  EXPECT_GT(o1.cost, 0);
  EXPECT_NE(a.checksum, 0u);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.bytes_in, kBlockSize);
  EXPECT_EQ(a.bytes_out, kBlockSize);

  // A different payload folds to a different checksum.
  KopRunState d;
  SpliceChunk c3 = MakeChunk(kBlockSize, 0x3d);
  KopExecChunk(p, c3, &d, costs);
  EXPECT_NE(a.checksum, d.checksum);
}

TEST(KopExecTest, TransformClonesBeforeMutating) {
  KopProgram p;
  KopStage t;
  t.kind = KopStageKind::kTransform;
  t.arg = 0xff;
  p.stages.push_back(t);
  KopRunState st;
  SpliceChunk c = MakeChunk(kBlockSize, 0x0f);
  const BufData original = c.data;  // aliases the "buffer cache" storage
  const KopOutcome out = KopExecChunk(p, c, &st, DecStation5000Costs());
  EXPECT_EQ(out.kind, KopOutcome::Kind::kPass);
  // The chunk now carries a private transformed copy...
  EXPECT_NE(c.data, original);
  EXPECT_EQ((*c.data)[0], 0xf0);
  // ...and the shared source buffer was never scribbled on.
  EXPECT_EQ((*original)[0], 0x0f);
}

TEST(KopExecTest, FilterKeepsDropsAndAborts) {
  const CostConfig costs = DecStation5000Costs();
  KopRunState st;
  SpliceChunk keep = MakeChunk(kBlockSize, 0xab);
  SpliceChunk drop = MakeChunk(kBlockSize, 0x00);
  const KopProgram f = KeepIfFirstByteIs(0xab);
  EXPECT_EQ(KopExecChunk(f, keep, &st, costs).kind, KopOutcome::Kind::kPass);
  EXPECT_EQ(KopExecChunk(f, drop, &st, costs).kind, KopOutcome::Kind::kDrop);
  EXPECT_EQ(st.chunks_in, 2);
  EXPECT_EQ(st.chunks_dropped, 1);
  EXPECT_EQ(st.bytes_out, kBlockSize);

  SpliceChunk poison = MakeChunk(kBlockSize, 0xee);
  const KopOutcome rej =
      KopExecChunk(AbortIfFirstByteIs(0xee), poison, &st, costs);
  EXPECT_EQ(rej.kind, KopOutcome::Kind::kReject);
  EXPECT_EQ(rej.error, kErrKopReject);
  EXPECT_EQ(st.chunks_rejected, 1);
}

TEST(KopExecTest, RoutePicksSinkFromPayload) {
  const KopProgram r = RouteProgram(3);
  const CostConfig costs = DecStation5000Costs();
  KopRunState st;
  for (uint8_t b = 0; b < 7; ++b) {
    SpliceChunk c = MakeChunk(kBlockSize, b);
    const KopOutcome out = KopExecChunk(r, c, &st, costs);
    EXPECT_EQ(out.kind, KopOutcome::Kind::kPass);
    EXPECT_EQ(out.route, b % 3);
  }
}

TEST(KopExecTest, ShortChunkRejectsOutOfWindowAccess) {
  // The verifier accepted this window against full-size chunks; the last
  // chunk of a file is short, and the runtime re-check must reject rather
  // than read past the payload.
  KopProgram p;
  KopStage s;
  s.kind = KopStageKind::kChecksum;
  s.off = 100;
  s.len = 50;
  p.stages.push_back(s);
  ASSERT_TRUE(KopVerify(p, kBlockSize).empty());
  KopRunState st;
  SpliceChunk tail = MakeChunk(120, 0x42);  // window [100, 150) > 120 bytes
  const KopOutcome out = KopExecChunk(p, tail, &st, DecStation5000Costs());
  EXPECT_EQ(out.kind, KopOutcome::Kind::kReject);
  EXPECT_EQ(out.error, kErrKopReject);
}

// --- syscalls and the splice data path ------------------------------------

class KopTest : public ::testing::Test {
 protected:
  KopTest()
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

  void VerifyFile(FileSystem* fs, const std::string& name, int64_t nbytes) {
    kernel_.cache().FlushAllInstant();
    Inode* ip = fs->Lookup(name);
    ASSERT_NE(ip, nullptr);
    EXPECT_EQ(ip->size, nbytes);
    const std::vector<uint8_t> back = fs->ReadFileInstant(ip);
    ASSERT_EQ(static_cast<int64_t>(back.size()), nbytes);
    for (int64_t i = 0; i < nbytes; ++i) {
      ASSERT_EQ(back[static_cast<size_t>(i)], Fill(i)) << "byte " << i;
    }
  }

  // Every cache buffer must be acquirable after an error path: a leaked
  // buffer header would leave this loop short (fault_test's idiom).
  void VerifyNoLeakedBuffers() {
    int got = 0;
    Run([&](Process& p) -> Task<> {
      std::vector<Buf*> held;
      for (int i = 0; i < kernel_.cache().nbufs(); ++i) {
        held.push_back(co_await kernel_.cache().GetBlk(p, &scsib_, 5000 + i));
        ++got;
      }
      for (Buf* b : held) {
        kernel_.cache().Brelse(b);
      }
    });
    EXPECT_EQ(got, kernel_.cache().nbufs());
  }

  // Both in-tree trace consumers on one live run.  Every splice read must
  // close, whether written, dropped by an operator or abandoned when its
  // stream finished, and the span tree must balance.
  struct TracedRun {
    explicit TracedRun(Kernel& k) : kernel(k) {
      telemetry.Attach(&log);
      builder.Attach(&log);
      AttachKspan(&spans);
      kernel.AttachTrace(&log);
    }
    ~TracedRun() {
      kernel.AttachTrace(nullptr);
      AttachKspan(nullptr);
    }

    uint64_t Count(TraceKind kind) const {
      return log.Filter([kind](const TraceRecord& r) { return r.kind == kind; }).size();
    }

    void ExpectEveryReadClosed() {
      ASSERT_EQ(log.dropped(), 0u);
      EXPECT_EQ(telemetry.PendingIntervals(), 0u);
      EXPECT_EQ(builder.PendingIntervals(), 0u);
      EXPECT_EQ(builder.derived().at("splice.chunk"), Count(TraceKind::kSpliceRead));
      EXPECT_EQ(registry.Histogram("splice.chunk_latency")->count(),
                Count(TraceKind::kSpliceChunk));
      std::string err;
      EXPECT_TRUE(spans.CheckBalanced(&err)) << err;
    }

    Kernel& kernel;
    TraceLog log{1 << 14};
    MetricsRegistry registry;
    TelemetryCollector telemetry{&registry};
    KspanCollector spans;
    SpanTraceBuilder builder{&spans};
  };

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

TEST_F(KopTest, KopLoadVerifiesAndMintsIds) {
  int bad = 0;
  int id1 = 0;
  int id2 = 0;
  Run([&](Process& p) -> Task<> {
    KopProgram broken;  // empty-program: the verifier must refuse it
    bad = co_await kernel_.KopLoad(p, broken);
    id1 = co_await kernel_.KopLoad(p, ChecksumProgram());
    id2 = co_await kernel_.KopLoad(p, KeepIfFirstByteIs(0xab));
  });
  EXPECT_EQ(bad, -1);
  EXPECT_GT(id1, 0);
  EXPECT_GT(id2, id1);
  EXPECT_EQ(kernel_.stats().kop_loads, 2u);
  EXPECT_EQ(kernel_.stats().kop_load_failures, 1u);
}

TEST_F(KopTest, KopAttachBindsDetachesAndRefusesUnknownIds) {
  fs_rama_->CreateFileInstant("src", 4 * kBlockSize, Fill);
  int attach_ok = -2;
  int detach_ok = -2;
  int attach_unknown = -2;
  int attach_badfd = -2;
  Run([&](Process& p) -> Task<> {
    const int fd = co_await kernel_.Open(p, "rama:src", kOpenRead);
    const int id = co_await kernel_.KopLoad(p, ChecksumProgram());
    attach_ok = co_await kernel_.KopAttach(p, fd, id);
    detach_ok = co_await kernel_.KopAttach(p, fd, 0);
    attach_unknown = co_await kernel_.KopAttach(p, fd, 99);
    attach_badfd = co_await kernel_.KopAttach(p, 999, id);
  });
  EXPECT_EQ(attach_ok, 0);
  EXPECT_EQ(detach_ok, 0);
  EXPECT_EQ(attach_unknown, -1);
  EXPECT_EQ(attach_badfd, -1);
  EXPECT_EQ(kernel_.stats().kop_attaches, 1u);
}

TEST_F(KopTest, ChecksumOperatorLeavesSpliceByteIdentical) {
  constexpr int64_t kBytes = 16 * kBlockSize;
  fs_rama_->CreateFileInstant("src", kBytes, Fill);
  int64_t moved = -1;
  Run([&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "rama:src", kOpenRead);
    const int dst = co_await kernel_.Open(p, "ramb:dst", kOpenWrite | kOpenCreate);
    const int id = co_await kernel_.KopLoad(p, ChecksumProgram());
    EXPECT_EQ(co_await kernel_.KopAttach(p, src, id), 0);
    moved = co_await kernel_.Splice(p, src, dst, kSpliceEof);
  });
  EXPECT_EQ(moved, kBytes);
  VerifyFile(fs_ramb_, "dst", kBytes);
  const SpliceEngine::Stats& s = kernel_.splice_engine().stats();
  EXPECT_EQ(s.kop_chunks_in, 16u);
  EXPECT_EQ(s.kop_chunks_dropped, 0u);
  EXPECT_EQ(s.kop_bytes_in, kBytes);
  EXPECT_EQ(s.kop_bytes_out, kBytes);
  EXPECT_GT(s.kop_exec_time, 0);
}

TEST_F(KopTest, FilterProgramRefusedOverRegularFileSink) {
  // A dropping operator over a file sink would punch holes in the byte
  // offsets; the bind check refuses with EINVAL before any data moves.
  fs_rama_->CreateFileInstant("src", 4 * kBlockSize, Fill);
  int64_t rval = 0;
  int err_src = -1;
  int err_dst = -1;
  Run([&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "rama:src", kOpenRead);
    const int dst = co_await kernel_.Open(p, "ramb:dst", kOpenWrite | kOpenCreate);
    const int id = co_await kernel_.KopLoad(p, KeepIfFirstByteIs(0xab));
    EXPECT_EQ(co_await kernel_.KopAttach(p, src, id), 0);
    rval = co_await kernel_.Splice(p, src, dst, kSpliceEof);
    err_src = co_await kernel_.SpliceError(p, src);
    err_dst = co_await kernel_.SpliceError(p, dst);
  });
  EXPECT_EQ(rval, -1);
  EXPECT_EQ(err_src, kErrInval);
  EXPECT_EQ(err_dst, kErrInval);
  EXPECT_EQ(kernel_.splice_engine().stats().kop_chunks_in, 0u);
}

TEST_F(KopTest, FilterDropsNinetyPercentInKernel) {
  // 20 blocks, every 10th tagged 0xAB in its first byte: the operator keeps
  // 2 chunks and consumes 18 inside the kernel, and the splice returns only
  // the delivered bytes.
  constexpr int kBlocks = 20;
  constexpr int64_t kBytes = kBlocks * kBlockSize;
  fs_rama_->CreateFileInstant("src", kBytes, [](int64_t i) -> uint8_t {
    if (i % kBlockSize == 0) {
      return (i / kBlockSize) % 10 == 0 ? 0xab : 0x00;
    }
    return Fill(i);
  });
  UdpSocket sa(&kernel_.cpu());
  UdpSocket sb(&kernel_.cpu(), 48 * 1024, 256 * 1024);
  NetworkLink wire(&sim_, EthernetParams());
  sa.ConnectTo(&sb, &wire);
  TracedRun traced(kernel_);

  int64_t moved = -1;
  kernel_.Spawn("sender", [&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "rama:src", kOpenRead);
    const int sock = kernel_.OpenSocket(p, &sa);
    const int id = co_await kernel_.KopLoad(p, KeepIfFirstByteIs(0xab));
    EXPECT_EQ(co_await kernel_.KopAttach(p, src, id), 0);
    moved = co_await kernel_.Splice(p, src, sock, kSpliceEof);
    co_await kernel_.Write(p, sock, nullptr, 0);  // EOF marker
  });
  int64_t received = 0;
  bool tags_ok = true;
  kernel_.Spawn("receiver", [&](Process& p) -> Task<> {
    const int sock = kernel_.OpenSocket(p, &sb);
    std::vector<uint8_t> buf;
    for (;;) {
      const int64_t n = co_await kernel_.Read(p, sock, kBlockSize, &buf);
      if (n == 0) {
        break;
      }
      if (n < 0) {
        continue;
      }
      tags_ok = tags_ok && buf[0] == 0xab;  // only tagged blocks got through
      received += n;
    }
  });
  sim_.Run();
  ASSERT_EQ(kernel_.cpu().alive(), 0);
  EXPECT_EQ(moved, 2 * kBlockSize);
  EXPECT_EQ(received, 2 * kBlockSize);
  EXPECT_TRUE(tags_ok);
  const SpliceEngine::Stats& s = kernel_.splice_engine().stats();
  EXPECT_EQ(s.kop_chunks_in, static_cast<uint64_t>(kBlocks));
  EXPECT_EQ(s.kop_chunks_dropped, 18u);
  EXPECT_EQ(s.kop_bytes_out, 2 * kBlockSize);
  // The 18 dropped reads close on their kKopDrop, not as leaked intervals,
  // and only the 2 written chunks are read-to-write latency samples.
  EXPECT_EQ(traced.Count(TraceKind::kSpliceRead), static_cast<uint64_t>(kBlocks));
  EXPECT_EQ(traced.Count(TraceKind::kSpliceChunk), 2u);
  traced.ExpectEveryReadClosed();
}

TEST_F(KopTest, MidStreamRejectIsStickyAndLeaksNothing) {
  // Block 5 carries the poison byte: the stream aborts there with the
  // operator's own errno, sticky-first on both descriptors, and every
  // buffer header is released.
  constexpr int64_t kBytes = 8 * kBlockSize;
  fs_rama_->CreateFileInstant("src", kBytes, [](int64_t i) -> uint8_t {
    if (i % kBlockSize == 0) {
      return i / kBlockSize == 5 ? 0xee : 0x00;
    }
    return Fill(i);
  });
  UdpSocket sa(&kernel_.cpu());
  UdpSocket sb(&kernel_.cpu(), 48 * 1024, 256 * 1024);
  NetworkLink wire(&sim_, EthernetParams());
  sa.ConnectTo(&sb, &wire);
  TracedRun traced(kernel_);

  int64_t rval = 0;
  int err_src = -1;
  int err_sock = -1;
  int err_src_again = -1;
  int err_after_clean = -1;
  Run([&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "rama:src", kOpenRead);
    const int sock = kernel_.OpenSocket(p, &sa);
    const int id = co_await kernel_.KopLoad(p, AbortIfFirstByteIs(0xee));
    EXPECT_EQ(co_await kernel_.KopAttach(p, src, id), 0);
    rval = co_await kernel_.Splice(p, src, sock, kSpliceEof);
    err_src = co_await kernel_.SpliceError(p, src);
    err_sock = co_await kernel_.SpliceError(p, sock);
    err_src_again = co_await kernel_.SpliceError(p, src);
    // A subsequent clean splice (the fd is at EOF) resets the errno.
    EXPECT_EQ(co_await kernel_.KopAttach(p, src, 0), 0);
    EXPECT_EQ(co_await kernel_.Splice(p, src, sock, kSpliceEof), 0);
    err_after_clean = co_await kernel_.SpliceError(p, src);
  });
  EXPECT_EQ(rval, -1);
  EXPECT_EQ(err_src, kErrKopReject);
  EXPECT_EQ(err_sock, kErrKopReject);
  EXPECT_EQ(err_src_again, kErrKopReject);  // sticky until the next splice
  EXPECT_EQ(err_after_clean, 0);
  EXPECT_EQ(kernel_.splice_engine().active(), 0);
  EXPECT_EQ(kernel_.splice_engine().stats().kop_chunks_rejected, 1u);
  VerifyNoLeakedBuffers();
  // Reads still in flight at the reject close when the stream finishes.
  EXPECT_GT(traced.Count(TraceKind::kSpliceRead), traced.Count(TraceKind::kSpliceChunk));
  traced.ExpectEveryReadClosed();
}

TEST_F(KopTest, RingSqeRunsOperatorAndReportsInCqe) {
  constexpr int64_t kBytes = 8 * kBlockSize;
  fs_rama_->CreateFileInstant("s0", kBytes, Fill);
  fs_rama_->CreateFileInstant("s1", kBytes, Fill);
  std::vector<SpliceCqe> cqes(2);
  int harvested = -1;
  Run([&](Process& p) -> Task<> {
    const int ring = co_await kernel_.RingSetup(p, RingConfig{});
    const int id = co_await kernel_.KopLoad(p, ChecksumProgram());
    for (int i = 0; i < 2; ++i) {
      const int src = co_await kernel_.Open(p, "rama:s" + std::to_string(i), kOpenRead);
      const int dst = co_await kernel_.Open(p, "ramb:d" + std::to_string(i),
                                            kOpenWrite | kOpenCreate);
      SpliceSqe sqe;
      sqe.src_fd = src;
      sqe.dst_fd = dst;
      sqe.nbytes = kBytes;
      sqe.cookie = static_cast<uint64_t>(i);
      sqe.kop_id = i == 0 ? id : 0;  // operator on stream 0 only
      EXPECT_EQ(kernel_.RingPrepare(p, ring, sqe), 0);
    }
    EXPECT_EQ(co_await kernel_.RingEnter(p, ring, 2, 2), 2);
    harvested = kernel_.RingHarvest(p, ring, cqes.data(), 2);
  });
  ASSERT_EQ(harvested, 2);
  for (const SpliceCqe& c : cqes) {
    EXPECT_EQ(c.error, 0);
    EXPECT_EQ(c.result, kBytes);
    if (c.cookie == 0) {
      EXPECT_TRUE(c.kop_active);
      EXPECT_NE(c.kop_checksum, 0u);
      EXPECT_EQ(c.kop_dropped, 0);
    } else {
      EXPECT_FALSE(c.kop_active);
      EXPECT_EQ(c.kop_checksum, 0u);
    }
  }
  VerifyFile(fs_ramb_, "d0", kBytes);
  VerifyFile(fs_ramb_, "d1", kBytes);
}

TEST_F(KopTest, RingRefusesUnknownKopIdAtAdmission) {
  constexpr int64_t kBytes = 4 * kBlockSize;
  fs_rama_->CreateFileInstant("src", kBytes, Fill);
  std::vector<SpliceCqe> cqes(1);
  int harvested = -1;
  uint64_t engine_started = 0;
  Run([&](Process& p) -> Task<> {
    const int ring = co_await kernel_.RingSetup(p, RingConfig{});
    const int src = co_await kernel_.Open(p, "rama:src", kOpenRead);
    const int dst = co_await kernel_.Open(p, "ramb:dst", kOpenWrite | kOpenCreate);
    SpliceSqe sqe;
    sqe.src_fd = src;
    sqe.dst_fd = dst;
    sqe.nbytes = kBytes;
    sqe.cookie = 7;
    sqe.kop_id = 42;  // never loaded
    kernel_.RingPrepare(p, ring, sqe);
    EXPECT_EQ(co_await kernel_.RingEnter(p, ring, 1, 1), 1);
    harvested = kernel_.RingHarvest(p, ring, cqes.data(), 1);
    engine_started = kernel_.splice_engine().stats().splices_started;
  });
  ASSERT_EQ(harvested, 1);
  EXPECT_EQ(cqes[0].cookie, 7u);
  EXPECT_EQ(cqes[0].error, kErrInval);
  EXPECT_FALSE(cqes[0].kop_active);
  EXPECT_EQ(engine_started, 0u);
}

TEST_F(KopTest, RingKopRejectCancelsLinkedSiblingWithOneCqeEach) {
  // Stage 1 (file -> pipe) carries an aborting operator that trips on block
  // 4; the LINKED stage 2 (pipe -> file) must be torn down with ECANCELED
  // and each SQE must produce exactly one CQE.
  constexpr int64_t kBytes = 16 * kBlockSize;
  fs_rama_->CreateFileInstant("src", kBytes, [](int64_t i) -> uint8_t {
    if (i % kBlockSize == 0) {
      return i / kBlockSize == 4 ? 0xee : 0x00;
    }
    return Fill(i);
  });
  std::vector<SpliceCqe> cqes(4);
  int harvested = -1;
  Run([&](Process& p) -> Task<> {
    const int ring = co_await kernel_.RingSetup(p, RingConfig{});
    const int src = co_await kernel_.Open(p, "rama:src", kOpenRead);
    const int dst = co_await kernel_.Open(p, "ramb:dst", kOpenWrite | kOpenCreate);
    int pr = -1;
    int pw = -1;
    EXPECT_EQ(co_await kernel_.CreatePipe(p, &pr, &pw), 0);
    const int id = co_await kernel_.KopLoad(p, AbortIfFirstByteIs(0xee));
    SpliceSqe s1;
    s1.src_fd = src;
    s1.dst_fd = pw;
    s1.nbytes = kBytes;
    s1.flags = kSqeLinked;
    s1.cookie = 1;
    s1.kop_id = id;
    SpliceSqe s2;
    s2.src_fd = pr;
    s2.dst_fd = dst;
    s2.nbytes = kBytes;
    s2.cookie = 2;
    kernel_.RingPrepare(p, ring, s1);
    kernel_.RingPrepare(p, ring, s2);
    // min_complete=2: a lost sibling CQE would deadlock here and Run()
    // would report the process as stuck.
    EXPECT_EQ(co_await kernel_.RingEnter(p, ring, 2, 2), 2);
    harvested = kernel_.RingHarvest(p, ring, cqes.data(), 4);
  });
  ASSERT_EQ(harvested, 2);  // one CQE per SQE: none lost, none duplicated
  const SpliceCqe* c1 = nullptr;
  const SpliceCqe* c2 = nullptr;
  for (int i = 0; i < harvested; ++i) {
    if (cqes[static_cast<size_t>(i)].cookie == 1) c1 = &cqes[static_cast<size_t>(i)];
    if (cqes[static_cast<size_t>(i)].cookie == 2) c2 = &cqes[static_cast<size_t>(i)];
  }
  ASSERT_NE(c1, nullptr);
  ASSERT_NE(c2, nullptr);
  EXPECT_EQ(c1->error, kErrKopReject);  // the operator's errno, preserved
  EXPECT_TRUE(c1->kop_active);
  EXPECT_LT(c1->result, kBytes);
  EXPECT_EQ(c2->error, kErrCanceled);
  EXPECT_EQ(kernel_.splice_engine().active(), 0);
  VerifyNoLeakedBuffers();
}

TEST_F(KopTest, SpliceMultiRoutesChunksAcrossSinks) {
  // 8 blocks whose first byte alternates 0/1: a 2-way route program must
  // steer the even blocks to sink 0 and the odd blocks to sink 1.
  constexpr int kBlocks = 8;
  constexpr int64_t kBytes = kBlocks * kBlockSize;
  fs_rama_->CreateFileInstant("src", kBytes, [](int64_t i) -> uint8_t {
    if (i % kBlockSize == 0) {
      return static_cast<uint8_t>((i / kBlockSize) % 2);
    }
    return Fill(i);
  });
  UdpSocket sa0(&kernel_.cpu());
  UdpSocket sb0(&kernel_.cpu(), 48 * 1024, 256 * 1024);
  UdpSocket sa1(&kernel_.cpu());
  UdpSocket sb1(&kernel_.cpu(), 48 * 1024, 256 * 1024);
  NetworkLink w0(&sim_, EthernetParams());
  NetworkLink w1(&sim_, EthernetParams());
  sa0.ConnectTo(&sb0, &w0);
  sa1.ConnectTo(&sb1, &w1);

  int64_t moved = -1;
  kernel_.Spawn("sender", [&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "rama:src", kOpenRead);
    const int d0 = kernel_.OpenSocket(p, &sa0);
    const int d1 = kernel_.OpenSocket(p, &sa1);
    const int id = co_await kernel_.KopLoad(p, RouteProgram(2));
    EXPECT_EQ(co_await kernel_.KopAttach(p, src, id), 0);
    const std::vector<int> dsts = {d0, d1};
    moved = co_await kernel_.SpliceMulti(p, src, dsts, kSpliceEof);
    co_await kernel_.Write(p, d0, nullptr, 0);  // EOF markers
    co_await kernel_.Write(p, d1, nullptr, 0);
  });
  int64_t got0 = 0;
  int64_t got1 = 0;
  bool routing_ok = true;
  auto receiver = [&](UdpSocket* s, int64_t* got, uint8_t tag) {
    return [&, s, got, tag](Process& p) -> Task<> {
      const int sock = kernel_.OpenSocket(p, s);
      std::vector<uint8_t> buf;
      for (;;) {
        const int64_t n = co_await kernel_.Read(p, sock, kBlockSize, &buf);
        if (n == 0) {
          break;
        }
        if (n < 0) {
          continue;
        }
        routing_ok = routing_ok && buf[0] == tag;
        *got += n;
      }
    };
  };
  kernel_.Spawn("recv0", receiver(&sb0, &got0, 0));
  kernel_.Spawn("recv1", receiver(&sb1, &got1, 1));
  sim_.Run();
  ASSERT_EQ(kernel_.cpu().alive(), 0);
  EXPECT_EQ(moved, kBytes);
  EXPECT_EQ(got0, 4 * kBlockSize);
  EXPECT_EQ(got1, 4 * kBlockSize);
  EXPECT_TRUE(routing_ok);
}

TEST_F(KopTest, SpliceMultiRefusesMismatchedSinkSets) {
  fs_rama_->CreateFileInstant("src", 4 * kBlockSize, Fill);
  int64_t no_program = 0;
  int64_t wrong_fanout = 0;
  int64_t file_sink = 0;
  int err_src = -1;
  UdpSocket sa(&kernel_.cpu());
  UdpSocket sb(&kernel_.cpu());
  Run([&](Process& p) -> Task<> {
    const int src = co_await kernel_.Open(p, "rama:src", kOpenRead);
    const int d0 = kernel_.OpenSocket(p, &sa);
    const int d1 = kernel_.OpenSocket(p, &sb);
    // No route program attached at all.
    const std::vector<int> dsts = {d0, d1};
    no_program = co_await kernel_.SpliceMulti(p, src, dsts, kSpliceEof);
    err_src = co_await kernel_.SpliceError(p, src);
    // A 3-way route over a 2-sink destination list.
    const int id = co_await kernel_.KopLoad(p, RouteProgram(3));
    EXPECT_EQ(co_await kernel_.KopAttach(p, src, id), 0);
    wrong_fanout = co_await kernel_.SpliceMulti(p, src, dsts, kSpliceEof);
    // Seekable destinations are refused outright.
    const int f = co_await kernel_.Open(p, "ramb:dst", kOpenWrite | kOpenCreate);
    const std::vector<int> mixed = {d0, f};
    file_sink = co_await kernel_.SpliceMulti(p, src, mixed, kSpliceEof);
  });
  EXPECT_EQ(no_program, -1);
  EXPECT_EQ(err_src, kErrInval);
  EXPECT_EQ(wrong_fanout, -1);
  EXPECT_EQ(file_sink, -1);
  EXPECT_EQ(kernel_.splice_engine().stats().splices_started, 0u);
}

TEST_F(KopTest, FasyncSpliceMultiSignalsAndSettlesEveryEnd) {
  // FASYNC on the source makes splice_multi asynchronous: the call returns 0
  // at once, and the completion records its outcome and clears the
  // in-flight flag on the source and on every destination before SIGIO.
  constexpr int kBlocks = 8;
  fs_rama_->CreateFileInstant("src", kBlocks * kBlockSize, [](int64_t i) -> uint8_t {
    return i % kBlockSize == 0 ? static_cast<uint8_t>((i / kBlockSize) % 2) : Fill(i);
  });
  NullDevice null0(&sim_);
  NullDevice null1(&sim_);
  kernel_.RegisterCharDev("null0", &null0);
  kernel_.RegisterCharDev("null1", &null1);
  int sigio = 0;
  int64_t rval = -1;
  int in_flight = -1;
  std::vector<int> errors;
  std::vector<int> status;
  Run([&](Process& p) -> Task<> {
    kernel_.Sigaction(p, kSigIo, [&] { ++sigio; });
    const int src = co_await kernel_.Open(p, "rama:src", kOpenRead);
    const int d0 = co_await kernel_.Open(p, "/dev/null0", kOpenWrite);
    const int d1 = co_await kernel_.Open(p, "/dev/null1", kOpenWrite);
    const int id = co_await kernel_.KopLoad(p, RouteProgram(2));
    EXPECT_EQ(co_await kernel_.KopAttach(p, src, id), 0);
    co_await kernel_.Fcntl(p, src, /*fasync=*/true);
    const std::vector<int> dsts = {d0, d1};
    rval = co_await kernel_.SpliceMulti(p, src, dsts, kSpliceEof);
    in_flight = co_await kernel_.SpliceStatus(p, d1);
    co_await kernel_.Pause(p);
    for (const int fd : {src, d0, d1}) {
      errors.push_back(co_await kernel_.SpliceError(p, fd));
      status.push_back(co_await kernel_.SpliceStatus(p, fd));
    }
  });
  EXPECT_EQ(rval, 0);
  EXPECT_EQ(in_flight, 1);
  EXPECT_EQ(sigio, 1);
  EXPECT_EQ(errors, (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(status, (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(null0.bytes_sunk(), 4 * kBlockSize);
  EXPECT_EQ(null1.bytes_sunk(), 4 * kBlockSize);
}

TEST_F(KopTest, AttributionClosureHoldsWithOperatorsAttached) {
  // Operators run from every context the data path has — the syscall layer
  // (load-time verification, parked sync charges), interrupt/softclock chunk
  // execution, and the ring reaper's completion pass.  The ledger must still
  // close exactly, with the kop refinement buckets populated.
  constexpr int64_t kBytes = 16 * kBlockSize;
  fs_scsia_->CreateFileInstant("sync_src", kBytes, Fill);
  fs_scsia_->CreateFileInstant("ring_src", kBytes, Fill);
  std::vector<SpliceCqe> cqes(1);
  Run([&](Process& p) -> Task<> {
    const int id = co_await kernel_.KopLoad(p, ChecksumProgram());
    // Sync splice with the operator bound to the source.
    const int s1 = co_await kernel_.Open(p, "scsia:sync_src", kOpenRead);
    const int d1 = co_await kernel_.Open(p, "ramb:sync_dst", kOpenWrite | kOpenCreate);
    EXPECT_EQ(co_await kernel_.KopAttach(p, s1, id), 0);
    EXPECT_EQ(co_await kernel_.Splice(p, s1, d1, kSpliceEof), kBytes);
    // Ring splice with the operator named in the SQE.
    const int ring = co_await kernel_.RingSetup(p, RingConfig{});
    const int s2 = co_await kernel_.Open(p, "scsia:ring_src", kOpenRead);
    const int d2 = co_await kernel_.Open(p, "ramb:ring_dst", kOpenWrite | kOpenCreate);
    SpliceSqe sqe;
    sqe.src_fd = s2;
    sqe.dst_fd = d2;
    sqe.nbytes = kBytes;
    sqe.cookie = 1;
    sqe.kop_id = id;
    kernel_.RingPrepare(p, ring, sqe);
    EXPECT_EQ(co_await kernel_.RingEnter(p, ring, 1, 1), 1);
    EXPECT_EQ(kernel_.RingHarvest(p, ring, cqes.data(), 1), 1);
  });
  EXPECT_EQ(cqes[0].error, 0);
  EXPECT_TRUE(cqes[0].kop_active);

  std::string err;
  EXPECT_TRUE(kernel_.cpu().CheckAttributionClosure(&err)) << err;

  SimDuration kop_total = 0;
  std::set<CpuSystem::ChargeBucket> kop_buckets;
  for (const auto& [key, ns] : kernel_.cpu().attribution()) {
    if (key.bucket == CpuSystem::ChargeBucket::kKopProcess ||
        key.bucket == CpuSystem::ChargeBucket::kKopInterrupt ||
        key.bucket == CpuSystem::ChargeBucket::kKopSoftclock) {
      kop_total += ns;
      kop_buckets.insert(key.bucket);
    }
  }
  EXPECT_GT(kop_total, 0);
  // Load-time verification and parked sync-path charges bill the process...
  EXPECT_TRUE(kop_buckets.count(CpuSystem::ChargeBucket::kKopProcess));
  // ...and the ring reaper's per-op finalization always runs at softclock.
  EXPECT_TRUE(kop_buckets.count(CpuSystem::ChargeBucket::kKopSoftclock));
}

}  // namespace
}  // namespace ikdp
