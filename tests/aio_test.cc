// Tests for the asynchronous splice ring (src/aio/): batched submission in
// one trap, trapless harvest, SQ backpressure (EAGAIN and block-on-full),
// cancellation, LINKED pipeline groups, CQ overflow staging, and the ring's
// trace/telemetry surface.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/dev/disk_driver.h"
#include "src/dev/ram_disk.h"
#include "src/hw/costs.h"
#include "src/hw/disk.h"
#include "src/metrics/telemetry.h"
#include "src/metrics/trace_export.h"
#include "src/os/kernel.h"
#include "src/sim/kspan.h"
#include "src/sim/simulator.h"

namespace ikdp {
namespace {

uint8_t Fill(int64_t i) { return static_cast<uint8_t>((i * 40503u + 13) >> 3 & 0xff); }

// "s3"-style names, built with append: GCC 12 Release builds misreport
// `"s" + std::to_string(i)` as an overlapping memcpy (-Werror=restrict).
std::string Indexed(const char* prefix, int i) {
  return std::string(prefix).append(std::to_string(i));
}

class AioTest : public ::testing::Test {
 protected:
  AioTest()
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

TEST_F(AioTest, BatchSubmitsInOneTrapAndCompletesAll) {
  constexpr int kStreams = 4;
  constexpr int64_t kBytes = 8 * kBlockSize;
  for (int i = 0; i < kStreams; ++i) {
    fs_rama_->CreateFileInstant(Indexed("s", i), kBytes, Fill);
  }
  int entered = -1;
  int harvested = -1;
  std::vector<SpliceCqe> cqes(kStreams);
  uint64_t traps_for_enter = 0;
  Run([&](Process& p) -> Task<> {
    const int ring = co_await kernel_.RingSetup(p, RingConfig{});
    EXPECT_GT(ring, 0);
    for (int i = 0; i < kStreams; ++i) {
      const int src = co_await kernel_.Open(p, Indexed("rama:s", i), kOpenRead);
      const int dst = co_await kernel_.Open(p, Indexed("ramb:d", i),
                                            kOpenWrite | kOpenCreate);
      SpliceSqe sqe;
      sqe.src_fd = src;
      sqe.dst_fd = dst;
      sqe.nbytes = kBytes;
      sqe.cookie = 100 + static_cast<uint64_t>(i);
      EXPECT_EQ(kernel_.RingPrepare(p, ring, sqe), 0);
    }
    const uint64_t traps_before = p.stats().syscall_traps;
    entered = co_await kernel_.RingEnter(p, ring, kStreams, kStreams);
    traps_for_enter = p.stats().syscall_traps - traps_before;
    // Harvest never traps.
    harvested = kernel_.RingHarvest(p, ring, cqes.data(), kStreams);
    EXPECT_EQ(p.stats().syscall_traps - traps_before, traps_for_enter);
  });
  EXPECT_EQ(entered, kStreams);
  // The whole batch cost exactly ONE kernel entry.
  EXPECT_EQ(traps_for_enter, 1u);
  ASSERT_EQ(harvested, kStreams);
  std::vector<bool> seen(kStreams, false);
  for (const SpliceCqe& c : cqes) {
    const int idx = static_cast<int>(c.cookie) - 100;
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, kStreams);
    seen[static_cast<size_t>(idx)] = true;
    EXPECT_EQ(c.error, 0);
    EXPECT_EQ(c.result, kBytes);
    EXPECT_GT(c.latency, 0);
  }
  for (bool s : seen) {
    EXPECT_TRUE(s);
  }
  for (int i = 0; i < kStreams; ++i) {
    VerifyFile(fs_ramb_, Indexed("d", i), kBytes);
  }
}

TEST_F(AioTest, SqFullReturnsEagainThenRecovers) {
  constexpr int64_t kBytes = 8 * kBlockSize;
  for (int i = 0; i < 4; ++i) {
    fs_rama_->CreateFileInstant(Indexed("s", i), kBytes, Fill);
  }
  RingConfig cfg;
  cfg.sq_entries = 2;
  int first = -1;
  int bounced = 0;
  int second = -1;
  int third = -1;
  uint64_t eagains = 0;
  Run([&](Process& p) -> Task<> {
    const int ring = co_await kernel_.RingSetup(p, cfg);
    for (int i = 0; i < 4; ++i) {
      const int src = co_await kernel_.Open(p, Indexed("rama:s", i), kOpenRead);
      const int dst = co_await kernel_.Open(p, Indexed("ramb:d", i),
                                            kOpenWrite | kOpenCreate);
      SpliceSqe sqe;
      sqe.src_fd = src;
      sqe.dst_fd = dst;
      sqe.nbytes = kBytes;
      sqe.cookie = static_cast<uint64_t>(i);
      kernel_.RingPrepare(p, ring, sqe);
    }
    // Only 2 of 4 fit under the SQ cap: partial admission, not an error.
    first = co_await kernel_.RingEnter(p, ring, 4, 0);
    // The queue is still full, so a second submit bounces with EAGAIN.
    bounced = co_await kernel_.RingEnter(p, ring, 2, 0);
    // to_submit = 0 turns RingEnter into a pure completion wait.
    co_await kernel_.RingEnter(p, ring, 0, 2);
    std::vector<SpliceCqe> cqes(4);
    third = kernel_.RingHarvest(p, ring, cqes.data(), 4);
    EXPECT_EQ(third, 2);  // freeing SQ slots for the bounced pair
    second = co_await kernel_.RingEnter(p, ring, 2, 2);
    third += kernel_.RingHarvest(p, ring, cqes.data() + third, 4 - third);
    for (const SpliceCqe& c : cqes) {
      EXPECT_EQ(c.error, 0);
    }
    eagains = kernel_.GetRing(p, ring)->stats().eagain_returns;
  });
  EXPECT_EQ(first, 2);
  EXPECT_EQ(bounced, -kErrAgain);
  EXPECT_EQ(second, 2);
  EXPECT_EQ(third, 4);
  EXPECT_EQ(eagains, 1u);
  for (int i = 0; i < 4; ++i) {
    VerifyFile(fs_ramb_, Indexed("d", i), kBytes);
  }
}

TEST_F(AioTest, BlockOnFullSleepsUntilTheReaperFreesSlots) {
  constexpr int64_t kBytes = 8 * kBlockSize;
  fs_rama_->CreateFileInstant("s0", kBytes, Fill);
  fs_rama_->CreateFileInstant("s1", kBytes, Fill);
  RingConfig cfg;
  cfg.sq_entries = 1;
  cfg.block_on_full = true;
  int entered = -1;
  int harvested = -1;
  Run([&](Process& p) -> Task<> {
    const int ring = co_await kernel_.RingSetup(p, cfg);
    for (int i = 0; i < 2; ++i) {
      const int src = co_await kernel_.Open(p, Indexed("rama:s", i), kOpenRead);
      const int dst = co_await kernel_.Open(p, Indexed("ramb:d", i),
                                            kOpenWrite | kOpenCreate);
      SpliceSqe sqe;
      sqe.src_fd = src;
      sqe.dst_fd = dst;
      sqe.nbytes = kBytes;
      sqe.cookie = static_cast<uint64_t>(i);
      kernel_.RingPrepare(p, ring, sqe);
    }
    // The second SQE does not fit until the first op's completion posts;
    // block_on_full makes this one call sleep through that instead of
    // bouncing.
    entered = co_await kernel_.RingEnter(p, ring, 2, 2);
    std::vector<SpliceCqe> cqes(2);
    harvested = kernel_.RingHarvest(p, ring, cqes.data(), 2);
  });
  EXPECT_EQ(entered, 2);
  EXPECT_EQ(harvested, 2);
  VerifyFile(fs_ramb_, "d0", kBytes);
  VerifyFile(fs_ramb_, "d1", kBytes);
}

TEST_F(AioTest, CancelQueuedOpButNotStartedOrUnknown) {
  // The started op is a 4 MB SCSI-to-SCSI transfer (hundreds of ms) so it
  // is still in flight when the cancels run; max_inflight = 1 holds the
  // second op in the ring's queue behind it.
  constexpr int64_t kBigBytes = 512 * kBlockSize;
  constexpr int64_t kSmallBytes = 8 * kBlockSize;
  fs_scsia_->CreateFileInstant("s0", kBigBytes, Fill);
  fs_scsia_->CreateFileInstant("s1", kSmallBytes, Fill);
  RingConfig cfg;
  cfg.max_inflight = 1;  // the second op must wait in the queue
  int cancel_queued = -1;
  int cancel_started = -1;
  int cancel_unknown = -1;
  std::vector<SpliceCqe> cqes;
  Run([&](Process& p) -> Task<> {
    const int ring = co_await kernel_.RingSetup(p, cfg);
    for (int i = 0; i < 2; ++i) {
      const int src = co_await kernel_.Open(p, Indexed("scsia:s", i), kOpenRead);
      const int dst = co_await kernel_.Open(p, Indexed("scsib:d", i),
                                            kOpenWrite | kOpenCreate);
      SpliceSqe sqe;
      sqe.src_fd = src;
      sqe.dst_fd = dst;
      sqe.nbytes = i == 0 ? kBigBytes : kSmallBytes;
      sqe.cookie = 10 + static_cast<uint64_t>(i);
      kernel_.RingPrepare(p, ring, sqe);
    }
    EXPECT_EQ(co_await kernel_.RingEnter(p, ring, 2, 0), 2);
    cancel_started = co_await kernel_.RingCancel(p, ring, 10);
    cancel_queued = co_await kernel_.RingCancel(p, ring, 11);
    cancel_unknown = co_await kernel_.RingCancel(p, ring, 99);
    co_await kernel_.RingEnter(p, ring, 0, 2);
    cqes.resize(2);
    EXPECT_EQ(kernel_.RingHarvest(p, ring, cqes.data(), 2), 2);
  });
  EXPECT_EQ(cancel_started, -kErrBusy);
  EXPECT_EQ(cancel_queued, 0);
  EXPECT_EQ(cancel_unknown, -kErrNoent);
  for (const SpliceCqe& c : cqes) {
    if (c.cookie == 10) {
      EXPECT_EQ(c.error, 0);
      EXPECT_EQ(c.result, kBigBytes);
    } else {
      EXPECT_EQ(c.cookie, 11u);
      EXPECT_EQ(c.error, kErrCanceled);
      EXPECT_EQ(c.result, 0);
    }
  }
  VerifyFile(fs_scsib_, "d0", kBigBytes);
}

// Waves through a four-entry ring with one op in flight: each wave queues
// three ops behind a running one, cancels the middle of the queue, queues
// one more op once the cancelled slots are reaped (a stale queue link would
// lose it), then fails an SQE with a bad descriptor.  In one wave the
// middle and tail ops are a LINKED pair, so the cancel takes the tail too.
// The completions must come out in retire order, wave after wave, while the
// ring recycles its op storage.
TEST_F(AioTest, MidQueueCancelKeepsFifoAndRecyclesSlots) {
  constexpr int kWaves = 12;     // 3 x sq_entries
  constexpr int kGroupWave = 5;  // the wave whose tail two ops are LINKED
  constexpr int64_t kBig = 32 * kBlockSize;
  constexpr int64_t kSmall = 2 * kBlockSize;
  fs_rama_->CreateFileInstant("big", kBig, Fill);
  fs_rama_->CreateFileInstant("small", kSmall, Fill);
  RingConfig cfg;
  cfg.sq_entries = 4;
  cfg.max_inflight = 1;
  struct Seen {
    uint64_t cookie;
    int64_t result;
    int error;
    bool operator==(const Seen&) const = default;
  };
  std::vector<Seen> seen;
  std::vector<Seen> want;
  std::vector<int> cancels;
  SpliceRing::Stats stats;
  Run([&](Process& p) -> Task<> {
    const int ring = co_await kernel_.RingSetup(p, cfg);
    std::vector<int> fds;
    // Prepares op `k` of a wave: op 0 is the long one, the rest are short.
    auto prepare = [&](uint64_t base, int w, int k, uint32_t flags) -> Task<> {
      const int src = co_await kernel_.Open(p, k == 0 ? "rama:big" : "rama:small", kOpenRead);
      const int dst =
          co_await kernel_.Open(p, Indexed("ramb:d", w * 5 + k), kOpenWrite | kOpenCreate);
      fds.push_back(src);
      fds.push_back(dst);
      SpliceSqe sqe;
      sqe.src_fd = src;
      sqe.dst_fd = dst;
      sqe.nbytes = k == 0 ? kBig : kSmall;
      sqe.cookie = base + static_cast<uint64_t>(k);
      sqe.flags = flags;
      kernel_.RingPrepare(p, ring, sqe);
    };
    auto harvest = [&](int n) -> Task<> {
      co_await kernel_.RingEnter(p, ring, 0, n);
      SpliceCqe cqes[4];
      const int got = kernel_.RingHarvest(p, ring, cqes, n);
      for (int i = 0; i < got; ++i) {
        seen.push_back({cqes[i].cookie, cqes[i].result, cqes[i].error});
      }
    };
    for (int w = 0; w < kWaves; ++w) {
      const uint64_t base = 100 * static_cast<uint64_t>(w + 1);
      const bool group = w == kGroupWave;
      for (int k = 0; k < 4; ++k) {
        co_await prepare(base, w, k, group && k == 2 ? kSqeLinked : 0);
      }
      // Op 0 starts; ops 1..3 queue behind it.  Cancel op 2, the middle.
      EXPECT_EQ(co_await kernel_.RingEnter(p, ring, 4, 0), 4);
      cancels.push_back(co_await kernel_.RingCancel(p, ring, base + 2));
      want.push_back({base + 2, 0, kErrCanceled});
      if (group) {
        want.push_back({base + 3, 0, kErrCanceled});
      }
      co_await harvest(group ? 2 : 1);
      // Op 4 queues behind what is left, in slots the cancel gave back.
      co_await prepare(base, w, 4, 0);
      EXPECT_EQ(co_await kernel_.RingEnter(p, ring, 1, 0), 1);
      want.push_back({base, kBig, 0});
      want.push_back({base + 1, kSmall, 0});
      if (!group) {
        want.push_back({base + 3, kSmall, 0});
      }
      want.push_back({base + 4, kSmall, 0});
      co_await harvest(group ? 3 : 4);
      // A bad descriptor fails at admission with its own CQE.
      SpliceSqe bad;
      bad.src_fd = 999;
      bad.dst_fd = fds[1];
      bad.nbytes = kSmall;
      bad.cookie = base + 9;
      kernel_.RingPrepare(p, ring, bad);
      EXPECT_EQ(co_await kernel_.RingEnter(p, ring, 1, 0), 1);
      want.push_back({base + 9, 0, kErrBadf});
      co_await harvest(1);
      for (const int fd : fds) {
        co_await kernel_.Close(p, fd);
      }
      fds.clear();
    }
    stats = kernel_.GetRing(p, ring)->stats();
  });
  ASSERT_EQ(seen.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(seen[i], want[i]) << "CQE " << i << ": cookie " << seen[i].cookie << " result "
                                << seen[i].result << " error " << seen[i].error << ", want "
                                << want[i].cookie;
  }
  EXPECT_EQ(cancels, std::vector<int>(kWaves, 0));
  EXPECT_EQ(stats.submitted, 6u * kWaves);
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.harvested, stats.submitted);
  EXPECT_EQ(stats.cancelled, kWaves + 1u);  // one per wave, plus the LINKED sibling
  EXPECT_EQ(stats.eagain_returns, 0u);
  EXPECT_EQ(stats.sq_depth_max, 4);
  for (int w = 0; w < kWaves; ++w) {
    VerifyFile(fs_ramb_, Indexed("d", w * 5), kBig);
    VerifyFile(fs_ramb_, Indexed("d", w * 5 + 4), kSmall);
  }
}

TEST_F(AioTest, LinkedGroupRunsPipelineStagesConcurrently) {
  // file -> pipe -> file, with a transfer 8x the pipe's 32 KB capacity:
  // stage 1 can only finish if stage 2 drains the pipe while stage 1 is
  // still writing, proving LINKED stages start concurrently (sequential
  // io_uring-style links would deadlock here).
  constexpr int64_t kBytes = 32 * kBlockSize;  // 256 KB
  fs_rama_->CreateFileInstant("src", kBytes, Fill);
  int entered = -1;
  std::vector<SpliceCqe> cqes(2);
  int harvested = -1;
  Run([&](Process& p) -> Task<> {
    const int ring = co_await kernel_.RingSetup(p, RingConfig{});
    const int src = co_await kernel_.Open(p, "rama:src", kOpenRead);
    const int dst = co_await kernel_.Open(p, "ramb:dst", kOpenWrite | kOpenCreate);
    int pr = -1;
    int pw = -1;
    EXPECT_EQ(co_await kernel_.CreatePipe(p, &pr, &pw), 0);
    SpliceSqe s1;
    s1.src_fd = src;
    s1.dst_fd = pw;
    s1.nbytes = kBytes;
    s1.flags = kSqeLinked;
    s1.cookie = 1;
    SpliceSqe s2;
    s2.src_fd = pr;
    s2.dst_fd = dst;
    s2.nbytes = kBytes;
    s2.cookie = 2;
    kernel_.RingPrepare(p, ring, s1);
    kernel_.RingPrepare(p, ring, s2);
    entered = co_await kernel_.RingEnter(p, ring, 2, 2);
    harvested = kernel_.RingHarvest(p, ring, cqes.data(), 2);
  });
  EXPECT_EQ(entered, 2);
  ASSERT_EQ(harvested, 2);
  for (const SpliceCqe& c : cqes) {
    EXPECT_EQ(c.error, 0) << "cookie " << c.cookie;
    EXPECT_EQ(c.result, kBytes) << "cookie " << c.cookie;
  }
  VerifyFile(fs_ramb_, "dst", kBytes);
}

TEST_F(AioTest, LinkedGroupAdmissionFailureCancelsSiblings) {
  constexpr int64_t kBytes = 8 * kBlockSize;
  fs_rama_->CreateFileInstant("src", kBytes, Fill);
  std::vector<SpliceCqe> cqes(2);
  int harvested = -1;
  uint64_t engine_started = 0;
  Run([&](Process& p) -> Task<> {
    const int ring = co_await kernel_.RingSetup(p, RingConfig{});
    const int src = co_await kernel_.Open(p, "rama:src", kOpenRead);
    SpliceSqe bad;
    bad.src_fd = 999;  // not an open descriptor
    bad.dst_fd = src;
    bad.nbytes = kBytes;
    bad.flags = kSqeLinked;
    bad.cookie = 1;
    SpliceSqe linked;
    linked.src_fd = src;
    linked.dst_fd = src;  // never reached: the group dies at its first member
    linked.nbytes = kBytes;
    linked.cookie = 2;
    kernel_.RingPrepare(p, ring, bad);
    kernel_.RingPrepare(p, ring, linked);
    // Both SQEs are consumed (that is what the return counts), both fail.
    EXPECT_EQ(co_await kernel_.RingEnter(p, ring, 2, 2), 2);
    harvested = kernel_.RingHarvest(p, ring, cqes.data(), 2);
    engine_started = kernel_.splice_engine().stats().splices_started;
  });
  ASSERT_EQ(harvested, 2);
  EXPECT_EQ(cqes[0].cookie, 1u);
  EXPECT_EQ(cqes[0].error, kErrBadf);
  EXPECT_EQ(cqes[1].cookie, 2u);
  EXPECT_EQ(cqes[1].error, kErrCanceled);
  // Nothing in the group reached the splice engine.
  EXPECT_EQ(engine_started, 0u);
}

TEST_F(AioTest, MidStreamErrorTearsDownLinkedGroupWithOneCqeEach) {
  // Regression: a mid-stream device error in stage 1 of a LINKED pipeline
  // used to strand stage 2 blocked on the drained pipe — its read was never
  // retracted, MaybeFinish never fired, and the CQE was lost (RingEnter
  // would deadlock below).  Teardown must produce exactly one CQE per SQE:
  // the errored op with the device errno, the sibling with ECANCELED.
  constexpr int64_t kBytes = 32 * kBlockSize;
  fs_scsia_->CreateFileInstant("src", kBytes, Fill);
  scsia_.disk().SetFaultHook([](int64_t offset, bool is_read) {
    return is_read && offset == (16 + 9) * kBlockSize;  // 10th data block
  });
  std::vector<SpliceCqe> cqes(4);
  int harvested = -1;
  uint64_t submitted = 0;
  uint64_t completed = 0;
  Run([&](Process& p) -> Task<> {
    const int ring = co_await kernel_.RingSetup(p, RingConfig{});
    const int src = co_await kernel_.Open(p, "scsia:src", kOpenRead);
    const int dst = co_await kernel_.Open(p, "ramb:dst", kOpenWrite | kOpenCreate);
    int pr = -1;
    int pw = -1;
    EXPECT_EQ(co_await kernel_.CreatePipe(p, &pr, &pw), 0);
    SpliceSqe s1;
    s1.src_fd = src;
    s1.dst_fd = pw;
    s1.nbytes = kBytes;
    s1.flags = kSqeLinked;
    s1.cookie = 1;
    SpliceSqe s2;
    s2.src_fd = pr;
    s2.dst_fd = dst;
    s2.nbytes = kBytes;
    s2.cookie = 2;
    kernel_.RingPrepare(p, ring, s1);
    kernel_.RingPrepare(p, ring, s2);
    // min_complete=2: if the sibling's completion were lost, this would
    // deadlock and Run() would report the process as stuck.
    EXPECT_EQ(co_await kernel_.RingEnter(p, ring, 2, 2), 2);
    harvested = kernel_.RingHarvest(p, ring, cqes.data(), 4);
    const SpliceRing* r = kernel_.GetRing(p, ring);
    submitted = r->stats().submitted;
    completed = r->stats().completed;
  });
  ASSERT_EQ(harvested, 2);  // one CQE per SQE: none lost, none duplicated
  EXPECT_EQ(submitted, 2u);
  EXPECT_EQ(completed, 2u);
  const SpliceCqe* c1 = nullptr;
  const SpliceCqe* c2 = nullptr;
  for (int i = 0; i < harvested; ++i) {
    if (cqes[static_cast<size_t>(i)].cookie == 1) c1 = &cqes[static_cast<size_t>(i)];
    if (cqes[static_cast<size_t>(i)].cookie == 2) c2 = &cqes[static_cast<size_t>(i)];
  }
  ASSERT_NE(c1, nullptr);
  ASSERT_NE(c2, nullptr);
  EXPECT_EQ(c1->error, kErrIo);  // the device's errno, preserved
  EXPECT_GT(c1->result, 0);       // partial bytes before the bad block
  EXPECT_LT(c1->result, kBytes);
  EXPECT_EQ(c2->error, kErrCanceled);
  EXPECT_LT(c2->result, kBytes);
  EXPECT_EQ(kernel_.splice_engine().active(), 0);
}

TEST_F(AioTest, LinkedGroupTeardownClosesEverySpanExactlyOnce) {
  // Span-lifecycle discipline on the nastiest error path: a mid-stream
  // device error tears down a LINKED group, so one op ends with the device
  // errno and its sibling ends cancelled.  Both "aio.op" spans (and the
  // engine's nested "splice.stream" spans) must close exactly once — an
  // error path that leaks an open span corrupts every per-request view
  // downstream.
  constexpr int64_t kBytes = 32 * kBlockSize;
  fs_scsia_->CreateFileInstant("src", kBytes, Fill);
  scsia_.disk().SetFaultHook([](int64_t offset, bool is_read) {
    return is_read && offset == (16 + 9) * kBlockSize;
  });
  KspanCollector spans;
  AttachKspan(&spans);
  std::vector<SpliceCqe> cqes(4);
  int harvested = -1;
  Run([&](Process& p) -> Task<> {
    const int ring = co_await kernel_.RingSetup(p, RingConfig{});
    const int src = co_await kernel_.Open(p, "scsia:src", kOpenRead);
    const int dst = co_await kernel_.Open(p, "ramb:dst", kOpenWrite | kOpenCreate);
    int pr = -1;
    int pw = -1;
    EXPECT_EQ(co_await kernel_.CreatePipe(p, &pr, &pw), 0);
    SpliceSqe s1;
    s1.src_fd = src;
    s1.dst_fd = pw;
    s1.nbytes = kBytes;
    s1.flags = kSqeLinked;
    s1.cookie = 1;
    SpliceSqe s2;
    s2.src_fd = pr;
    s2.dst_fd = dst;
    s2.nbytes = kBytes;
    s2.cookie = 2;
    kernel_.RingPrepare(p, ring, s1);
    kernel_.RingPrepare(p, ring, s2);
    EXPECT_EQ(co_await kernel_.RingEnter(p, ring, 2, 2), 2);
    harvested = kernel_.RingHarvest(p, ring, cqes.data(), 4);
  });
  AttachKspan(nullptr);
  ASSERT_EQ(harvested, 2);

  std::string err;
  EXPECT_TRUE(spans.CheckBalanced(&err)) << err;
  EXPECT_EQ(spans.bad_ends(), 0u);

  // One "aio.op" span per SQE, closed with the op's fate: the errored op
  // and the cancelled sibling both carry error=true.
  int ops = 0;
  int op_errors = 0;
  for (const SpanRecord& s : spans.spans()) {
    if (std::string(s.name) == "aio.op") {
      ++ops;
      EXPECT_FALSE(s.open());
      op_errors += s.error ? 1 : 0;
    }
  }
  EXPECT_EQ(ops, 2);
  EXPECT_EQ(op_errors, 2);
}

TEST_F(AioTest, CqOverflowStagesAndRecoversOnHarvest) {
  constexpr int64_t kBytes = 4 * kBlockSize;
  for (int i = 0; i < 4; ++i) {
    fs_rama_->CreateFileInstant(Indexed("s", i), kBytes, Fill);
  }
  RingConfig cfg;
  cfg.cq_entries = 2;
  uint64_t overflows = 0;
  std::vector<SpliceCqe> cqes(4);
  int harvested = 0;
  Run([&](Process& p) -> Task<> {
    const int ring = co_await kernel_.RingSetup(p, cfg);
    for (int i = 0; i < 4; ++i) {
      const int src = co_await kernel_.Open(p, Indexed("rama:s", i), kOpenRead);
      const int dst = co_await kernel_.Open(p, Indexed("ramb:d", i),
                                            kOpenWrite | kOpenCreate);
      SpliceSqe sqe;
      sqe.src_fd = src;
      sqe.dst_fd = dst;
      sqe.nbytes = kBytes;
      sqe.cookie = static_cast<uint64_t>(i);
      kernel_.RingPrepare(p, ring, sqe);
    }
    EXPECT_EQ(co_await kernel_.RingEnter(p, ring, 4, 4), 4);
    SpliceRing* r = kernel_.GetRing(p, ring);
    overflows = r->stats().overflows;
    EXPECT_EQ(r->CqAvailable(), 4);  // 2 in the CQ + 2 staged in overflow
    // Draining the CQ pulls the staged completions through; none are lost.
    harvested += kernel_.RingHarvest(p, ring, cqes.data(), 3);
    harvested += kernel_.RingHarvest(p, ring, cqes.data() + harvested, 3);
  });
  EXPECT_EQ(overflows, 2u);
  EXPECT_EQ(harvested, 4);
  for (int i = 0; i < 4; ++i) {
    VerifyFile(fs_ramb_, Indexed("d", i), kBytes);
  }
}

TEST_F(AioTest, RingErrorsOnBadArguments) {
  Run([&](Process& p) -> Task<> {
    RingConfig bad;
    bad.sq_entries = 0;
    EXPECT_EQ(co_await kernel_.RingSetup(p, bad), -kErrInval);
    SpliceSqe sqe;
    EXPECT_EQ(kernel_.RingPrepare(p, 42, sqe), -kErrBadf);
    EXPECT_EQ(co_await kernel_.RingEnter(p, 42, 1, 0), -kErrBadf);
    SpliceCqe cqe;
    EXPECT_EQ(kernel_.RingHarvest(p, 42, &cqe, 1), -kErrBadf);
    EXPECT_EQ(co_await kernel_.RingCancel(p, 42, 1), -kErrBadf);

    // A malformed SQE fails with a CQE, not a lost entry.
    const int ring = co_await kernel_.RingSetup(p, RingConfig{});
    SpliceSqe nofd;
    nofd.src_fd = 7;
    nofd.dst_fd = 8;
    nofd.nbytes = 4096;
    nofd.cookie = 5;
    kernel_.RingPrepare(p, ring, nofd);
    EXPECT_EQ(co_await kernel_.RingEnter(p, ring, 1, 1), 1);
    EXPECT_EQ(kernel_.RingHarvest(p, ring, &cqe, 1), 1);
    EXPECT_EQ(cqe.cookie, 5u);
    EXPECT_EQ(cqe.error, kErrBadf);
  });
}

TEST_F(AioTest, RingEventsExportToChromeTraceAndTelemetry) {
  constexpr int kStreams = 3;
  constexpr int64_t kBytes = 8 * kBlockSize;
  for (int i = 0; i < kStreams; ++i) {
    fs_rama_->CreateFileInstant(Indexed("s", i), kBytes, Fill);
  }
  TraceLog trace(1 << 16);
  MetricsRegistry registry;
  TelemetryCollector collector(&registry);
  collector.Attach(&trace);
  kernel_.AttachTrace(&trace);
  Run([&](Process& p) -> Task<> {
    const int ring = co_await kernel_.RingSetup(p, RingConfig{});
    for (int i = 0; i < kStreams; ++i) {
      const int src = co_await kernel_.Open(p, Indexed("rama:s", i), kOpenRead);
      const int dst = co_await kernel_.Open(p, Indexed("ramb:d", i),
                                            kOpenWrite | kOpenCreate);
      SpliceSqe sqe;
      sqe.src_fd = src;
      sqe.dst_fd = dst;
      sqe.nbytes = kBytes;
      sqe.cookie = static_cast<uint64_t>(i);
      kernel_.RingPrepare(p, ring, sqe);
    }
    EXPECT_EQ(co_await kernel_.RingEnter(p, ring, kStreams, kStreams), kStreams);
    std::vector<SpliceCqe> cqes(kStreams);
    EXPECT_EQ(kernel_.RingHarvest(p, ring, cqes.data(), kStreams), kStreams);
  });

  // Online pairing: one latency sample per op, no dangling intervals.
  EXPECT_EQ(registry.Histogram("aio.completion_latency")->count(),
            static_cast<uint64_t>(kStreams));
  EXPECT_GE(registry.Histogram("aio.sq_depth")->count(), 1u);
  EXPECT_EQ(collector.PendingIntervals(), 0u);

  // Chrome-trace export: a "b"/"e" async span pair per op in the aio
  // category, parseable by the strict bundled reader.
  std::ostringstream os;
  ExportChromeTrace(trace, os);
  JsonValue json;
  ASSERT_TRUE(ParseJson(os.str(), &json));
  const JsonValue* events = json.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  int begins = 0;
  int ends = 0;
  for (const JsonValue& ev : events->items) {
    const JsonValue* cat = ev.Get("cat");
    const JsonValue* ph = ev.Get("ph");
    if (cat == nullptr || ph == nullptr || cat->str != "aio") {
      continue;
    }
    if (ph->str == "b") {
      ++begins;
    } else if (ph->str == "e") {
      ++ends;
    }
  }
  EXPECT_EQ(begins, kStreams);
  EXPECT_EQ(ends, kStreams);
}

TEST_F(AioTest, TellReportsDestinationOffsetOnlyAtCompletion) {
  constexpr int64_t kBytes = 16 * kBlockSize;
  fs_scsia_->CreateFileInstant("src", kBytes, Fill);
  int64_t mid_offset = -1;
  int64_t end_offset = -1;
  Run([&](Process& p) -> Task<> {
    kernel_.Sigaction(p, kSigIo, [] {});
    const int src = co_await kernel_.Open(p, "scsia:src", kOpenRead);
    const int dst = co_await kernel_.Open(p, "scsib:dst", kOpenWrite | kOpenCreate);
    co_await kernel_.Fcntl(p, dst, /*fasync=*/true);
    EXPECT_EQ(co_await kernel_.Splice(p, src, dst, kBytes), 0);
    // In flight: the destination offset has not moved yet.
    mid_offset = co_await kernel_.Tell(p, dst);
    co_await kernel_.Pause(p);
    end_offset = co_await kernel_.Tell(p, dst);
  });
  EXPECT_EQ(mid_offset, 0);
  EXPECT_EQ(end_offset, kBytes);
  VerifyFile(fs_scsib_, "dst", kBytes);
}

}  // namespace
}  // namespace ikdp
