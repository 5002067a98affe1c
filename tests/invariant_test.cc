// Cross-cutting invariant tests:
//  * the CPU accounting identity (process + switch + interrupt <= elapsed)
//    over randomized mixed workloads;
//  * a model-checked EventQueue fuzz (random schedule/cancel/pop against a
//    reference multimap);
//  * the machine report's coherence.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "src/dev/disk_driver.h"
#include "src/dev/ram_disk.h"
#include "src/hw/disk.h"
#include "src/metrics/report.h"
#include "src/os/kernel.h"
#include "src/sim/event_queue.h"
#include "src/sim/krace.h"
#include "src/sim/random.h"

namespace ikdp {
namespace {

uint8_t Fill(int64_t i) { return static_cast<uint8_t>(i * 7 + 1); }

// --- EventQueue model fuzz ---

class EventQueueFuzz : public ::testing::TestWithParam<uint64_t> {};

// Each RNG seed runs under tie seed 0 (schedule order) and perturbation
// seeds 1-4.  Interleaves schedule, cancel, NextTime and pop.
TEST_P(EventQueueFuzz, MatchesReferenceModel) {
  for (uint64_t tie_seed = 0; tie_seed <= 4; ++tie_seed) {
    SCOPED_TRACE(testing::Message() << "tie seed " << tie_seed);
    Rng rng(GetParam());
    EventQueue q(tie_seed);
    // Reference: firing time -> events at that time.  Within a time the
    // lowest (TieKey of the schedule sequence, id) fires first; under tie
    // seed 0 that is the lowest id.
    struct ModelEvent {
      EventId id;
      int payload;
    };
    std::multimap<SimTime, ModelEvent> model;
    std::vector<int> fired_q;
    int next_payload = 0;
    EventId last_id = kInvalidEventId;
    SimTime now = 0;
    auto fire_key = [tie_seed](EventId id) {
      return std::pair(KraceDetector::TieKey(tie_seed, EventSeq(id)), id);
    };

    for (int step = 0; step < 2000; ++step) {
      const uint64_t op = rng.Below(10);
      if (op < 5) {
        // Schedule at now + random delay (small, so ties are common).
        const SimTime when = now + static_cast<SimTime>(rng.Below(100));
        const int payload = next_payload++;
        const EventId id =
            q.Schedule(when, [payload, &fired_q] { fired_q.push_back(payload); });
        ASSERT_GT(id, last_id) << "ids must increase in schedule order";
        last_id = id;
        model.emplace(when, ModelEvent{id, payload});
      } else if (op < 7 && !model.empty()) {
        // Cancel a random live event.
        auto it = model.begin();
        std::advance(it, static_cast<int64_t>(rng.Below(model.size())));
        EXPECT_TRUE(q.Cancel(it->second.id));
        EXPECT_FALSE(q.Cancel(it->second.id));  // double cancel refused
        model.erase(it);
      } else if (!q.empty()) {
        // Pop the earliest event; it must match the model's earliest.
        auto it = model.begin();
        auto best = it;
        for (; it != model.end() && it->first == best->first; ++it) {
          if (fire_key(it->second.id) < fire_key(best->second.id)) {
            best = it;
          }
        }
        SimTime when = 0;
        EventId id = kInvalidEventId;
        q.PopNext(&when, &id)();
        EXPECT_EQ(when, best->first);
        EXPECT_EQ(id, best->second.id);
        EXPECT_GE(when, now);
        now = when;
        ASSERT_EQ(fired_q.back(), best->second.payload) << "step " << step;
        EXPECT_FALSE(q.Cancel(id));  // fired events are not cancellable
        model.erase(best);
      }
      ASSERT_EQ(q.size(), model.size()) << "step " << step;
      if (!model.empty()) {
        ASSERT_EQ(q.NextTime(), model.begin()->first) << "step " << step;
      }
    }
    // Drain the remainder; each fires once.
    const size_t fired_before = fired_q.size();
    while (!q.empty()) {
      SimTime when = 0;
      q.PopNext(&when)();
    }
    EXPECT_EQ(fired_q.size() - fired_before, model.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzz, ::testing::Values(11, 22, 33, 44));

// --- CPU accounting identity over mixed workloads ---

class AccountingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AccountingTest, BusyNeverExceedsElapsed) {
  Rng rng(GetParam());
  Simulator sim;
  Kernel kernel(&sim, DecStation5000Costs());
  RamDisk ram(&kernel.cpu(), 16 << 20);
  DiskDriver scsi(&kernel.cpu(), &sim, Rz58Params());
  FileSystem* ram_fs = kernel.MountFs(&ram, "r");
  FileSystem* scsi_fs = kernel.MountFs(&scsi, "s");
  ram_fs->CreateFileInstant("a", 16 * kBlockSize, Fill);
  scsi_fs->CreateFileInstant("b", 16 * kBlockSize, Fill);

  // A CPU spinner, a splicer, and a read/write copier, all at once.
  bool stop = false;
  kernel.Spawn("spin", [&](Process& p) -> Task<> {
    while (!stop) {
      co_await kernel.cpu().Use(p, Microseconds(500 + rng.Below(1000)));
    }
  });
  kernel.Spawn("splicer", [&](Process& p) -> Task<> {
    const int s = co_await kernel.Open(p, "r:a", kOpenRead);
    const int d = co_await kernel.Open(p, "s:acopy", kOpenWrite | kOpenCreate);
    co_await kernel.Splice(p, s, d, kSpliceEof);
  });
  kernel.Spawn("copier", [&](Process& p) -> Task<> {
    const int s = co_await kernel.Open(p, "s:b", kOpenRead);
    const int d = co_await kernel.Open(p, "r:bcopy", kOpenWrite | kOpenCreate);
    std::vector<uint8_t> buf;
    int64_t n = 0;
    while ((n = co_await kernel.Read(p, s, 8192, &buf)) > 0) {
      co_await kernel.Write(p, d, buf.data(), n);
    }
    co_await kernel.FsyncFd(p, d);
    stop = true;
  });
  sim.Run();
  ASSERT_EQ(kernel.cpu().alive(), 0);

  const SimTime elapsed = sim.Now();
  const CpuSystem::Stats& s = kernel.cpu().stats();
  const SimDuration busy = s.process_work + s.context_switch + s.interrupt_work;
  EXPECT_GT(elapsed, 0);
  EXPECT_LE(busy, elapsed) << "CPU accounting exceeded wall time";
  // The spinner kept the machine essentially saturated.
  EXPECT_GE(IdleFraction(kernel, elapsed), 0.0);
  EXPECT_LT(IdleFraction(kernel, elapsed), 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccountingTest, ::testing::Values(5, 6, 7));

TEST(ReportTest, PrintsCoherentSummary) {
  Simulator sim;
  Kernel kernel(&sim, DecStation5000Costs());
  RamDisk a(&kernel.cpu(), 16 << 20);
  RamDisk b(&kernel.cpu(), 16 << 20);
  FileSystem* fsa = kernel.MountFs(&a, "a");
  kernel.MountFs(&b, "b");
  fsa->CreateFileInstant("f", 8 * kBlockSize, Fill);
  kernel.Spawn("p", [&](Process& p) -> Task<> {
    const int s = co_await kernel.Open(p, "a:f", kOpenRead);
    const int d = co_await kernel.Open(p, "b:g", kOpenWrite | kOpenCreate);
    co_await kernel.Splice(p, s, d, kSpliceEof);
  });
  sim.Run();
  std::ostringstream os;
  PrintMachineReport(os, kernel);
  const std::string r = os.str();
  EXPECT_NE(r.find("machine report"), std::string::npos);
  EXPECT_NE(r.find("1 started, 1 completed"), std::string::npos);
  EXPECT_NE(r.find("65536 bytes moved"), std::string::npos);
  EXPECT_NE(r.find("syscalls"), std::string::npos);
  EXPECT_GE(IdleFraction(kernel, sim.Now()), 0.0);
}

}  // namespace
}  // namespace ikdp
