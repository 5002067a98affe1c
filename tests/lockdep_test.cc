// Unit tests for the lockdep validator (src/sim/lockdep.h) and the lock
// primitives' hook wiring (src/kern/lock.cc): collect mode must record the
// acquisition-order graph and every violation kind, abort mode's crash
// paths are pinned with EXPECT_DEATH (mirroring tests/krace_test.cc), off
// mode must cost nothing and catch nothing, and SleepLock contention must
// ride the ordinary Sleep/Wakeup scheduler path.

#include <gtest/gtest.h>

#include <string>

#include "src/hw/costs.h"
#include "src/kern/cpu.h"
#include "src/kern/lock.h"
#include "src/kern/process.h"
#include "src/sim/lockdep.h"
#include "src/sim/simulator.h"

namespace ikdp {
namespace {

class LockdepTest : public ::testing::Test {
 protected:
  // Each test is one run: the fixture's Simulator scope gives it a fresh
  // validator and fresh lock counters, whatever ran before it.  Collect
  // mode overrides the environment (CI runs the suite under
  // IKDP_LOCKDEP=abort) for this scope only.
  void SetUp() override { Lockdep().SetMode(LockdepValidator::Mode::kCollect); }

  bool HasViolation(const std::string& kind) {
    for (const auto& v : Lockdep().violations()) {
      if (v.kind == kind) {
        return true;
      }
    }
    return false;
  }

  Simulator run_;
};

TEST_F(LockdepTest, RankOrderedNestingIsCleanAndRecorded) {
  SpinLock outer("outer", 10);
  SpinLock inner("inner", 20);
  outer.Acquire();
  inner.Acquire();
  inner.Release();
  outer.Release();
  EXPECT_TRUE(Lockdep().violations().empty());
  ASSERT_EQ(Lockdep().edges().size(), 1u);
  EXPECT_EQ(Lockdep().edges().begin()->first.first, "outer");
  EXPECT_EQ(Lockdep().edges().begin()->first.second, "inner");
}

TEST_F(LockdepTest, CollectModeFlagsInversionAgainstRecordedOrder) {
  SpinLock a("a", 10);
  SpinLock b("b", 20);
  a.Acquire();
  b.Acquire();
  b.Release();
  a.Release();
  // The reverse nesting contradicts both the rank table and the recorded
  // a -> b edge.
  b.Acquire();
  a.Acquire();
  a.Release();
  b.Release();
  EXPECT_TRUE(HasViolation("rank"));
  EXPECT_TRUE(HasViolation("order-inversion"));
}

TEST_F(LockdepTest, CollectModeFlagsSleepUnderSpinlock) {
  SpinLock spin("spin", 10);
  SleepLock gate("gate", 90);
  spin.Acquire();
  gate.AcquireUncontended();  // may-block point with a SpinLock held
  gate.Release();
  spin.Release();
  EXPECT_TRUE(HasViolation("sleep-under-spinlock"));
}

TEST_F(LockdepTest, OffModeIgnoresInversions) {
  Lockdep().SetMode(LockdepValidator::Mode::kOff);
  EXPECT_FALSE(LockdepEnabled());
  SpinLock a("a", 10);
  SpinLock b("b", 20);
  b.Acquire();
  a.Acquire();
  a.Release();
  b.Release();
  EXPECT_TRUE(Lockdep().violations().empty());
  EXPECT_TRUE(Lockdep().edges().empty());
}

TEST_F(LockdepTest, AcquisitionCountersTrackDepthAndRank) {
  SpinLock outer("outer", 10);
  SpinLock inner("inner", 20);
  outer.Acquire();
  inner.Acquire();
  inner.Release();
  outer.Release();
  const LockStats& s = GlobalLockStats();
  EXPECT_EQ(s.spin_acquisitions, 2u);
  EXPECT_EQ(s.max_held, 2);
  EXPECT_EQ(s.max_held_rank, 20);
  EXPECT_EQ(s.cur_held, 0);
}

using LockdepDeathTest = LockdepTest;

TEST_F(LockdepDeathTest, OrderInversionAborts) {
  // The reverse nesting dies at the rank check — any inversion contradicts
  // the strictly-increasing rank table before the edge graph is consulted.
  EXPECT_DEATH(
      {
        Lockdep().SetMode(LockdepValidator::Mode::kAbort);
        SpinLock a("a", 10);
        SpinLock b("b", 20);
        b.Acquire();
        a.Acquire();
      },
      "lockdep (rank|order-inversion)");
}

TEST_F(LockdepDeathTest, DoubleAcquireAborts) {
  EXPECT_DEATH(
      {
        Lockdep().SetMode(LockdepValidator::Mode::kAbort);
        SpinLock a("a", 10);
        a.Acquire();
        a.Acquire();
      },
      "lockdep double-acquire");
}

TEST_F(LockdepDeathTest, SleepUnderSpinlockAborts) {
  EXPECT_DEATH(
      {
        Lockdep().SetMode(LockdepValidator::Mode::kAbort);
        SpinLock spin("spin", 10);
        SleepLock gate("gate", 90);
        spin.Acquire();
        gate.AcquireUncontended();
      },
      "lockdep sleep-under-spinlock");
}

TEST_F(LockdepTest, SleepLockContentionRidesTheScheduler) {
  Simulator sim;
  CostConfig costs;
  costs.context_switch = 0;
  costs.syscall_overhead = 0;
  costs.interrupt_overhead = 0;
  CpuSystem cpu(&sim, costs);
  SleepLock gate("gate", 90);
  std::string order;

  cpu.Spawn("holder", [&](Process& p) -> Task<> {
    co_await gate.Acquire(&cpu, p);
    order += "H";
    int chan = 0;
    // Hold across a genuine suspension: the contender must sleep, not spin.
    sim.After(Milliseconds(5), [&] { cpu.Wakeup(&chan); });
    co_await cpu.Sleep(p, &chan, kPriLock);
    gate.Release(&cpu);
    order += "h";
  });
  cpu.Spawn("contender", [&](Process& p) -> Task<> {
    co_await gate.Acquire(&cpu, p);
    order += "C";
    gate.Release(&cpu);
  });
  sim.Run();

  EXPECT_EQ(order, "HhC");
  const LockStats& s = GlobalLockStats();
  EXPECT_EQ(s.sleep_acquisitions, 2u);
  EXPECT_GE(s.sleep_contention, 1u);
  EXPECT_EQ(s.cur_held, 0);
}

}  // namespace
}  // namespace ikdp
