// Unit tests for the discrete-event engine: EventQueue, Simulator and its
// per-run SimState, CalloutTable, Rng, and time helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/kern/lock.h"
#include "src/sim/callout.h"
#include "src/sim/event_queue.h"
#include "src/sim/fifo.h"
#include "src/sim/inline_fn.h"
#include "src/sim/random.h"
#include "src/sim/sim_state.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace ikdp {
namespace {

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(Microseconds(1), 1000);
  EXPECT_EQ(Milliseconds(1), 1000 * 1000);
  EXPECT_EQ(Seconds(2), 2ll * 1000 * 1000 * 1000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(ToMilliseconds(Microseconds(1500)), 1.5);
}

TEST(TimeTest, FractionalConstructorsRound) {
  EXPECT_EQ(MillisecondsF(0.5), Microseconds(500));
  EXPECT_EQ(MicrosecondsF(0.0005), Nanoseconds(1));  // rounds 0.5ns up
  EXPECT_EQ(SecondsF(1e-9), 1);
}

TEST(TimeTest, TransferTime) {
  // 1 MB at 1 MB/s is one second.
  EXPECT_EQ(TransferTime(1000000, 1e6), kSecond);
  // 8 KB at 20 MB/s.
  EXPECT_EQ(TransferTime(8192, 20e6), SecondsF(8192 / 20e6));
}

TEST(TimeTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(Seconds(2)), "2.000s");
  EXPECT_EQ(FormatDuration(Milliseconds(5)), "5.000ms");
  EXPECT_EQ(FormatDuration(Microseconds(7)), "7.000us");
  EXPECT_EQ(FormatDuration(42), "42ns");
}

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(30, [&] { order.push_back(3); });
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) {
    SimTime when = 0;
    q.PopNext(&when)();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.Schedule(100, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    SimTime when = 0;
    q.PopNext(&when)();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  EventId a = q.Schedule(10, [&] { ++fired; });
  q.Schedule(20, [&] { ++fired; });
  EXPECT_TRUE(q.Cancel(a));
  EXPECT_EQ(q.size(), 1u);
  SimTime when = 0;
  q.PopNext(&when)();
  EXPECT_EQ(when, 20);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelFiredEventReturnsFalse) {
  EventQueue q;
  EventId a = q.Schedule(10, [] {});
  SimTime when = 0;
  q.PopNext(&when);
  EXPECT_FALSE(q.Cancel(a));
}

TEST(EventQueueTest, DoubleCancelReturnsFalse) {
  EventQueue q;
  EventId a = q.Schedule(10, [] {});
  EXPECT_TRUE(q.Cancel(a));
  EXPECT_FALSE(q.Cancel(a));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelInvalidIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  EXPECT_FALSE(q.Cancel(12345));
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  EventId a = q.Schedule(10, [] {});
  q.Schedule(20, [] {});
  q.Cancel(a);
  EXPECT_EQ(q.NextTime(), 20);
}

TEST(EventQueueTest, IdsIncreaseInScheduleOrderAcrossSlotReuse) {
  EventQueue q;
  SimTime when = 0;
  const EventId a = q.Schedule(10, [] {});
  q.PopNext(&when);
  const EventId b = q.Schedule(10, [] {});  // reuses a's slot
  const EventId c = q.Schedule(5, [] {});
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(EventSeq(a), 1u);
  EXPECT_EQ(EventSeq(b), 2u);
  EXPECT_EQ(EventSeq(c), 3u);
  EXPECT_EQ(q.arena_slots(), 2u);
}

TEST(EventQueueTest, StaleIdOfAReusedSlotIsRefused) {
  EventQueue q;
  SimTime when = 0;
  const EventId a = q.Schedule(10, [] {});
  q.PopNext(&when);
  int fired = 0;
  const EventId b = q.Schedule(20, [&] { ++fired; });
  EXPECT_FALSE(q.Cancel(a));  // same slot, different event
  EXPECT_EQ(q.size(), 1u);
  q.PopNext(&when)();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.Cancel(b));
}

// Counts how many times a capture is destroyed; moved-from copies do not
// count.
struct DestroyCounter {
  explicit DestroyCounter(int* n) : destroyed(n) {}
  DestroyCounter(DestroyCounter&& o) noexcept : destroyed(std::exchange(o.destroyed, nullptr)) {}
  DestroyCounter& operator=(DestroyCounter&&) = delete;
  ~DestroyCounter() {
    if (destroyed != nullptr) {
      ++*destroyed;
    }
  }
  int* destroyed;
};

// Schedules three events whose closures capture `Capture` (built from a
// destroy counter): one fires, one is cancelled, one is still pending when
// the queue is destroyed.  Each closure must be destroyed exactly once.
template <typename MakeCapture>
void ExpectEachClosureDestroyedOnce(MakeCapture make) {
  int destroyed = 0;
  int fired = 0;
  {
    EventQueue q;
    q.Schedule(10, [c = make(&destroyed), &fired] { ++fired; });
    const EventId cancelled = q.Schedule(20, [c = make(&destroyed), &fired] { ++fired; });
    q.Schedule(30, [c = make(&destroyed), &fired] { ++fired; });
    EXPECT_EQ(destroyed, 0);
    SimTime when = 0;
    q.PopNext(&when)();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(destroyed, 1);  // the fired closure died with PopNext's result
    EXPECT_TRUE(q.Cancel(cancelled));
    EXPECT_EQ(destroyed, 2);  // Cancel destroys at once
  }
  EXPECT_EQ(destroyed, 3);  // the pending one died with the queue
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, InlineClosuresAreDestroyedExactlyOnce) {
  ExpectEachClosureDestroyedOnce([](int* n) { return DestroyCounter(n); });
}

TEST(EventQueueTest, MoveOnlyCapturesAreDestroyedExactlyOnce) {
  ExpectEachClosureDestroyedOnce([](int* n) { return std::make_unique<DestroyCounter>(n); });
}

TEST(EventQueueTest, CapturesLargerThanInlineAreDestroyedExactlyOnce) {
  struct Big {
    DestroyCounter counter;
    std::array<char, EventFn::kInlineSize> pad{};
  };
  static_assert(sizeof(Big) > EventFn::kInlineSize);
  ExpectEachClosureDestroyedOnce([](int* n) { return Big{DestroyCounter(n)}; });
}

TEST(EventQueueTest, ScheduleCancelCyclesDoNotGrowTheArena) {
  EventQueue q;
  int fired = 0;
  q.Schedule(Seconds(1000), [&] { ++fired; });  // long-lived
  for (int i = 0; i < 1000000; ++i) {
    ASSERT_TRUE(q.Cancel(q.Schedule(i, [&] { ++fired; })));
  }
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.arena_slots(), 2u);
  SimTime when = 0;
  q.PopNext(&when)();
  EXPECT_EQ(when, Seconds(1000));
  EXPECT_EQ(fired, 1);
}

// --- InlineFn<R(Args...)> ---

TEST(InlineFnTest, ReturnsAValue) {
  InlineFn<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(40, 2), 42);
  InlineFn<std::string(const std::string&)> twice = [](const std::string& x) { return x + x; };
  EXPECT_EQ(twice("ab"), "abab");
}

TEST(InlineFnTest, ByValueMoveOnlyArgumentsAreMovedIn) {
  InlineFn<int(std::unique_ptr<int>)> take = [](std::unique_ptr<int> p) { return *p; };
  EXPECT_EQ(take(std::make_unique<int>(7)), 7);

  // A shared payload (BufData's type) passed by value arrives without an
  // extra reference when the caller moves it.
  using Payload = std::shared_ptr<std::vector<uint8_t>>;
  long seen_uses = 0;
  InlineFn<void(Payload, int64_t)> recv = [&](Payload d, int64_t n) {
    seen_uses = d.use_count();
    EXPECT_EQ(static_cast<int64_t>(d->size()), n);
  };
  Payload d = std::make_shared<std::vector<uint8_t>>(3);
  recv(std::move(d), 3);
  EXPECT_EQ(d, nullptr);
  EXPECT_EQ(seen_uses, 1);
}

TEST(InlineFnTest, ReferenceArgumentsBindThrough) {
  InlineFn<void(int&)> bump = [](int& x) { ++x; };
  int v = 1;
  bump(v);
  bump(v);
  EXPECT_EQ(v, 3);
}

TEST(InlineFnTest, HeapFallbackTakesArguments) {
  struct Big {
    std::array<int64_t, 8> k{};
    int operator()(int i, std::unique_ptr<int> p) const { return static_cast<int>(k[i]) + *p; }
  };
  static_assert(!InlineFn<int(int, std::unique_ptr<int>)>::kStoresInline<Big>);
  Big big;
  big.k[3] = 30;
  InlineFn<int(int, std::unique_ptr<int>)> f = big;
  InlineFn<int(int, std::unique_ptr<int>)> moved = std::move(f);
  EXPECT_FALSE(f);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(moved(3, std::make_unique<int>(12)), 42);
}

TEST(InlineFnTest, EmptyAndNullAreFalse) {
  InlineFn<void(int)> a;
  InlineFn<void(int)> b = nullptr;
  EXPECT_FALSE(a);
  EXPECT_FALSE(b);
  b = [](int) {};
  EXPECT_TRUE(b);
  b = nullptr;
  EXPECT_FALSE(b);
}

// Builds inline- and heap-stored closures with arguments, moves them around
// and calls them: each capture is destroyed exactly once.
TEST(InlineFnTest, EachClosureIsDestroyedExactlyOnce) {
  struct Pad {
    std::array<char, InlineFn<int(int)>::kInlineSize> bytes{};
  };
  int destroyed = 0;
  {
    InlineFn<int(int)> small = [c = DestroyCounter(&destroyed)](int x) { return x + 1; };
    InlineFn<int(int)> large = [c = DestroyCounter(&destroyed), pad = Pad{}](int x) {
      return x + static_cast<int>(pad.bytes[0]) + 2;
    };
    InlineFn<int(int)> unique = [c = std::make_unique<DestroyCounter>(&destroyed)](int x) {
      return x + 3;
    };
    InlineFn<int(int)> hop = std::move(small);
    small = std::move(large);
    large = std::move(unique);
    EXPECT_EQ(hop(1) + small(1) + large(1), 2 + 3 + 4);
    EXPECT_EQ(destroyed, 0);
    hop = nullptr;
    EXPECT_EQ(destroyed, 1);
  }
  EXPECT_EQ(destroyed, 3);
}

// --- Fifo ---

TEST(FifoTest, KeepsOrderWhenGrowingAroundTheRing) {
  Fifo<int> q;
  int next_in = 0;
  int next_out = 0;
  // Interleave so the head is mid-ring whenever the ring grows.
  for (int round = 1; round <= 40; ++round) {
    for (int i = 0; i < round; ++i) {
      q.push_back(next_in++);
    }
    for (int i = 0; i < round / 2; ++i) {
      EXPECT_EQ(q.pop_front(), next_out++);
    }
  }
  while (!q.empty()) {
    EXPECT_EQ(q.pop_front(), next_out++);
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(FifoTest, PoppedSlotsReleaseTheirElements) {
  Fifo<std::shared_ptr<int>> q;
  auto p = std::make_shared<int>(1);
  q.push_back(p);
  q.push_back(p);
  EXPECT_EQ(p.use_count(), 3);
  q.pop_front();
  EXPECT_EQ(p.use_count(), 2);
  q.pop_front();
  EXPECT_EQ(p.use_count(), 1);
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.After(Milliseconds(5), [&] { seen.push_back(sim.Now()); });
  sim.After(Milliseconds(1), [&] { seen.push_back(sim.Now()); });
  EXPECT_EQ(sim.Run(), Milliseconds(5));
  EXPECT_EQ(seen, (std::vector<SimTime>{Milliseconds(1), Milliseconds(5)}));
}

TEST(SimulatorTest, NestedSchedulingFromHandlers) {
  Simulator sim;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 10) {
      sim.After(Microseconds(10), hop);
    }
  };
  sim.After(0, hop);
  sim.Run();
  EXPECT_EQ(hops, 10);
  EXPECT_EQ(sim.Now(), Microseconds(90));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.After(Milliseconds(1), [&] { ++fired; });
  sim.After(Milliseconds(10), [&] { ++fired; });
  EXPECT_EQ(sim.RunUntil(Milliseconds(5)), Milliseconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  EXPECT_EQ(sim.RunUntil(Seconds(3)), Seconds(3));
  EXPECT_EQ(sim.Now(), Seconds(3));
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.After(Milliseconds(2), [] {});
  sim.RunUntil(Milliseconds(2));
  bool fired = false;
  sim.After(-5, [&] { fired = true; });
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.Now(), Milliseconds(2));
}

TEST(SimulatorTest, CancelStopsEvent) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.After(Milliseconds(1), [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) {
    sim.After(i, [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

class CalloutTest : public ::testing::Test {
 protected:
  Simulator sim_;
  CalloutTable callouts_{&sim_, /*hz=*/256};
};

TEST_F(CalloutTest, TickDuration) {
  EXPECT_EQ(callouts_.TickDuration(), kSecond / 256);
  EXPECT_EQ(callouts_.hz(), 256);
}

TEST_F(CalloutTest, TimeoutFiresOnTickBoundary) {
  SimTime fired_at = -1;
  callouts_.Timeout([&] { fired_at = sim_.Now(); }, 1);
  sim_.Run();
  EXPECT_EQ(fired_at, callouts_.TickDuration());
  EXPECT_EQ(fired_at % callouts_.TickDuration(), 0);
}

TEST_F(CalloutTest, TimeoutMultipleTicks) {
  SimTime fired_at = -1;
  callouts_.Timeout([&] { fired_at = sim_.Now(); }, 5);
  sim_.Run();
  EXPECT_EQ(fired_at, 5 * callouts_.TickDuration());
}

TEST_F(CalloutTest, ScheduleHeadRunsBeforeFifoEntriesOnSameTick) {
  std::vector<int> order;
  callouts_.Timeout([&] { order.push_back(1); }, 1);
  callouts_.Timeout([&] { order.push_back(2); }, 1);
  callouts_.ScheduleHead([&] { order.push_back(0); });
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST_F(CalloutTest, ScheduleHeadFromHandlerLandsOnNextTick) {
  std::vector<SimTime> fire_times;
  callouts_.ScheduleHead([&] {
    fire_times.push_back(sim_.Now());
    callouts_.ScheduleHead([&] { fire_times.push_back(sim_.Now()); });
  });
  sim_.Run();
  ASSERT_EQ(fire_times.size(), 2u);
  EXPECT_EQ(fire_times[1] - fire_times[0], callouts_.TickDuration());
}

TEST_F(CalloutTest, UntimeoutRemovesPendingEntry) {
  bool fired = false;
  CalloutId id = callouts_.Timeout([&] { fired = true; }, 3);
  EXPECT_TRUE(callouts_.Untimeout(id));
  EXPECT_FALSE(callouts_.Untimeout(id));
  sim_.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(callouts_.Pending(), 0u);
}

TEST_F(CalloutTest, ObserverSeesBatchSizes) {
  // Each softclock pass records its batch size in a kSoftclockRun record.
  TraceLog trace;
  callouts_.set_trace(&trace);
  callouts_.Timeout([] {}, 1);
  callouts_.Timeout([] {}, 1);
  callouts_.Timeout([] {}, 2);
  sim_.Run();
  std::vector<int64_t> batches;
  for (const TraceRecord& r : trace.Snapshot()) {
    if (r.kind == TraceKind::kSoftclockRun) {
      batches.push_back(r.a);
    }
  }
  EXPECT_EQ(batches, (std::vector<int64_t>{2, 1}));
  EXPECT_EQ(callouts_.softclock_runs(), 2u);
}

TEST_F(CalloutTest, MidTickTimeoutRoundsUpToNextEdge) {
  // Advance to the middle of a tick, then ask for a 1-tick timeout: it must
  // fire at the next edge, not a full tick later.
  sim_.After(callouts_.TickDuration() / 2, [&] {
    callouts_.Timeout([] {}, 1);
  });
  sim_.Run();
  EXPECT_EQ(sim_.Now(), callouts_.TickDuration());
}


TEST_F(CalloutTest, UntimeoutAfterFireReturnsFalse) {
  CalloutId id = callouts_.Timeout([] {}, 1);
  sim_.Run();
  EXPECT_FALSE(callouts_.Untimeout(id));
}

TEST_F(CalloutTest, UntimeoutHeadAndFifoEntriesOnOneTick) {
  std::vector<int> order;
  const CalloutId fifo1 = callouts_.Timeout([&] { order.push_back(1); }, 1);
  const CalloutId head1 = callouts_.ScheduleHead([&] { order.push_back(-1); });
  callouts_.ScheduleHead([&] { order.push_back(-2); });
  callouts_.Timeout([&] { order.push_back(2); }, 1);
  EXPECT_EQ(callouts_.Pending(), 4u);
  EXPECT_TRUE(callouts_.Untimeout(head1));
  EXPECT_TRUE(callouts_.Untimeout(fifo1));
  EXPECT_FALSE(callouts_.Untimeout(head1));
  EXPECT_EQ(callouts_.Pending(), 2u);
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{-2, 2}));
  EXPECT_EQ(callouts_.Pending(), 0u);
  EXPECT_EQ(callouts_.softclock_runs(), 1u);
}

TEST_F(CalloutTest, UntimeoutOfFiredOrUnknownIdIsRefused) {
  const CalloutId early = callouts_.Timeout([] {}, 1);
  const CalloutId late = callouts_.Timeout([] {}, 3);
  sim_.RunUntil(callouts_.TickDuration());
  EXPECT_FALSE(callouts_.Untimeout(early));  // fired on tick 1
  EXPECT_FALSE(callouts_.Untimeout(kInvalidCalloutId));
  EXPECT_FALSE(callouts_.Untimeout(late + 100));  // never issued
  EXPECT_EQ(callouts_.Pending(), 1u);
  EXPECT_TRUE(callouts_.Untimeout(late));
}

TEST_F(CalloutTest, EmptiedTickCancelsItsSoftclock) {
  const CalloutId only = callouts_.Timeout([] {}, 2);
  callouts_.Timeout([] {}, 1);
  EXPECT_EQ(sim_.PendingEvents(), 2u);  // one softclock per tick
  EXPECT_TRUE(callouts_.Untimeout(only));
  EXPECT_EQ(sim_.PendingEvents(), 1u);
  sim_.Run();
  EXPECT_EQ(callouts_.softclock_runs(), 1u);
  EXPECT_EQ(sim_.Now(), callouts_.TickDuration());
}

TEST_F(CalloutTest, PendingCountsAcrossTicks) {
  for (int ticks = 1; ticks <= 3; ++ticks) {
    callouts_.Timeout([] {}, ticks);
    callouts_.Timeout([] {}, ticks);
  }
  callouts_.ScheduleHead([] {});
  EXPECT_EQ(callouts_.Pending(), 7u);
  sim_.RunUntil(callouts_.TickDuration());
  EXPECT_EQ(callouts_.Pending(), 4u);
  // A handler re-arming itself stays pending across its own tick.
  callouts_.Timeout([&] { callouts_.ScheduleHead([] {}); }, 1);
  EXPECT_EQ(callouts_.Pending(), 5u);
  sim_.RunUntil(2 * callouts_.TickDuration());
  EXPECT_EQ(callouts_.Pending(), 3u);
  sim_.Run();
  EXPECT_EQ(callouts_.Pending(), 0u);
  EXPECT_EQ(callouts_.softclock_runs(), 3u);
}

TEST_F(CalloutTest, IndependentTablesDoNotInterfere) {
  CalloutTable other(&sim_, 100);
  std::vector<int> order;
  callouts_.Timeout([&] { order.push_back(256); }, 1);   // fires at 1/256 s
  other.Timeout([&] { order.push_back(100); }, 1);       // fires at 1/100 s
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{256, 100}));
}

// --- same-timestamp tie-break perturbation (src/sim/krace.h) ---
//
// The event queue's only schedule freedom is the order of same-timestamp
// events; SetPerturbSeed re-keys that tie-break by a seeded hash.  These
// tests pin the legality envelope: every seed yields a permutation of the
// same event set, seed 0 is the historical insertion order, equal seeds
// reproduce exactly, and causality (a child scheduled by a same-time event
// runs after its creator) survives every seed.

std::vector<int> SameTimeFireOrder(uint64_t seed) {
  Simulator scope;  // holds the seed, so it does not outlive this run
  Krace().SetPerturbSeed(seed);
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sim.At(Milliseconds(1), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  return order;
}

TEST(PerturbTest, SeedZeroIsInsertionOrder) {
  EXPECT_EQ(SameTimeFireOrder(0), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(PerturbTest, EverySeedYieldsAPermutation) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::vector<int> order = SameTimeFireOrder(seed);
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}))
        << "seed " << seed << " dropped or duplicated events";
  }
}

TEST(PerturbTest, SameSeedReproducesExactly) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    EXPECT_EQ(SameTimeFireOrder(seed), SameTimeFireOrder(seed))
        << "seed " << seed;
  }
}

TEST(PerturbTest, SomeSeedActuallyPermutes) {
  // The perturbation would be vacuous if every seed reproduced insertion
  // order; with 8 events and 8 seeds, at least one must differ.
  const std::vector<int> base = SameTimeFireOrder(0);
  bool permuted = false;
  for (uint64_t seed = 1; seed <= 8 && !permuted; ++seed) {
    permuted = (SameTimeFireOrder(seed) != base);
  }
  EXPECT_TRUE(permuted);
}

TEST(PerturbTest, DistinctTimestampsStayClockOrdered) {
  for (uint64_t seed = 0; seed <= 4; ++seed) {
    Simulator scope;  // holds the seed, so it does not outlive this run
    Krace().SetPerturbSeed(seed);
    Simulator sim;
    std::vector<int> order;
    // Scheduled in reverse time order on purpose.
    for (int i = 7; i >= 0; --i) {
      sim.At(Milliseconds(i + 1), [&order, i] { order.push_back(i); });
    }
    sim.Run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}))
        << "seed " << seed;
  }
}

TEST(PerturbTest, ChildAlwaysRunsAfterItsCreator) {
  // Every tie-break permutation is a LEGAL schedule: an event scheduled by
  // a same-timestamp event pops after its creator under any key order,
  // because the creator had already been popped when it scheduled.
  for (uint64_t seed = 0; seed <= 8; ++seed) {
    Simulator scope;  // holds the seed, so it does not outlive this run
    Krace().SetPerturbSeed(seed);
    Simulator sim;
    std::vector<int> order;  // parent p recorded as p, child as p + 100
    for (int p = 0; p < 4; ++p) {
      sim.At(Milliseconds(1), [&sim, &order, p] {
        order.push_back(p);
        sim.After(0, [&order, p] { order.push_back(p + 100); });
      });
    }
    sim.Run();
    ASSERT_EQ(order.size(), 8u) << "seed " << seed;
    for (int p = 0; p < 4; ++p) {
      const auto parent = std::find(order.begin(), order.end(), p);
      const auto child = std::find(order.begin(), order.end(), p + 100);
      ASSERT_NE(parent, order.end());
      ASSERT_NE(child, order.end());
      EXPECT_LT(parent - order.begin(), child - order.begin())
          << "seed " << seed << ": child of " << p << " ran before it";
    }
  }
}

TEST(PerturbTest, CancellationWorksUnderPerturbation) {
  for (uint64_t seed = 0; seed <= 4; ++seed) {
    Simulator scope;  // holds the seed, so it does not outlive this run
    Krace().SetPerturbSeed(seed);
    Simulator sim;
    int fired = 0;
    std::vector<EventId> ids;
    for (int i = 0; i < 6; ++i) {
      ids.push_back(sim.At(Milliseconds(1), [&fired] { ++fired; }));
    }
    EXPECT_TRUE(sim.Cancel(ids[1]));
    EXPECT_TRUE(sim.Cancel(ids[4]));
    sim.Run();
    EXPECT_EQ(fired, 4) << "seed " << seed;
  }
}

TEST(PerturbTest, SameTickCalloutsKeepArmingOrderUnderAnySeed) {
  // Same-tick callouts run inside ONE softclock event in arming order; the
  // tie-break permutes events, never the intra-event list walk, so callout
  // FIFO order is schedule-independent by construction.
  for (uint64_t seed = 0; seed <= 4; ++seed) {
    Simulator scope;  // holds the seed, so it does not outlive this run
    Krace().SetPerturbSeed(seed);
    Simulator sim;
    CalloutTable callouts(&sim, /*hz=*/256);
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) {
      callouts.Timeout([&order, i] { order.push_back(i); }, 2);
    }
    sim.Run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3})) << "seed " << seed;
  }
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Rng rng(2024);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.Below(kBuckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets / 10);
  }
}

// --- per-run state (src/sim/sim_state.h) ---

TEST(SimStateTest, DestroyedSimulatorFoldsItsCountsIntoTheEnclosingState) {
  Simulator outer;  // a fresh enclosing state for this test
  Krace().SetMode(KraceDetector::Mode::kCollect);
  Lockdep().SetMode(LockdepValidator::Mode::kCollect);
  SpinLock a("a", 10);
  SpinLock b("b", 20);
  a.Acquire();
  a.Release();
  int field = 0;
  uint64_t inner_spins = 0;
  size_t inner_violations = 0;
  {
    Simulator inner;
    // Configuration is copied in; every counter and record starts fresh.
    EXPECT_EQ(Krace().mode(), KraceDetector::Mode::kCollect);
    EXPECT_EQ(Lockdep().mode(), LockdepValidator::Mode::kCollect);
    EXPECT_EQ(GlobalLockStats().spin_acquisitions, 0u);
    inner.At(10, [&] { IKDP_KRACE_WRITE(&field, "SimStateTest::field"); });
    inner.At(10, [&] { IKDP_KRACE_WRITE(&field, "SimStateTest::field"); });
    inner.Run();
    b.Acquire();
    a.Acquire();  // rank inversion: a violation recorded in the inner run
    a.Release();
    b.Release();
    inner_spins = GlobalLockStats().spin_acquisitions;
    inner_violations = Lockdep().violations().size();
    ASSERT_EQ(Krace().races().size(), 1u);
    ASSERT_GT(inner_violations, 0u);
    EXPECT_FALSE(Lockdep().edges().empty());
  }
  const LockStats& s = GlobalLockStats();
  EXPECT_EQ(s.spin_acquisitions, 1 + inner_spins);
  EXPECT_EQ(s.max_held, 2);
  EXPECT_EQ(s.max_held_rank, 20);
  EXPECT_EQ(s.cur_held, 0);
  EXPECT_EQ(Krace().races().size(), 1u);
  EXPECT_EQ(Lockdep().violations().size(), inner_violations);
  // The order graph is per run: only records fold, not the inner graph.
  EXPECT_TRUE(Lockdep().edges().empty());
}

TEST(SimStateTest, LockCountDeltaAcrossARunIsThatRunsOwnCount) {
  SpinLock host_lock("host", 10);
  host_lock.Acquire();  // a count on the host before the run
  host_lock.Release();
  const uint64_t before = GlobalLockStats().spin_acquisitions;
  uint64_t own = 0;
  {
    Simulator sim;
    CalloutTable callouts(&sim, /*hz=*/256);
    int fired = 0;
    for (int i = 0; i < 4; ++i) {
      callouts.Timeout([&fired] { ++fired; }, i + 1);
    }
    sim.Run();
    EXPECT_EQ(fired, 4);
    own = GlobalLockStats().spin_acquisitions;
  }
  EXPECT_GT(own, 0u);
  EXPECT_EQ(GlobalLockStats().spin_acquisitions - before, own);
}

}  // namespace
}  // namespace ikdp
