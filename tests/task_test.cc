// Unit tests for the coroutine task layer.

#include <gtest/gtest.h>
#include <pthread.h>

#include <coroutine>
#include <functional>
#include <optional>
#include <stdexcept>
#include <vector>

#include "src/sim/sim_state.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace ikdp {
namespace {

// An awaitable that suspends and resumes via a simulator event after `delay`.
SuspendAndCall SimSleep(Simulator* sim, SimDuration delay) {
  return SuspendAndCall(
      [sim, delay](std::coroutine_handle<> h) { sim->After(delay, [h] { h.resume(); }); });
}

TEST(TaskTest, RootTaskRunsOnStart) {
  bool ran = false;
  auto body = [&]() -> Task<> {
    ran = true;
    co_return;
  };
  Task<> t = body();
  EXPECT_FALSE(ran);  // lazy start
  bool done = false;
  t.Start([&] { done = true; });
  EXPECT_TRUE(ran);
  EXPECT_TRUE(done);
  EXPECT_TRUE(t.done());
}

TEST(TaskTest, SuspendsAcrossSimEvents) {
  Simulator sim;
  std::vector<SimTime> stamps;
  auto body = [&]() -> Task<> {
    stamps.push_back(sim.Now());
    co_await SimSleep(&sim, Milliseconds(3));
    stamps.push_back(sim.Now());
    co_await SimSleep(&sim, Milliseconds(4));
    stamps.push_back(sim.Now());
  };
  Task<> t = body();
  bool done = false;
  t.Start([&] { done = true; });
  EXPECT_FALSE(done);
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(stamps, (std::vector<SimTime>{0, Milliseconds(3), Milliseconds(7)}));
}

TEST(TaskTest, NestedTasksChainValues) {
  Simulator sim;
  auto leaf = [&](int x) -> Task<int> {
    co_await SimSleep(&sim, Milliseconds(1));
    co_return x * 2;
  };
  int result = 0;
  auto root = [&]() -> Task<> {
    const int a = co_await leaf(10);
    const int b = co_await leaf(a);
    result = b;
  };
  Task<> t = root();
  t.Start();
  sim.Run();
  EXPECT_EQ(result, 40);
  EXPECT_EQ(sim.Now(), Milliseconds(2));
}

// AddressSanitizer builds (GCC's __SANITIZE_ADDRESS__, Clang's feature test).
#if defined(__SANITIZE_ADDRESS__)
#define IKDP_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IKDP_TEST_ASAN 1
#endif
#endif

#if defined(IKDP_TEST_ASAN)
// Runs `body` on a thread with a `bytes`-deep stack and waits for it.
void RunOnStack(size_t bytes, std::function<void()> body) {
  pthread_attr_t attr;
  pthread_attr_init(&attr);
  pthread_attr_setstacksize(&attr, bytes);
  pthread_t thread;
  auto trampoline = [](void* arg) -> void* {
    (*static_cast<std::function<void()>*>(arg))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&thread, &attr, trampoline, &body), 0);
  pthread_join(thread, nullptr);
  pthread_attr_destroy(&attr);
}
#endif

TEST(TaskTest, DeeplyNestedSynchronousTasksDontOverflow) {
  // Symmetric transfer means a long chain of immediately-completing child
  // tasks must not grow the real stack.
  auto nest = [] {
    std::function<Task<int>(int)> countdown = [&](int n) -> Task<int> {
      if (n == 0) {
        co_return 0;
      }
      co_return 1 + co_await countdown(n - 1);
    };
    int result = -1;
    auto root = [&]() -> Task<> { result = co_await countdown(50000); };
    Task<> t = root();
    t.Start();
    EXPECT_EQ(result, 50000);
  };
#if defined(IKDP_TEST_ASAN)
  // The sanitizer's instrumentation stops the compiler from turning the
  // transfer into a tail call, so each level keeps a real frame: give the
  // same depth a stack that holds it.
  RunOnStack(size_t{1} << 30, nest);
#else
  nest();
#endif
}

TEST(TaskTest, ExceptionPropagatesToAwaiter) {
  auto thrower = []() -> Task<int> {
    throw std::runtime_error("boom");
    co_return 0;  // unreachable; makes this a coroutine
  };
  bool caught = false;
  auto root = [&]() -> Task<> {
    try {
      (void)co_await thrower();
    } catch (const std::runtime_error& e) {
      caught = std::string(e.what()) == "boom";
    }
  };
  Task<> t = root();
  t.Start();
  EXPECT_TRUE(caught);
}

TEST(TaskTest, TwoRootsInterleaveDeterministically) {
  Simulator sim;
  std::vector<int> order;
  auto make = [&](int id, SimDuration step) -> Task<> {
    for (int i = 0; i < 3; ++i) {
      co_await SimSleep(&sim, step);
      order.push_back(id);
    }
  };
  Task<> a = make(1, Milliseconds(2));
  Task<> b = make(2, Milliseconds(3));
  a.Start();
  b.Start();
  sim.Run();
  // a fires at 2,4,6; b at 3,6,9.  At t=6 b's event was scheduled first
  // (inserted at t=3, before a's t=4 insertion), so b precedes a there.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1, 2}));
}

TEST(TaskTest, MoveTransfersOwnership) {
  auto body = []() -> Task<int> { co_return 7; };
  Task<int> a = body();
  Task<int> b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing moved-from state
  EXPECT_TRUE(b.valid());
}

TEST(TaskTest, VoidTaskAwaitable) {
  Simulator sim;
  int steps = 0;
  auto child = [&]() -> Task<> {
    ++steps;
    co_await SimSleep(&sim, Milliseconds(1));
    ++steps;
  };
  auto root = [&]() -> Task<> {
    co_await child();
    ++steps;
  };
  Task<> t = root();
  t.Start();
  sim.Run();
  EXPECT_EQ(steps, 3);
}

// --- the per-run frame pool (SimState::frames) ---

// `depth` nested frames, each sleeping once on `sim`; returns `depth`.
Task<int> Chain(Simulator* sim, int depth) {
  co_await SimSleep(sim, 1);
  if (depth == 0) {
    co_return 0;
  }
  co_return 1 + co_await Chain(sim, depth - 1);
}

uint64_t HeapFrames() { return CurrentSimState().frames.heap_frames(); }

// Runs Chain(depth) to completion on `sim`; its depth + 1 frames are freed.
void RunChain(Simulator& sim, int depth) {
  Task<int> t = Chain(&sim, depth);
  t.Start();
  sim.Run();
  EXPECT_TRUE(t.done());
}

TEST(FramePoolTest, SecondIdenticalRunAllocatesNoFrames) {
  Simulator sim;
  RunChain(sim, 8);
  const uint64_t first = HeapFrames();
  EXPECT_EQ(first, 9u);
  RunChain(sim, 8);
  EXPECT_EQ(HeapFrames(), first);
}

TEST(FramePoolTest, TaskDestroyedAfterItsSimulatorJoinsTheEnclosingLists) {
  Simulator outer;
  std::optional<Task<int>> t;
  {
    Simulator inner;
    t.emplace(Chain(&inner, 4));
    t->Start();
    inner.RunUntil(2);  // three frames deep, all suspended
    EXPECT_FALSE(t->done());
  }
  t.reset();  // the frames outlived their run; `outer` takes them over
  RunChain(outer, 2);
  EXPECT_EQ(HeapFrames(), 0u);
}

TEST(FramePoolTest, NestedSimulatorsDrawFromTheirOwnLists) {
  Simulator outer;
  RunChain(outer, 2);
  EXPECT_EQ(HeapFrames(), 3u);
  {
    Simulator inner;
    EXPECT_EQ(HeapFrames(), 0u);
    RunChain(inner, 4);
    EXPECT_EQ(HeapFrames(), 5u);
  }
  RunChain(outer, 2);
  EXPECT_EQ(HeapFrames(), 3u);
}

}  // namespace
}  // namespace ikdp
