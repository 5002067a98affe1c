// Minimal C++20 coroutine support for simulated processes.
//
// Simulated user programs (cp, scp, the CPU-bound test program, the movie
// player) are written as coroutines so they read like the straight-line C
// programs they model.  A coroutine suspends whenever the program would
// block in a real kernel (syscall CPU charge, disk wait, sleep()); the
// kernel scheduler resumes it when the simulated process is dispatched.
//
// Task<T> is a lazily-started awaitable coroutine with continuation chaining
// (symmetric transfer), so syscalls can themselves be coroutines awaited by
// the process body.  Resumption is always driven from simulator event
// context, never re-entrantly, which the kernel scheduler enforces.
//
// Lifetime: a Task owns its coroutine frame.  Nested frames are owned by the
// Task objects living in their parent frames, so destroying a root task
// tears down the whole stack of suspended coroutines.  The kernel only
// destroys a process after its root task completes (processes run to exit),
// so no external completion callback is left dangling.

#ifndef SRC_SIM_TASK_H_
#define SRC_SIM_TASK_H_

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "src/sim/inline_fn.h"

namespace ikdp {

template <typename T>
class Task;

namespace internal {

struct PromiseBase {
  // Frames come from the current run's free lists (SimState::frames).
  // Defined in sim_state.cc: a frame's allocation stays one call at every
  // coroutine's ramp and destroy path.
  static void* operator new(std::size_t n);
  static void operator delete(void* p, std::size_t n);

  std::coroutine_handle<> continuation;
  EventFn on_done;  // set only on root (detached) tasks
  std::exception_ptr exception;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }

    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      PromiseBase& p = h.promise();
      if (p.on_done) {
        p.on_done();
      }
      if (p.continuation) {
        return p.continuation;
      }
      return std::noop_coroutine();
    }

    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  T value{};

  Task<T> get_return_object();
  void return_value(T v) { value = std::move(v); }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

}  // namespace internal

// An awaitable, lazily-started coroutine returning T.
template <typename T = void>
class Task {
 public:
  using promise_type = internal::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { Destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return handle_ && handle_.done(); }

  // Starts a detached (root) task.  `on_done` fires when the coroutine runs
  // to completion; the Task object must stay alive until then (it owns the
  // frame).
  void Start(EventFn on_done = nullptr) {
    assert(handle_ && !started_);
    started_ = true;
    handle_.promise().on_done = std::move(on_done);
    handle_.resume();
  }

  // --- awaitable interface (for `co_await subtask`) ---

  bool await_ready() const noexcept { return !handle_ || handle_.done(); }

  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    handle_.promise().continuation = cont;
    started_ = true;
    return handle_;  // symmetric transfer: start the child now
  }

  T await_resume() {
    auto& p = handle_.promise();
    if (p.exception) {
      std::rethrow_exception(p.exception);
    }
    if constexpr (!std::is_void_v<T>) {
      return std::move(p.value);
    }
  }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  Handle handle_;
  bool started_ = false;
};

namespace internal {

template <typename T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace internal

// Suspends the awaiting coroutine and hands its handle to `arm`, which must
// arrange for the handle to be resumed later (typically via a simulator
// event).  Example:
//
//   co_await SuspendAndCall([&](std::coroutine_handle<> h) {
//     sim.After(Milliseconds(5), [h] { h.resume(); });
//   });
class SuspendAndCall {
 public:
  explicit SuspendAndCall(InlineFn<void(std::coroutine_handle<>)> arm) : arm_(std::move(arm)) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { arm_(h); }
  void await_resume() const noexcept {}

 private:
  InlineFn<void(std::coroutine_handle<>)> arm_;
};

}  // namespace ikdp

#endif  // SRC_SIM_TASK_H_
