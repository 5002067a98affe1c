// InlineFn<R(Args...)>: the one type-erased callable in src/.  Events,
// callouts, interrupt bodies, iodone hooks, device and endpoint completions
// and workload hooks are all InlineFns.  It is move-only: a callback has one
// owner, and handing it on is a move.  The call operator is const, so hooks
// reached through a const reference stay callable (the target runs as
// non-const).
//
// Callables of up to kInlineSize bytes (with at most pointer alignment and a
// non-throwing move) are stored inline; larger ones, including any closure
// that captures another InlineFn, are moved to the heap.  Lambdas and
// function pointers convert implicitly, and nullptr makes an empty one.
// Arguments are forwarded: a by-value parameter (BufData, unique_ptr) is
// moved into the target, a reference parameter binds through.  Calling an
// empty InlineFn is undefined.

#ifndef SRC_SIM_INLINE_FN_H_
#define SRC_SIM_INLINE_FN_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace ikdp {

template <typename Sig>
class InlineFn;

template <typename R, typename... Args>
class InlineFn<R(Args...)> {
 public:
  static constexpr size_t kInlineSize = 48;

  InlineFn() = default;
  InlineFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>>
    requires(!std::is_same_v<D, InlineFn> && !std::is_same_v<D, std::nullptr_t> &&
             std::is_invocable_r_v<R, D&, Args...>)
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor): closures convert
    if constexpr (kStoresInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      D* heap = new D(std::forward<F>(f));
      std::memcpy(buf_, &heap, sizeof(heap));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFn(InlineFn&& other) noexcept { Take(other); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      Reset();
      Take(other);
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) const { return ops_->call(buf_, std::forward<Args>(args)...); }

  // True when a callable of type F would be stored inline (no allocation).
  template <typename F>
  static constexpr bool kStoresInline = sizeof(std::decay_t<F>) <= kInlineSize &&
                                        alignof(std::decay_t<F>) <= alignof(void*) &&
                                        std::is_nothrow_move_constructible_v<std::decay_t<F>>;

 private:
  // `relocate` move-constructs at dst and destroys src; nullptr means a
  // bytewise copy suffices.  `destroy` nullptr means nothing to destroy.
  struct Ops {
    R (*call)(void*, Args&&...);
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename D>
  static constexpr bool kTrivial =
      std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>;

  template <typename D>
  static R Invoke(D& d, Args&&... args) {
    if constexpr (std::is_void_v<R>) {
      d(std::forward<Args>(args)...);
    } else {
      return d(std::forward<Args>(args)...);
    }
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* p, Args&&... args) -> R {
        return Invoke(*static_cast<D*>(p), std::forward<Args>(args)...);
      },
      kTrivial<D> ? nullptr
                  : +[](void* dst, void* src) {
                      ::new (dst) D(std::move(*static_cast<D*>(src)));
                      static_cast<D*>(src)->~D();
                    },
      kTrivial<D> ? nullptr : +[](void* p) { static_cast<D*>(p)->~D(); },
  };

  // The inline buffer holds only the pointer, so moving is a bytewise copy.
  template <typename D>
  static D* HeapPtr(void* p) {
    D* heap;
    std::memcpy(&heap, p, sizeof(heap));
    return heap;
  }
  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* p, Args&&... args) -> R {
        return Invoke(*HeapPtr<D>(p), std::forward<Args>(args)...);
      },
      nullptr,
      [](void* p) { delete HeapPtr<D>(p); },
  };

  void Take(InlineFn& other) {
    ops_ = other.ops_;
    if (ops_ == nullptr) {
      return;
    }
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, kInlineSize);
    }
    other.ops_ = nullptr;
  }

  void Reset() {
    if (ops_ != nullptr && ops_->destroy != nullptr) {
      ops_->destroy(buf_);
    }
    ops_ = nullptr;
  }

  alignas(void*) mutable unsigned char buf_[kInlineSize];  // const call, non-const target
  const Ops* ops_ = nullptr;
};

// The event engine's closure type: events, callouts and interrupt bodies.
using EventFn = InlineFn<void()>;

}  // namespace ikdp

#endif  // SRC_SIM_INLINE_FN_H_
