#include "src/net/payload_pool.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <new>
#include <vector>

#include "src/sim/sim_state.h"

namespace ikdp {

// The pool's state, shared with every outstanding buffer.  It outlives the
// PayloadPool while any buffer's control block is still allocated.
struct PayloadPool::Core {
  std::vector<std::vector<uint8_t>*> free_buffers;
  std::vector<void*> free_blocks;  // control-block storage
  size_t buffers = 0;              // payload vectors ever created
  size_t blocks = 0;               // control blocks currently allocated
  size_t block_size = 0;           // every control block has one type
  bool detached = false;           // the PayloadPool is gone

  void DeleteIfUnused() {
    if (detached && blocks == 0) {
      delete this;
    }
  }
};

// The BufData deleter: runs when the last reference goes.
struct PayloadPool::Recycle {
  Core* core;
  void operator()(std::vector<uint8_t>* v) const {
    if (core->detached) {
      delete v;
    } else {
      core->free_buffers.push_back(v);
    }
  }
};

// Allocates the BufData control blocks (a shared_ptr rebinds it to its one
// control-block type).  Deallocation runs after the deleter, once the weak
// count is gone too, so it is the last touch of the Core.
template <typename T>
struct PayloadPool::BlockAlloc {
  using value_type = T;
  Core* core;

  explicit BlockAlloc(Core* c) : core(c) {}
  template <typename U>
  BlockAlloc(const BlockAlloc<U>& o) : core(o.core) {}  // NOLINT(google-explicit-constructor)

  T* allocate(size_t n) {
    assert(n == 1);
    (void)n;
    assert(core->block_size == 0 || core->block_size == sizeof(T));
    core->block_size = sizeof(T);
    void* p;
    if (core->free_blocks.empty()) {
      p = ::operator new(sizeof(T));
    } else {
      p = core->free_blocks.back();
      core->free_blocks.pop_back();
    }
    ++core->blocks;
    return static_cast<T*>(p);
  }

  void deallocate(T* p, size_t) {
    --core->blocks;
    if (core->detached) {
      ::operator delete(p);
    } else {
      core->free_blocks.push_back(p);
    }
    core->DeleteIfUnused();
  }

  template <typename U>
  bool operator==(const BlockAlloc<U>& o) const {
    return core == o.core;
  }
};

PayloadPool::PayloadPool() : core_(new Core) {}

PayloadPool::~PayloadPool() {
  for (std::vector<uint8_t>* v : core_->free_buffers) {
    delete v;
  }
  for (void* p : core_->free_blocks) {
    ::operator delete(p);
  }
  core_->free_buffers.clear();
  core_->free_blocks.clear();
  core_->detached = true;
  core_->DeleteIfUnused();
}

PayloadPool& PayloadPool::ForCurrentRun() {
  std::shared_ptr<void>& slot = CurrentSimState().payload_pool;
  if (slot == nullptr) {
    slot = std::make_shared<PayloadPool>();
  }
  return *static_cast<PayloadPool*>(slot.get());
}

BufData PayloadPool::Snapshot(const BufData& src, int64_t nbytes) {
  assert(nbytes >= 0);
  std::vector<uint8_t>* v;
  if (core_->free_buffers.empty()) {
    v = new std::vector<uint8_t>;
    ++core_->buffers;
  } else {
    v = core_->free_buffers.back();
    core_->free_buffers.pop_back();
  }
  const auto n = static_cast<size_t>(nbytes);
  const size_t copied = src == nullptr ? 0 : std::min(n, src->size());
  v->clear();
  if (copied > 0) {
    v->assign(src->begin(), src->begin() + static_cast<std::ptrdiff_t>(copied));
  }
  v->resize(n, 0);
  return BufData(v, Recycle{core_}, BlockAlloc<std::vector<uint8_t>>(core_));
}

size_t PayloadPool::buffers() const { return core_->buffers; }

}  // namespace ikdp
