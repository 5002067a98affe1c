// The buffer header, modelled on the 4.2BSD `struct buf` ([LMK89] ch. 7).
//
// A Buf describes one block-sized I/O in flight or cached: which device and
// physical block it maps, status flags, the data area, and the completion
// hook (`b_iodone`, invoked by biodone() when B_CALL is set) that the splice
// implementation uses to chain reads into writes without a process context.
//
// The paper adds two fields to the stock header (Section 5.2.3): the splice
// descriptor the buffer belongs to and the logical block number its data
// corresponds to, so several buffers can be in flight simultaneously and
// complete out of order.  Those fields appear here as `splice_owner` /
// `logical_blkno`, plus `splice_peer` for the write side to find the
// source-side buffer it aliases.

#ifndef SRC_BUF_BUF_H_
#define SRC_BUF_BUF_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/kern/ctx.h"
#include "src/sim/inline_fn.h"
#include "src/sim/kspan.h"
#include "src/sim/sim_state.h"
#include "src/sim/time.h"

namespace ikdp {

// The filesystem block size used throughout (4.2BSD FFS default).
inline constexpr int64_t kBlockSize = 8192;

// What a never-written or discarded block, and a file hole, read as.
inline constexpr std::array<uint8_t, kBlockSize> kZeroBlock{};

// A block's data area.  Shared, so a splice write-side header can alias
// the read-side buffer's data and a datagram can carry it across the wire
// without copying (the paper's key zero-copy step: "both buffers share a
// common data area").
//
// Copy-on-write: the bytes are const to every holder.  MakeWritable is the
// only way to write them, and it first gives the holder a private clone if
// anyone else holds the area, the way an mbuf's external storage is written
// only when its reference count is one.  A holder that changes bytes after
// handing the area on therefore never changes what the others see.  Code
// that builds a fresh area fills a std::vector it alone holds and then
// publishes it as BufData.
using BufData = std::shared_ptr<const std::vector<uint8_t>>;

inline BufData MakeBufData() {
  return std::make_shared<std::vector<uint8_t>>(kBlockSize, 0);
}

// The bytes of `d` (non-null) for writing, cloned first when `d` is shared.
inline std::vector<uint8_t>& MakeWritable(BufData& d) {
  if (d.use_count() != 1) {
    d = std::make_shared<std::vector<uint8_t>>(*d);
  }
  // Every data area is created as a non-const vector (above, or by the
  // code that filled it), so with no other holder writing it is safe.
  return const_cast<std::vector<uint8_t>&>(*d);
}

// Buffer status flags (names follow 4.2BSD).
enum BufFlags : uint32_t {
  kBufBusy = 1u << 0,    // B_BUSY: owned by someone, not on the free list
  kBufDone = 1u << 1,    // B_DONE: contains valid data / I/O completed
  kBufDelwri = 1u << 2,  // B_DELWRI: dirty, write deferred
  kBufRead = 1u << 3,    // B_READ: current operation is a read
  kBufAsync = 1u << 4,   // B_ASYNC: release on completion, nobody waits
  kBufCall = 1u << 5,    // B_CALL: invoke b_iodone at completion
  kBufInval = 1u << 6,   // B_INVAL: contents invalid, reuse first
  kBufError = 1u << 7,   // B_ERROR: I/O failed
  kBufWanted = 1u << 8,  // B_WANTED: someone sleeps on this buffer
};

class BlockDevice;
class BufferCache;

struct Buf {
  BufferCache* cache = nullptr;  // owning cache (null for transient headers)
  BlockDevice* dev = nullptr;
  int64_t blkno = -1;  // physical block number on `dev`
  // Status flags cross every context: the process path sets kBufBusy, the
  // interrupt path (biodone) sets kBufDone, the softclock write side sets
  // kBufAsync|kBufCall.  Has/Set/Clear below carry the krace access probes.
  uint32_t flags IKDP_GUARDED_BY(any) = 0;
  // Errno of the failed I/O when kBufError is set (b_error in 4.2BSD);
  // written by the driver's completion interrupt just before Biodone, read
  // by whoever inspects kBufError.  0 when no error is pending.
  int error IKDP_GUARDED_BY(any) = 0;
  // Times a delwri victim write for this block has failed on media; bounds
  // the redirty-and-retry loop in Brelse (see BufferCache::Stats).
  int delwri_retries = 0;
  int64_t bcount = kBlockSize;  // bytes valid in this transfer
  BufData data;                 // may alias another buffer's data

  // Completion hook, run by biodone() when kBufCall is set.
  InlineFn<void(Buf&)> iodone;

  // --- splice extensions (paper Section 5.2.3) ---
  // Written at splice setup (process or interrupt context, whichever issues
  // the read) and consumed by the interrupt/softclock completion chain.
  void* splice_owner IKDP_GUARDED_BY(any) = nullptr;
  int64_t logical_blkno IKDP_GUARDED_BY(any) = -1;
  Buf* splice_peer IKDP_GUARDED_BY(any) = nullptr;

  // The kspan riding this I/O (src/sim/kspan.h): stamped from the cursor
  // when the buffer is acquired (getblk) and carried through the disk queue
  // so the completion interrupt attributes its work to the request that
  // issued the transfer.  Written by the acquiring context, read by the
  // driver and its completion interrupt — same contexts that own the flags.
  SpanId span IKDP_GUARDED_BY(any) = kNoSpan;

  // --- cache bookkeeping (BufferCache internal) ---
  //
  // Intrusive links, 4.2BSD-style (av_forw/av_back and b_forw/b_back): the
  // buffer is its own list node, so moving it between the LRU free list and
  // a hash chain is O(1) with no allocation.
  Buf* free_prev = nullptr;  // LRU free list (null when !on_freelist)
  Buf* free_next = nullptr;
  Buf* hash_prev = nullptr;  // per-bucket hash chain (null when !hashed)
  Buf* hash_next = nullptr;
  bool hashed = false;
  bool on_freelist = false;
  bool transient = false;      // header-only buffer outside the cache pool
  bool delwri_victim = false;  // in-flight delwri push (victim reuse/FlushDev)

  bool Has(BufFlags f) const {
    IKDP_KRACE_READ(this, "Buf::flags");
    return (flags & f) != 0;
  }
  void Set(BufFlags f) {
    IKDP_KRACE_WRITE(this, "Buf::flags");
    flags |= f;
  }
  void Clear(BufFlags f) {
    IKDP_KRACE_WRITE(this, "Buf::flags");
    flags &= ~static_cast<uint32_t>(f);
  }
};

// Marks the I/O on `b` complete, 4.2BSD biodone() semantics:
//  * kBufCall: clear it and invoke b->iodone (splice handlers run here);
//  * else kBufAsync: release the buffer back to its cache;
//  * else: set kBufDone and wake any biowait() sleeper.
// Device drivers call this when a transfer finishes.
IKDP_CTX_ANY void Biodone(Buf& b);

// A block device as the buffer cache sees it: a strategy routine that
// services one buffer and eventually calls Biodone(), plus a capacity.
//
// Strategy() returns the CPU time the *caller's context* must be charged for
// issuing (and, for synchronous devices like the RAM disk, performing) the
// transfer.  DMA devices return only their setup cost; the RAM disk returns
// the full bcopy time, because its "transfer" is a memory copy executed by
// the CPU in whoever's context submitted it (paper Section 6.1).
//
// Every device keeps its contents in one sparse block store, implemented
// here: only blocks written since they were last discarded take host
// memory, and every other block reads as zeros.  CapacityBlocks() is the
// simulated size; nothing is allocated for it.  Drivers move content with
// MoveContent() when a transfer completes; timing is theirs alone.
class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  // Begins servicing `b` (direction per kBufRead).  Completion is signalled
  // via Biodone(b), possibly synchronously before Strategy returns.
  // Interrupt-safe: the splice read path submits from completion handlers.
  IKDP_CTX_ANY virtual SimDuration Strategy(Buf& b) = 0;

  // Device size in kBlockSize blocks.
  virtual int64_t CapacityBlocks() const = 0;

  virtual const char* Name() const = 0;

  // --- untimed content access ---
  //
  // Used for experiment setup (pre-creating files without simulating the
  // writes) and end-to-end verification.  No request, no trace record, no
  // stat: none of these changes a simulated nanosecond.

  // Replaces block `blkno` with `data` (at most kBlockSize bytes), padding
  // the rest of the block with zeros.
  void PokeBlock(int64_t blkno, std::span<const uint8_t> data);

  // A read-only view of block `blkno`'s kBlockSize bytes, without a copy.
  // The view is valid until the block is next written (a completed write,
  // PokeBlock or MutableBlock) or discarded; take a new one after that.
  std::span<const uint8_t> PeekBlock(int64_t blkno) const;

  // Block `blkno`'s bytes for writing in place, stored as zeros first if
  // the block was not stored.
  std::span<uint8_t> MutableBlock(int64_t blkno);

  // Drops a block's contents; the filesystem calls it for every block it
  // frees, so the host memory a device holds tracks the live blocks rather
  // than everything ever written.  A freed block's content is unspecified
  // until the filesystem reallocates it; on the device, a discarded block
  // reads back as zeros until it is next written.
  void Discard(int64_t blkno);

  // Blocks whose contents the store holds.
  size_t StoredBlocks() const { return blocks_.size(); }

 protected:
  // Moves `b`'s first bcount bytes between its data area and the store: a
  // read fills the buffer, a write stores it.  Drivers call it at the
  // moment their transfer completes.
  void MoveContent(Buf& b, bool is_read);

 private:
  using Block = std::array<uint8_t, kBlockSize>;
  std::unordered_map<int64_t, std::unique_ptr<Block>> blocks_;
};

}  // namespace ikdp

#endif  // SRC_BUF_BUF_H_
