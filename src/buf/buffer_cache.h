// The 4.2BSD buffer cache ([LMK89] ch. 7), with the paper's extensions.
//
// A fixed pool of block buffers is indexed by (device, physical block) in a
// hash table and recycled through an LRU free list.  Like the paper's
// header-only getblk, a pool buffer holds no data memory until it first
// takes a block identity; its kBlockSize frame is allocated then.  Two
// client APIs exist:
//
//  * The classic process-context API — Bread/Breada/Bwrite/Bawrite/Bdwrite/
//    Brelse/Biowait — used by the read()/write() file path.  These are
//    coroutines: they charge CPU to the calling process and sleep (PRIBIO)
//    on busy buffers, free-list exhaustion, and I/O completion.
//
//  * The splice API (paper Section 5.2.2): "New versions of the kernel
//    routines bread() and getblk(), with the calls to biowait() removed".
//    BreadAsync() schedules a read and returns immediately, delivering
//    completion through the buffer's b_iodone hook in interrupt context.
//    AllocTransientHeader() is the modified getblk "which avoids allocating
//    any real memory to the buffer": a header outside the pool whose data
//    pointer is aliased to the read-side buffer.
//
// CPU charging convention: process-context coroutines charge the calling
// process; non-blocking calls charge the executing interrupt when invoked at
// interrupt level and charge nothing otherwise (the syscall layer accounts
// for splice-setup work explicitly).

#ifndef SRC_BUF_BUFFER_CACHE_H_
#define SRC_BUF_BUFFER_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/buf/buf.h"
#include "src/kern/cpu.h"
#include "src/kern/ctx.h"
#include "src/kern/lock.h"
#include "src/sim/slot_pool.h"
#include "src/sim/task.h"

#if IKDP_TSA_ENABLED
// Clang thread-safety bridge: map the klock lock name "cache" onto the
// SpinLock member that backs it (see src/kern/ctx.h, "TSA BRIDGE").
#define cache_ikdp_tsa_cap , lock_
#endif

namespace ikdp {

class BufferCache {
 public:
  // `nbufs` block buffers of kBlockSize each (the paper's machine: 3.2 MB /
  // 8 KB = 400).
  BufferCache(CpuSystem* cpu, int nbufs);
  ~BufferCache();

  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  int nbufs() const { return nbufs_; }

  // Pool buffers holding a data frame.  A buffer gets its kBlockSize frame
  // when it first takes a block identity, so this counts the blocks the
  // cache has ever mapped, up to nbufs(); frames are never given back.
  int frames() const { return frames_; }

  // --- process-context (coroutine) API ---

  // Returns the buffer for (dev, blkno) with valid data, reading from the
  // device if necessary.  The buffer is returned busy; release with Brelse.
  IKDP_CTX_PROCESS Task<Buf*> Bread(Process& p, BlockDevice* dev, int64_t blkno);

  // Bread plus an asynchronous read-ahead of `rablkno` (pass -1 for none).
  IKDP_CTX_PROCESS Task<Buf*> Breada(Process& p, BlockDevice* dev, int64_t blkno, int64_t rablkno);

  // Fires an asynchronous read of (dev, blkno) into the cache if the block
  // is not already cached and a buffer is available without sleeping.
  // Non-blocking; used by the deeper read-ahead of FileSystem::Read.
  IKDP_CTX_ANY void IssueReadAhead(BlockDevice* dev, int64_t blkno);

  // Returns the buffer for (dev, blkno) busy, WITHOUT reading: contents are
  // valid only if kBufDone is set (cache hit).  Used by whole-block
  // overwrites.
  IKDP_CTX_PROCESS Task<Buf*> GetBlk(Process& p, BlockDevice* dev, int64_t blkno);

  // Writes `b` synchronously: waits for the transfer, then releases it.
  IKDP_CTX_PROCESS Task<> Bwrite(Process& p, Buf* b);

  // Starts an asynchronous write of `b` and returns once issued.  The
  // buffer releases itself on completion.
  IKDP_CTX_PROCESS Task<> Bawrite(Process& p, Buf* b);

  // Marks `b` dirty for a delayed write and releases it (no I/O now).
  IKDP_CTX_PROCESS void Bdwrite(Process& p, Buf* b);

  // Releases a busy buffer to the free list (tail; head if kBufInval).
  // Interrupt-safe: biodone paths release async buffers at interrupt level.
  // Takes the cache lock itself, so the caller must not hold it.
  IKDP_CTX_ANY IKDP_EXCLUDES(cache) void Brelse(Buf* b);

  // Waits for I/O on a busy buffer to complete (kBufDone).
  IKDP_CTX_PROCESS Task<> Biowait(Process& p, Buf* b);

  // Writes out every delayed-write block for `dev` and waits for all
  // asynchronous writes on `dev` to drain (fsync(2) of the paper's cp).
  IKDP_CTX_PROCESS Task<> FlushDev(Process& p, BlockDevice* dev);

  // Invalidates every clean cached block of `dev` (cold-cache priming for
  // the experiments).  Buffers that are busy or dirty are left alone.
  void InvalidateDev(BlockDevice* dev);

  // Pushes every idle delayed-write block straight into its device's
  // backing store WITHOUT simulating any I/O time.  Host-side helper for
  // content verification in tests and harnesses; never part of a timed run.
  void FlushAllInstant();

  // --- splice (non-blocking) API ---

  // Paper's modified bread: acquires a buffer for (dev, blkno) and schedules
  // a read with `iodone` installed (kBufCall); returns immediately.  If the
  // block is already cached and idle, `iodone` runs synchronously.  Returns
  // false when no buffer can be had without sleeping (caller retries later).
  IKDP_CTX_ANY bool BreadAsync(BlockDevice* dev, int64_t blkno, InlineFn<void(Buf&)> iodone);

  // Paper's modified getblk: a transient header with NO data area, for the
  // splice write side, in a recycled slot of the transient pool.  Free with
  // FreeTransientHeader (typically from the write-completion handler).
  IKDP_CTX_ANY Buf* AllocTransientHeader(BlockDevice* dev, int64_t blkno);
  IKDP_CTX_ANY void FreeTransientHeader(Buf* b);

  // Starts an asynchronous write of any busy buffer with `iodone` installed;
  // non-blocking, charges interrupt context if executing in one.
  IKDP_CTX_ANY void BawriteAsync(Buf* b, InlineFn<void(Buf&)> iodone);

  // --- shared ---

  // Driver completion entry point (free-function Biodone forwards here).
  IKDP_CTX_ANY void IoDone(Buf* b);

  // Number of asynchronous writes outstanding on `dev`.  Locks the cache
  // for the lookup — callers must not already hold it.
  IKDP_EXCLUDES(cache) int PendingWrites(BlockDevice* dev) const;

  // Drains CPU cost accumulated by process-context SubmitIo() calls on the
  // non-blocking API (e.g. the synchronous RAM-disk copies behind the
  // initial reads a splice issues at setup).  The syscall layer charges this
  // to the calling process.
  SimDuration TakeSyncCharge() { return std::exchange(pending_sync_charge_, 0); }

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t delwri_flushes = 0;   // victim writes forced by reuse
    uint64_t delwri_write_errors = 0;  // delwri pushes that failed on media
    uint64_t delwri_data_lost = 0;     // dirty blocks dropped after the retry
                                       // budget (kDelwriRetryLimit) ran out
    uint64_t transient_allocs = 0;
    uint64_t async_read_fails = 0; // BreadAsync could not get a buffer
  };
  const Stats& stats() const { return stats_; }

  // Times a delayed write is retried after a media error before the cache
  // gives up, invalidates the block, and counts delwri_data_lost.
  static constexpr int kDelwriRetryLimit = 3;

 private:
  // Lock-held helpers: every declaration below carries IKDP_REQUIRES(cache) —
  // the caller enters with the cache lock held and gets it back held.  Both
  // checkers consume the contract: kcheck seeds its entry-held fixpoint from
  // it, and the TSA bridge turns it into requires_capability(lock_).

  // Looks up (dev, blkno); returns nullptr if not cached.
  IKDP_REQUIRES(cache) Buf* Incore(BlockDevice* dev, int64_t blkno);

  // Non-blocking variant of the getblk body: returns a busy buffer for
  // (dev, blkno) or nullptr if it would have to sleep.  Sets *was_hit.
  IKDP_CTX_ANY IKDP_REQUIRES(cache) Buf* TryGetBlk(BlockDevice* dev, int64_t blkno, bool* was_hit);

  // Takes a reusable buffer off the free list, writing out a delayed-write
  // victim if that is what the LRU yields.  Returns nullptr if none is
  // available without sleeping.  Drops and reacquires the lock around the
  // victim write's SubmitIo, but holds it at entry and exit.
  IKDP_CTX_ANY IKDP_REQUIRES(cache) Buf* TryGrabFree();

  // O(1) intrusive-list manipulation.  Every hot-path transition
  // (hit-acquire, release, victim grab) is a constant number of pointer
  // splices; no operation walks the free list.
  IKDP_REQUIRES(cache) size_t BucketOf(const BlockDevice* dev, int64_t blkno) const;
  IKDP_REQUIRES(cache) void HashInsert(Buf* b);
  IKDP_REQUIRES(cache) void HashRemove(Buf* b);
  IKDP_REQUIRES(cache) void FreelistPush(Buf* b, bool front);
  IKDP_REQUIRES(cache) void FreelistRemove(Buf* b);
  IKDP_REQUIRES(cache) Buf* FreelistPop();

  // Full-structure invariant check (O(nbufs)): freelist forward/backward
  // consistency and count, hash-chain membership, flag/link agreement.
  // Called from cold paths only; hot paths carry O(1) asserts instead.
  IKDP_REQUIRES(cache) void ValidateInvariants() const;

  // Records a kBreadHit / kBreadMiss trace event when a log is attached.
  void TraceLookup(bool hit, const BlockDevice* dev, int64_t blkno);

  // Issues `b` to its device, charging the submitting context.
  IKDP_CTX_ANY void SubmitIo(Buf* b);

  // Charges `d` to the current interrupt if executing at interrupt level.
  IKDP_CTX_ANY void ChargeIfInterrupt(SimDuration d);

  CpuSystem* cpu_;
  const int nbufs_;
  // Headers only until first use: TryGetBlk gives a buffer its frame.
  std::vector<std::unique_ptr<Buf>> pool_;
  int frames_ = 0;
  // The cache lock (docs/klock.md): guards the hash table, the LRU free
  // list, the pending-write counts, and the transient-header pool.  It
  // ranks outside diskq (completion handlers re-enter Strategy through the
  // cache) and is NEVER held across SubmitIo — a RAM-disk Strategy delivers
  // Biodone synchronously, which re-enters Brelse — nor across a co_await.
  // `mutable` lets const accessors (PendingWrites) lock.
  mutable SpinLock lock_ IKDP_LOCK_RANK(cache, 40) = SpinLock("cache", 40);
  // Hash table: power-of-two bucket array of intrusive chains through
  // Buf::hash_prev/hash_next.  Insert/remove touch one keyed chain each;
  // distinct-key operations commute (COMMUTE probes in buffer_cache.cc).
  std::vector<Buf*> hash_buckets_ IKDP_GUARDED_BY(lock:cache);
  size_t hash_mask_ = 0;
  // LRU free list, intrusive through Buf::free_prev/free_next.
  // free_head_ = next victim (LRU); releases push at the tail, worthless
  // buffers at the head.  Push/pop ORDER decides victim choice, so these
  // carry plain WRITE probes — an unordered same-timestamp release pair
  // would make eviction schedule-dependent.
  Buf* free_head_ IKDP_GUARDED_BY(lock:cache) = nullptr;
  Buf* free_tail_ IKDP_GUARDED_BY(lock:cache) = nullptr;
  int free_count_ IKDP_GUARDED_BY(lock:cache) = 0;
  std::map<const BlockDevice*, int> pending_writes_ IKDP_GUARDED_BY(lock:cache);
  // Transient splice headers (AllocTransientHeader): recycled slots, so a
  // warm splice write takes a bare header without allocating one.
  SlotPool<Buf> transients_ IKDP_GUARDED_BY(lock:cache);
  int freelist_waiters_chan_ = 0;  // sleep channel for free-list exhaustion
  SimDuration pending_sync_charge_ = 0;
  Stats stats_;
};

}  // namespace ikdp

#endif  // SRC_BUF_BUFFER_CACHE_H_
