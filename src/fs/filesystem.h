// A 4.2BSD-FFS-flavoured filesystem, simplified to what the paper's data
// path exercises.
//
// Files are inodes ("gnodes" in Ultrix terminology) with 12 direct block
// pointers, one single-indirect and one double-indirect block; indirect
// blocks live on the device and travel through the buffer cache, so mapping
// a large file costs real (simulated) I/O when cold.  A flat root directory
// maps names to inodes.  The allocator prefers physically contiguous blocks,
// which is what makes sequential files benefit from the disk models'
// read-ahead caches.
//
// Two bmap flavours exist, as in the paper (Section 5.2.1):
//  * Bmap(..., alloc=true) — stock behaviour: a freshly allocated data block
//    is zero-filled through the cache and scheduled as a delayed write (the
//    overwrite that follows makes this wasted work);
//  * Bmap(..., alloc=true, for_splice=true) — "a special version of bmap()
//    ... which avoids delayed-writes of freshly allocated, zero-filled
//    blocks": the block is allocated and mapped, nothing is written.
//
// Read() implements the 4.2BSD read path: bread the block (with one-block
// read-ahead, breada) and copy to the user buffer, charging copyout per
// block.  Write() implements the delayed-write path: whole-block overwrites
// skip the read (getblk), partial writes read-modify-write, and blocks are
// released with bdwrite.  Fsync() pushes the device's delayed writes and
// waits, matching the cp experiment's write-through setup.

#ifndef SRC_FS_FILESYSTEM_H_
#define SRC_FS_FILESYSTEM_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/buf/buf.h"
#include "src/buf/buffer_cache.h"
#include "src/kern/cpu.h"
#include "src/kern/ctx.h"
#include "src/sim/task.h"

namespace ikdp {

inline constexpr int kDirectBlocks = 12;
// 8 KB block of 32-bit entries.
inline constexpr int64_t kPtrsPerBlock = kBlockSize / 4;

struct Inode {
  int64_t ino = -1;
  int64_t size = 0;
  std::array<int64_t, kDirectBlocks> direct{};  // 0 = unallocated
  int64_t indirect = 0;                         // single-indirect block
  int64_t dindirect = 0;                        // double-indirect block

  int64_t SizeBlocks() const { return (size + kBlockSize - 1) / kBlockSize; }
};

class FileSystem {
 public:
  // Mounts on `dev`, using `cache` for all block I/O.  Data blocks start
  // after a small metadata reserve.
  FileSystem(CpuSystem* cpu, BufferCache* cache, BlockDevice* dev, std::string name);

  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  BlockDevice* dev() { return dev_; }
  BufferCache* cache() { return cache_; }
  const std::string& name() const { return name_; }

  // --- directory operations (in-memory metadata, small CPU charge) ---

  // Creates an empty file.  Returns nullptr if the name exists.
  Inode* Create(const std::string& fname);
  Inode* Lookup(const std::string& fname);
  // Frees the file's blocks and directory entry.  Freeing a block discards
  // it on the device (BlockDevice::Discard): its content is unspecified
  // until it is reallocated, and on the device it reads back as zeros.
  bool Remove(const std::string& fname);

  // Frees the file's blocks and resets its size to zero (open O_TRUNC),
  // discarding them as Remove does.  Callers are responsible for not
  // holding cached buffers of the freed blocks across reallocation (flush
  // or use fresh names in experiments); a delayed write still pending for
  // a freed block lands on the device after the discard.
  void Truncate(Inode* ip) { FreeInodeBlocks(ip); }

  // --- block mapping ---

  // Maps logical block `lbn` of `ip` to a physical block number, reading
  // indirect blocks through the cache.  Returns 0 if unmapped and !alloc,
  // and -1 if an indirect block could not be read (or written back) off the
  // device — an unreadable map must never be mistaken for a hole, and with
  // alloc it must not be overwritten with freshly scribbled pointers.
  // With alloc, allocates data (and indirect) blocks; stock allocation
  // zero-fills fresh data blocks via delayed writes unless `for_splice`.
  IKDP_CTX_PROCESS Task<int64_t> Bmap(Process& p, Inode* ip, int64_t lbn, bool alloc,
                                      bool for_splice = false);

  // Maps blocks [0, nblocks) of `ip`, allocating as needed; the splice setup
  // path ("the entire list of all physical block numbers comprising the
  // source file is determined by successive calls to bmap()").
  IKDP_CTX_PROCESS Task<std::vector<int64_t>> MapRange(Process& p, Inode* ip, int64_t nblocks,
                                                       bool alloc, bool for_splice);

  // --- the read()/write() data path ---

  // Reads up to `n` bytes at `off` into `out` (resized to what was read).
  // Charges copyout per block moved.
  IKDP_CTX_PROCESS Task<int64_t> Read(Process& p, Inode* ip, int64_t off, int64_t n,
                                      std::vector<uint8_t>* out);

  // Writes `n` bytes at `off`, extending the file; delayed writes.  Charges
  // copyin per block moved.
  IKDP_CTX_PROCESS Task<int64_t> Write(Process& p, Inode* ip, int64_t off, const uint8_t* data,
                                       int64_t n);

  // Flushes delayed writes for this filesystem's device and waits.
  IKDP_CTX_PROCESS Task<> Fsync(Process& p, Inode* ip);

  // --- untimed helpers for experiment setup and verification ---

  // Fills `bytes`, the file's bytes in logical block `lbn` (kBlockSize of
  // them, fewer in a short last block).
  using BlockFill = std::function<void(int64_t lbn, std::span<uint8_t> bytes)>;
  // Sees `bytes`, the file's bytes in logical block `lbn`; false stops.
  using BlockVisit = std::function<bool(int64_t lbn, std::span<const uint8_t> bytes)>;

  // Creates `fname` of `nbytes`, filling it a block at a time straight on
  // the device (no simulated time).  Returns nullptr if the name exists or
  // the device fills up.
  Inode* CreateFileInstant(const std::string& fname, int64_t nbytes, const BlockFill& fill);
  // The same, with fill(i) the content of byte i.
  Inode* CreateFileInstant(const std::string& fname, int64_t nbytes,
                           const std::function<uint8_t(int64_t)>& fill);

  // Calls visit on each block of the file in order, with a view straight
  // into the device (no simulated time, no copy; a hole reads as zeros),
  // bypassing the cache: pair with BufferCache::FlushDev for verification.
  // Returns false when a visit returned false.
  bool VisitFileInstant(Inode* ip, const BlockVisit& visit);

  // Reads the whole file straight from the device, as VisitFileInstant.
  std::vector<uint8_t> ReadFileInstant(Inode* ip);

  // Sequential read-ahead depth in blocks (4.2BSD reads one block ahead;
  // the paper's future work contemplates deeper buffering strategies —
  // swept by bench/ablate's readahead sweep).  0 disables read-ahead.
  void set_read_ahead_blocks(int n) { read_ahead_blocks_ = n; }
  int read_ahead_blocks() const { return read_ahead_blocks_; }

  int64_t FreeBlocks() const { return free_blocks_; }
  int64_t TotalDataBlocks() const { return total_blocks_ - first_data_block_; }

  struct Stats {
    uint64_t bmap_calls = 0;
    uint64_t indirect_reads = 0;
    uint64_t blocks_allocated = 0;
    uint64_t zero_fill_writes = 0;  // stock-bmap zero-fill delayed writes
  };
  const Stats& stats() const { return stats_; }

 private:
  // Allocates a physical block near the allocation cursor.  Returns 0 when
  // the device is full.
  int64_t AllocBlock();
  void FreeBlock(int64_t pbn);
  void FreeInodeBlocks(Inode* ip);

  // Reads/writes a 32-bit entry in an on-device indirect block, through the
  // cache.  ReadPtr returns -1 if the block read errored; WritePtr returns
  // false (storing nothing) if it did — updating one pointer in a block
  // whose other pointers never arrived would corrupt the map.
  IKDP_CTX_PROCESS Task<int64_t> ReadPtr(Process& p, int64_t pbn, int64_t index);
  IKDP_CTX_PROCESS Task<bool> WritePtr(Process& p, int64_t pbn, int64_t index, int64_t value);

  // Zero-fills a freshly allocated data block as a delayed write (the stock
  // bmap behaviour splice's special bmap avoids).
  IKDP_CTX_PROCESS Task<> ZeroFill(Process& p, int64_t pbn);

  // Untimed physical-block mapper used by the Instant helpers; allocates
  // with zeroed metadata I/O.
  int64_t BmapInstant(Inode* ip, int64_t lbn, bool alloc);

  CpuSystem* cpu_;
  BufferCache* cache_;
  BlockDevice* dev_;
  std::string name_;

  int64_t total_blocks_;
  int64_t first_data_block_;
  std::vector<bool> used_;
  int64_t free_blocks_;
  int64_t alloc_cursor_;

  int read_ahead_blocks_ = 1;
  std::map<std::string, int64_t> root_dir_;
  std::vector<std::unique_ptr<Inode>> inodes_;
  Stats stats_;
};

}  // namespace ikdp

#endif  // SRC_FS_FILESYSTEM_H_
