// File splice endpoints (paper Section 5.2).
//
// Built at splice(2) time, in the calling process's context: "the entire
// list of all physical block numbers comprising the source file is
// determined by successive calls to bmap().  The list of physical blocks is
// stored in a dynamically allocated table in the splice descriptor."  The
// destination is premapped the same way, with the special bmap that skips
// zero-fill delayed writes.
//
// At transfer time the source uses the modified no-biowait bread
// (BufferCache::BreadAsync); the sink allocates a data-less transient
// header, aliases the read buffer's data area, and issues bawrite — the
// zero-copy write side of Section 5.2.3.

#ifndef SRC_SPLICE_FILE_ENDPOINT_H_
#define SRC_SPLICE_FILE_ENDPOINT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/buf/buffer_cache.h"
#include "src/splice/endpoint.h"

namespace ikdp {

class FileSpliceSource : public SpliceSource {
 public:
  // `block_map[k]` is the physical block holding chunk k; `total_bytes`
  // bounds the transfer (the last chunk may be short).
  FileSpliceSource(BufferCache* cache, BlockDevice* dev, std::vector<int64_t> block_map,
                   int64_t total_bytes);

  int64_t TotalBytes() const override { return total_bytes_; }
  int64_t ChunkBytes() const override { return kBlockSize; }

  IKDP_CTX_ANY bool StartRead(int64_t index, Done done) override;
  IKDP_CTX_ANY void Release(SpliceChunk& chunk) override;

 private:
  // An outstanding read's completion.  The source keeps it, so the iodone
  // it hands the cache carries only the chunk index and stays inline.
  struct PendingRead {
    int64_t index;
    Done done;
  };

  // Chunk `index`'s buffer is valid (or failed): delivers the chunk.
  IKDP_CTX_ANY void ReadDone(int64_t index, Buf& b);

  BufferCache* cache_;
  BlockDevice* dev_;
  std::vector<int64_t> block_map_;
  int64_t total_bytes_;
  // Reads complete in any order (cache hits at once, misses as the disk
  // schedules them), so this is searched by index; it holds at most the
  // engine's read batch.
  std::vector<PendingRead> pending_;
};

class FileSpliceSink : public SpliceSink {
 public:
  FileSpliceSink(BufferCache* cache, BlockDevice* dev, std::vector<int64_t> block_map)
      : cache_(cache), dev_(dev), block_map_(std::move(block_map)) {}

  IKDP_CTX_ANY bool StartWrite(SpliceChunk& chunk, Done done) override;

 private:
  BufferCache* cache_;
  BlockDevice* dev_;
  std::vector<int64_t> block_map_;
};

}  // namespace ikdp

#endif  // SRC_SPLICE_FILE_ENDPOINT_H_
