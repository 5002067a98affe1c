#include "src/splice/file_endpoint.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/hw/fault.h"

namespace ikdp {

namespace {

// Outstanding reads reserved for up front, so the pending list allocates
// once per splice whatever the file's length: the engine's default read
// batch is 5, and a deeper batch only grows the list.
constexpr size_t kPendingReads = 8;

}  // namespace

FileSpliceSource::FileSpliceSource(BufferCache* cache, BlockDevice* dev,
                                   std::vector<int64_t> block_map, int64_t total_bytes)
    : cache_(cache), dev_(dev), block_map_(std::move(block_map)), total_bytes_(total_bytes) {
  pending_.reserve(std::min(block_map_.size(), kPendingReads));
}

bool FileSpliceSource::StartRead(int64_t index, Done done) {
  assert(index >= 0 && index < static_cast<int64_t>(block_map_.size()));
  const int64_t pbn = block_map_[static_cast<size_t>(index)];
  // Parked before the call: a cache hit completes inside BreadAsync.
  pending_.push_back(PendingRead{index, std::move(done)});
  if (!cache_->BreadAsync(dev_, pbn, [this, index](Buf& b) { ReadDone(index, b); })) {
    pending_.pop_back();
    return false;
  }
  return true;
}

void FileSpliceSource::ReadDone(int64_t index, Buf& b) {
  auto it = std::find_if(pending_.begin(), pending_.end(),
                         [index](const PendingRead& r) { return r.index == index; });
  assert(it != pending_.end());
  Done done = std::move(it->done);
  *it = std::move(pending_.back());
  pending_.pop_back();
  SpliceChunk chunk;
  chunk.index = index;
  chunk.nbytes = std::min<int64_t>(kBlockSize, total_bytes_ - index * kBlockSize);
  chunk.data = b.data;
  chunk.src_buf = &b;
  chunk.error = b.Has(kBufError) ? (b.error != 0 ? b.error : kErrIo) : 0;
  b.logical_blkno = index;
  done(std::move(chunk));  // unparked first: may start the next read
}

void FileSpliceSource::Release(SpliceChunk& chunk) {
  if (chunk.src_buf != nullptr) {
    cache_->Brelse(chunk.src_buf);
    chunk.src_buf = nullptr;
  }
}

bool FileSpliceSink::StartWrite(SpliceChunk& chunk, Done done) {
  assert(chunk.index >= 0 && chunk.index < static_cast<int64_t>(block_map_.size()));
  const int64_t pbn = block_map_[static_cast<size_t>(chunk.index)];
  // "The physical block number is used to request a buffer header using a
  // modified version of getblk() which avoids allocating any real memory to
  // the buffer ... the data pointer [is] altered to point to the same
  // address the data pointer in the read-side buffer does, so both buffers
  // share a common data area."  (Section 5.2.3)
  Buf* w = cache_->AllocTransientHeader(dev_, pbn);
  w->data = chunk.data;
  w->bcount = kBlockSize;  // whole-block write; tail bytes beyond nbytes are 0
  w->logical_blkno = chunk.index;
  w->splice_peer = chunk.src_buf;
  BufferCache* cache = cache_;
  SpliceChunk* cp = &chunk;  // outlives StartWrite; valid until done() fires
  cache_->BawriteAsync(w, [cache, cp, done = std::move(done)](Buf& wb) {
    const bool ok = !wb.Has(kBufError);
    if (!ok) {
      cp->error = wb.error != 0 ? wb.error : kErrIo;
    }
    cache->FreeTransientHeader(&wb);
    done(ok);
  });
  return true;
}

}  // namespace ikdp
