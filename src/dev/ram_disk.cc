#include "src/dev/ram_disk.h"

#include <algorithm>
#include <cassert>

namespace ikdp {

RamDisk::RamDisk(CpuSystem* cpu, int64_t capacity_bytes)
    : cpu_(cpu),
      capacity_blocks_(capacity_bytes / kBlockSize),
      core_(static_cast<size_t>(capacity_blocks_ * kBlockSize), 0) {
  assert(capacity_blocks_ > 0);
}

SimDuration RamDisk::Strategy(Buf& b) {
  assert(b.blkno >= 0 && b.blkno < capacity_blocks_);
  const size_t off = static_cast<size_t>(b.blkno * kBlockSize);
  const size_t n = static_cast<size_t>(b.bcount);
  assert(off + n <= core_.size());
  SimDuration copy = 0;
  if (b.Has(kBufRead)) {
    ++stats_.reads;
    // Zero-copy read: the buffer maps the block's core directly.  (The
    // simulation materializes the bytes host-side; no simulated time.)
    if (b.data != nullptr) {
      std::copy_n(core_.begin() + off, n, b.data->begin());
    }
  } else {
    ++stats_.writes;
    if (b.data != nullptr) {
      std::copy_n(b.data->begin(), n, core_.begin() + off);
    }
    copy = cpu_->costs().BcopyTime(b.bcount);
    stats_.copy_time += copy;
  }
  // Synchronous completion: the data is already in place by the time the
  // bcopy (if any) finishes in the caller's context.
  Biodone(b);
  return copy;
}

void RamDisk::PokeBlock(int64_t blkno, const std::vector<uint8_t>& data) {
  assert(blkno >= 0 && blkno < capacity_blocks_);
  assert(static_cast<int64_t>(data.size()) <= kBlockSize);
  const size_t off = static_cast<size_t>(blkno * kBlockSize);
  std::fill_n(core_.begin() + off, kBlockSize, 0);
  std::copy(data.begin(), data.end(), core_.begin() + off);
}

std::vector<uint8_t> RamDisk::PeekBlock(int64_t blkno) const {
  assert(blkno >= 0 && blkno < capacity_blocks_);
  const size_t off = static_cast<size_t>(blkno * kBlockSize);
  return std::vector<uint8_t>(core_.begin() + off, core_.begin() + off + kBlockSize);
}

void RamDisk::Discard(int64_t blkno) {
  assert(blkno >= 0 && blkno < capacity_blocks_);
  std::fill_n(core_.begin() + blkno * kBlockSize, kBlockSize, 0);
}

}  // namespace ikdp
