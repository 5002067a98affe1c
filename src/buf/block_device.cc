// BlockDevice's sparse block store (declared in buf.h).

#include "src/buf/buf.h"

#include <algorithm>
#include <cassert>

namespace ikdp {

void BlockDevice::PokeBlock(int64_t blkno, std::span<const uint8_t> data) {
  assert(blkno >= 0 && blkno < CapacityBlocks());
  assert(static_cast<int64_t>(data.size()) <= kBlockSize);
  std::unique_ptr<Block>& blk = blocks_[blkno];
  if (blk == nullptr) {
    blk = std::make_unique_for_overwrite<Block>();  // every byte is written below
  }
  std::fill(std::copy(data.begin(), data.end(), blk->begin()), blk->end(), 0);
}

std::span<const uint8_t> BlockDevice::PeekBlock(int64_t blkno) const {
  assert(blkno >= 0 && blkno < CapacityBlocks());
  auto it = blocks_.find(blkno);
  return it == blocks_.end() ? kZeroBlock : *it->second;
}

std::span<uint8_t> BlockDevice::MutableBlock(int64_t blkno) {
  assert(blkno >= 0 && blkno < CapacityBlocks());
  std::unique_ptr<Block>& blk = blocks_[blkno];
  if (blk == nullptr) {
    blk = std::make_unique<Block>();
  }
  return *blk;
}

void BlockDevice::Discard(int64_t blkno) {
  assert(blkno >= 0 && blkno < CapacityBlocks());
  blocks_.erase(blkno);
}

void BlockDevice::MoveContent(Buf& b, bool is_read) {
  if (b.data == nullptr) {
    return;
  }
  const size_t n = static_cast<size_t>(b.bcount);
  if (is_read) {
    std::copy_n(PeekBlock(b.blkno).begin(), n, MakeWritable(b.data).begin());
  } else {
    PokeBlock(b.blkno, std::span<const uint8_t>(b.data->data(), n));
  }
}

}  // namespace ikdp
