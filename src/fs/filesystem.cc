#include "src/fs/filesystem.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace ikdp {

namespace {

// Indirect-block entries are 32-bit little-endian physical block numbers.
int64_t LoadPtr(std::span<const uint8_t> block, int64_t index) {
  uint32_t v = 0;
  std::memcpy(&v, block.data() + index * 4, 4);
  return static_cast<int64_t>(v);
}

void StorePtr(std::span<uint8_t> block, int64_t index, int64_t value) {
  const uint32_t v = static_cast<uint32_t>(value);
  std::memcpy(block.data() + index * 4, &v, 4);
}

// The per-byte fill loop runs once per byte of every file created this way.
// A fixed function alignment pins where the loop lands, so its cost does not
// move with the size of unrelated code linked ahead of it.
[[gnu::noinline, gnu::aligned(64)]] void FillPerByte(const FileSystem::ByteFill& fill, int64_t base,
                                                     std::span<uint8_t> bytes) {
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = fill(base + static_cast<int64_t>(i));
  }
}

}  // namespace

FileSystem::FileSystem(CpuSystem* cpu, BufferCache* cache, BlockDevice* dev, std::string name)
    : cpu_(cpu),
      cache_(cache),
      dev_(dev),
      name_(std::move(name)),
      total_blocks_(dev->CapacityBlocks()),
      first_data_block_(16),
      used_(static_cast<size_t>(total_blocks_), false),
      free_blocks_(total_blocks_ - first_data_block_),
      alloc_cursor_(first_data_block_) {
  assert(total_blocks_ > first_data_block_);
  for (int64_t i = 0; i < first_data_block_; ++i) {
    used_[static_cast<size_t>(i)] = true;
  }
}

// --- allocation ---

int64_t FileSystem::AllocBlock() {
  if (free_blocks_ == 0) {
    return 0;
  }
  int64_t pbn = alloc_cursor_;
  for (int64_t scanned = 0; scanned < total_blocks_; ++scanned) {
    if (pbn >= total_blocks_) {
      pbn = first_data_block_;
    }
    if (!used_[static_cast<size_t>(pbn)]) {
      used_[static_cast<size_t>(pbn)] = true;
      --free_blocks_;
      alloc_cursor_ = pbn + 1;
      ++stats_.blocks_allocated;
      return pbn;
    }
    ++pbn;
  }
  return 0;
}

void FileSystem::FreeBlock(int64_t pbn) {
  if (pbn < first_data_block_ || pbn >= total_blocks_) {
    return;
  }
  assert(used_[static_cast<size_t>(pbn)]);
  used_[static_cast<size_t>(pbn)] = false;
  ++free_blocks_;
  dev_->Discard(pbn);
}

void FileSystem::FreeInodeBlocks(Inode* ip) {
  for (int64_t pbn : ip->direct) {
    if (pbn != 0) {
      FreeBlock(pbn);
    }
  }
  auto free_indirect = [this](int64_t ind) {
    if (ind == 0) {
      return;
    }
    const std::span<const uint8_t> blk = dev_->PeekBlock(ind);
    for (int64_t i = 0; i < kPtrsPerBlock; ++i) {
      const int64_t pbn = LoadPtr(blk, i);
      if (pbn != 0) {
        FreeBlock(pbn);
      }
    }
    FreeBlock(ind);
  };
  if (ip->dindirect != 0) {
    const std::span<const uint8_t> blk = dev_->PeekBlock(ip->dindirect);
    for (int64_t i = 0; i < kPtrsPerBlock; ++i) {
      free_indirect(LoadPtr(blk, i));
    }
    FreeBlock(ip->dindirect);
  }
  free_indirect(ip->indirect);
  ip->direct.fill(0);
  ip->indirect = 0;
  ip->dindirect = 0;
  ip->size = 0;
}

// --- directory ---

Inode* FileSystem::Create(const std::string& fname) {
  if (root_dir_.count(fname) > 0) {
    return nullptr;
  }
  auto ip = std::make_unique<Inode>();
  ip->ino = static_cast<int64_t>(inodes_.size());
  Inode* out = ip.get();
  inodes_.push_back(std::move(ip));
  root_dir_[fname] = out->ino;
  return out;
}

Inode* FileSystem::Lookup(const std::string& fname) {
  auto it = root_dir_.find(fname);
  if (it == root_dir_.end()) {
    return nullptr;
  }
  return inodes_[static_cast<size_t>(it->second)].get();
}

bool FileSystem::Remove(const std::string& fname) {
  auto it = root_dir_.find(fname);
  if (it == root_dir_.end()) {
    return false;
  }
  FreeInodeBlocks(inodes_[static_cast<size_t>(it->second)].get());
  root_dir_.erase(it);
  return true;
}

// --- indirect-block access through the cache ---

Task<int64_t> FileSystem::ReadPtr(Process& p, int64_t pbn, int64_t index) {
  ++stats_.indirect_reads;
  Buf* b = co_await cache_->Bread(p, dev_, pbn);
  if (b->Has(kBufError)) {
    cache_->Brelse(b);
    co_return -1;  // unreadable indirect block, not a hole
  }
  const int64_t value = LoadPtr(*b->data, index);
  cache_->Brelse(b);
  co_return value;
}

Task<bool> FileSystem::WritePtr(Process& p, int64_t pbn, int64_t index, int64_t value) {
  Buf* b = co_await cache_->Bread(p, dev_, pbn);
  if (b->Has(kBufError)) {
    cache_->Brelse(b);
    co_return false;
  }
  StorePtr(MakeWritable(b->data), index, value);
  cache_->Bdwrite(p, b);
  co_return true;
}

Task<> FileSystem::ZeroFill(Process& p, int64_t pbn) {
  ++stats_.zero_fill_writes;
  Buf* b = co_await cache_->GetBlk(p, dev_, pbn);
  std::ranges::fill(MakeWritable(b->data), 0);
  co_await cpu_->Use(p, cpu_->costs().BcopyTime(kBlockSize));
  cache_->Bdwrite(p, b);
}

// --- bmap ---

Task<int64_t> FileSystem::Bmap(Process& p, Inode* ip, int64_t lbn, bool alloc, bool for_splice) {
  ++stats_.bmap_calls;
  co_await cpu_->Use(p, cpu_->costs().bmap_op);
  assert(lbn >= 0);

  if (lbn < kDirectBlocks) {
    int64_t pbn = ip->direct[static_cast<size_t>(lbn)];
    if (pbn == 0 && alloc) {
      pbn = AllocBlock();
      ip->direct[static_cast<size_t>(lbn)] = pbn;
      if (pbn != 0 && !for_splice) {
        co_await ZeroFill(p, pbn);
      }
    }
    co_return pbn;
  }

  int64_t rest = lbn - kDirectBlocks;
  if (rest < kPtrsPerBlock) {
    if (ip->indirect == 0) {
      if (!alloc) {
        co_return 0;
      }
      ip->indirect = AllocBlock();
      if (ip->indirect == 0) {
        co_return 0;
      }
      // Fresh metadata block: initialize to zero through the cache.
      Buf* b = co_await cache_->GetBlk(p, dev_, ip->indirect);
      std::ranges::fill(MakeWritable(b->data), 0);
      cache_->Bdwrite(p, b);
    }
    int64_t pbn = co_await ReadPtr(p, ip->indirect, rest);
    if (pbn < 0) {
      co_return -1;
    }
    if (pbn == 0 && alloc) {
      pbn = AllocBlock();
      if (pbn != 0) {
        if (!co_await WritePtr(p, ip->indirect, rest, pbn)) {
          FreeBlock(pbn);
          co_return -1;
        }
        if (!for_splice) {
          co_await ZeroFill(p, pbn);
        }
      }
    }
    co_return pbn;
  }

  rest -= kPtrsPerBlock;
  const int64_t outer = rest / kPtrsPerBlock;
  const int64_t inner = rest % kPtrsPerBlock;
  if (outer >= kPtrsPerBlock) {
    co_return 0;  // beyond double-indirect reach (> ~128 GB); not supported
  }
  if (ip->dindirect == 0) {
    if (!alloc) {
      co_return 0;
    }
    ip->dindirect = AllocBlock();
    if (ip->dindirect == 0) {
      co_return 0;
    }
    Buf* b = co_await cache_->GetBlk(p, dev_, ip->dindirect);
    std::ranges::fill(MakeWritable(b->data), 0);
    cache_->Bdwrite(p, b);
  }
  int64_t mid = co_await ReadPtr(p, ip->dindirect, outer);
  if (mid < 0) {
    co_return -1;
  }
  if (mid == 0) {
    if (!alloc) {
      co_return 0;
    }
    mid = AllocBlock();
    if (mid == 0) {
      co_return 0;
    }
    Buf* b = co_await cache_->GetBlk(p, dev_, mid);
    std::ranges::fill(MakeWritable(b->data), 0);
    cache_->Bdwrite(p, b);
    if (!co_await WritePtr(p, ip->dindirect, outer, mid)) {
      FreeBlock(mid);
      co_return -1;
    }
  }
  int64_t pbn = co_await ReadPtr(p, mid, inner);
  if (pbn < 0) {
    co_return -1;
  }
  if (pbn == 0 && alloc) {
    pbn = AllocBlock();
    if (pbn != 0) {
      if (!co_await WritePtr(p, mid, inner, pbn)) {
        FreeBlock(pbn);
        co_return -1;
      }
      if (!for_splice) {
        co_await ZeroFill(p, pbn);
      }
    }
  }
  co_return pbn;
}

Task<std::vector<int64_t>> FileSystem::MapRange(Process& p, Inode* ip, int64_t nblocks,
                                                bool alloc, bool for_splice) {
  std::vector<int64_t> map;
  map.reserve(static_cast<size_t>(nblocks));
  for (int64_t lbn = 0; lbn < nblocks; ++lbn) {
    map.push_back(co_await Bmap(p, ip, lbn, alloc, for_splice));
  }
  co_return map;
}

// --- read / write data path ---

Task<int64_t> FileSystem::Read(Process& p, Inode* ip, int64_t off, int64_t n,
                               std::vector<uint8_t>* out) {
  out->clear();
  if (off >= ip->size || n <= 0) {
    co_return 0;
  }
  n = std::min(n, ip->size - off);
  out->reserve(static_cast<size_t>(n));
  int64_t done = 0;
  while (done < n) {
    const int64_t pos = off + done;
    const int64_t lbn = pos / kBlockSize;
    const int64_t boff = pos % kBlockSize;
    const int64_t chunk = std::min(n - done, kBlockSize - boff);
    const int64_t pbn = co_await Bmap(p, ip, lbn, /*alloc=*/false);
    if (pbn < 0) {
      co_return done > 0 ? done : -1;  // unreadable block map
    }
    if (pbn == 0) {
      out->insert(out->end(), static_cast<size_t>(chunk), 0);  // hole
    } else {
      // Sequential read-ahead: 4.2BSD issues one block; deeper depths are a
      // configurable extension (each read-ahead costs a bmap in-line, the
      // classic trade the paper's future work contemplates).
      for (int ra = 1; ra <= read_ahead_blocks_; ++ra) {
        if ((lbn + ra) * kBlockSize >= ip->size) {
          break;
        }
        const int64_t rapbn = co_await Bmap(p, ip, lbn + ra, /*alloc=*/false);
        if (rapbn <= 0) {
          break;
        }
        cache_->IssueReadAhead(dev_, rapbn);
      }
      Buf* b = co_await cache_->Bread(p, dev_, pbn);
      if (b->Has(kBufError)) {
        cache_->Brelse(b);
        co_return done > 0 ? done : -1;  // short read, or EIO
      }
      out->insert(out->end(), b->data->begin() + boff, b->data->begin() + boff + chunk);
      cache_->Brelse(b);
    }
    // copyout to the user buffer.
    co_await cpu_->Use(p, cpu_->costs().CopyioTime(chunk));
    done += chunk;
  }
  co_return done;
}

Task<int64_t> FileSystem::Write(Process& p, Inode* ip, int64_t off, const uint8_t* data,
                                int64_t n) {
  if (n <= 0) {
    co_return 0;
  }
  int64_t done = 0;
  while (done < n) {
    const int64_t pos = off + done;
    const int64_t lbn = pos / kBlockSize;
    const int64_t boff = pos % kBlockSize;
    const int64_t chunk = std::min(n - done, kBlockSize - boff);
    const bool whole_block = boff == 0 && chunk == kBlockSize;
    // The write path zero-fills partial fresh blocks in memory itself, so it
    // always uses the no-zero-fill allocation.
    const int64_t pbn = co_await Bmap(p, ip, lbn, /*alloc=*/true, /*for_splice=*/true);
    if (pbn < 0) {
      co_return done > 0 ? done : -1;  // unreadable block map
    }
    if (pbn == 0) {
      break;  // device full
    }
    Buf* b;
    if (whole_block) {
      b = co_await cache_->GetBlk(p, dev_, pbn);
    } else {
      const bool covers_existing = lbn < ip->SizeBlocks();
      if (covers_existing) {
        b = co_await cache_->Bread(p, dev_, pbn);
        if (b->Has(kBufError)) {
          cache_->Brelse(b);
          co_return done > 0 ? done : -1;
        }
      } else {
        b = co_await cache_->GetBlk(p, dev_, pbn);
        std::ranges::fill(MakeWritable(b->data), 0);
      }
    }
    std::copy(data + done, data + done + chunk, MakeWritable(b->data).begin() + boff);
    // copyin from the user buffer.
    co_await cpu_->Use(p, cpu_->costs().CopyioTime(chunk));
    cache_->Bdwrite(p, b);
    done += chunk;
    ip->size = std::max(ip->size, pos + chunk);
  }
  co_return done;
}

Task<> FileSystem::Fsync(Process& p, Inode* /*ip*/) {
  co_await cache_->FlushDev(p, dev_);
}

// --- untimed helpers ---

int64_t FileSystem::BmapInstant(Inode* ip, int64_t lbn, bool alloc) {
  auto poke_ptr = [this](int64_t blk, int64_t index, int64_t value) {
    StorePtr(dev_->MutableBlock(blk), index, value);
  };
  if (lbn < kDirectBlocks) {
    int64_t pbn = ip->direct[static_cast<size_t>(lbn)];
    if (pbn == 0 && alloc) {
      pbn = AllocBlock();
      ip->direct[static_cast<size_t>(lbn)] = pbn;
    }
    return pbn;
  }
  int64_t rest = lbn - kDirectBlocks;
  if (rest < kPtrsPerBlock) {
    if (ip->indirect == 0) {
      if (!alloc) {
        return 0;
      }
      ip->indirect = AllocBlock();
      dev_->PokeBlock(ip->indirect, {});
    }
    int64_t pbn = LoadPtr(dev_->PeekBlock(ip->indirect), rest);
    if (pbn == 0 && alloc) {
      pbn = AllocBlock();
      poke_ptr(ip->indirect, rest, pbn);
    }
    return pbn;
  }
  rest -= kPtrsPerBlock;
  const int64_t outer = rest / kPtrsPerBlock;
  const int64_t inner = rest % kPtrsPerBlock;
  if (outer >= kPtrsPerBlock) {
    return 0;
  }
  if (ip->dindirect == 0) {
    if (!alloc) {
      return 0;
    }
    ip->dindirect = AllocBlock();
    dev_->PokeBlock(ip->dindirect, {});
  }
  int64_t mid = LoadPtr(dev_->PeekBlock(ip->dindirect), outer);
  if (mid == 0) {
    if (!alloc) {
      return 0;
    }
    mid = AllocBlock();
    dev_->PokeBlock(mid, {});
    poke_ptr(ip->dindirect, outer, mid);
  }
  int64_t pbn = LoadPtr(dev_->PeekBlock(mid), inner);
  if (pbn == 0 && alloc) {
    pbn = AllocBlock();
    poke_ptr(mid, inner, pbn);
  }
  return pbn;
}

Inode* FileSystem::CreateFileInstant(const std::string& fname, int64_t nbytes,
                                     const BlockFill& fill) {
  Inode* ip = Create(fname);
  if (ip == nullptr) {
    return nullptr;
  }
  const int64_t nblocks = (nbytes + kBlockSize - 1) / kBlockSize;
  for (int64_t lbn = 0; lbn < nblocks; ++lbn) {
    const int64_t pbn = BmapInstant(ip, lbn, /*alloc=*/true);
    if (pbn == 0) {
      return nullptr;  // device full
    }
    const std::span<uint8_t> blk = dev_->MutableBlock(pbn);
    const size_t valid = static_cast<size_t>(std::min(kBlockSize, nbytes - lbn * kBlockSize));
    fill(lbn, blk.first(valid));
    std::fill(blk.begin() + valid, blk.end(), 0);
  }
  ip->size = nbytes;
  return ip;
}

Inode* FileSystem::CreateFileInstant(const std::string& fname, int64_t nbytes,
                                     const ByteFill& fill) {
  return CreateFileInstant(fname, nbytes, [&fill](int64_t lbn, std::span<uint8_t> bytes) {
    FillPerByte(fill, lbn * kBlockSize, bytes);
  });
}

bool FileSystem::VisitFileInstant(Inode* ip, const BlockVisit& visit) {
  const int64_t nblocks = ip->SizeBlocks();
  for (int64_t lbn = 0; lbn < nblocks; ++lbn) {
    const int64_t pbn = BmapInstant(ip, lbn, /*alloc=*/false);
    const size_t valid = static_cast<size_t>(std::min(kBlockSize, ip->size - lbn * kBlockSize));
    const std::span<const uint8_t> blk = pbn == 0 ? kZeroBlock : dev_->PeekBlock(pbn);
    if (!visit(lbn, blk.first(valid))) {
      return false;
    }
  }
  return true;
}

std::vector<uint8_t> FileSystem::ReadFileInstant(Inode* ip) {
  std::vector<uint8_t> out;
  out.reserve(static_cast<size_t>(ip->size));
  VisitFileInstant(ip, [&out](int64_t, std::span<const uint8_t> bytes) {
    out.insert(out.end(), bytes.begin(), bytes.end());
    return true;
  });
  return out;
}

}  // namespace ikdp
