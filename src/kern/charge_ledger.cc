#include "src/kern/charge_ledger.h"

#include <cassert>
#include <cstring>

namespace ikdp {

bool ChargeKey::operator<(const ChargeKey& o) const {
  if (bucket != o.bucket) {
    return bucket < o.bucket;
  }
  // Compare subsystem names by content: distinct literals with equal text
  // must land in one entry.
  const int c = std::strcmp(subsystem, o.subsystem);
  if (c != 0) {
    return c < 0;
  }
  return span < o.span;
}

uint32_t ChargeLedger::Intern(const char* subsystem) {
  for (const Alias& a : aliases_) {
    if (a.text == subsystem) {
      return a.id;
    }
  }
  // A pointer not seen before: an equal text at another address shares the
  // id of the first one seen.
  uint32_t id = 0;
  while (id < texts_.size() && std::strcmp(texts_[id], subsystem) != 0) {
    ++id;
  }
  if (id == texts_.size()) {
    assert(id < (uint32_t{1} << kSubsystemBits));
    texts_.push_back(subsystem);
    spanless_.emplace_back();
  }
  aliases_.push_back(Alias{subsystem, id});
  return id;
}

void ChargeLedger::Add(ChargeBucket bucket, const char* subsystem, SpanId span,
                       SimDuration t) {
  if (t == 0) {
    return;
  }
  const uint32_t id = Intern(subsystem);
  const auto b = static_cast<unsigned>(bucket);
  if (span == kNoSpan) {
    Row& row = spanless_[id];
    row.t[b] += t;
    row.charged |= static_cast<uint8_t>(1u << b);
    return;
  }
  assert(span < (SpanId{1} << (64 - kSubsystemBits - kBucketBits)));
  spanned_[(span << (kSubsystemBits + kBucketBits)) | (uint64_t{id} << kBucketBits) | b] += t;
}

std::array<SimDuration, kNumChargeBuckets> ChargeLedger::BucketSums() const {
  std::array<SimDuration, kNumChargeBuckets> sums = {};
  for (const Row& row : spanless_) {
    for (int b = 0; b < kNumChargeBuckets; ++b) {
      sums[b] += row.t[b];
    }
  }
  for (const auto& [key, t] : spanned_) {
    sums[key & ((1u << kBucketBits) - 1)] += t;
  }
  return sums;
}

std::map<ChargeKey, SimDuration> ChargeLedger::ToMap() const {
  std::map<ChargeKey, SimDuration> out;
  for (size_t id = 0; id < spanless_.size(); ++id) {
    const Row& row = spanless_[id];
    for (int b = 0; b < kNumChargeBuckets; ++b) {
      if ((row.charged & (1u << b)) != 0) {
        out[ChargeKey{static_cast<ChargeBucket>(b), texts_[id], kNoSpan}] = row.t[b];
      }
    }
  }
  for (const auto& [key, t] : spanned_) {
    const auto bucket = static_cast<ChargeBucket>(key & ((1u << kBucketBits) - 1));
    const uint64_t id = (key >> kBucketBits) & ((uint64_t{1} << kSubsystemBits) - 1);
    out[ChargeKey{bucket, texts_[id], key >> (kSubsystemBits + kBucketBits)}] = t;
  }
  return out;
}

}  // namespace ikdp
