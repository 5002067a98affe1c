#include "src/metrics/histogram.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <ostream>

#include "src/sim/time.h"

namespace ikdp {

int LatencyHistogram::BucketOf(int64_t value_ns) {
  if (value_ns <= 0) {
    return 0;
  }
  // bit_width(v) = floor(log2(v)) + 1, so bucket i covers [2^(i-1), 2^i).
  return std::bit_width(static_cast<uint64_t>(value_ns));
}

int64_t LatencyHistogram::BucketLo(int i) { return i == 0 ? 0 : int64_t{1} << (i - 1); }

int64_t LatencyHistogram::BucketHi(int i) {
  if (i == 0) {
    return 1;
  }
  if (i >= kBuckets - 1) {
    return INT64_MAX;
  }
  return int64_t{1} << i;
}

void LatencyHistogram::Add(int64_t value_ns) {
  const int i = std::min(BucketOf(value_ns), kBuckets - 1);
  ++buckets_[i];
  if (count_ == 0) {
    min_ = max_ = value_ns;
  } else {
    min_ = std::min(min_, value_ns);
    max_ = std::max(max_, value_ns);
  }
  ++count_;
  sum_ += value_ns;
}

int64_t LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  // Rank is 1-based: the q-quantile is the ceil(q * count)-th smallest.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(q * static_cast<double>(count_) + 0.999999));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      if (i >= kBuckets - 1) {
        // The last bucket saturates (no true power-of-two upper bound).
        return max_;
      }
      // Conservative: report the bucket's upper bound (capped at the true
      // max, which is exact when the bucket is the last non-empty one).
      return std::min(BucketHi(i) - 1, max_);
    }
  }
  return max_;
}

void LatencyHistogram::Print(std::ostream& os) const {
  if (count_ == 0) {
    os << "  (empty)\n";
    return;
  }
  uint64_t peak = 0;
  for (uint64_t b : buckets_) {
    peak = std::max(peak, b);
  }
  int lo = 0;
  int hi = kBuckets - 1;
  while (lo < kBuckets && buckets_[lo] == 0) {
    ++lo;
  }
  while (hi >= 0 && buckets_[hi] == 0) {
    --hi;
  }
  char line[160];
  for (int i = lo; i <= hi; ++i) {
    const int width = peak > 0 ? static_cast<int>(40 * buckets_[i] / peak) : 0;
    std::snprintf(line, sizeof(line), "  [%10s, %10s) %8llu |%-40.*s|\n",
                  FormatDuration(BucketLo(i)).c_str(),
                  i >= kBuckets - 1 ? "inf" : FormatDuration(BucketHi(i)).c_str(),
                  static_cast<unsigned long long>(buckets_[i]), width,
                  "****************************************");
    os << line;
  }
  std::snprintf(line, sizeof(line), "  count %llu, avg %s, p50 %s, p99 %s, max %s\n",
                static_cast<unsigned long long>(count_), FormatDuration(static_cast<SimDuration>(Mean())).c_str(),
                FormatDuration(Quantile(0.5)).c_str(), FormatDuration(Quantile(0.99)).c_str(),
                FormatDuration(max()).c_str());
  os << line;
}

int64_t MetricsRegistry::GetCounter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

}  // namespace ikdp
