// Log2-bucketed latency histograms and a named-metric registry.
//
// LatencyHistogram is the classic biolat shape: bucket i >= 1 counts values
// in [2^(i-1), 2^i) nanoseconds, bucket 0 counts zeros.  Adding a sample is
// a handful of integer ops, so the telemetry collector can feed histograms
// online from the trace observer without perturbing an experiment (the
// simulated clock never sees any of this).
//
// MetricsRegistry unifies the scattered per-subsystem Stats structs behind
// one enumerable namespace: integer counters set by sampling
// (CaptureKernelCounters in telemetry.h) and histograms fed online.  Names
// are dotted paths ("disk.service_time.srcfs"); enumeration order is the
// name order (std::map), so exports are deterministic.

#ifndef SRC_METRICS_HISTOGRAM_H_
#define SRC_METRICS_HISTOGRAM_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace ikdp {

class LatencyHistogram {
 public:
  // 64 buckets cover the full non-negative int64 range: bucket 0 holds
  // zeros, bucket 63 holds everything from 2^62 up.
  static constexpr int kBuckets = 64;

  void Add(int64_t value_ns);

  uint64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  // min/max of the recorded samples; 0 when empty.
  int64_t min() const { return count_ > 0 ? min_ : 0; }
  int64_t max() const { return count_ > 0 ? max_ : 0; }
  double Mean() const { return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0; }

  uint64_t bucket_count(int i) const { return buckets_[i]; }

  // Inclusive lower / exclusive upper bound of bucket i.
  static int64_t BucketLo(int i);
  static int64_t BucketHi(int i);

  // Upper bound of the bucket containing the q-quantile (q in [0, 1]).
  // Deterministic and conservative: the true quantile is <= the returned
  // value.  Returns 0 when empty.
  int64_t Quantile(double q) const;

  // ASCII bar chart, one line per non-empty bucket (bpftrace style).
  void Print(std::ostream& os) const;

 private:
  static int BucketOf(int64_t value_ns);

  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

class MetricsRegistry {
 public:
  // Sets (overwrites) a named integer counter.
  void SetCounter(const std::string& name, int64_t value) { counters_[name] = value; }

  // Returns the counter's value, or 0 if it was never set.
  int64_t GetCounter(const std::string& name) const;
  bool HasCounter(const std::string& name) const { return counters_.count(name) > 0; }

  // Get-or-create a histogram by name.  The pointer stays valid for the
  // registry's lifetime (std::map nodes do not move).
  LatencyHistogram* Histogram(const std::string& name) { return &histograms_[name]; }

  // Deterministic (name-ordered) enumeration for exporters.
  const std::map<std::string, int64_t>& counters() const { return counters_; }
  const std::map<std::string, LatencyHistogram>& histograms() const { return histograms_; }

 private:
  std::map<std::string, int64_t> counters_;
  std::map<std::string, LatencyHistogram> histograms_;
};

}  // namespace ikdp

#endif  // SRC_METRICS_HISTOGRAM_H_
