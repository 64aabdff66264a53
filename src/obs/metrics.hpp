// Process-wide metrics registry: named counters, gauges and histograms
// with cheap atomic updates and a consistent snapshot API.
//
// Counters are monotonically-added 64-bit integers (task counts, FM
// moves), gauges hold the latest double (imbalance of the last
// decomposition), histograms record value distributions in log-linear
// buckets (16 sub-buckets per power of two → ≤ ~6 % relative error on
// percentile estimates, HdrHistogram-style).
//
// Updates are lock-free and always on (there is no recording switch);
// registry lookup by name takes a mutex, so hot loops should resolve
// `obs::counter("x")` once and keep the reference.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace tamp::obs {

namespace detail {
/// fetch_add for atomic<double> via CAS (portable pre-C++20-TS targets).
inline void atomic_add(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}
inline void atomic_min(std::atomic<double>& target, double value) {
  double cur = target.load(std::memory_order_relaxed);
  while (value < cur && !target.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}
inline void atomic_max(std::atomic<double>& target, double value) {
  double cur = target.load(std::memory_order_relaxed);
  while (value > cur && !target.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Monotonic integer metric.
class Counter {
public:
  void add(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::int64_t> value_{0};
};

/// Latest-value metric.
class Gauge {
public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) { detail::atomic_add(value_, delta); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> value_{0.0};
};

/// Immutable copy of a histogram's state, with percentile estimation.
struct HistogramSnapshot {
  /// Log-linear bucketing: exponents [kMinExp, kMaxExp), 16 sub-buckets
  /// per power of two; values below 2^kMinExp land in bucket 0, values at
  /// or above 2^kMaxExp in the last bucket.
  static constexpr int kMinExp = -30;  ///< ~1e-9 (ns if values are seconds)
  static constexpr int kMaxExp = 34;   ///< ~1.7e10
  static constexpr int kSubBuckets = 16;
  static constexpr int kNumBuckets = (kMaxExp - kMinExp) * kSubBuckets;

  std::uint64_t count = 0;
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::array<std::uint64_t, static_cast<std::size_t>(kNumBuckets)> buckets{};

  [[nodiscard]] double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  /// Estimated value at percentile p ∈ [0, 100], interpolated within the
  /// containing bucket and clamped to the exact [min, max] range.
  [[nodiscard]] double percentile(double p) const;

  [[nodiscard]] static int bucket_index(double v);
  [[nodiscard]] static double bucket_lower(int index);
  [[nodiscard]] static double bucket_upper(int index);
};

/// Concurrent histogram of positive doubles (non-positive values count
/// into the lowest bucket). Lock-free recording.
class Histogram {
public:
  void record(double v) {
    const auto b =
        static_cast<std::size_t>(HistogramSnapshot::bucket_index(v));
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    detail::atomic_add(sum_, v);
    detail::atomic_min(min_, v);
    detail::atomic_max(max_, v);
  }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] HistogramSnapshot snapshot() const;
  void reset();

private:
  std::array<std::atomic<std::uint64_t>,
             static_cast<std::size_t>(HistogramSnapshot::kNumBuckets)>
      buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Process-global metrics registry. Metric objects live for the process
/// lifetime; references returned by counter()/gauge()/histogram() stay
/// valid forever and may be cached.
class Registry {
public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Zero every registered metric (registrations are kept). Tests only.
  void reset();

private:
  Registry();
  ~Registry();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Shorthands for the global registry.
inline Counter& counter(const std::string& name) {
  return Registry::instance().counter(name);
}
inline Gauge& gauge(const std::string& name) {
  return Registry::instance().gauge(name);
}
inline Histogram& histogram(const std::string& name) {
  return Registry::instance().histogram(name);
}

}  // namespace tamp::obs

