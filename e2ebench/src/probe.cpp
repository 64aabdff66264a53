// Machine probe: the memory-system state a run was measured under, so a
// shift between two sets of runs can be attributed to the machine rather
// than to the code.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "leg.hpp"
#include "record.hpp"
#include "support/rng.hpp"

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

/// Bytes of the last-level cache: the largest cache cpu0 reports (105 MiB
/// when sysfs does not say).
std::size_t llc_bytes() {
  std::size_t best = 0;
  for (int index = 0; index < 8; ++index) {
    std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" +
                    std::to_string(index) + "/size");
    std::string s;
    if (!(f >> s) || s.empty()) continue;
    std::size_t mult = 1;
    if (s.back() == 'K') mult = std::size_t{1} << 10;
    if (s.back() == 'M') mult = std::size_t{1} << 20;
    if (s.back() == 'G') mult = std::size_t{1} << 30;
    if (mult != 1) s.pop_back();
    best = std::max<std::size_t>(best, std::stoull(s) * mult);
  }
  return best > 0 ? best : std::size_t{105} << 20;
}

template <typename F>
void parallel_chunks(int threads, std::size_t n, F&& f) {
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      const std::size_t lo = n * static_cast<std::size_t>(t) /
                             static_cast<std::size_t>(threads);
      const std::size_t hi = n * static_cast<std::size_t>(t + 1) /
                             static_cast<std::size_t>(threads);
      f(lo, hi);
    });
  for (auto& th : pool) th.join();
}

}  // namespace

int run_probe(int threads, std::size_t array_mib) {
  const std::size_t llc = llc_bytes();
  const std::size_t n =
      (array_mib > 0 ? array_mib << 20 : 4 * llc) / sizeof(double);
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  parallel_chunks(threads, n, [&](std::size_t lo, std::size_t hi) {
    std::fill(a.get() + lo, a.get() + hi, 0.0);
    std::fill(b.get() + lo, b.get() + hi, 1.0);
    std::fill(c.get() + lo, c.get() + hi, 2.0);
  });

  // STREAM triad, best of three (STREAM reports the best), counting 24
  // bytes per element as STREAM does.
  constexpr int kReps = 3;
  constexpr double kScalar = 3.0;
  double best = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    parallel_chunks(threads, n, [&](std::size_t lo, std::size_t hi) {
      double* __restrict pa = a.get();
      const double* __restrict pb = b.get();
      const double* __restrict pc = c.get();
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + kScalar * pc[i];
    });
    const double s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    best = std::max(best, 24.0 * static_cast<double>(n) / s);
  }
  const double checksum = a[n / 2];
  b.reset();
  c.reset();

  // Dependent-load latency: one pointer per 64-byte line of a buffer as
  // large as one triad array, visiting the lines in one random cycle, so
  // every load misses cache and defeats the hardware prefetchers.
  constexpr std::size_t kStride = 64 / sizeof(std::uint64_t);
  const std::size_t lines = n / kStride;
  std::unique_ptr<std::uint64_t[]> next(new std::uint64_t[n]);
  std::vector<std::uint32_t> order(lines);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  tamp::Rng rng(0xC4A5E);
  rng.shuffle(order);
  for (std::size_t i = 0; i < lines; ++i)
    next[order[i] * kStride] = order[(i + 1) % lines] * kStride;
  constexpr std::size_t kHops = std::size_t{1} << 21;
  std::uint64_t p = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t h = 0; h < kHops; ++h) p = next[p];
  const double chase_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  Record("probe")
      .num("stream_gb_per_s", best * 1e-9)
      .num("chase_ns", chase_s * 1e9 / static_cast<double>(kHops))
      .integer("array_mib", static_cast<long long>(n * sizeof(double) >> 20))
      .integer("llc_mib", static_cast<long long>(llc >> 20))
      .integer("threads", threads)
      .num("checksum", checksum + static_cast<double>(p & 1))
      .emit();
  return 0;
}

}  // namespace e2e
