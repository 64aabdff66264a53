#include "support/simd.hpp"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "support/check.hpp"

namespace tamp::simd {

namespace {

/// The best runnable level at or below `level`.
Level clamp(Level level) {
  while (level != Level::scalar && !level_runnable(level))
    level = static_cast<Level>(static_cast<int>(level) - 1);
  return level;
}

}  // namespace

int lanes(Level level) {
  switch (level) {
    case Level::scalar:
      return 1;
    case Level::sse2:
      return 2;
    case Level::avx2:
      return 4;
  }
  return 1;
}

const char* to_string(Level level) {
  switch (level) {
    case Level::scalar:
      return "scalar";
    case Level::sse2:
      return "sse2";
    case Level::avx2:
      return "avx2";
  }
  return "scalar";
}

Level parse_level(std::string_view text) {
  if (text == "auto") return clamp(Level::avx2);
  if (text == "scalar") return Level::scalar;
  if (text == "sse2") return Level::sse2;
  if (text == "avx2") return Level::avx2;
  TAMP_EXPECTS(false, "SIMD level must be auto|avx2|sse2|scalar");
  return Level::scalar;
}

bool level_runnable(Level level) {
  // The tiers solver/simd_kernels_w2.cpp and _w4.cpp compile, each
  // behind the same guard as here.
  switch (level) {
    case Level::scalar:
      return true;
#if defined(__SSE2__)
    case Level::sse2:
      return __builtin_cpu_supports("sse2");
#endif
#if defined(__x86_64__) || defined(__i386__)
    case Level::avx2:
      return __builtin_cpu_supports("avx2");
#endif
    default:
      return false;
  }
}

Level resolve(std::optional<Level> level) {
  if (!level) {
    const char* env = std::getenv("TAMP_SIMD");
    level = parse_level(env == nullptr || *env == '\0' ? "auto" : env);
  }
  return clamp(*level);
}

std::vector<Level> runnable_levels() {
  std::vector<Level> levels{Level::scalar};
  for (const Level level : {Level::sse2, Level::avx2})
    if (level_runnable(level)) levels.push_back(level);
  return levels;
}

std::uint64_t ulp_distance(double a, double b) {
  if (std::isnan(a) || std::isnan(b))
    return std::numeric_limits<std::uint64_t>::max();
  if (a == b) return 0;  // covers +0 vs -0
  // Map the IEEE bit patterns onto a scale monotone in value: negative
  // doubles flip (so more-negative sorts lower), non-negatives shift up.
  const auto ordered = [](double x) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    constexpr std::uint64_t sign_bit = 0x8000000000000000ull;
    return (bits & sign_bit) != 0 ? ~bits : bits | sign_bit;
  };
  const std::uint64_t ua = ordered(a);
  const std::uint64_t ub = ordered(b);
  return ua > ub ? ua - ub : ub - ua;
}

}  // namespace tamp::simd
