// Hardware performance-counter groups: the "why is this task slow"
// companion to the flight recorder's "when was this worker busy".
//
// A PerfGroup owns one perf_event_open counter group bound to the
// calling thread — cycles (leader), instructions, LLC misses, branch
// misses and stalled-cycles-backend — read atomically with a single
// group read, so the five counts of one sample describe the same
// instruction window. The runtime opens one group per worker and reads
// it around every task body; the deltas accrue per task and are
// aggregated per (process × subiteration × task class) into a
// PerfProfile (runtime/runtime.hpp), which is what makes a task
// runtime's behaviour legible: "class L3/face/int runs at IPC 0.6 with
// 14 LLC misses per object" is an optimization brief, a wall-clock
// duration is not.
//
// Fallback tiers, because perf is a privilege, not a given (containers,
// perf_event_paranoid ≥ 3, macOS, CI runners, VMs without a PMU):
//
//   hardware    the counter group opened; read() fills counts plus the
//               enabled/running times used for multiplex correction.
//               Individual siblings may still be absent (e.g. no
//               stalled-cycles event on this machine) — check
//               counter_valid().
//   clock_only  no perf access: read() fills only the thread-CPU clock
//               (CLOCK_THREAD_CPUTIME_ID), so per-class CPU-vs-wall
//               attribution still works; every count is invalid.
//   unavailable recording forced off (TAMP_PERF=off, tests): read()
//               returns false and callers skip attribution entirely.
//
// Construction degrades silently down this ladder; nothing throws on a
// missing PMU.
#pragma once

#include <array>
#include <cstdint>

namespace tamp::obs {

/// Capability actually obtained, weakest first (so the weakest worker
/// tier of a run is the min over workers).
enum class PerfTier : std::uint8_t {
  unavailable = 0,
  clock_only = 1,
  hardware = 2,
};
[[nodiscard]] const char* to_string(PerfTier t);

/// The fixed counter set of one group, in group (= read) order.
inline constexpr int kNumPerfCounters = 5;
enum class PerfCounterId : std::uint8_t {
  cycles = 0,
  instructions = 1,
  llc_misses = 2,
  branch_misses = 3,
  stalled_cycles_backend = 4,
};
[[nodiscard]] const char* to_string(PerfCounterId id);

/// One atomic group read. Counts are raw (not multiplex-corrected);
/// correct deltas with perf_delta(), which scales by the
/// enabled/running ratio of the sampling window.
struct PerfSample {
  std::array<std::uint64_t, kNumPerfCounters> count{};
  std::uint64_t time_enabled_ns = 0;
  std::uint64_t time_running_ns = 0;
  /// Thread CPU clock (valid from clock_only tier up).
  double thread_cpu_ns = 0;
};

/// end − begin, multiplex-corrected: when the kernel timesliced the
/// group (more groups than PMU slots), counts are scaled by
/// Δenabled/Δrunning — the standard extrapolation, exact when
/// running_share == 1.
struct PerfDelta {
  std::array<double, kNumPerfCounters> count{};
  /// Δrunning/Δenabled of the window; 1 = counters saw everything.
  double running_share = 1.0;
  double thread_cpu_ns = 0;
};
[[nodiscard]] PerfDelta perf_delta(const PerfSample& begin,
                                   const PerfSample& end);

/// One per-thread counter group. Open it on the thread you want counted
/// (perf binds to the *calling* thread); reads from the same thread are
/// a single syscall, ~1 µs. Not copyable or movable — workers construct
/// one in place for their lifetime.
class PerfGroup {
public:
  /// Opens the strongest tier ≤ `max_tier` this environment grants.
  explicit PerfGroup(PerfTier max_tier = PerfTier::hardware);
  ~PerfGroup();
  PerfGroup(const PerfGroup&) = delete;
  PerfGroup& operator=(const PerfGroup&) = delete;

  [[nodiscard]] PerfTier tier() const { return tier_; }
  /// Which counters of the group actually opened (hardware tier only;
  /// all false otherwise).
  [[nodiscard]] const std::array<bool, kNumPerfCounters>& counter_valid()
      const {
    return valid_;
  }
  [[nodiscard]] int num_valid() const;

  /// Sample the group. False at tier unavailable (out is untouched);
  /// true otherwise — clock_only fills only thread_cpu_ns.
  bool read(PerfSample& out) const;

  /// Open-and-close probe on the calling thread: the tier a PerfGroup
  /// constructed here would get. Cheap enough for startup banners, not
  /// for hot paths.
  [[nodiscard]] static PerfTier probe(PerfTier max_tier = PerfTier::hardware);

private:
  PerfTier tier_ = PerfTier::unavailable;
  std::array<bool, kNumPerfCounters> valid_{};
  /// Position of each counter's value in the group read buffer; -1 when
  /// the sibling did not open.
  std::array<int, kNumPerfCounters> value_index_{};
  int group_fd_ = -1;
  std::array<int, kNumPerfCounters> fd_{};
  int num_open_ = 0;
};

/// Tier ceiling requested via the TAMP_PERF environment variable:
/// "off" → unavailable, "clock" → clock_only, anything else (or unset)
/// → hardware. Lets CI scripts force the fallback path without
/// rebuilding.
[[nodiscard]] PerfTier requested_perf_tier();

}  // namespace tamp::obs
