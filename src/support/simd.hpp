// Runtime SIMD dispatch for the solver streaming kernels.
//
// The class-contiguous layout (solver/layout.hpp) made the hot sweeps
// lane-shaped; this header names the lanes. A *Level* is an executable
// kernel tier — scalar (the width-1 kernels, one object per iteration),
// sse2 (2 double lanes) and avx2 (4 double lanes). A tier exists only
// where its hand-written pack is compiled (support/simd_pack.hpp): sse2
// where the baseline flags define __SSE2__, avx2 on x86 (the one TU built
// with -mavx2), scalar everywhere.
//
// One selection path: a solver config names an optional Level, and an
// unset level means the TAMP_SIMD environment variable (auto | avx2 |
// sse2 | scalar; unset or auto is the best tier this build and CPU run).
// resolve() clamps a level down to a runnable one — `TAMP_SIMD=avx2` on
// an SSE2-only machine runs sse2, never crashes, and off x86 every level
// runs scalar.
//
// Equivalence contract (see DESIGN.md "SIMD kernel contract"): the
// scalar level is bitwise-identical to the per-object reference kernels;
// the SIMD levels are lanewise transcriptions of the same expression
// trees (no FMA contraction, no horizontal reductions on the physics
// path) and are validated ULP-bounded against scalar by tests/test_simd.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace tamp::simd {

/// Executable kernel tier, ordered by lane count.
enum class Level : int { scalar = 0, sse2 = 1, avx2 = 2 };

/// Double lanes per iteration at this level: 1 / 2 / 4.
[[nodiscard]] int lanes(Level level);

[[nodiscard]] const char* to_string(Level level);

/// Parse "auto" | "avx2" | "sse2" | "scalar" (throws precondition_error
/// on anything else); auto is the best runnable level.
[[nodiscard]] Level parse_level(std::string_view text);

/// Whether this build compiled the kernels of `level` and this CPU runs
/// them. Always true for scalar.
[[nodiscard]] bool level_runnable(Level level);

/// The level a solver runs: `level`, or TAMP_SIMD's when unset, clamped
/// down to the best runnable tier (see file header).
[[nodiscard]] Level resolve(std::optional<Level> level = std::nullopt);

/// Every level runnable on this machine, ascending (always starts with
/// scalar) — the sweep the benches and equivalence tests iterate.
[[nodiscard]] std::vector<Level> runnable_levels();

/// Units-in-the-last-place distance between two doubles: 0 iff bitwise
/// equal values (+0 and -0 count as equal), monotone in the number of
/// representable doubles between the arguments, and saturating to
/// UINT64_MAX when either argument is NaN. The measure the SIMD
/// equivalence harness bounds.
[[nodiscard]] std::uint64_t ulp_distance(double a, double b);

}  // namespace tamp::simd
