// Runtime SIMD dispatch for the solver streaming kernels.
//
// The class-contiguous layout (solver/layout.hpp) made the hot sweeps
// lane-shaped; this header names the lanes. A *Level* is an executable
// kernel tier — scalar (the width-1 kernels, one object per iteration),
// sse2 (2 double lanes) and avx2 (4 double lanes). A *Request* is what a
// config knob asks for: a concrete level, `auto_` (best the CPU runs),
// or `inherit` (defer to the process default, which is itself seeded
// from the TAMP_SIMD environment variable: auto|avx2|sse2|scalar).
//
// resolve() turns a request into a runnable level, clamping down when
// the CPU lacks the instruction set a tier was compiled for — forcing
// `--simd avx2` on an SSE2-only machine degrades to sse2, never crashes.
// On non-x86 targets the per-width kernels are built from the portable
// pack implementation (std::experimental::simd where the standard
// library ships it, plain arrays otherwise), so every level is runnable
// and `auto_` simply picks scalar unless asked otherwise.
//
// Equivalence contract (see DESIGN.md "SIMD kernel contract"): the
// scalar level is bitwise-identical to the per-object reference kernels;
// the SIMD levels are lanewise transcriptions of the same expression
// trees (no FMA contraction, no horizontal reductions on the physics
// path) and are validated ULP-bounded against scalar by tests/test_simd.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tamp::simd {

/// Executable kernel tier, ordered by lane count.
enum class Level : int { scalar = 0, sse2 = 1, avx2 = 2 };

/// What a knob asks for; resolve() maps it onto a runnable Level.
enum class Request : int { inherit = 0, auto_ = 1, scalar = 2, sse2 = 3, avx2 = 4 };

/// Double lanes per iteration at this level: 1 / 2 / 4.
[[nodiscard]] int lanes(Level level);

[[nodiscard]] const char* to_string(Level level);

/// Parse "auto" | "scalar" | "sse2" | "avx2" (throws precondition_error
/// on anything else; the empty string means inherit).
[[nodiscard]] Request parse_request(std::string_view text);

/// Best level this CPU executes natively (cpuid-based on x86; scalar
/// elsewhere — the portable packs are correct but not faster there).
[[nodiscard]] Level detect_native();

/// Whether the kernels compiled for `level` can execute on this CPU.
/// Always true for scalar; for sse2/avx2 it checks the instruction sets
/// the per-width translation units were actually built with.
[[nodiscard]] bool level_runnable(Level level);

/// The TAMP_SIMD environment request (auto when unset/empty).
[[nodiscard]] Request env_request();

/// Process-wide default used by Request::inherit: starts as
/// env_request(); set_default_request() overrides it (flusim --simd,
/// bench sweeps). Passing Request::inherit resets to the environment.
[[nodiscard]] Request default_request();
void set_default_request(Request request);

/// Map a request to a runnable level (see file header).
[[nodiscard]] Level resolve(Request request = Request::inherit);

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
