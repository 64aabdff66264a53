// Fixed-width double packs — the data-parallel vocabulary the solver
// SIMD kernels are written in (solver/simd_kernels_impl.hpp).
//
// Pack<W> holds W doubles and offers exactly the operations the flux and
// gather kernels need: unit-stride and strided loads/stores, indexed
// gathers (with an index stride, for the CSR uniform-degree fast path),
// lanewise arithmetic, max, sqrt, a >=-mask with select, and a
// horizontal sum (diagnostics only — never on the physics path, so no
// kernel result depends on a cross-lane reduction order).
//
// Three packs, each present only where the ISA macros of the
// translation unit allow it: the plain scalar Pack<1> everywhere, the
// hand-written SSE2 Pack<2> (`__m128d`) where __SSE2__ is defined and the
// hand-written AVX2 Pack<4> (`__m256d`) where __AVX2__ is. There is no
// portable fallback: a width without its pack is a tier the build lacks.
//
// Everything lives in an anonymous namespace ON PURPOSE: the per-width
// kernel TUs (solver/simd_kernels_w2.cpp / _w4.cpp) are compiled with
// different -m flags, and both instantiate the Pack<1> remainder path.
// Internal linkage gives each TU its own copy and keeps the linker from
// COMDAT-merging an AVX2-compiled instantiation into baseline code (the
// Highway per-target trick, without the macro machinery). Include this
// header only from TUs that instantiate kernels.
//
// Lanewise-bitwise contract: every operation is elementwise IEEE-754
// (add/sub/mul/div/sqrt are correctly rounded; max matches
// `(a<b)?b:a` for non-NaN inputs; >= is an ordered, quiet compare), so
// a kernel transcribed lane-by-lane from a scalar expression tree
// produces bitwise the scalar results for finite data. NaN propagation
// through max may differ between tiers — the one documented divergence.
#pragma once

#include <cstddef>

#include "support/types.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace tamp::simd {
namespace {  // NOLINT — internal linkage per TU, see file header

/// W-lane pack, defined only for the widths below: a tier exists only
/// where its hand-written pack is compiled.
template <int W>
struct Pack;

/// One-lane pack: the tail/remainder path. Written with plain scalar
/// ops so remainder objects get bit-for-bit the scalar kernel's math.
template <>
struct Pack<1> {
  using mask_t = bool;
  double v;

  static Pack load(const double* p) { return {*p}; }
  static Pack load_strided(const double* p, std::ptrdiff_t) { return {*p}; }
  static Pack gather(const double* base, const index_t* idx,
                     std::ptrdiff_t = 1) {
    return {base[idx[0]]};
  }
  static Pack broadcast(double x) { return {x}; }
  void store(double* p) const { *p = v; }
  double lane(int) const { return v; }
  double hsum() const { return v; }
  friend Pack operator+(Pack a, Pack b) { return {a.v + b.v}; }
  friend Pack operator-(Pack a, Pack b) { return {a.v - b.v}; }
  friend Pack operator*(Pack a, Pack b) { return {a.v * b.v}; }
  friend Pack operator/(Pack a, Pack b) { return {a.v / b.v}; }
  friend Pack max(Pack a, Pack b) { return {a.v < b.v ? b.v : a.v}; }
  friend Pack sqrt(Pack a) { return {__builtin_sqrt(a.v)}; }
  friend mask_t ge(Pack a, Pack b) { return a.v >= b.v; }
  static Pack select(mask_t m, Pack a, Pack b) { return m ? a : b; }
};

#if defined(__SSE2__)
/// Hand-written SSE2 two-lane pack.
template <>
struct Pack<2> {
  using mask_t = __m128d;
  __m128d v;

  static Pack load(const double* p) { return {_mm_loadu_pd(p)}; }
  static Pack load_strided(const double* p, std::ptrdiff_t stride) {
    return {_mm_set_pd(p[stride], p[0])};
  }
  static Pack gather(const double* base, const index_t* idx,
                     std::ptrdiff_t idx_stride = 1) {
    return {_mm_set_pd(base[idx[idx_stride]], base[idx[0]])};
  }
  static Pack broadcast(double x) { return {_mm_set1_pd(x)}; }
  void store(double* p) const { _mm_storeu_pd(p, v); }
  double lane(int i) const {
    double t[2];
    _mm_storeu_pd(t, v);
    return t[i];
  }
  double hsum() const {
    double t[2];
    _mm_storeu_pd(t, v);
    return t[0] + t[1];
  }
  friend Pack operator+(Pack a, Pack b) { return {_mm_add_pd(a.v, b.v)}; }
  friend Pack operator-(Pack a, Pack b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend Pack operator*(Pack a, Pack b) { return {_mm_mul_pd(a.v, b.v)}; }
  friend Pack operator/(Pack a, Pack b) { return {_mm_div_pd(a.v, b.v)}; }
  friend Pack max(Pack a, Pack b) { return {_mm_max_pd(a.v, b.v)}; }
  friend Pack sqrt(Pack a) { return {_mm_sqrt_pd(a.v)}; }
  friend mask_t ge(Pack a, Pack b) { return _mm_cmpge_pd(a.v, b.v); }
  static Pack select(mask_t m, Pack a, Pack b) {
    return {_mm_or_pd(_mm_and_pd(m, a.v), _mm_andnot_pd(m, b.v))};
  }
};
#endif  // __SSE2__

#if defined(__AVX2__)
/// Hand-written AVX2 four-lane pack (hardware gathers for the
/// index-coupled loads — the flux kernels' cell-state reads and the
/// update kernel's accumulator pulls).
template <>
struct Pack<4> {
  using mask_t = __m256d;
  __m256d v;

  static Pack load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static Pack load_strided(const double* p, std::ptrdiff_t stride) {
    return {_mm256_set_pd(p[3 * stride], p[2 * stride], p[stride], p[0])};
  }
  static Pack gather(const double* base, const index_t* idx,
                     std::ptrdiff_t idx_stride = 1) {
    const __m128i vi =
        idx_stride == 1
            ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx))
            : _mm_set_epi32(idx[3 * idx_stride], idx[2 * idx_stride],
                            idx[idx_stride], idx[0]);
    return {_mm256_i32gather_pd(base, vi, 8)};
  }
  static Pack broadcast(double x) { return {_mm256_set1_pd(x)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  double lane(int i) const {
    double t[4];
    _mm256_storeu_pd(t, v);
    return t[i];
  }
  double hsum() const {
    double t[4];
    _mm256_storeu_pd(t, v);
    return ((t[0] + t[1]) + t[2]) + t[3];
  }
  friend Pack operator+(Pack a, Pack b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend Pack operator-(Pack a, Pack b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend Pack operator*(Pack a, Pack b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend Pack operator/(Pack a, Pack b) { return {_mm256_div_pd(a.v, b.v)}; }
  friend Pack max(Pack a, Pack b) { return {_mm256_max_pd(a.v, b.v)}; }
  friend Pack sqrt(Pack a) { return {_mm256_sqrt_pd(a.v)}; }
  friend mask_t ge(Pack a, Pack b) {
    return _mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ);
  }
  static Pack select(mask_t m, Pack a, Pack b) {
    return {_mm256_blendv_pd(b.v, a.v, m)};
  }
};
#endif  // __AVX2__

}  // namespace
}  // namespace tamp::simd
