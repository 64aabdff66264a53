// FNV-1a hashing, shared by everything that fingerprints state: the
// pipeline's IterationSnapshot seal and the task-graph patcher's
// equivalence oracle. One implementation so two fingerprints can never
// drift apart on byte order or constants.
//
// FNV-1a is deliberate: the fingerprints are integrity seals against
// accidental mutation (a leaked mutable reference, a stale patch), not
// against an adversary — a fast, dependency-free, byte-order-stable
// fold is exactly what is needed, and the constants are pinned by unit
// tests against the published FNV test vectors.
//
// fnv1a_words() is the same step over 64-bit words, for seals that are
// computed and checked inside one process over megabytes per call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <vector>

namespace tamp {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// Fold `n` raw bytes into the running hash `h`.
inline void fnv1a_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
}

/// Fold `n` trivially-copyable values into the running hash `h`.
template <typename T>
inline void fnv1a_span(std::uint64_t& h, const T* data, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  fnv1a_bytes(h, data, n * sizeof(T));
}

/// Fold the bytes of `n` trivially-copyable values into `h` a 64-bit
/// word at a time: each word takes the FNV-1a step (xor, multiply by the
/// prime), and the size mod 8 tail bytes take the byte step. One
/// dependent multiply per 8 bytes instead of per byte. Both steps are
/// bijections of `h`, so changing any one word or tail byte always
/// changes the result. The words are loaded in host byte order, so the
/// value is not portable: it seals data within one process and is pinned
/// nowhere.
template <typename T>
inline void fnv1a_words(std::uint64_t& h, const T* data, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  const std::size_t bytes = n * sizeof(T);
  const std::size_t whole = bytes - bytes % 8;
  for (std::size_t i = 0; i < whole; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h ^= w;
    h *= kFnv1aPrime;
  }
  fnv1a_bytes(h, p + whole, bytes - whole);
}

/// One-shot hash of a byte string (the classic FNV-1a of a string).
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = kFnv1aOffset;
  fnv1a_bytes(h, s.data(), s.size());
  return h;
}

/// Builder for multi-field fingerprints: chain add() calls, read value().
/// Field order matters (by design — a fingerprint names a layout).
class Fnv1a {
public:
  Fnv1a() = default;

  template <typename T>
  Fnv1a& add(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    fnv1a_span(h_, &v, 1);
    return *this;
  }
  template <typename T>
  Fnv1a& add_span(const T* data, std::size_t n) {
    fnv1a_span(h_, data, n);
    return *this;
  }
  template <typename T>
  Fnv1a& add_vector(const std::vector<T>& v) {
    // Length-prefixed so (ab, c) and (a, bc) never collide.
    const auto n = static_cast<std::uint64_t>(v.size());
    fnv1a_span(h_, &n, 1);
    fnv1a_span(h_, v.data(), v.size());
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const { return h_; }

private:
  std::uint64_t h_ = kFnv1aOffset;
};

}  // namespace tamp
