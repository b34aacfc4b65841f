#pragma once
// Mix128: two independent FNV-1a style lanes with distinct offsets and
// primes.  Each absorbed word perturbs both lanes, giving a 128-bit
// fingerprint without any external dependency; a collision would have
// to agree in both lanes.  grid::config_digest, grid::workload_digest
// and net::graph_digest are all built on it, and DigestKeyHash folds
// such digests (plus any extra key words) into a hash-table bucket.

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace scal::util {

class Mix128 {
 public:
  void word(std::uint64_t w) {
    a_ = (a_ ^ w) * 0x100000001B3ull;
    a_ ^= a_ >> 29;
    b_ = (b_ ^ (w + 0x9E3779B97F4A7C15ull)) * 0xC2B2AE3D27D4EB4Full;
    b_ ^= b_ >> 31;
  }

  void real(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    word(bits);
  }

  void text(const std::string& value) {
    word(value.size());
    for (const char c : value) word(static_cast<unsigned char>(c));
  }

  std::array<std::uint64_t, 2> finish() const { return {a_, b_}; }

 private:
  std::uint64_t a_ = 0xCBF29CE484222325ull;
  std::uint64_t b_ = 0x6C62272E07BB0142ull;
};

/// Hash of a digest-shaped key (a fixed run of 64-bit words), for
/// unordered containers keyed on digests.
struct DigestKeyHash {
  template <std::size_t N>
  std::size_t operator()(
      const std::array<std::uint64_t, N>& key) const noexcept {
    Mix128 mix;
    for (const std::uint64_t w : key) mix.word(w);
    const auto lanes = mix.finish();
    return static_cast<std::size_t>(lanes[0] ^ lanes[1]);
  }
};

}  // namespace scal::util
