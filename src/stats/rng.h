// The simulator's one random-number engine.
//
// Rng emits exactly the stream of std::mt19937_64 — same seeding, same
// tempering, same outputs in the same order — so every seeded workload,
// golden and perfbench `sim_*` value stays what the standard engine made
// it. It differs only in how the host computes that stream:
//
//   * The state refill takes the twist's conditional XOR without a
//     branch: `-(y & 1) & a` is `a` when y's low bit is set and 0 when it
//     is not, the same value libstdc++'s `(y & 1) ? a : 0` picks, but with
//     no data-dependent jump for a random bit to mispredict.
//   * Canonical() is std::uniform_real_distribution<double>(0, 1) without
//     the distribution object: one 64-bit draw scaled by 2^-64, converted
//     without a branch on the draw's top bit, and clamped below 1.
//
// Rng meets UniformRandomBitGenerator with mt19937_64's result_type, min()
// and max(), so std::shuffle and the std::uniform_*/geometric
// distributions consume it draw for draw as they consume mt19937_64, and
// return the same values.

#ifndef SRC_STATS_RNG_H_
#define SRC_STATS_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace sat {

class Rng {
 public:
  using result_type = uint64_t;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  // std::mt19937_64's seeding (Knuth's multiplier, index added per word).
  explicit Rng(uint64_t seed) {
    state_[0] = seed;
    for (size_t i = 1; i < kN; ++i) {
      const uint64_t prev = state_[i - 1];
      state_[i] = kInitMultiplier * (prev ^ (prev >> 62)) + i;
    }
  }

  result_type operator()() {
    if (next_ >= kN) {
      Refill();
    }
    uint64_t z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    z ^= z >> 43;
    return z;
  }

  // A uniform double in [0, 1), equal to what
  // std::uniform_real_distribution<double>(0, 1) returns from the same
  // engine: libstdc++'s generate_canonical takes one 64-bit draw v and
  // returns double(v) / 2^64, or the largest double below 1 when rounding
  // carries that to 1.
  double Canonical() { return ToCanonical((*this)()); }

  // The bits-to-double step of Canonical(). A draw below 2^63 converts
  // as a signed integer. One with the top bit set is halved first, with
  // the dropped low bit ORed into bit 0: rounding to 53 bits then sees the
  // same guard and sticky bits it would see for v, so 2^-63 times the
  // halved value is exactly double(v) * 2^-64. The top bit selects the
  // shift, the OR and the scale arithmetically, so the conversion has no
  // branch on v.
  static double ToCanonical(uint64_t v) {
    const uint64_t top = v >> 63;
    const uint64_t halved = (v >> top) | (v & top);
    const double scaled =
        static_cast<double>(static_cast<int64_t>(halved)) * kScale[top];
    return scaled < kBelowOne ? scaled : kBelowOne;
  }

 private:
  static constexpr size_t kN = 312;  // state words
  static constexpr size_t kM = 156;  // twist offset
  static constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
  static constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
  static constexpr uint64_t kLowerMask = ~kUpperMask;
  static constexpr uint64_t kInitMultiplier = 6364136223846793005ull;
  static constexpr double kScale[2] = {0x1p-64, 0x1p-63};
  static constexpr double kBelowOne = 0x1.fffffffffffffp-1;  // nextafter(1, 0)

  static uint64_t Twist(uint64_t upper, uint64_t lower, uint64_t far) {
    const uint64_t y = (upper & kUpperMask) | (lower & kLowerMask);
    return far ^ (y >> 1) ^ (-(y & 1) & kMatrixA);
  }

  // Regenerates all kN state words, as mt19937_64 does every kN draws.
  void Refill() {
    for (size_t k = 0; k < kN - kM; ++k) {
      state_[k] = Twist(state_[k], state_[k + 1], state_[k + kM]);
    }
    for (size_t k = kN - kM; k < kN - 1; ++k) {
      state_[k] = Twist(state_[k], state_[k + 1], state_[k + kM - kN]);
    }
    state_[kN - 1] = Twist(state_[kN - 1], state_[0], state_[kM - 1]);
    next_ = 0;
  }

  std::array<uint64_t, kN> state_;
  size_t next_ = kN;
};

}  // namespace sat

#endif  // SRC_STATS_RNG_H_
