// Deterministic, splittable random number generation.
//
// Monte-Carlo experiments in this library must be reproducible across runs
// and parallelizable across threads. We use xoshiro256** (Blackman & Vigna)
// seeded through SplitMix64; Rng::split() derives statistically independent
// child streams so each worker/trial can own a private generator.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace mlec {

/// xoshiro256** generator with convenience distributions.
///
/// Satisfies std::uniform_random_bit_generator so it can also feed <random>
/// distributions if ever needed; the built-in helpers below avoid libstdc++
/// distribution implementation differences for reproducibility.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seed via SplitMix64 expansion of `seed` (any value is fine, including 0).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit output.
  result_type operator()();

  /// Derive an independent child stream (uses jump-free reseeding through
  /// SplitMix64 of fresh output, adequate for embarrassingly parallel MC).
  Rng split();

  /// Deterministic substream derivation for block-parallel campaigns: every
  /// (seed, stream) pair maps to a statistically independent generator, and
  /// the mapping is stable across runs — the basis for worker-count
  /// independence, checkpoint/resume reproducibility and retries that
  /// replay their block. Campaign block b uses stream = b.
  static Rng for_substream(std::uint64_t seed, std::uint64_t stream);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_below(std::uint64_t n);

  /// Uniform integer in [lo, hi]. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponentially distributed value with the given rate (events per unit
  /// time): an Exp(1) variate from the ziggurat below, divided by `rate`,
  /// so exponential(rate) == exponential(1) / rate on the same stream.
  /// Requires rate > 0.
  double exponential(double rate);

  /// Fill `out` with uniform [0, 1) doubles. Bit-identical to calling
  /// uniform() out.size() times on the same stream — the block form exists
  /// so hot loops amortize call overhead, not to change the variates.
  void uniform_fill(std::span<double> out);

  /// Fill `out` with Exp(rate) variates from the same ziggurat. Bit-identical
  /// to calling exponential(rate) out.size() times on the same stream.
  /// Requires rate > 0.
  void exponential_fill(std::span<double> out, double rate);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Binomial(n, p) sample by inversion/waiting-time, suitable for the small
  /// n (< a few thousand) used in this library.
  std::uint64_t binomial(std::uint64_t n, double p);

  /// Sample `k` distinct values from [0, n) in O(k) expected time
  /// (Floyd's algorithm). Result is unsorted. Requires k <= n.
  std::vector<std::uint64_t> sample_without_replacement(std::uint64_t n, std::uint64_t k);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_below(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

 private:
  /// Exp(1) variate by the exponential ziggurat (see ExponentialZiggurat).
  double standard_exponential();
  /// The ziggurat's rare path, for a word `bits` that missed its layer's
  /// rectangle: the tail, the wedge test, and the redraws after a rejection.
  double standard_exponential_miss(std::uint64_t bits);

  /// One xoshiro256** step on `s`, returning the output word.
  static std::uint64_t step(std::array<std::uint64_t, 4>& s);

  std::array<std::uint64_t, 4> state_;
};

/// Tables of the 256-layer exponential ziggurat of Marsaglia & Tsang (J.
/// Stat. Softw. 5(8), 2000) behind Rng::exponential. The region under
/// e^{-x} is cut into 256 layers of equal area v: layer i >= 1 is the
/// rectangle [0, x[i]] x [f[i], f[i+1]], and the base layer 0 is the
/// rectangle [0, r] x [0, e^{-r}] plus the tail beyond r, drawn as a
/// rectangle of virtual width x[0] = v / e^{-r}. One 64-bit word picks the
/// layer (low 8 bits) and the abscissa u * x[i] (top 53 bits); it is
/// accepted outright when it falls under the next layer's edge x[i+1].
struct ExponentialZiggurat {
  static constexpr int kLayers = 256;
  /// Right edge of the base rectangle; it closes the recursion on x[256] = 0.
  static constexpr double kR = 7.69711747013104972;

  double v = 0.0;                       ///< common layer area, e^{-r} (1 + r)
  std::array<double, kLayers + 1> x{};  ///< layer widths, x[1] = r .. x[256] = 0
  std::array<double, kLayers + 1> f{};  ///< e^{-x[i]}; f[0] = 0 (base floor), f[256] = 1
  std::array<double, kLayers> w{};      ///< x[i] * 2^-53: scales the 53-bit abscissa
};

/// The ziggurat tables, built on first use (a function-local static, so no
/// static-initialization-order hazard) and immutable afterwards.
const ExponentialZiggurat& exponential_ziggurat();

/// SplitMix64 step, exposed for seeding utilities and tests.
std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace mlec
