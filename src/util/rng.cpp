#include "util/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_set>

namespace mlec {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // xoshiro must not start from the all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) state_[0] = 1;
}

inline std::uint64_t Rng::step(std::array<std::uint64_t, 4>& s) {
  const std::uint64_t result = std::rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = std::rotl(s[3], 45);
  return result;
}

Rng::result_type Rng::operator()() { return step(state_); }

Rng Rng::split() { return Rng((*this)() ^ 0xd1b54a32d192ed03ULL); }

Rng Rng::for_substream(std::uint64_t seed, std::uint64_t stream) {
  // Splitmix of the seed, golden-ratio stream offset, one split: cheap
  // enough to re-seat a campaign worker at every block.
  std::uint64_t s = seed;
  return Rng(splitmix64(s) ^ (0x9e3779b97f4a7c15ULL * (stream + 1))).split();
}

double Rng::uniform() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::uniform_below(std::uint64_t n) {
  MLEC_REQUIRE(n > 0, "uniform_below needs n > 0");
  // Lemire's nearly-divisionless bounded generation with rejection.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = -n % n;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  MLEC_REQUIRE(lo <= hi, "uniform_int needs lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_below(span));
}

namespace {

ExponentialZiggurat build_exponential_ziggurat() {
  using Z = ExponentialZiggurat;
  Z z;
  const double f_r = std::exp(-Z::kR);
  // The base layer's area: the rectangle under e^{-r} plus the tail.
  z.v = f_r * (1.0 + Z::kR);
  z.x[0] = z.v / f_r;
  z.x[1] = Z::kR;
  z.f[0] = 0.0;
  z.f[1] = f_r;
  // Layer i spans [f[i], f[i+1]] over width x[i] with area v.
  for (int i = 1; i < Z::kLayers - 1; ++i) {
    z.f[i + 1] = z.v / z.x[i] + z.f[i];
    z.x[i + 1] = -std::log(z.f[i + 1]);
  }
  // The recursion's next edge is 0 to within ~1e-14 for this r; pin it.
  z.x[Z::kLayers] = 0.0;
  z.f[Z::kLayers] = 1.0;
  for (int i = 0; i < Z::kLayers; ++i) z.w[i] = z.x[i] * 0x1.0p-53;
  return z;
}

const ExponentialZiggurat& ziggurat_tables() {
  static const ExponentialZiggurat tables = build_exponential_ziggurat();
  return tables;
}

}  // namespace

const ExponentialZiggurat& exponential_ziggurat() { return ziggurat_tables(); }

double Rng::standard_exponential_miss(std::uint64_t bits) {
  const ExponentialZiggurat& z = ziggurat_tables();
  while (true) {
    const auto i = static_cast<std::size_t>(bits & 0xff);
    const double x = static_cast<double>(bits >> 11) * z.w[i];
    if (x < z.x[i + 1]) return x;
    // Base layer beyond r: the tail, r + Exp(1) by memorylessness.
    if (i == 0) return ExponentialZiggurat::kR - std::log1p(-uniform());
    // Wedge between the rectangle under layer i+1 and the curve.
    if (z.f[i] + (z.f[i + 1] - z.f[i]) * uniform() < std::exp(-x)) return x;
    bits = (*this)();
  }
}

// Inline so the accept-at-once path compiles into exponential() and the
// fill loop without a call per draw; the rare path stays out of line.
inline double Rng::standard_exponential() {
  const ExponentialZiggurat& z = ziggurat_tables();
  const std::uint64_t bits = (*this)();
  const auto i = static_cast<std::size_t>(bits & 0xff);
  // The top 53 bits scaled by x[i] * 2^-53: u * x[i] with u in [0, 1).
  const double x = static_cast<double>(bits >> 11) * z.w[i];
  if (x < z.x[i + 1]) [[likely]] return x;
  return standard_exponential_miss(bits);
}

double Rng::exponential(double rate) {
  MLEC_REQUIRE(rate > 0.0, "exponential rate must be positive");
  return standard_exponential() / rate;
}

void Rng::uniform_fill(std::span<double> out) {
  // Same per-element transform as uniform(): the fill must stay
  // bit-identical to repeated single draws on the same stream.
  for (double& v : out) v = static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

void Rng::exponential_fill(std::span<double> out, double rate) {
  MLEC_REQUIRE(rate > 0.0, "exponential rate must be positive");
  // The accept-at-once path of standard_exponential() on a local copy of
  // the state, which stays in registers; a miss syncs the copy around the
  // out-of-line rare path. Same words, same expression as exponential():
  // dividing (not multiplying by a precomputed reciprocal) keeps the fill
  // bit-identical to single draws.
  const ExponentialZiggurat& z = ziggurat_tables();
  std::array<std::uint64_t, 4> s = state_;
  for (double& v : out) {
    const std::uint64_t bits = step(s);
    const auto i = static_cast<std::size_t>(bits & 0xff);
    double x = static_cast<double>(bits >> 11) * z.w[i];
    if (!(x < z.x[i + 1])) [[unlikely]] {
      state_ = s;
      x = standard_exponential_miss(bits);
      s = state_;
    }
    v = x / rate;
  }
  state_ = s;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  if (p <= 0.0 || n == 0) return 0;
  if (p >= 1.0) return n;
  // Waiting-time method: count geometric skips. O(np) expected, fine for the
  // small np regimes in this library; falls back to per-trial Bernoulli when
  // p is large so the geometric trick stays efficient.
  if (p > 0.5) return n - binomial(n, 1.0 - p);
  const double log_q = std::log1p(-p);
  std::uint64_t hits = 0;
  double skipped = 0;
  while (true) {
    skipped += std::floor(std::log1p(-uniform()) / log_q) + 1;
    if (skipped > static_cast<double>(n)) return hits;
    ++hits;
  }
}

std::vector<std::uint64_t> Rng::sample_without_replacement(std::uint64_t n, std::uint64_t k) {
  MLEC_REQUIRE(k <= n, "cannot sample more values than the population size");
  std::vector<std::uint64_t> out;
  out.reserve(k);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(k * 2);
  // Floyd's algorithm: for j in [n-k, n), draw t in [0, j]; take t unless
  // already taken, in which case take j.
  for (std::uint64_t j = n - k; j < n; ++j) {
    std::uint64_t t = uniform_below(j + 1);
    if (!seen.insert(t).second) {
      seen.insert(j);
      out.push_back(j);
    } else {
      out.push_back(t);
    }
  }
  return out;
}

}  // namespace mlec
