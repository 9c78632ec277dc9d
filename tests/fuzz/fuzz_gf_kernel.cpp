// GF-kernel differential fuzz target: scalar reference vs SIMD backends.
//
// The EC data plane promises every backend is byte-identical to the scalar
// split-nibble reference for arbitrary (unaligned, odd-length) buffers.
// This target decodes a kernel shape from the fuzz input — k sources, p
// outputs, length, coefficients, an accumulate flag, and a deliberate
// misalignment offset — runs mul_acc / mul_assign / dot on the scalar
// backend and on every backend the host CPU supports, and traps on the
// first differing byte. Finds tail-handling and alignment bugs that the
// fixed-size parity tests miss.
//
// A second stage reinterprets the same coefficients as the parity rows of
// a systematic (k+p, k) generator, picks a fuzz-chosen erasure pattern,
// compiles an ec::DecodePlan (exercising survivor selection and GF(256)
// inversion against arbitrary — possibly singular — parity rows), and when
// the plan is viable checks that decode under every supported backend
// rebuilds the exact bytes a naive gf::mul re-encode predicts.
#include <cstdint>
#include <cstring>
#include <vector>

#include "ec/backend.hpp"
#include "ec/decode.hpp"
#include "ec/kernels.hpp"
#include "gf/gf256.hpp"

namespace {

using mlec::gf::byte_t;

constexpr std::size_t kMaxK = 8;
constexpr std::size_t kMaxP = 4;
constexpr std::size_t kMaxLen = 1024;

struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;
  std::uint8_t next() { return pos < size ? data[pos++] : 0x5a; }
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  Reader in{data, size};
  const std::size_t k = 1 + in.next() % kMaxK;
  const std::size_t p = 1 + in.next() % kMaxP;
  std::size_t len = 1 + ((static_cast<std::size_t>(in.next()) << 8 | in.next()) % kMaxLen);
  const bool accumulate = (in.next() & 1) != 0;
  const std::size_t misalign = in.next() % 8;

  std::vector<mlec::gf::MulTable> tables(k * p);
  for (auto& t : tables) t = mlec::gf::make_mul_table(in.next());

  // Source/destination pools carry a misalignment offset so the vector
  // kernels' unaligned-load paths and scalar tails are both exercised.
  std::vector<std::vector<byte_t>> src_store(k);
  std::vector<const byte_t*> src(k);
  for (std::size_t c = 0; c < k; ++c) {
    src_store[c].resize(len + misalign);
    for (std::size_t i = 0; i < len; ++i) src_store[c][misalign + i] = in.next();
    src[c] = src_store[c].data() + misalign;
  }
  std::vector<byte_t> seed(len);
  for (auto& b : seed) b = in.next();

  const auto& scalar = mlec::ec::kernels_for(mlec::ec::Backend::kScalar);

  // Reference outputs once per kernel, then every supported backend must
  // reproduce them exactly.
  std::vector<std::vector<byte_t>> ref_dot(p, seed);
  {
    std::vector<byte_t*> dst(p);
    for (std::size_t r = 0; r < p; ++r) dst[r] = ref_dot[r].data();
    scalar.dot(tables.data(), k, p, src.data(), dst.data(), len, accumulate);
  }
  std::vector<byte_t> ref_acc(seed);
  scalar.mul_acc(tables[0], src[0], ref_acc.data(), len);
  std::vector<byte_t> ref_assign(seed);
  scalar.mul_assign(tables[0], src[0], ref_assign.data(), len);

  for (const auto backend : mlec::ec::kAllBackends) {
    if (backend == mlec::ec::Backend::kScalar || !mlec::ec::backend_supported(backend))
      continue;
    const auto& kernels = mlec::ec::kernels_for(backend);

    std::vector<std::vector<byte_t>> out(p);
    std::vector<byte_t*> dst(p);
    for (std::size_t r = 0; r < p; ++r) {
      out[r].assign(seed.begin() + 0, seed.end());
      dst[r] = out[r].data();
    }
    kernels.dot(tables.data(), k, p, src.data(), dst.data(), len, accumulate);
    for (std::size_t r = 0; r < p; ++r)
      if (std::memcmp(out[r].data(), ref_dot[r].data(), len) != 0) __builtin_trap();

    std::vector<byte_t> acc(seed);
    kernels.mul_acc(tables[0], src[0], acc.data(), len);
    if (std::memcmp(acc.data(), ref_acc.data(), len) != 0) __builtin_trap();

    std::vector<byte_t> assign(seed);
    kernels.mul_assign(tables[0], src[0], assign.data(), len);
    if (std::memcmp(assign.data(), ref_assign.data(), len) != 0) __builtin_trap();
  }

  // --- decode differential over the same shape ---------------------------
  // Systematic generator [I; P] with fuzz-chosen parity rows (recovered
  // from the tables: c = lo[1]); arbitrary rows mean the survivor submatrix
  // is often singular, which must surface as !viable(), never a crash.
  const std::size_t n = k + p;
  std::vector<byte_t> gen(n * k, 0);
  for (std::size_t i = 0; i < k; ++i) gen[i * k + i] = 1;
  for (std::size_t r = 0; r < p; ++r)
    for (std::size_t c = 0; c < k; ++c) gen[(k + r) * k + c] = tables[r * k + c].lo[1];

  std::vector<std::size_t> lost;
  const std::size_t losses = 1 + in.next() % p;
  for (std::size_t i = 0; i < n && lost.size() < losses; ++i)
    if (in.next() & 1) lost.push_back(i);
  if (lost.empty()) lost.push_back(in.next() % n);

  const mlec::ec::DecodePlan plan(n, k, gen, lost);
  if (!plan.viable()) return 0;

  // Truth stripe via naive gf::mul re-encode of the fuzz data.
  std::vector<std::vector<byte_t>> truth(n, std::vector<byte_t>(len, 0));
  for (std::size_t c = 0; c < k; ++c) std::memcpy(truth[c].data(), src[c], len);
  for (std::size_t r = 0; r < p; ++r)
    for (std::size_t c = 0; c < k; ++c)
      for (std::size_t i = 0; i < len; ++i)
        truth[k + r][i] = static_cast<byte_t>(
            truth[k + r][i] ^ mlec::gf::mul(gen[(k + r) * k + c], truth[c][i]));

  for (const auto backend : mlec::ec::kAllBackends) {
    if (!mlec::ec::backend_supported(backend)) continue;
    mlec::ec::ScopedBackend scope(backend);
    std::vector<std::vector<byte_t>> shards = truth;
    std::vector<byte_t*> ptrs(n);
    for (std::size_t i = 0; i < n; ++i) ptrs[i] = shards[i].data();
    for (auto idx : lost) std::memset(shards[idx].data(), 0xA5, len);
    mlec::ec::decode(plan, ptrs.data(), len);
    for (std::size_t i = 0; i < n; ++i)
      if (std::memcmp(shards[i].data(), truth[i].data(), len) != 0) __builtin_trap();
  }
  return 0;
}
