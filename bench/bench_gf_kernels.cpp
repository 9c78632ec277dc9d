// Microbenchmarks for the GF(2^8)/Reed-Solomon kernels that power the
// Figure 11 study, now covering every dispatched ec backend.
//
// Two modes:
//   bench_gf_kernels [gbench flags]   google-benchmark tables, one series
//                                     per supported backend
//   bench_gf_kernels --json[=PATH]    self-timed sweep writing GB/s per
//                                     kernel x backend x buffer size to
//                                     PATH (default BENCH_ec_kernels.json),
//                                     the perf trajectory record
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "ec/backend.hpp"
#include "ec/codec.hpp"
#include "ec/decode.hpp"
#include "ec/kernels.hpp"
#include "ec/stream.hpp"
#include "gf/gf256.hpp"
#include "gf/rs.hpp"
#include "util/thread_pool.hpp"

namespace {

using mlec::gf::byte_t;

std::vector<mlec::ec::Backend> supported_backends() {
  std::vector<mlec::ec::Backend> out;
  for (const auto b : mlec::ec::kAllBackends)
    if (mlec::ec::backend_supported(b)) out.push_back(b);
  return out;
}

std::vector<byte_t> pattern_buffer(std::size_t len, unsigned salt = 0) {
  std::vector<byte_t> buf(len);
  for (std::size_t i = 0; i < len; ++i) buf[i] = static_cast<byte_t>(i * 31 + 7 + salt * 131);
  return buf;
}

// --- google-benchmark registrations -----------------------------------------

void BM_EcMulAcc(benchmark::State& state, mlec::ec::Backend backend) {
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  const auto src = pattern_buffer(len);
  std::vector<byte_t> dst(len);
  const auto table = mlec::gf::make_mul_table(0x57);
  const auto& k = mlec::ec::kernels_for(backend);
  for (auto _ : state) {
    k.mul_acc(table, src.data(), dst.data(), len);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}

void BM_EcEncodeFused(benchmark::State& state, mlec::ec::Backend backend, std::size_t k,
                      std::size_t p) {
  const std::size_t chunk = static_cast<std::size_t>(state.range(0));
  const mlec::gf::RsCode code(k, p);
  std::vector<std::vector<byte_t>> data, parity(p, std::vector<byte_t>(chunk));
  for (std::size_t i = 0; i < k; ++i) data.push_back(pattern_buffer(chunk, i));
  std::vector<const byte_t*> src(k);
  for (std::size_t i = 0; i < k; ++i) src[i] = data[i].data();
  std::vector<byte_t*> dst(p);
  for (std::size_t i = 0; i < p; ++i) dst[i] = parity[i].data();
  const auto& kern = mlec::ec::kernels_for(backend);
  const auto& plan = code.encode_plan();
  for (auto _ : state) {
    kern.dot(plan.tables(), k, p, src.data(), dst.data(), chunk, false);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * chunk));
}

void BM_RsEncode(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::size_t p = static_cast<std::size_t>(state.range(1));
  const std::size_t chunk = 128 << 10;
  const mlec::gf::RsCode code(k, p);
  std::vector<std::vector<byte_t>> data, parity(p, std::vector<byte_t>(chunk));
  for (std::size_t i = 0; i < k; ++i) data.push_back(pattern_buffer(chunk, i));
  for (auto _ : state) {
    code.encode(data, parity);
    benchmark::DoNotOptimize(parity.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * chunk));
}
BENCHMARK(BM_RsEncode)
    ->Args({10, 2})   // the paper's network code
    ->Args({17, 3})   // the paper's local code
    ->Args({28, 12})  // the paper's wide SLEC comparison point
    ->Args({50, 10});

void BM_RsDecode(benchmark::State& state) {
  const std::size_t k = 17, p = 3;
  const std::size_t chunk = 128 << 10;
  const mlec::gf::RsCode code(k, p);
  std::vector<std::vector<byte_t>> shards(k + p, std::vector<byte_t>(chunk));
  for (std::size_t i = 0; i < k; ++i) shards[i] = pattern_buffer(chunk, i);
  {
    std::vector<std::vector<byte_t>> data(shards.begin(), shards.begin() + k);
    std::vector<std::vector<byte_t>> parity(shards.begin() + k, shards.end());
    code.encode(data, parity);
    for (std::size_t i = 0; i < p; ++i) shards[k + i] = parity[i];
  }
  const std::vector<std::size_t> lost{0, 5, 11};
  for (auto _ : state) {
    code.decode(shards, lost);
    benchmark::DoNotOptimize(shards.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lost.size() * chunk));
}
BENCHMARK(BM_RsDecode);

// --- --json mode: the perf trajectory record --------------------------------

struct JsonResult {
  std::string kernel;
  std::string backend;
  std::size_t buffer_bytes;
  double gbps;
  double speedup_vs_scalar;
};

/// Run fn (processing `bytes` per call) until >= 20 ms elapsed; return GB/s.
template <typename Fn>
double measure_gbps(std::size_t bytes, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warm caches / fault pages
  std::size_t iters = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double dt = std::chrono::duration<double>(clock::now() - t0).count();
    if (dt >= 0.02)
      return static_cast<double>(bytes) * static_cast<double>(iters) / dt / 1e9;
    iters *= 4;
  }
}

int run_json_sweep(const std::string& path) {
  const std::vector<std::size_t> sizes{4 << 10, 64 << 10, 128 << 10, 1 << 20};
  // (10+2)/(17+3) are the paper's MLEC levels; (28+12) stresses high parity
  // counts; (50+10) is a wide RS stripe.
  const std::vector<std::pair<std::size_t, std::size_t>> codes{
      {10, 2}, {17, 3}, {28, 12}, {50, 10}};
  std::vector<JsonResult> results;
  std::map<std::pair<std::string, std::size_t>, double> scalar_gbps;

  for (auto backend : supported_backends()) {
    const auto& kern = mlec::ec::kernels_for(backend);
    for (std::size_t len : sizes) {
      const auto src = pattern_buffer(len);
      std::vector<byte_t> dst(len);
      const auto table = mlec::gf::make_mul_table(0x57);
      for (const char* name : {"mul_acc", "mul_assign"}) {
        const bool acc = std::strcmp(name, "mul_acc") == 0;
        const double gbps = measure_gbps(len, [&] {
          (acc ? kern.mul_acc : kern.mul_assign)(table, src.data(), dst.data(), len);
        });
        const auto key = std::make_pair(std::string(name), len);
        if (backend == mlec::ec::Backend::kScalar) scalar_gbps[key] = gbps;
        results.push_back({name, mlec::ec::to_string(backend), len, gbps,
                           scalar_gbps.count(key) ? gbps / scalar_gbps[key] : 0.0});
      }
      for (auto [k, p] : codes) {
        const mlec::gf::RsCode code(k, p);
        std::vector<std::vector<byte_t>> data, parity(p, std::vector<byte_t>(len));
        for (std::size_t i = 0; i < k; ++i) data.push_back(pattern_buffer(len, i));
        std::vector<const byte_t*> sp(k);
        for (std::size_t i = 0; i < k; ++i) sp[i] = data[i].data();
        std::vector<byte_t*> dp(p);
        for (std::size_t i = 0; i < p; ++i) dp[i] = parity[i].data();
        const auto& plan = code.encode_plan();
        const std::string name = "encode_" + std::to_string(k) + "x" + std::to_string(p);
        const double gbps = measure_gbps(k * len, [&] {
          kern.dot(plan.tables(), k, p, sp.data(), dp.data(), len, false);
        });
        const auto key = std::make_pair(name, len);
        if (backend == mlec::ec::Backend::kScalar) scalar_gbps[key] = gbps;
        results.push_back({name, mlec::ec::to_string(backend), len, gbps,
                           scalar_gbps.count(key) ? gbps / scalar_gbps[key] : 0.0});

        // Decode: lose the first p DATA shards (worst case — every lost row
        // is a full inverted-matrix dot over the k survivors) and run the
        // fused DecodePlan under this backend. GB/s counts survivor source
        // bytes, mirroring the encode rows.
        std::vector<std::size_t> lost(p);
        for (std::size_t i = 0; i < p; ++i) lost[i] = i;
        const auto dplan = code.decode_plan(lost);
        std::vector<std::vector<byte_t>> shards = data;
        for (std::size_t i = 0; i < p; ++i) shards.push_back(parity[i]);
        std::vector<byte_t*> ptrs(k + p);
        for (std::size_t i = 0; i < k + p; ++i) ptrs[i] = shards[i].data();
        const std::string dname = "decode_" + std::to_string(k) + "x" + std::to_string(p);
        mlec::ec::ScopedBackend scope(backend);
        const double dgbps =
            measure_gbps(k * len, [&] { mlec::ec::decode(*dplan, ptrs.data(), len); });
        const auto dkey = std::make_pair(dname, len);
        if (backend == mlec::ec::Backend::kScalar) scalar_gbps[dkey] = dgbps;
        results.push_back({dname, mlec::ec::to_string(backend), len, dgbps,
                           scalar_gbps.count(dkey) ? dgbps / scalar_gbps[dkey] : 0.0});
      }
    }
  }

  // --- memory-bandwidth ceiling and the threaded decode against it ----------
  // Both rows count bytes MOVED (reads + writes), not source bytes: that is
  // the unit a bandwidth ceiling is quoted in, and the unit in which a
  // memory-bound decode can at best match memcpy. The ceiling is the better
  // of memcpy and a STREAM-triad-style pass.
  double ceiling_gbps = 0.0;
  double decode_parallel_gbps = 0.0;
  double fraction_of_ceiling = 0.0;
  std::size_t pool_threads = 0;
  {
    const std::size_t big = 64 << 20;
    std::vector<byte_t> a = pattern_buffer(big), b = pattern_buffer(big, 1), c(big);
    const double memcpy_gbps =
        measure_gbps(2 * big, [&] { std::memcpy(c.data(), a.data(), big); });
    const double triad_gbps = measure_gbps(3 * big, [&] {
      for (std::size_t i = 0; i < big; ++i)
        c[i] = static_cast<byte_t>(a[i] ^ (b[i] << 1));
    });
    ceiling_gbps = std::max(memcpy_gbps, triad_gbps);
    results.push_back({"memcpy_bandwidth", "memory", big, memcpy_gbps, 0.0});
    results.push_back({"stream_triad_bandwidth", "memory", big, triad_gbps, 0.0});

    // decode_parallel over the paper's 10+2 with both parities' worth of
    // data shards lost, 16 MiB shards, default pool (MLEC_THREADS or
    // hardware_concurrency), NUMA-aware slicing. Bytes moved per pass:
    // k survivor reads + |lost| writes per byte position.
    const std::size_t k = 10, p = 2, len = 16 << 20;
    const mlec::gf::RsCode code(k, p);
    std::vector<std::vector<byte_t>> shards;
    for (std::size_t i = 0; i < k; ++i) shards.push_back(pattern_buffer(len, i));
    {
      std::vector<std::vector<byte_t>> data(shards.begin(), shards.end());
      std::vector<std::vector<byte_t>> parity(p, std::vector<byte_t>(len));
      code.encode(data, parity);
      for (auto& q : parity) shards.push_back(std::move(q));
    }
    const std::vector<std::size_t> lost{0, 1};
    mlec::ThreadPool pool;
    pool_threads = pool.size();
    decode_parallel_gbps = measure_gbps((k + lost.size()) * len, [&] {
      code.decode_parallel(shards, lost, pool);
    });
    fraction_of_ceiling = ceiling_gbps > 0 ? decode_parallel_gbps / ceiling_gbps : 0.0;
    results.push_back({"decode_parallel_10x2", mlec::ec::to_string(mlec::ec::active_backend()),
                       len, decode_parallel_gbps, 0.0});
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"detected_backend\": \"%s\",\n",
               mlec::ec::to_string(mlec::ec::detect_backend()));
  std::fprintf(f,
               "  \"unit\": \"GB/s of source data, single thread (bandwidth and "
               "decode_parallel rows: GB/s of bytes moved)\",\n");
  std::fprintf(f, "  \"bandwidth_ceiling_gbps\": %.3f,\n", ceiling_gbps);
  std::fprintf(f, "  \"decode_parallel_gbps\": %.3f,\n", decode_parallel_gbps);
  std::fprintf(f, "  \"decode_parallel_threads\": %zu,\n", pool_threads);
  std::fprintf(f, "  \"decode_parallel_fraction_of_ceiling\": %.3f,\n", fraction_of_ceiling);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"backend\": \"%s\", \"buffer_bytes\": %zu, "
                 "\"gbps\": %.3f, \"speedup_vs_scalar\": %.2f}%s\n",
                 r.kernel.c_str(), r.backend.c_str(), r.buffer_bytes, r.gbps,
                 r.speedup_vs_scalar, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %zu results to %s\n", results.size(), path.c_str());
  std::printf("bandwidth ceiling %.2f GB/s; decode_parallel %.2f GB/s (%zu threads) = %.0f%% of ceiling\n",
              ceiling_gbps, decode_parallel_gbps, pool_threads, fraction_of_ceiling * 100.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json", 6) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      return run_json_sweep(eq != nullptr ? eq + 1 : "BENCH_ec_kernels.json");
    }
  }
  for (auto backend : supported_backends()) {
    const std::string suffix = mlec::ec::to_string(backend);
    auto* acc = benchmark::RegisterBenchmark(("BM_EcMulAcc/" + suffix).c_str(),
                                             [backend](benchmark::State& s) {
                                               BM_EcMulAcc(s, backend);
                                             });
    acc->Arg(4 << 10)->Arg(128 << 10)->Arg(1 << 20);
    for (auto [k, p] : {std::pair<std::size_t, std::size_t>{10, 2}, {17, 3}, {28, 12}}) {
      auto* enc = benchmark::RegisterBenchmark(
          ("BM_EcEncodeFused/" + suffix + "/" + std::to_string(k) + "x" + std::to_string(p))
              .c_str(),
          [backend, k = k, p = p](benchmark::State& s) { BM_EcEncodeFused(s, backend, k, p); });
      enc->Arg(128 << 10);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
