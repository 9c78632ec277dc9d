// Figure 11: single-core encoding throughput for (k+p) SLEC.
//
// The paper measured Intel ISA-L on a Xeon Gold 6240R; this harness runs
// the repository's own GF(2^8) Reed-Solomon coder on the local CPU, with
// the kernels of the dispatched SIMD backend (see ec/backend.hpp and
// DESIGN.md "Substitutions"). Absolute numbers differ; the k/p scaling
// shape is the reproduction target.
#include <cstring>
#include <iostream>
#include <vector>

#include "analysis/encoding.hpp"
#include "ec/backend.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace mlec;
  const bool full = argc > 1 && std::strcmp(argv[1], "--full") == 0;
  const double seconds = fast_mode() ? 0.01 : (full ? 0.25 : 0.05);

  const std::vector<std::size_t> ks = full
      ? std::vector<std::size_t>{1, 2, 4, 6, 8, 10, 15, 20, 25, 30, 35, 40, 45, 50}
      : std::vector<std::size_t>{1, 2, 5, 10, 20, 30, 40, 50};
  const std::vector<std::size_t> ps =
      full ? std::vector<std::size_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
           : std::vector<std::size_t>{1, 2, 4, 6, 8, 10};

  std::cout << "# paper: Figure 11 — single-core encoding throughput (MB/s of data),\n"
            << "# 128 KB chunks, rows = p (parities), columns = k (data chunks)\n"
            << "# ec backend: " << ec::to_string(ec::active_backend())
            << " (force with MLEC_EC_BACKEND=scalar|avx2|avx512|gfni)\n\n";
  std::vector<std::string> header{"p\\k"};
  for (auto k : ks) header.push_back(std::to_string(k));
  Table t(header);
  for (auto p : ps) {
    std::vector<std::string> row{std::to_string(p)};
    for (auto k : ks)
      row.push_back(Table::num(measure_encoding_throughput(k, p, 128.0, seconds).data_mbps, 0));
    t.add_row(std::move(row));
  }
  std::cout << t.to_ascii() << '\n';
  std::cout << "# paper shape: throughput decreases with p (more parity math) and\n"
            << "# with k (wider stripes stress the cache).\n";
  return 0;
}
