#include "util/table.hpp"

#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace mlec {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  MLEC_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  MLEC_REQUIRE(cells.size() == headers_.size(), "row arity must match headers");
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  const double a = std::abs(v);
  if (v != 0.0 && (a >= 1e7 || a < 1e-3)) {
    os << std::scientific << std::setprecision(precision - 1) << v;
    return os.str();
  }
  os << std::fixed << std::setprecision(precision) << v;
  std::string s = os.str();
  if (s.find('.') != std::string::npos) {
    while (s.back() == '0') s.pop_back();
    if (s.back() == '.') s.pop_back();
  }
  return s;
}

std::string Table::to_ascii(const std::string& title) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream os;
  if (!title.empty()) os << title << '\n';
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c ? "  " : "") << std::left << std::setw(static_cast<int>(widths[c])) << cells[c];
    }
    os << '\n';
  };
  emit(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c)
    os << (c ? "  " : "") << std::string(widths[c], '-');
  os << '\n';
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string HeatmapRenderer::render(const std::vector<std::vector<double>>& values,
                                    const std::vector<int>& y_labels,
                                    const std::vector<int>& x_labels, const std::string& title) {
  MLEC_REQUIRE(values.size() == y_labels.size(), "one y label per row");
  std::ostringstream os;
  os << title << "\n";
  os << "cell digit d: PDL in (1e-(d+1), 1e-d]; '.' = PDL 0; scale matches the paper's -6..0\n";
  for (std::size_t yi = 0; yi < values.size(); ++yi) {
    MLEC_REQUIRE(values[yi].size() == x_labels.size(), "one x label per column");
    os << std::setw(4) << y_labels[yi] << " |";
    for (double v : values[yi]) {
      if (v <= 0.0) {
        os << " .";
      } else {
        int d = static_cast<int>(std::floor(-std::log10(std::min(1.0, v)) + 1e-12));
        d = std::min(d, 6);
        os << ' ' << static_cast<char>('0' + d);
      }
    }
    os << '\n';
  }
  os << "      ";
  for (int x : x_labels) os << ' ' << (x % 10);
  os << "\n      (x labels mod 10; first=" << x_labels.front() << " last=" << x_labels.back()
     << ")\n";
  return os.str();
}

bool fast_mode() {
  // Read-only getenv; nothing in the process writes the environment
  // concurrently (tests that set MLEC_FAST do so before spawning threads).
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* v = std::getenv("MLEC_FAST");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

std::ostream& operator<<(std::ostream& os, const Table& t) { return os << t.to_ascii(); }

}  // namespace mlec
