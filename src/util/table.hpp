// Text output helpers: aligned ASCII tables and log-scale heatmaps.
//
// Every bench harness in this repository prints its paper counterpart through
// these helpers so the output format stays uniform and machine-scrapable.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace mlec {

/// Column-aligned text table with an optional title, printable as ASCII.
/// Cells are strings; numeric convenience setters format compactly.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append a row; must match the header arity.
  void add_row(std::vector<std::string> cells);

  std::size_t rows() const { return rows_.size(); }
  std::size_t cols() const { return headers_.size(); }

  /// Render with padded columns, a header separator, and `title` on top.
  std::string to_ascii(const std::string& title = {}) const;

  /// Compact numeric formatting used across the library: fixed for moderate
  /// magnitudes, scientific for extremes, trailing zeros trimmed.
  static std::string num(double v, int precision = 4);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Renderer for the paper's PDL heatmaps (Figures 5, 13, 16): a y-by-x grid
/// of probabilities shown as log10 buckets, matching the paper's -6..0 color
/// scale with one character per cell.
class HeatmapRenderer {
 public:
  /// values[yi][xi] with y_labels descending rows. Values <= 0 render as '.';
  /// otherwise the digit d = min(6, floor(-log10(v))) so '0' = PDL near 1 and
  /// '6' = PDL <= 1e-6.
  static std::string render(const std::vector<std::vector<double>>& values,
                            const std::vector<int>& y_labels, const std::vector<int>& x_labels,
                            const std::string& title);
};

/// Returns true when the environment requests reduced trial counts
/// (MLEC_FAST=1); figure harnesses use it to stay fast in CI loops.
bool fast_mode();

std::ostream& operator<<(std::ostream& os, const Table& t);

}  // namespace mlec
