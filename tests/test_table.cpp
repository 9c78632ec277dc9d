#include "util/table.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace mlec {
namespace {

TEST(Table, AsciiAlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.to_ascii("title");
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
}

TEST(Table, RowArityEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), PreconditionError);
}

TEST(Table, EmptyHeadersRejected) { EXPECT_THROW(Table({}), PreconditionError); }

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(0.0), "0");
  EXPECT_EQ(Table::num(1.5), "1.5");
  EXPECT_EQ(Table::num(2.0), "2");
  EXPECT_EQ(Table::num(1234.5678, 2), "1234.57");
  // Extremes go scientific.
  EXPECT_NE(Table::num(1.23e-9).find('e'), std::string::npos);
  EXPECT_NE(Table::num(4.5e12).find('e'), std::string::npos);
}

TEST(Heatmap, RendersLogBuckets) {
  // Rows: y=2 then y=1; columns x=1..3.
  const std::vector<std::vector<double>> values{{1.0, 0.05, 1e-7}, {0.0, 1e-3, 0.5}};
  const std::string out =
      HeatmapRenderer::render(values, {2, 1}, {1, 2, 3}, "test map");
  EXPECT_NE(out.find("test map"), std::string::npos);
  // 1.0 -> '0'; 0.05 -> '1'; 1e-7 -> capped '6'; 0 -> '.'; 1e-3 -> '3'; 0.5 -> '0'.
  EXPECT_NE(out.find("2 | 0 1 6"), std::string::npos);
  EXPECT_NE(out.find("1 | . 3 0"), std::string::npos);
}

TEST(Heatmap, ShapeMismatchRejected) {
  EXPECT_THROW(HeatmapRenderer::render({{1.0}}, {1, 2}, {1}, "bad"), PreconditionError);
}

}  // namespace
}  // namespace mlec
