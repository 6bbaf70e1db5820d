#include "core/stats.hpp"

#include <gtest/gtest.h>

#include "core/table.hpp"

namespace mcsd {
namespace {

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 25.0);
}

TEST(Percentile, ClampsQ) {
  std::vector<double> v{1, 2};
  EXPECT_DOUBLE_EQ(percentile(v, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 2.0), 2.0);
}

TEST(Percentile, ThrowsOnEmpty) {
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

TEST(Table, RendersAlignedBox) {
  Table t{{"name", "value"}};
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t{{"a", "b"}};
  t.add_row({"plain", "with,comma"});
  t.add_row({"quote\"y", "multi\nline"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"y\""), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t{{"a", "b"}};
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

}  // namespace
}  // namespace mcsd
