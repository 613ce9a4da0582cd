#include "util/table.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "util/error.h"

namespace v6mon::util {
namespace {

TEST(TextTable, RendersAligned) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "12345"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 12345 |"), std::string::npos);
}

TEST(TextTable, RowArityChecked) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ConfigError);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), ConfigError);
}

TEST(TextTable, EmptyHeadersRejected) {
  EXPECT_THROW(TextTable({}), ConfigError);
}

TEST(TextTable, CsvEscaping) {
  TextTable t({"k", "v"});
  t.add_row({"plain", "has,comma"});
  t.add_row({"quote\"inside", "line\nbreak"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("k,v\n"), std::string::npos);
  EXPECT_NE(csv.find("plain,\"has,comma\"\n"), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\",\"line\nbreak\"\n"), std::string::npos);
}

TEST(TextTable, Formatters) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
  EXPECT_EQ(TextTable::percent(0.813, 1), "81.3%");
  EXPECT_EQ(TextTable::percent(0.0, 0), "0%");
  EXPECT_EQ(TextTable::count(12385), "12385");
}

TEST(TextTable, Introspection) {
  TextTable t({"x"});
  EXPECT_EQ(t.columns(), 1u);
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.data()[0][0], "1");
}

TEST(WriteFile, CreatesParentsAndWrites) {
  const auto dir = std::filesystem::temp_directory_path() / "v6mon_table_test";
  std::filesystem::remove_all(dir);
  const auto path = dir / "nested" / "out.csv";
  ASSERT_TRUE(write_file(path.string(), "a,b\n1,2\n"));
  std::ifstream f(path);
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "a,b\n1,2\n");
  std::filesystem::remove_all(dir);
}

// A short write sits in the stream's buffer until the file closes, so
// only the final flush can see the device fail.
TEST(WriteFile, ReportsAFailedFinalFlush) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no writable /dev/full";
  EXPECT_FALSE(write_file("/dev/full", "hello,world\n"));
}

}  // namespace
}  // namespace v6mon::util
