#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace v6mon::util {

/// Minimal aligned text-table renderer used by the bench harness to print
/// reproduced paper tables, plus a CSV writer for machine-readable output.
class TextTable {
 public:
  /// Create a table with the given column headers.
  explicit TextTable(std::vector<std::string> headers);

  /// Append a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Number formatting helpers.
  static std::string num(double v, int precision = 1);
  static std::string percent(double fraction, int precision = 1);
  static std::string count(std::size_t v);

  /// Render with box-drawing-free ASCII alignment.
  [[nodiscard]] std::string render() const;

  /// Render as RFC-4180-ish CSV (quotes cells containing comma/quote/newline).
  [[nodiscard]] std::string to_csv() const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t columns() const { return headers_.size(); }
  [[nodiscard]] const std::vector<std::string>& header() const { return headers_; }
  [[nodiscard]] const std::vector<std::vector<std::string>>& data() const { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Write `content` to `path`, creating parent directories. Returns false
/// (without throwing) if the filesystem refuses any part of it, the final
/// flush included; bench output is best-effort.
bool write_file(const std::string& path, const std::string& content);

}  // namespace v6mon::util
