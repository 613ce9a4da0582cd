#include "util/table.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/error.h"

namespace v6mon::util {

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw ConfigError("TextTable requires at least one column");
}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw ConfigError("TextTable row has " + std::to_string(cells.size()) +
                      " cells, expected " + std::to_string(headers_.size()));
  }
  rows_.push_back(std::move(cells));
}

std::string TextTable::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string TextTable::percent(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string TextTable::count(std::size_t v) { return std::to_string(v); }

std::string TextTable::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << "| " << row[c] << std::string(widths[c] - row[c].size() + 1, ' ');
    }
    out << "|\n";
  };
  auto emit_rule = [&] {
    for (std::size_t w : widths) out << '+' << std::string(w + 2, '-');
    out << "+\n";
  };
  emit_rule();
  emit_row(headers_);
  emit_rule();
  for (const auto& row : rows_) emit_row(row);
  emit_rule();
  return out.str();
}

namespace {
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += "\"\"";
    else out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

std::string TextTable::to_csv() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out << ',';
      out << csv_escape(row[c]);
    }
    out << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return out.str();
}

bool write_file(const std::string& path, const std::string& content) {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
    if (ec) return false;
  }
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << content;
  // The tail of `content` is still buffered; only close() flushes it and
  // reports whether that last write failed (a full disk, say).
  f.close();
  return !f.fail();
}

}  // namespace v6mon::util
