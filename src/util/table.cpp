#include "util/table.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace spfail::util {

namespace {

// Display width of a UTF-8 cell: one column per code point, i.e. every byte
// that is not a 10xxxxxx continuation byte. Sparkline blocks are three bytes
// but one column wide.
std::size_t display_width(const std::string& cell) {
  return static_cast<std::size_t>(
      std::count_if(cell.begin(), cell.end(), [](char c) {
        return (static_cast<unsigned char>(c) & 0xC0) != 0x80;
      }));
}

}  // namespace

TextTable::TextTable(std::vector<std::string> headers,
                     std::vector<Align> alignments)
    : headers_(std::move(headers)), alignments_(std::move(alignments)) {
  if (headers_.empty()) {
    throw std::invalid_argument("TextTable: need at least one column");
  }
  if (alignments_.empty()) {
    alignments_.assign(headers_.size(), Align::Left);
  }
  if (alignments_.size() != headers_.size()) {
    throw std::invalid_argument("TextTable: alignment/header count mismatch");
  }
}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("TextTable: row has " +
                                std::to_string(cells.size()) + " cells, need " +
                                std::to_string(headers_.size()));
  }
  rows_.push_back(Row{std::move(cells), false});
}

void TextTable::add_rule() { rows_.push_back(Row{{}, true}); }

std::size_t TextTable::rows() const noexcept {
  std::size_t n = 0;
  for (const auto& r : rows_) {
    if (!r.rule) ++n;
  }
  return n;
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = display_width(headers_[c]);
  }
  for (const auto& row : rows_) {
    if (row.rule) continue;
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      widths[c] = std::max(widths[c], display_width(row.cells[c]));
    }
  }

  std::ostringstream os;
  const auto emit_rule = [&] {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      os << '+' << std::string(widths[c] + 2, '-');
    }
    os << "+\n";
  };
  const auto emit_cells = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = cells[c];
      const std::size_t pad = widths[c] - display_width(cell);
      os << "| ";
      if (alignments_[c] == Align::Right) os << std::string(pad, ' ');
      os << cell;
      if (alignments_[c] == Align::Left) os << std::string(pad, ' ');
      os << ' ';
    }
    os << "|\n";
  };

  emit_rule();
  emit_cells(headers_);
  emit_rule();
  for (const auto& row : rows_) {
    if (row.rule) {
      emit_rule();
    } else {
      emit_cells(row.cells);
    }
  }
  emit_rule();
  return os.str();
}

void TextTable::to_csv(std::ostream& os) const {
  CsvWriter csv(os);
  csv.row(headers_);
  for (const auto& row : rows_) {
    if (!row.rule) csv.row(row.cells);
  }
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) os_ << ',';
    os_ << escape(cells[i]);
  }
  os_ << '\n';
}

std::string CsvWriter::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace spfail::util
