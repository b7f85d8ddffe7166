// Plain-text table rendering used by the bench harness to print the paper's
// tables and figure series in a diff-friendly fixed-width format. Columns
// are sized and padded by display width (UTF-8 code points), so a cell of
// sparkline blocks lines up with ASCII cells.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace spfail::util {

enum class Align { Left, Right };

class TextTable {
 public:
  // `headers` fixes the column count; subsequent rows must match it.
  explicit TextTable(std::vector<std::string> headers,
                     std::vector<Align> alignments = {});

  void add_row(std::vector<std::string> cells);
  // A horizontal rule between logical row groups.
  void add_rule();

  std::size_t columns() const noexcept { return headers_.size(); }
  std::size_t rows() const noexcept;

  std::string render() const;
  friend std::ostream& operator<<(std::ostream& os, const TextTable& t) {
    return os << t.render();
  }

  // Emit the same data as RFC 4180 CSV (header row first, rules skipped) —
  // the machine-readable form benches export for external plotting.
  void to_csv(std::ostream& os) const;

 private:
  struct Row {
    std::vector<std::string> cells;
    bool rule = false;
  };

  std::vector<std::string> headers_;
  std::vector<Align> alignments_;
  std::vector<Row> rows_;
};

// Minimal CSV writer (RFC 4180 quoting) so benches can also emit
// machine-readable series for external plotting.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& os) : os_(os) {}

  void row(const std::vector<std::string>& cells);

 private:
  static std::string escape(const std::string& cell);
  std::ostream& os_;
};

}  // namespace spfail::util
