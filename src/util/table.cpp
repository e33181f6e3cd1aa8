#include "util/table.h"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/csv.h"
#include "util/error.h"

namespace cosched {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  COSCHED_CHECK(!header_.empty());
}

void Table::add_row(std::vector<std::string> row) {
  COSCHED_CHECK_MSG(row.size() == header_.size(),
                    "row arity " << row.size() << " != header arity "
                                 << header_.size());
  rows_.push_back(Row{std::move(row), /*separator=*/false});
}

void Table::add_separator() { rows_.push_back(Row{{}, /*separator=*/true}); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c)
    widths[c] = header_[c].size();
  for (const Row& r : rows_) {
    if (r.separator) continue;
    for (std::size_t c = 0; c < r.cells.size(); ++c)
      widths[c] = std::max(widths[c], r.cells[c].size());
  }

  auto print_rule = [&] {
    os << '+';
    for (std::size_t w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  auto print_cells = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << ' ';
      if (c == 0)
        os << std::left << std::setw(static_cast<int>(widths[c])) << cells[c];
      else
        os << std::right << std::setw(static_cast<int>(widths[c])) << cells[c];
      os << " |";
    }
    os << '\n';
  };

  print_rule();
  print_cells(header_);
  print_rule();
  for (const Row& r : rows_) {
    if (r.separator)
      print_rule();
    else
      print_cells(r.cells);
  }
  print_rule();
}

std::string Table::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

void Table::write_csv(CsvWriter& csv) const {
  csv.write_row(header_);
  for (const Row& r : rows_)
    if (!r.separator) csv.write_row(r.cells);
}

std::string format_double(double v, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << v;
  return os.str();
}

std::string format_count(long long v) {
  const bool neg = v < 0;
  unsigned long long u =
      neg ? 0ULL - static_cast<unsigned long long>(v)
          : static_cast<unsigned long long>(v);
  std::string digits = std::to_string(u);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (neg) out.push_back('-');
  return std::string(out.rbegin(), out.rend());
}

std::string format_percent(double ratio, int decimals) {
  return format_double(ratio * 100.0, decimals) + "%";
}

}  // namespace cosched
