// ASCII table / CSV rendering for benchmark output.
//
// Every bench binary reproduces a paper table or figure as rows printed to
// stdout; Table gives them a uniform, aligned look and an optional CSV dump
// so results can be post-processed.
#pragma once

#include <string>
#include <vector>

namespace tgs {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append a row; missing cells render empty, extra cells are kept.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string fmt(double v, int precision = 2);
  static std::string fmt_int(long long v);

  /// Render with aligned columns and a header rule.
  std::string to_ascii() const;

  /// Render as RFC-4180-ish CSV (quotes cells containing commas/quotes).
  std::string to_csv() const;

  /// Write CSV to `path`; returns false on I/O failure.
  bool write_csv(const std::string& path) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace tgs
