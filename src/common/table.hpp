// ASCII table printer: every bench binary reports paper-style rows with it.
#pragma once

#include <string>
#include <vector>

namespace bbal {

/// Accumulates rows of strings and renders an aligned ASCII table.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Append one row; it may be shorter than the header (padded with "").
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  [[nodiscard]] static std::string num(double v, int precision = 2);

  /// Render with column alignment and a header rule.
  [[nodiscard]] std::string render() const;

  /// Render and write to stdout.
  void print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints a section banner (used to delimit experiments in bench output).
void print_banner(const std::string& title);

}  // namespace bbal
