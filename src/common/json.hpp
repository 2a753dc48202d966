// The one JSON reader: what the BENCH_*.json baselines (tools/
// bench_compare) and serve::trace's JSONL lines need of RFC 8259 —
// objects, arrays, strings, numbers, true, false and null. Strings take
// the \" \\ \/ \n \t \r escapes (no \u); numbers follow the JSON grammar
// and keep their source text beside the double, so a caller that needs
// an exact integer reads the text with std::from_chars rather than the
// rounded double.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hpp"

namespace bbal {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// A string's characters, or a number's source text as written.
  std::string text;
  std::vector<JsonValue> array;
  /// Members in file order; a repeated key is kept each time.
  std::vector<std::pair<std::string, JsonValue>> object;

  /// The first member named `key`, or nullptr.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Parse all of `text` as one JSON value. An error says what was wrong
/// and the byte offset where reading stopped; nesting deeper than 64
/// containers is an error, so hostile input cannot exhaust the stack.
[[nodiscard]] Result<JsonValue> parse_json(std::string_view text);

}  // namespace bbal
