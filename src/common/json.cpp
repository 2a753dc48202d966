#include "common/json.hpp"

#include <charconv>
#include <system_error>
#include <utility>

namespace bbal {
namespace {

constexpr int kMaxDepth = 64;

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  Result<JsonValue> parse() {
    JsonValue out;
    if (value(out, 0)) {
      skip_ws();
      if (pos_ == text_.size()) return out;
      error_ = "trailing characters";
    }
    return Result<JsonValue>::error(error_ + " at offset " +
                                    std::to_string(pos_));
  }

 private:
  bool fail(std::string what) {
    error_ = std::move(what);
    return false;
  }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  bool eat(char c) {
    if (!at(c)) return false;
    ++pos_;
    return true;
  }

  void skip_ws() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos_;
  }

  /// One or more decimal digits.
  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
      ++pos_;
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool string(std::string& out) {
    constexpr std::string_view kEscapes = "nrt\"\\/", kChars = "\n\r\t\"\\/";
    ++pos_;  // the opening quote
    while (!eat('"')) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      char c = text_[pos_++];
      if (c == '\\') {
        const std::size_t k =
            pos_ < text_.size() ? kEscapes.find(text_[pos_]) : kEscapes.npos;
        if (k == kEscapes.npos) {
          --pos_;  // report the backslash
          return fail("bad escape");
        }
        c = kChars[k];
        ++pos_;
      }
      out.push_back(c);
    }
    return true;
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    eat('-');
    if (!eat('0') && !digits()) return fail("bad number");
    if (eat('.') && !digits()) return fail("bad number");
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!digits()) return fail("bad number");
    }
    out.kind = JsonValue::Kind::kNumber;
    out.text = text_.substr(start, pos_ - start);
    const char* end = out.text.data() + out.text.size();
    if (std::from_chars(out.text.data(), end, out.number).ec != std::errc()) {
      pos_ = start;
      return fail("number out of range");
    }
    return true;
  }

  /// A container's comma-separated elements up to `close`, each read by
  /// `element`; `depth` counts the containers open around this one.
  bool elements(char close, int depth, const auto& element) {
    if (depth >= kMaxDepth) return fail("nesting too deep");
    ++pos_;  // the opening bracket
    skip_ws();
    if (eat(close)) return true;
    for (;;) {
      if (!element()) return false;
      skip_ws();
      if (eat(close)) return true;
      if (!eat(','))
        return fail(std::string("expected ',' or '") + close + "'");
    }
  }

  bool value(JsonValue& out, int depth) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end");
    switch (text_[pos_]) {
      case '{':
        out.kind = JsonValue::Kind::kObject;
        return elements('}', depth, [&] {
          skip_ws();
          if (!at('"')) return fail("expected object key");
          auto& [key, member] = out.object.emplace_back();
          if (!string(key)) return false;
          skip_ws();
          return eat(':') ? value(member, depth + 1) : fail("expected ':'");
        });
      case '[':
        out.kind = JsonValue::Kind::kArray;
        return elements(']', depth, [&] {
          return value(out.array.emplace_back(), depth + 1);
        });
      case '"':
        out.kind = JsonValue::Kind::kString;
        return string(out.text);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number(out);
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [name, member] : object)
    if (name == key) return &member;
  return nullptr;
}

Result<JsonValue> parse_json(std::string_view text) {
  return Reader(text).parse();
}

}  // namespace bbal
