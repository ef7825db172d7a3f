// Minimal JSON value, writer and reader for the trace exporter.
//
// The container ships no third-party JSON dependency, so this is a small
// self-contained implementation with two properties the trace schema needs
// and general-purpose libraries do not guarantee:
//   - unsigned 64-bit integers round-trip EXACTLY (message ids pack a
//     20-bit sender and 40-bit sequence; doubles would corrupt them);
//   - objects preserve insertion order and the writer is deterministic, so
//     export -> import -> export is byte-identical (the round-trip guarantee
//     docs/TRACING.md promises).
//
// There is one writer and one reader, at two levels:
//   - append_uint and append_quoted write the scalars.  Json::dump is built
//     on them, and so is every trace line obs/trace_io writes straight into
//     its buffer without a tree.
//   - JsonCursor is the one tokenizer.  Json::parse builds its tree on it,
//     and obs/trace_io's importer pulls each record's fields from it
//     without one (and skips a repeated message by its bytes, rest() and
//     advance()).  Both accept exactly the same texts.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace discs::obs {

class Json;
using JsonArray = std::vector<Json>;
/// Insertion-ordered object: field order is part of the wire format.
using JsonObject = std::vector<std::pair<std::string, Json>>;

class Json {
 public:
  Json() : v_(nullptr) {}
  Json(std::nullptr_t) : v_(nullptr) {}
  Json(bool b) : v_(b) {}
  Json(std::uint64_t n) : v_(n) {}
  Json(int n) : v_(static_cast<std::uint64_t>(n)) {}
  Json(double d) : v_(d) {}
  Json(std::string s) : v_(std::move(s)) {}
  Json(const char* s) : v_(std::string(s)) {}
  Json(JsonArray a) : v_(std::move(a)) {}
  Json(JsonObject o) : v_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_uint() const { return std::holds_alternative<std::uint64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(v_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(v_); }

  /// Typed accessors; throw CheckFailure on kind mismatch.
  bool as_bool() const;
  std::uint64_t as_uint() const;
  double as_double() const;  ///< also accepts an integer value
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  /// Object field lookup; throws CheckFailure when absent (`get`) or
  /// returns nullptr (`find`).
  const Json& get(std::string_view key) const;
  const Json* find(std::string_view key) const;

  /// Compact deterministic serialization (no whitespace).
  std::string dump() const;

  /// Strict parser for one JSON document.  Throws CheckFailure with a byte
  /// offset on malformed input.
  static Json parse(std::string_view text);

  friend bool operator==(const Json&, const Json&) = default;

 private:
  std::variant<std::nullptr_t, bool, std::uint64_t, double, std::string,
               JsonArray, JsonObject>
      v_;
};

/// Appends `n` in decimal.
void append_uint(std::string& out, std::uint64_t n);

/// Appends `s` as a JSON string literal, quotes included.  '"', '\\' and the
/// control bytes are escaped (\n, \r, \t, else \u00xx); every other byte,
/// '/' and UTF-8 included, is copied as is.
void append_quoted(std::string& out, std::string_view s);

/// A pull tokenizer over one JSON text.  Every malformed input throws
/// CheckFailure naming the byte offset, and so does a value of the wrong
/// kind for a typed read.  Objects and arrays are walked as
///
///   for (bool more = c.begin_object(); more; more = c.next_member()) {
///     std::string_view k = c.key();
///     ...read or skip exactly one value...
///   }
///   for (bool more = c.begin_array(); more; more = c.next_element())
///     ...read or skip exactly one value...
///
/// Whitespace between tokens is skipped.  Strings accept the escapes
/// \" \\ \/ \b \f \n \r \t and \u00xx (\u escapes above 0xFF are rejected:
/// the writer never emits them).
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text) : text_(text) {}

  /// Consumes '{' (fails on any other value); false if the object is empty.
  bool begin_object() { return open('{', '}', "not an object"); }
  /// The next member's key, with its ':' consumed.
  std::string_view key() {
    std::string_view k = read_string();
    skip_ws();
    if (!consume(':')) fail_expected(':');
    return k;
  }
  /// Consumes the next member's key and its ':' when the key is `name`,
  /// written the way the writer writes keys ("name": with no escape or
  /// whitespace inside); otherwise consumes nothing and returns false.
  /// A fast path only: key() reads every key this accepts.
  bool key_is(std::string_view name) {
    skip_ws();
    const std::size_t n = name.size();
    if (text_.size() - pos_ < n + 3 || text_[pos_] != '"' ||
        text_[pos_ + n + 1] != '"' || text_[pos_ + n + 2] != ':')
      return false;
    for (std::size_t i = 0; i < n; ++i)
      if (text_[pos_ + 1 + i] != name[i]) return false;
    pos_ += n + 3;
    return true;
  }
  /// After a member's value: true past a ',', false past the closing '}'.
  bool next_member() { return next('}'); }
  /// Consumes '[' (fails on any other value); false if the array is empty.
  bool begin_array() { return open('[', ']', "not an array"); }
  /// After an element: true past a ',', false past the closing ']'.
  bool next_element() { return next(']'); }

  /// A string value with its escapes decoded.  The view (like key()'s) is
  /// valid until the next call on this cursor.
  std::string_view read_string() {
    if (peek() != '"') fail("not a string");
    const std::size_t start = ++pos_;
    // Fast path: no escape before the closing quote, so the text is the
    // value.
    std::size_t i = start;
    while (i < text_.size() && text_[i] != '"' && text_[i] != '\\') ++i;
    if (i == text_.size() || text_[i] == '\\') return read_escaped(start);
    pos_ = i + 1;
    return text_.substr(start, i - start);
  }
  /// A number written as a plain unsigned integer that fits in 64 bits.
  std::uint64_t read_uint() {
    peek();
    std::uint64_t u = 0;
    return scan_uint(u) ? u : read_uint_slow();
  }
  bool read_bool() {
    peek();
    if (consume_word("true")) return true;
    if (consume_word("false")) return false;
    fail("not a bool");
  }
  /// The text from the next significant character on: the next value and
  /// everything after it.  With advance() a reader can take a value it
  /// recognizes by its bytes without reading it.
  std::string_view rest() {
    skip_ws();
    return text_.substr(pos_);
  }
  /// Consumes the first `n` bytes of rest(), which must be whole values.
  void advance(std::size_t n) { pos_ += n; }
  /// Bytes consumed so far.
  std::size_t offset() const { return pos_; }

  /// Any one value, as a tree.
  Json read_value();
  /// Validates and skips any one value.
  void skip_value();
  /// Fails unless only whitespace is left.
  void finish();

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::string decoded_;  ///< decoded strings that had escapes

  [[noreturn]] void fail(std::string_view what) const;
  [[noreturn]] void fail_expected(char c) const;

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }
  /// The next significant character; fails at the end of the input.
  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }
  bool open(char open, char close, std::string_view not_this) {
    if (peek() != open) fail(not_this);
    ++pos_;
    skip_ws();
    return !consume(close);
  }
  bool next(char close) {
    skip_ws();
    if (consume(',')) return true;
    if (!consume(close)) fail_expected(close);
    return false;
  }
  /// At a number: consumes it when it is a run of digits that fits in 64
  /// bits and is not followed by more of a number token.  Otherwise
  /// returns false and consumes nothing.
  bool scan_uint(std::uint64_t& u) {
    std::size_t i = pos_;
    u = 0;
    while (i < text_.size() && text_[i] >= '0' && text_[i] <= '9' &&
           u <= (UINT64_MAX - 9) / 10)
      u = u * 10 + static_cast<std::uint64_t>(text_[i++] - '0');
    if (i == pos_ || (i < text_.size() && continues_number(text_[i])))
      return false;
    pos_ = i;
    return true;
  }
  static bool continues_number(char c) {
    return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
           c == '+' || c == '-';
  }
  std::string_view read_escaped(std::size_t start);
  std::uint64_t read_uint_slow();
  /// Scans one number token: its text, and whether it is a plain
  /// unsigned integer (no sign, fraction or exponent).
  std::string_view number_token(bool& plain);
  Json read_number();
};

}  // namespace discs::obs
