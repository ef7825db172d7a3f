#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/check.h"
#include "util/fmt.h"

namespace discs::obs {

bool Json::as_bool() const {
  DISCS_CHECK_MSG(is_bool(), "json: not a bool");
  return std::get<bool>(v_);
}

std::uint64_t Json::as_uint() const {
  DISCS_CHECK_MSG(is_uint(), "json: not an unsigned integer");
  return std::get<std::uint64_t>(v_);
}

double Json::as_double() const {
  if (is_uint()) return static_cast<double>(std::get<std::uint64_t>(v_));
  DISCS_CHECK_MSG(is_double(), "json: not a number");
  return std::get<double>(v_);
}

const std::string& Json::as_string() const {
  DISCS_CHECK_MSG(is_string(), "json: not a string");
  return std::get<std::string>(v_);
}

const JsonArray& Json::as_array() const {
  DISCS_CHECK_MSG(is_array(), "json: not an array");
  return std::get<JsonArray>(v_);
}

const JsonObject& Json::as_object() const {
  DISCS_CHECK_MSG(is_object(), "json: not an object");
  return std::get<JsonObject>(v_);
}

const Json* Json::find(std::string_view key) const {
  for (const auto& [k, v] : as_object())
    if (k == key) return &v;
  return nullptr;
}

const Json& Json::get(std::string_view key) const {
  const Json* j = find(key);
  DISCS_CHECK_MSG(j != nullptr, "json: missing field '" << key << "'");
  return *j;
}

void append_uint(std::string& out, std::uint64_t n) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, n).ptr);
}

void append_quoted(std::string& out, std::string_view s) {
  out.push_back('"');
  std::size_t run = 0;  // start of the bytes not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(esc, sizeof esc);
      }
    }
  }
  out.append(s, run);
  out.push_back('"');
}

namespace {

void dump_double(double d, std::string& out) {
  DISCS_CHECK_MSG(std::isfinite(d), "json: non-finite number");
  // Shortest representation that round-trips a double.
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, d);
  DISCS_CHECK(ec == std::errc());
  out.append(buf, end);
}

void dump_into(const Json& j, std::string& out) {
  if (j.is_null()) {
    out += "null";
  } else if (j.is_bool()) {
    out += j.as_bool() ? "true" : "false";
  } else if (j.is_uint()) {
    append_uint(out, j.as_uint());
  } else if (j.is_double()) {
    dump_double(j.as_double(), out);
  } else if (j.is_string()) {
    append_quoted(out, j.as_string());
  } else if (j.is_array()) {
    out.push_back('[');
    bool first = true;
    for (const auto& e : j.as_array()) {
      if (!first) out.push_back(',');
      first = false;
      dump_into(e, out);
    }
    out.push_back(']');
  } else {
    out.push_back('{');
    bool first = true;
    for (const auto& [k, v] : j.as_object()) {
      if (!first) out.push_back(',');
      first = false;
      append_quoted(out, k);
      out.push_back(':');
      dump_into(v, out);
    }
    out.push_back('}');
  }
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_into(*this, out);
  return out;
}

Json Json::parse(std::string_view text) {
  JsonCursor c(text);
  Json j = c.read_value();
  c.finish();
  return j;
}

// --- JsonCursor --------------------------------------------------------------

void JsonCursor::fail(std::string_view what) const {
  DISCS_CHECK_MSG(false, "json: " << what << " at offset " << pos_);
  std::abort();  // unreachable; CHECK throws
}

void JsonCursor::fail_expected(char c) const {
  fail(cat("expected '", c, "'"));
}

std::string_view JsonCursor::read_escaped(std::size_t start) {
  pos_ = start;
  decoded_.clear();
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    char c = text_[pos_++];
    if (c == '"') return decoded_;
    if (c != '\\') {
      decoded_.push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    char e = text_[pos_++];
    switch (e) {
      case '"': decoded_.push_back('"'); break;
      case '\\': decoded_.push_back('\\'); break;
      case '/': decoded_.push_back('/'); break;
      case 'b': decoded_.push_back('\b'); break;
      case 'f': decoded_.push_back('\f'); break;
      case 'n': decoded_.push_back('\n'); break;
      case 'r': decoded_.push_back('\r'); break;
      case 't': decoded_.push_back('\t'); break;
      case 'u': {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else fail("bad \\u escape");
        }
        // The writer only emits \u00xx for control bytes; decode the
        // low byte and reject the surrogate/multibyte range we never emit.
        if (code > 0xFF) fail("unsupported \\u escape > 0xFF");
        decoded_.push_back(static_cast<char>(code));
        break;
      }
      default: fail("bad escape");
    }
  }
}

std::string_view JsonCursor::number_token(bool& plain) {
  const std::size_t start = pos_;
  plain = !consume('-');
  while (pos_ < text_.size() && continues_number(text_[pos_])) {
    if (text_[pos_] < '0' || text_[pos_] > '9') plain = false;
    ++pos_;
  }
  return text_.substr(start, pos_ - start);
}

std::uint64_t JsonCursor::read_uint_slow() {
  const char c = peek();
  if (c == '-' || (c >= '0' && c <= '9')) {
    bool plain = false;
    std::string_view tok = number_token(plain);
    std::uint64_t u = 0;
    auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), u);
    if (plain && ec == std::errc() && p == tok.data() + tok.size()) return u;
  }
  fail("not an unsigned integer");
}

Json JsonCursor::read_number() {
  std::uint64_t u = 0;
  if (scan_uint(u)) return Json(u);
  bool plain = false;
  std::string_view tok = number_token(plain);
  if (plain) {
    auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), u);
    if (ec == std::errc() && p == tok.data() + tok.size()) return Json(u);
  }
  double d = 0;
  auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
  if (ec != std::errc() || p != tok.data() + tok.size()) fail("bad number");
  return Json(d);
}

Json JsonCursor::read_value() {
  const char c = peek();
  if (c == '{') {
    JsonObject obj;
    for (bool more = begin_object(); more; more = next_member()) {
      std::string k(key());
      obj.emplace_back(std::move(k), read_value());
    }
    return Json(std::move(obj));
  }
  if (c == '[') {
    JsonArray arr;
    for (bool more = begin_array(); more; more = next_element())
      arr.push_back(read_value());
    return Json(std::move(arr));
  }
  if (c == '"') return Json(std::string(read_string()));
  if (consume_word("true")) return Json(true);
  if (consume_word("false")) return Json(false);
  if (consume_word("null")) return Json(nullptr);
  if (c == '-' || (c >= '0' && c <= '9')) return read_number();
  fail("unexpected character");
}

void JsonCursor::skip_value() {
  const char c = peek();
  std::uint64_t u = 0;
  if (c == '{') {
    for (bool more = begin_object(); more; more = next_member()) {
      key();
      skip_value();
    }
  } else if (c == '[') {
    for (bool more = begin_array(); more; more = next_element()) skip_value();
  } else if (c == '"') {
    read_string();
  } else if (!scan_uint(u) && !consume_word("true") &&
             !consume_word("false") && !consume_word("null")) {
    if (c != '-' && (c < '0' || c > '9')) fail("unexpected character");
    read_number();
  }
}

void JsonCursor::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing characters");
}

}  // namespace discs::obs
