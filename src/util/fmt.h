// Small string-building helpers (GCC 12 lacks <format>).
#pragma once

#include <charconv>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace discs {

namespace detail {

// Integers an std::ostream prints as plain decimal digits, so to_chars
// writes the same bytes.  bool and the character types print otherwise.
template <class T>
inline constexpr bool kDecimalInt =
    std::is_integral_v<T> && !std::is_same_v<T, bool> &&
    !std::is_same_v<T, char> && !std::is_same_v<T, signed char> &&
    !std::is_same_v<T, unsigned char> && !std::is_same_v<T, wchar_t> &&
    !std::is_same_v<T, char8_t> && !std::is_same_v<T, char16_t> &&
    !std::is_same_v<T, char32_t>;

// Appends `v` as `std::ostream << v` would print it: integers, strings and
// `char` directly, every other type through a stream.
template <class T>
void append(std::string& out, const T& v) {
  using D = std::decay_t<T>;
  if constexpr (std::is_same_v<D, char>) {
    out.push_back(v);
  } else if constexpr (std::is_same_v<D, const char*> ||
                       std::is_same_v<D, char*>) {
    if constexpr (std::is_pointer_v<T>) {
      if (v == nullptr) return;
    }
    out.append(v);
  } else if constexpr (std::is_same_v<D, std::string> ||
                       std::is_same_v<D, std::string_view>) {
    out.append(v);
  } else if constexpr (kDecimalInt<D>) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  } else {
    std::ostringstream os;
    os << v;
    out += std::move(os).str();
  }
}

}  // namespace detail

/// Concatenates any streamable arguments into a string, with the bytes an
/// std::ostream would print.
template <class... Args>
std::string cat(const Args&... args) {
  std::string out;
  (detail::append(out, args), ...);
  return out;
}

/// Joins container elements (rendered via `render`) with a separator.
template <class Container, class Render>
std::string join(const Container& c, const std::string& sep, Render render) {
  std::string out;
  bool first = true;
  for (const auto& e : c) {
    if (!first) out += sep;
    first = false;
    detail::append(out, render(e));
  }
  return out;
}

/// Joins streamable container elements with a separator.
template <class Container>
std::string join(const Container& c, const std::string& sep) {
  return join(c, sep, [](const auto& e) { return e; });
}

/// Left-pads/truncates a string into a fixed-width column.
std::string pad(const std::string& s, std::size_t width);

/// Renders a double with the given precision.
std::string fixed(double v, int precision);

/// Renders a simple aligned ASCII table: rows[0] may be a header.
std::string ascii_table(const std::vector<std::vector<std::string>>& rows,
                        bool header = true);

}  // namespace discs
