// A read-only JSON skimmer for the load generator.
//
// The generator checks every response, but it must not pay for (or share
// code with) the program's own JSON DOM: a faster json::Parse would then
// also speed up the client and blur what the benchmark measures. The
// skimmer walks the text once, bracket-matching and skipping strings,
// and hands back views of the values it was asked for.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

namespace e2ebench::skim {

/// Index just past the JSON value starting at `pos` (whitespace before it
/// is skipped), or npos when the text is malformed.
inline std::size_t SkipValue(std::string_view text, std::size_t pos) {
  constexpr std::size_t npos = std::string_view::npos;
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\n' ||
                               text[pos] == '\t' || text[pos] == '\r')) {
    ++pos;
  }
  if (pos >= text.size()) return npos;
  const char c = text[pos];
  if (c == '"') {
    for (std::size_t i = pos + 1; i < text.size(); ++i) {
      if (text[i] == '\\') {
        ++i;
      } else if (text[i] == '"') {
        return i + 1;
      }
    }
    return npos;
  }
  if (c == '{' || c == '[') {
    int depth = 0;
    for (std::size_t i = pos; i < text.size(); ++i) {
      const char d = text[i];
      if (d == '"') {
        const std::size_t end = SkipValue(text, i);
        if (end == npos) return npos;
        i = end - 1;
      } else if (d == '{' || d == '[') {
        ++depth;
      } else if (d == '}' || d == ']') {
        if (--depth == 0) return i + 1;
      }
    }
    return npos;
  }
  std::size_t i = pos;
  while (i < text.size() && text[i] != ',' && text[i] != '}' &&
         text[i] != ']' && text[i] != ' ' && text[i] != '\n') {
    ++i;
  }
  return i;
}

inline std::string_view Trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\n')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\n')) {
    text.remove_suffix(1);
  }
  return text;
}

/// The raw text of member `key` of the object `object`, if present.
inline std::optional<std::string_view> Field(std::string_view object,
                                             std::string_view key) {
  object = Trim(object);
  if (object.empty() || object.front() != '{') return std::nullopt;
  std::size_t pos = 1;
  while (pos < object.size()) {
    const std::size_t keyStart = object.find('"', pos);
    if (keyStart == std::string_view::npos) return std::nullopt;
    const std::size_t keyEnd = SkipValue(object, keyStart);
    if (keyEnd == std::string_view::npos) return std::nullopt;
    const std::string_view name =
        object.substr(keyStart + 1, keyEnd - keyStart - 2);
    const std::size_t colon = object.find(':', keyEnd);
    if (colon == std::string_view::npos) return std::nullopt;
    const std::size_t valueEnd = SkipValue(object, colon + 1);
    if (valueEnd == std::string_view::npos) return std::nullopt;
    if (name == key) {
      return Trim(object.substr(colon + 1, valueEnd - colon - 1));
    }
    pos = object.find_first_of(",}", valueEnd);
    if (pos == std::string_view::npos || object[pos] == '}') break;
    ++pos;
  }
  return std::nullopt;
}

/// Element `index` of the array `array`, if present.
inline std::optional<std::string_view> Element(std::string_view array,
                                               std::size_t index) {
  array = Trim(array);
  if (array.empty() || array.front() != '[') return std::nullopt;
  std::size_t pos = 1;
  for (std::size_t i = 0;; ++i) {
    const std::size_t end = SkipValue(array, pos);
    if (end == std::string_view::npos) return std::nullopt;
    if (i == index) return Trim(array.substr(pos, end - pos));
    pos = array.find_first_of(",]", end);
    if (pos == std::string_view::npos || array[pos] == ']') break;
    ++pos;
  }
  return std::nullopt;
}

/// Follows a path of object keys from `text`.
inline std::optional<std::string_view> Path(
    std::string_view text, std::initializer_list<std::string_view> keys) {
  std::optional<std::string_view> node = Trim(text);
  for (std::string_view key : keys) {
    if (!node) return std::nullopt;
    node = Field(*node, key);
  }
  return node;
}

inline std::optional<std::int64_t> Int(std::optional<std::string_view> v) {
  if (!v || v->empty()) return std::nullopt;
  const std::string copy(*v);
  char* end = nullptr;
  const long long value = std::strtoll(copy.c_str(), &end, 0);
  if (end != copy.c_str() + copy.size()) return std::nullopt;
  return value;
}

inline std::optional<double> Double(std::optional<std::string_view> v) {
  if (!v || v->empty()) return std::nullopt;
  const std::string copy(*v);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) return std::nullopt;
  return value;
}

/// A string value without its quotes (escapes are left as written; the
/// fields the generator reads never contain any).
inline std::optional<std::string_view> String(
    std::optional<std::string_view> v) {
  if (!v || v->size() < 2 || v->front() != '"') return std::nullopt;
  return v->substr(1, v->size() - 2);
}

}  // namespace e2ebench::skim
