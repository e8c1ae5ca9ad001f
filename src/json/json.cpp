#include "json/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace rvss::json {

const char* ToString(Type type) {
  switch (type) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kInt: return "int";
    case Type::kDouble: return "double";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
  }
  return "unknown";
}

const Json* Json::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json* Json::Find(std::string_view key) {
  return const_cast<Json*>(static_cast<const Json*>(this)->Find(key));
}

void Json::Set(std::string_view key, Json value) {
  if (type_ == Type::kNull) *this = MakeObject();
  if (type_ != Type::kObject) return;
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::string(key), std::move(value));
}

void Json::Append(Json value) {
  if (type_ == Type::kNull) *this = MakeArray();
  if (type_ != Type::kArray) return;
  array_.push_back(std::move(value));
}

namespace {

/// 2^63 as a double: the first value past the int64 range. Every double
/// in [-2^63, 2^63) converts exactly-or-truncated without overflow.
constexpr double kTwoTo63 = 9223372036854775808.0;

}  // namespace

bool Json::FitsInt() const {
  if (type_ == Type::kInt) return true;
  return type_ == Type::kDouble && double_ >= -kTwoTo63 && double_ < kTwoTo63;
}

std::int64_t Json::AsInt() const {
  if (type_ == Type::kInt) return int_;
  if (type_ != Type::kDouble) return 0;
  if (FitsInt()) return static_cast<std::int64_t>(double_);
  if (double_ >= kTwoTo63) return std::numeric_limits<std::int64_t>::max();
  if (double_ < -kTwoTo63) return std::numeric_limits<std::int64_t>::min();
  return 0;  // NaN
}

bool Json::GetBool(std::string_view key, bool fallback) const {
  const Json* node = Find(key);
  return node != nullptr && node->IsBool() ? node->AsBool() : fallback;
}

std::int64_t Json::GetInt(std::string_view key, std::int64_t fallback) const {
  const Json* node = Find(key);
  return node != nullptr && node->IsNumber() ? node->AsInt() : fallback;
}

double Json::GetDouble(std::string_view key, double fallback) const {
  const Json* node = Find(key);
  return node != nullptr && node->IsNumber() ? node->AsDouble() : fallback;
}

std::string Json::GetString(std::string_view key,
                            std::string_view fallback) const {
  const Json* node = Find(key);
  return node != nullptr && node->IsString() ? node->AsString()
                                             : std::string(fallback);
}

bool operator==(const Json& a, const Json& b) {
  if (a.IsNumber() && b.IsNumber()) {
    if (a.type_ == Type::kInt && b.type_ == Type::kInt) return a.int_ == b.int_;
    return a.AsDouble() == b.AsDouble();
  }
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Type::kNull: return true;
    case Type::kBool: return a.bool_ == b.bool_;
    case Type::kInt: return a.int_ == b.int_;
    case Type::kDouble: return a.double_ == b.double_;
    case Type::kString: return a.string_ == b.string_;
    case Type::kArray: return a.array_ == b.array_;
    case Type::kObject: return a.object_ == b.object_;
  }
  return false;
}

void EscapeStringInto(std::string_view text, std::string& out) {
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
}

namespace {

void AppendDouble(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "null";  // JSON has no NaN; null is the conventional stand-in.
    return;
  }
  if (std::isinf(value)) {
    out += value > 0 ? "1e999" : "-1e999";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  // Trim to shortest representation that round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char candidate[32];
    std::snprintf(candidate, sizeof candidate, "%.*g", precision, value);
    double parsed = 0;
    std::sscanf(candidate, "%lf", &parsed);
    if (parsed == value) {
      std::memcpy(buffer, candidate, sizeof candidate);
      break;
    }
  }
  out += buffer;
  // Ensure the text re-parses as a double, not an int.
  if (out.find_first_of(".eE", out.size() - std::strlen(buffer)) ==
      std::string::npos) {
    out += ".0";
  }
}

}  // namespace

void Json::DumpTo(std::string& out, int indent, int depth) const {
  const bool pretty = indent > 0;
  auto newline = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kInt: out += std::to_string(int_); return;
    case Type::kDouble: AppendDouble(out, double_); return;
    case Type::kString:
      out += '"';
      EscapeStringInto(string_, out);
      out += '"';
      return;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out += ',';
        newline(depth + 1);
        array_[i].DumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      return;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i != 0) out += ',';
        newline(depth + 1);
        out += '"';
        EscapeStringInto(object_[i].first, out);
        out += pretty ? "\": " : "\":";
        object_[i].second.DumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      return;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(out, 0, 0);
  return out;
}

std::string Json::DumpPretty() const {
  std::string out;
  DumpTo(out, 2, 0);
  return out;
}

std::size_t Json::DumpSize() const {
  // Exact by construction: serialize into a reusable thread-local scratch
  // buffer instead of duplicating DumpTo with a counting variant.
  thread_local std::string scratch;
  scratch.clear();
  DumpTo(scratch, 0, 0);
  return scratch.size();
}

namespace {

/// Recursive-descent JSON parser tracking line/column for diagnostics.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> ParseDocument() {
    SkipWhitespace();
    RVSS_ASSIGN_OR_RETURN(Json value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing content after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 256;

  Error Fail(std::string message) const {
    return Error{ErrorKind::kParse, std::move(message),
                 SourcePos{line_, static_cast<std::uint32_t>(pos_ - lineStart_ + 1)}};
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  char Advance() {
    char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      lineStart_ = pos_;
    }
    return c;
  }

  void SkipWhitespace() {
    while (!AtEnd()) {
      char c = Peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        Advance();
      } else {
        break;
      }
    }
  }

  bool Consume(char expected) {
    if (AtEnd() || Peek() != expected) return false;
    Advance();
    return true;
  }

  Result<Json> ParseValue(int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (AtEnd()) return Fail("unexpected end of input");
    char c = Peek();
    switch (c) {
      case '{': return ParseObject(depth);
      case '[': return ParseArray(depth);
      case '"': {
        RVSS_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Json(std::move(s));
      }
      case 't':
        if (ConsumeKeyword("true")) return Json(true);
        return Fail("invalid literal");
      case 'f':
        if (ConsumeKeyword("false")) return Json(false);
        return Fail("invalid literal");
      case 'n':
        if (ConsumeKeyword("null")) return Json(nullptr);
        return Fail("invalid literal");
      default:
        return ParseNumber();
    }
  }

  bool ConsumeKeyword(std::string_view keyword) {
    if (text_.substr(pos_, keyword.size()) != keyword) return false;
    for (std::size_t i = 0; i < keyword.size(); ++i) Advance();
    return true;
  }

  Result<Json> ParseObject(int depth) {
    Advance();  // '{'
    Json object = Json::MakeObject();
    SkipWhitespace();
    if (Consume('}')) return object;
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Fail("expected object key string");
      RVSS_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':' after object key");
      SkipWhitespace();
      RVSS_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      object.AsObject().emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return object;
      return Fail("expected ',' or '}' in object");
    }
  }

  Result<Json> ParseArray(int depth) {
    Advance();  // '['
    Json array = Json::MakeArray();
    SkipWhitespace();
    if (Consume(']')) return array;
    while (true) {
      SkipWhitespace();
      RVSS_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      array.AsArray().push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return array;
      return Fail("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    Advance();  // '"'
    std::string out;
    while (true) {
      if (AtEnd()) return Fail("unterminated string");
      char c = Advance();
      if (c == '"') return out;
      if (c == '\\') {
        if (AtEnd()) return Fail("unterminated escape");
        char esc = Advance();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            RVSS_ASSIGN_OR_RETURN(unsigned cp, ParseHex4());
            // Surrogate pair handling.
            if (cp >= 0xd800 && cp <= 0xdbff) {
              if (!Consume('\\') || !Consume('u')) {
                return Fail("unpaired surrogate in \\u escape");
              }
              RVSS_ASSIGN_OR_RETURN(unsigned lo, ParseHex4());
              if (lo < 0xdc00 || lo > 0xdfff) {
                return Fail("invalid low surrogate");
              }
              cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
            }
            AppendUtf8(out, cp);
            break;
          }
          default:
            return Fail("invalid escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      } else {
        out += c;
      }
    }
  }

  Result<unsigned> ParseHex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      if (AtEnd()) return Fail("truncated \\u escape");
      char c = Advance();
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else return Fail("invalid hex digit in \\u escape");
    }
    return value;
  }

  static void AppendUtf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  Result<Json> ParseNumber() {
    const std::size_t start = pos_;
    bool isDouble = false;
    if (Consume('-')) {
    }
    if (AtEnd()) return Fail("truncated number");
    if (!std::isdigit(static_cast<unsigned char>(Peek()))) {
      return Fail("invalid number");
    }
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) Advance();
    if (!AtEnd() && Peek() == '.') {
      isDouble = true;
      Advance();
      if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Fail("digit expected after decimal point");
      }
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) Advance();
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      isDouble = true;
      Advance();
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) Advance();
      if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Fail("digit expected in exponent");
      }
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) Advance();
    }
    std::string literal(text_.substr(start, pos_ - start));
    if (!isDouble) {
      errno = 0;
      char* end = nullptr;
      long long value = std::strtoll(literal.c_str(), &end, 10);
      if (errno == 0 && end == literal.c_str() + literal.size()) {
        return Json(static_cast<std::int64_t>(value));
      }
      // Fall through to double for out-of-range integers.
    }
    char* end = nullptr;
    double value = std::strtod(literal.c_str(), &end);
    if (end != literal.c_str() + literal.size()) return Fail("invalid number");
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::uint32_t line_ = 1;
  std::size_t lineStart_ = 0;
};

}  // namespace

Result<Json> Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace rvss::json
