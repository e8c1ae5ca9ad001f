// rvcc lexer: C subset tokenizer.
//
// rvcc is the repository's stand-in for the paper's GCC cross-compilation
// path: C text in, RV32IMFD assembly out, with per-line links between the
// two (the paper's highlighted C<->asm mapping). The lexer produces a flat
// token vector with line/column positions that survive into codegen as
// `#@c` line tags.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace rvss::cc {

enum class TokenKind : std::uint8_t {
  kEof,
  kIdentifier,
  kKeyword,
  kIntLiteral,
  kFloatLiteral,   ///< has a '.' or exponent; value in floatValue
  kCharLiteral,
  kStringLiteral,  ///< value in text (decoded)
  kPunct,
};

struct Token {
  TokenKind kind = TokenKind::kEof;
  std::string text;          ///< identifier / punct / keyword spelling
  std::int64_t intValue = 0;
  double floatValue = 0.0;
  bool isUnsignedLiteral = false;  ///< 123u
  bool isFloatLiteral32 = false;   ///< 1.5f
  SourcePos pos;
};

/// Tokenizes C source. Handles // and /* */ comments, decimal/hex/octal
/// integer literals with u/U suffix, float literals with f/F suffix, char
/// literals with escapes, and string literals.
Result<std::vector<Token>> Tokenize(std::string_view source);

/// True if `text` is a C keyword rvcc understands.
bool IsKeyword(std::string_view text);

}  // namespace rvss::cc
