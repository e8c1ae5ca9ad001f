// Static data-array definitions — the paper's Memory Settings window.
//
// Users define global arrays (basic data types, explicit alignment) filled
// with listed values, a repeated constant, or random values; the allocator
// places them after the call stack and publishes label addresses that
// assembly programs (and `extern` symbols in C) resolve against.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "json/json.h"
#include "memory/main_memory.h"

namespace rvss::memory {

enum class DataTypeKind : std::uint8_t { kByte, kHalf, kWord, kFloat, kDouble };

const char* ToString(DataTypeKind kind);
std::uint32_t SizeOf(DataTypeKind kind);

/// One user-defined array.
struct ArrayDefinition {
  std::string name;
  DataTypeKind type = DataTypeKind::kWord;
  std::uint32_t alignment = 0;  ///< bytes; 0 = natural alignment of the type

  enum class Fill : std::uint8_t {
    kValues,    ///< explicit comma-separated values
    kConstant,  ///< `count` copies of values[0] (e.g. zeros)
    kRandom,    ///< `count` deterministic pseudo-random values
  };
  Fill fill = Fill::kValues;
  std::vector<double> values;   ///< explicit values / the constant
  std::uint32_t count = 0;      ///< element count for kConstant / kRandom
  std::uint64_t randomSeed = 1;

  std::uint32_t ElementCount() const {
    return fill == Fill::kValues ? static_cast<std::uint32_t>(values.size())
                                 : count;
  }
  /// 64-bit: a 32-bit element count times the element size can exceed
  /// 32 bits, and a wrapped size would pass the layout's fit check.
  std::uint64_t ByteSize() const {
    return std::uint64_t{ElementCount()} * SizeOf(type);
  }
};

/// Result of allocation: label -> start address, in definition order.
struct MemoryLayout {
  std::map<std::string, std::uint32_t> symbols;
  std::uint32_t dataStart = 0;  ///< first byte used
  std::uint32_t dataEnd = 0;    ///< one past the last byte used
};

/// Pure allocation: computes where each array would start, without writing
/// anything. `memorySize` bounds the layout. Used by the program loader to
/// fix data addresses before assembling.
Result<MemoryLayout> ComputeLayout(const std::vector<ArrayDefinition>& arrays,
                                   std::uint32_t baseAddress,
                                   std::uint32_t memorySize);

/// Allocates and writes `arrays` into `memory` starting at `baseAddress`
/// (typically just above the call stack). Fails when arrays collide with
/// the end of memory or a name repeats.
Result<MemoryLayout> InitializeArrays(MainMemory& memory,
                                      const std::vector<ArrayDefinition>& arrays,
                                      std::uint32_t baseAddress);

/// JSON round trip for the memory-settings window import/export.
json::Json ToJson(const ArrayDefinition& def);
Result<ArrayDefinition> ArrayDefinitionFromJson(const json::Json& node);

}  // namespace rvss::memory
