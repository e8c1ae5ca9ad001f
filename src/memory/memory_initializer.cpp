#include "memory/memory_initializer.h"

#include <limits>

#include "common/bitops.h"
#include "common/rng.h"

namespace rvss::memory {

const char* ToString(DataTypeKind kind) {
  switch (kind) {
    case DataTypeKind::kByte: return "byte";
    case DataTypeKind::kHalf: return "half";
    case DataTypeKind::kWord: return "word";
    case DataTypeKind::kFloat: return "float";
    case DataTypeKind::kDouble: return "double";
  }
  return "word";
}

std::uint32_t SizeOf(DataTypeKind kind) {
  switch (kind) {
    case DataTypeKind::kByte: return 1;
    case DataTypeKind::kHalf: return 2;
    case DataTypeKind::kWord: return 4;
    case DataTypeKind::kFloat: return 4;
    case DataTypeKind::kDouble: return 8;
  }
  return 4;
}

namespace {

std::optional<DataTypeKind> ParseDataTypeKind(std::string_view text) {
  if (text == "byte") return DataTypeKind::kByte;
  if (text == "half") return DataTypeKind::kHalf;
  if (text == "word") return DataTypeKind::kWord;
  if (text == "float") return DataTypeKind::kFloat;
  if (text == "double") return DataTypeKind::kDouble;
  return std::nullopt;
}

void WriteElement(MainMemory& memory, std::uint32_t address, DataTypeKind kind,
                  double value) {
  switch (kind) {
    case DataTypeKind::kByte:
      memory.Write8(address, static_cast<std::uint8_t>(
                                 static_cast<std::int64_t>(value)));
      break;
    case DataTypeKind::kHalf:
      memory.Write16(address, static_cast<std::uint16_t>(
                                  static_cast<std::int64_t>(value)));
      break;
    case DataTypeKind::kWord:
      memory.Write32(address, static_cast<std::uint32_t>(
                                  static_cast<std::int64_t>(value)));
      break;
    case DataTypeKind::kFloat:
      memory.Write32(address, FloatToBits(static_cast<float>(value)));
      break;
    case DataTypeKind::kDouble:
      memory.Write64(address, DoubleToBits(value));
      break;
  }
}

/// An optional non-negative 32-bit field of array `name`. JSON integers
/// arrive as int64; a value outside [0, 2^32) is an error, not a silent
/// truncation.
Result<std::uint32_t> ReadUint32(const json::Json& node, const char* key,
                                 const std::string& name) {
  const std::int64_t value = node.GetInt(key, 0);
  if (value < 0 || value > std::numeric_limits<std::uint32_t>::max()) {
    return Error{ErrorKind::kParse, std::string("'") + key + "' of array '" +
                                        name + "' is out of range"};
  }
  return static_cast<std::uint32_t>(value);
}

double RandomElement(DataTypeKind kind, Rng& rng) {
  switch (kind) {
    case DataTypeKind::kByte:
      return static_cast<double>(rng.NextInRange(-128, 127));
    case DataTypeKind::kHalf:
      return static_cast<double>(rng.NextInRange(-32768, 32767));
    case DataTypeKind::kWord:
      return static_cast<double>(
          rng.NextInRange(-2147483648LL, 2147483647LL));
    case DataTypeKind::kFloat:
    case DataTypeKind::kDouble:
      return rng.NextDouble() * 2000.0 - 1000.0;
  }
  return 0.0;
}

}  // namespace

Result<MemoryLayout> ComputeLayout(const std::vector<ArrayDefinition>& arrays,
                                   std::uint32_t baseAddress,
                                   std::uint32_t memorySize) {
  MemoryLayout layout;
  layout.dataStart = baseAddress;
  std::uint64_t cursor = baseAddress;
  for (const ArrayDefinition& def : arrays) {
    if (def.name.empty()) {
      return Error{ErrorKind::kInvalidArgument, "array definition needs a name"};
    }
    if (layout.symbols.contains(def.name)) {
      return Error{ErrorKind::kInvalidArgument,
                   "duplicate array name '" + def.name + "'"};
    }
    const std::uint32_t alignment =
        def.alignment == 0 ? SizeOf(def.type) : def.alignment;
    if (!IsPowerOfTwo(alignment)) {
      return Error{ErrorKind::kInvalidArgument,
                   "alignment of '" + def.name + "' must be a power of two"};
    }
    cursor = AlignUp(cursor, alignment);
    const std::uint64_t byteSize = def.ByteSize();
    if (cursor > memorySize || byteSize > memorySize - cursor) {
      return Error{ErrorKind::kInvalidArgument,
                   "array '" + def.name + "' does not fit in memory"};
    }
    layout.symbols.emplace(def.name, static_cast<std::uint32_t>(cursor));
    cursor += byteSize;
  }
  layout.dataEnd = static_cast<std::uint32_t>(cursor);
  return layout;
}

Result<MemoryLayout> InitializeArrays(
    MainMemory& memory, const std::vector<ArrayDefinition>& arrays,
    std::uint32_t baseAddress) {
  RVSS_ASSIGN_OR_RETURN(MemoryLayout layout,
                        ComputeLayout(arrays, baseAddress, memory.size()));
  for (const ArrayDefinition& def : arrays) {
    const std::uint32_t start = layout.symbols.at(def.name);
    const std::uint32_t elemSize = SizeOf(def.type);
    Rng rng(def.randomSeed);
    for (std::uint32_t i = 0; i < def.ElementCount(); ++i) {
      double value = 0.0;
      switch (def.fill) {
        case ArrayDefinition::Fill::kValues:
          value = def.values[i];
          break;
        case ArrayDefinition::Fill::kConstant:
          value = def.values.empty() ? 0.0 : def.values[0];
          break;
        case ArrayDefinition::Fill::kRandom:
          value = RandomElement(def.type, rng);
          break;
      }
      WriteElement(memory, start + i * elemSize, def.type, value);
    }
  }
  return layout;
}

json::Json ToJson(const ArrayDefinition& def) {
  json::Json node = json::Json::MakeObject();
  node.Set("name", def.name);
  node.Set("type", ToString(def.type));
  if (def.alignment != 0) {
    node.Set("alignment", static_cast<std::int64_t>(def.alignment));
  }
  switch (def.fill) {
    case ArrayDefinition::Fill::kValues: {
      json::Json values = json::Json::MakeArray();
      for (double v : def.values) values.Append(v);
      node.Set("values", std::move(values));
      break;
    }
    case ArrayDefinition::Fill::kConstant:
      node.Set("constant", def.values.empty() ? 0.0 : def.values[0]);
      node.Set("count", static_cast<std::int64_t>(def.count));
      break;
    case ArrayDefinition::Fill::kRandom:
      node.Set("random", true);
      node.Set("count", static_cast<std::int64_t>(def.count));
      node.Set("randomSeed", static_cast<std::int64_t>(def.randomSeed));
      break;
  }
  return node;
}

Result<ArrayDefinition> ArrayDefinitionFromJson(const json::Json& node) {
  if (!node.IsObject()) {
    return Error{ErrorKind::kParse, "array definition must be an object"};
  }
  ArrayDefinition def;
  def.name = node.GetString("name", "");
  if (def.name.empty()) {
    return Error{ErrorKind::kParse, "array definition missing 'name'"};
  }
  auto type = ParseDataTypeKind(node.GetString("type", "word"));
  if (!type) {
    return Error{ErrorKind::kParse,
                 "unknown data type in array '" + def.name + "'"};
  }
  def.type = *type;
  RVSS_ASSIGN_OR_RETURN(def.alignment, ReadUint32(node, "alignment", def.name));

  if (const json::Json* values = node.Find("values"); values != nullptr) {
    if (!values->IsArray()) {
      return Error{ErrorKind::kParse, "'values' must be an array"};
    }
    def.fill = ArrayDefinition::Fill::kValues;
    for (const json::Json& v : values->AsArray()) {
      if (!v.IsNumber()) {
        return Error{ErrorKind::kParse,
                     "non-numeric value in array '" + def.name + "'"};
      }
      def.values.push_back(v.AsDouble());
    }
  } else if (node.GetBool("random", false)) {
    def.fill = ArrayDefinition::Fill::kRandom;
    RVSS_ASSIGN_OR_RETURN(def.count, ReadUint32(node, "count", def.name));
    def.randomSeed = static_cast<std::uint64_t>(node.GetInt("randomSeed", 1));
  } else if (node.Find("constant") != nullptr) {
    def.fill = ArrayDefinition::Fill::kConstant;
    def.values = {node.GetDouble("constant", 0.0)};
    RVSS_ASSIGN_OR_RETURN(def.count, ReadUint32(node, "count", def.name));
  } else {
    return Error{ErrorKind::kParse,
                 "array '" + def.name +
                     "' needs one of 'values', 'constant' or 'random'"};
  }
  return def;
}

}  // namespace rvss::memory
