// slz: a small LZSS-family compressor.
//
// Lives in common/ (not server/) so that lower layers — the snapshot
// codec compresses encoded session blobs — can use it too. Stand-in for
// the gzip content-encoding in the paper's deployment: the E3 experiment
// only needs a real general-purpose compressor with a realistic ratio on
// JSON state payloads (3-6x) and a realistic CPU cost, both of which
// byte-pair LZSS delivers.
//
// Format: a 4-byte little-endian uncompressed size, then groups of eight
// items preceded by a flag byte (bit set = match). Matches encode a
// 13-bit offset and 3-bit length (4..11) in two bytes; literals are raw.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace rvss {

/// Compresses `input`. Never fails; incompressible data grows by ~1/8.
std::string SlzCompress(std::string_view input);

/// Decompresses; returns nullopt on malformed input. `consumedBytes`
/// (optional) receives how much of `input` the stream actually used, so
/// callers embedding slz in a larger format can reject trailing garbage.
std::optional<std::string> SlzDecompress(std::string_view input,
                                         std::size_t* consumedBytes = nullptr);

}  // namespace rvss
