// Memory subsystem tests: main memory, transactional timing, the cache in
// all its configurations, dumps and the memory initializer.
#include <gtest/gtest.h>

#include "common/bitops.h"
#include "common/rng.h"
#include "config/cpu_config.h"
#include "memory/cache.h"
#include "memory/dump.h"
#include "memory/main_memory.h"
#include "memory/memory_initializer.h"
#include "memory/memory_system.h"

namespace rvss::memory {
namespace {

TEST(MainMemory, LittleEndianAccessors) {
  MainMemory memory(64);
  memory.Write32(0, 0x04030201);
  EXPECT_EQ(memory.Read8(0), 0x01);
  EXPECT_EQ(memory.Read8(3), 0x04);
  EXPECT_EQ(memory.Read16(1), 0x0302);
  memory.Write64(8, 0x1122334455667788ULL);
  EXPECT_EQ(memory.Read32(8), 0x55667788u);
  EXPECT_EQ(memory.Read64(8), 0x1122334455667788ULL);
}

TEST(MainMemory, BoundsChecks) {
  MainMemory memory(16);
  EXPECT_TRUE(memory.InBounds(0, 16));
  EXPECT_TRUE(memory.InBounds(12, 4));
  EXPECT_FALSE(memory.InBounds(13, 4));
  EXPECT_FALSE(memory.InBounds(16, 1));
  EXPECT_FALSE(memory.InBounds(0xffffffff, 4));
}

config::CacheConfig SmallCache() {
  config::CacheConfig cache;
  cache.lineCount = 8;
  cache.lineSizeBytes = 16;
  cache.associativity = 2;
  cache.accessDelay = 1;
  cache.lineReplacementDelay = 5;
  return cache;
}

TEST(Cache, HitAfterMiss) {
  Cache cache(SmallCache(), /*loadLatency=*/10, /*storeLatency=*/10, 1);
  auto miss = cache.Access(0x100, 4, false, 1);
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(miss.latency, 1u + 5u + 10u);
  EXPECT_EQ(miss.memoryBytesRead, 16u);
  auto hit = cache.Access(0x104, 4, false, 2);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.latency, 1u);
  EXPECT_EQ(hit.memoryBytesRead, 0u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  config::CacheConfig cfg = SmallCache();  // 4 sets x 2 ways
  Cache cache(cfg, 10, 10, 1);
  // Three lines mapping to set 0 (stride = setCount * lineSize = 64).
  cache.Access(0, 4, false, 1);
  cache.Access(64, 4, false, 2);
  cache.Access(0, 4, false, 3);    // touch 0 again: 64 is now LRU
  auto result = cache.Access(128, 4, false, 4);
  EXPECT_TRUE(result.evicted);
  EXPECT_TRUE(cache.Access(0, 4, false, 5).hit);      // 0 survived
  EXPECT_FALSE(cache.Access(64, 4, false, 6).hit);    // 64 was the victim
}

TEST(Cache, FifoEvictsOldestInsertion) {
  config::CacheConfig cfg = SmallCache();
  cfg.replacement = config::ReplacementPolicy::kFifo;
  Cache cache(cfg, 10, 10, 1);
  cache.Access(0, 4, false, 1);
  cache.Access(64, 4, false, 2);
  cache.Access(0, 4, false, 3);  // FIFO ignores recency
  cache.Access(128, 4, false, 4);
  EXPECT_TRUE(cache.Access(64, 4, false, 5).hit);   // survived (not oldest)
  EXPECT_FALSE(cache.Access(0, 4, false, 6).hit);   // oldest insertion evicted
}

TEST(Cache, RandomPolicyIsDeterministicPerSeed) {
  config::CacheConfig cfg = SmallCache();
  cfg.replacement = config::ReplacementPolicy::kRandom;
  auto runSequence = [&](std::uint64_t seed) {
    Cache cache(cfg, 10, 10, seed);
    std::vector<bool> hits;
    for (std::uint32_t i = 0; i < 64; ++i) {
      hits.push_back(cache.Access((i * 64) % 512, 4, false, i).hit);
    }
    return hits;
  };
  EXPECT_EQ(runSequence(7), runSequence(7));
  // Reset must reproduce the same stream (backward-simulation requirement).
  Cache cache(cfg, 10, 10, 7);
  std::vector<bool> first, second;
  for (std::uint32_t i = 0; i < 64; ++i) {
    first.push_back(cache.Access((i * 64) % 512, 4, false, i).hit);
  }
  cache.Reset();
  for (std::uint32_t i = 0; i < 64; ++i) {
    second.push_back(cache.Access((i * 64) % 512, 4, false, i).hit);
  }
  EXPECT_EQ(first, second);
}

TEST(Cache, WriteBackMarksDirtyAndPaysOnEviction) {
  config::CacheConfig cfg = SmallCache();
  Cache cache(cfg, 10, 10, 1);
  cache.Access(0, 4, true, 1);  // miss + dirty
  auto clean = cache.Access(64, 4, false, 2);
  EXPECT_FALSE(clean.evictedDirty);
  auto evict = cache.Access(128, 4, false, 3);  // evicts dirty line 0
  EXPECT_TRUE(evict.evicted);
  EXPECT_TRUE(evict.evictedDirty);
  EXPECT_EQ(evict.memoryBytesWritten, 16u);
}

TEST(Cache, WriteThroughPaysStoreLatencyEveryStore) {
  config::CacheConfig cfg = SmallCache();
  cfg.storePolicy = config::StorePolicy::kWriteThrough;
  Cache cache(cfg, 10, 10, 1);
  cache.Access(0, 4, true, 1);
  auto hitStore = cache.Access(0, 4, true, 2);
  EXPECT_TRUE(hitStore.hit);
  EXPECT_EQ(hitStore.latency, 1u + 10u);  // access + write-through
  EXPECT_EQ(hitStore.memoryBytesWritten, 4u);
  // Write-through eviction is never dirty.
  cache.Access(64, 4, false, 3);
  auto evict = cache.Access(128, 4, false, 4);
  EXPECT_FALSE(evict.evictedDirty);
}

TEST(Cache, StraddlingAccessTouchesBothLines) {
  Cache cache(SmallCache(), 10, 10, 1);
  auto result = cache.Access(14, 4, false, 1);  // bytes 14..17 cross line 0/1
  EXPECT_EQ(result.memoryBytesRead, 32u);
  EXPECT_TRUE(cache.Access(0, 4, false, 2).hit);
  EXPECT_TRUE(cache.Access(16, 4, false, 3).hit);
}

TEST(Cache, FlushLineWritesBackDirtyData) {
  Cache cache(SmallCache(), 10, 10, 1);
  cache.Access(0, 4, true, 1);
  EXPECT_EQ(cache.FlushLine(0), 10u);   // dirty write-back cost
  EXPECT_EQ(cache.FlushLine(0), 0u);    // already gone
  EXPECT_FALSE(cache.Access(0, 4, false, 2).hit);
}

TEST(Cache, DirectMappedAndFullyAssociativeExtremes) {
  config::CacheConfig direct = SmallCache();
  direct.associativity = 1;
  Cache directCache(direct, 10, 10, 1);
  directCache.Access(0, 4, false, 1);
  directCache.Access(128, 4, false, 2);  // same set, 8 sets * 16B = 128
  EXPECT_FALSE(directCache.Access(0, 4, false, 3).hit);

  config::CacheConfig full = SmallCache();
  full.associativity = full.lineCount;
  Cache fullCache(full, 10, 10, 1);
  for (std::uint32_t i = 0; i < full.lineCount; ++i) {
    fullCache.Access(i * 16, 4, false, i);
  }
  for (std::uint32_t i = 0; i < full.lineCount; ++i) {
    EXPECT_TRUE(fullCache.Access(i * 16, 4, false, 100 + i).hit);
  }
}

TEST(MemorySystem, TransactionsCarryTimingAndStats) {
  config::CpuConfig config = config::DefaultConfig();
  MemorySystem system(config);
  MemoryTransaction miss = system.Register(0x200, 4, false, 100);
  EXPECT_FALSE(miss.cacheHit);
  EXPECT_GT(miss.completesAtCycle, 100u + config.cache.accessDelay);
  MemoryTransaction hit = system.Register(0x204, 4, false, 101);
  EXPECT_TRUE(hit.cacheHit);
  EXPECT_EQ(hit.completesAtCycle, 101u + config.cache.accessDelay);
  EXPECT_EQ(system.stats().accesses, 2u);
  EXPECT_EQ(system.stats().cacheHits, 1u);
  EXPECT_EQ(system.stats().cacheMisses, 1u);
  EXPECT_EQ(system.stats().loads, 2u);
}

TEST(MemorySystem, HitPlusMissEqualsAccesses) {
  config::CpuConfig config = config::DefaultConfig();
  MemorySystem system(config);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    system.Register(static_cast<std::uint32_t>(rng.NextBelow(4096)), 4,
                    rng.NextBool(0.3), static_cast<std::uint64_t>(i));
  }
  const MemoryStats& stats = system.stats();
  EXPECT_EQ(stats.cacheHits + stats.cacheMisses, stats.accesses);
  EXPECT_EQ(stats.loads + stats.stores, stats.accesses);
}

TEST(MemorySystem, DisabledCacheUsesFlatLatencies) {
  config::CpuConfig config = config::NoCacheConfig();
  MemorySystem system(config);
  MemoryTransaction load = system.Register(0x200, 4, false, 10);
  EXPECT_EQ(load.completesAtCycle, 10u + config.memory.loadLatency);
  MemoryTransaction store = system.Register(0x200, 4, true, 11);
  EXPECT_EQ(store.completesAtCycle, 11u + config.memory.storeLatency);
}

TEST(MemoryInitializer, AllocatesWithAlignmentAndFills) {
  MainMemory memory(4096);
  std::vector<ArrayDefinition> arrays(3);
  arrays[0].name = "bytes";
  arrays[0].type = DataTypeKind::kByte;
  arrays[0].fill = ArrayDefinition::Fill::kValues;
  arrays[0].values = {1, 2, 3};
  arrays[1].name = "aligned";
  arrays[1].type = DataTypeKind::kWord;
  arrays[1].alignment = 64;
  arrays[1].fill = ArrayDefinition::Fill::kConstant;
  arrays[1].values = {7};
  arrays[1].count = 4;
  arrays[2].name = "doubles";
  arrays[2].type = DataTypeKind::kDouble;
  arrays[2].fill = ArrayDefinition::Fill::kValues;
  arrays[2].values = {1.5};

  auto layout = InitializeArrays(memory, arrays, 100);
  ASSERT_TRUE(layout.ok()) << layout.error().ToText();
  EXPECT_EQ(layout.value().symbols.at("bytes"), 100u);
  EXPECT_EQ(layout.value().symbols.at("aligned") % 64, 0u);
  EXPECT_EQ(memory.Read8(100), 1);
  EXPECT_EQ(memory.Read32(layout.value().symbols.at("aligned")), 7u);
  EXPECT_EQ(memory.Read64(layout.value().symbols.at("doubles")),
            rvss::DoubleToBits(1.5));
}

TEST(MemoryInitializer, RandomFillIsSeedDeterministic) {
  MainMemory a(4096), b(4096);
  ArrayDefinition def;
  def.name = "r";
  def.type = DataTypeKind::kWord;
  def.fill = ArrayDefinition::Fill::kRandom;
  def.count = 32;
  def.randomSeed = 99;
  ASSERT_TRUE(InitializeArrays(a, {def}, 0).ok());
  ASSERT_TRUE(InitializeArrays(b, {def}, 0).ok());
  EXPECT_EQ(std::vector<std::uint8_t>(a.bytes().begin(), a.bytes().end()),
            std::vector<std::uint8_t>(b.bytes().begin(), b.bytes().end()));
}

TEST(MemoryInitializer, RejectsDuplicatesAndOverflow) {
  MainMemory memory(256);
  ArrayDefinition def;
  def.name = "x";
  def.type = DataTypeKind::kWord;
  def.fill = ArrayDefinition::Fill::kConstant;
  def.count = 16;
  EXPECT_FALSE(InitializeArrays(memory, {def, def}, 0).ok());
  def.count = 1024;
  EXPECT_FALSE(InitializeArrays(memory, {def}, 0).ok());
}

TEST(MemoryInitializer, ByteSizesDoNotWrapAndCountsAreRangeChecked) {
  // 2^29 doubles are 2^32 bytes: a 32-bit product wraps to 0, passes the
  // fit check, and the fill then writes far past the end of memory.
  auto huge = ArrayDefinitionFromJson(json::Parse(
      R"({"name":"a","type":"double","constant":1,"count":536870912})")
                                          .value());
  ASSERT_TRUE(huge.ok()) << huge.error().ToText();
  EXPECT_EQ(huge.value().ByteSize(), std::uint64_t{1} << 32);
  MainMemory memory(4096);
  auto layout = InitializeArrays(memory, {huge.value()}, 0);
  ASSERT_FALSE(layout.ok());
  EXPECT_EQ(layout.error().kind, ErrorKind::kInvalidArgument);
  EXPECT_NE(layout.error().message.find("does not fit"), std::string::npos);

  // Out-of-range counts and alignments are errors, not truncations
  // (4294967297 used to become a count of 1).
  for (const char* text :
       {R"({"name":"a","type":"word","constant":1,"count":4294967297})",
        R"({"name":"a","type":"word","random":true,"count":-1})",
        R"({"name":"a","type":"word","values":[1],"alignment":-8})",
        R"({"name":"a","type":"word","values":[1],"alignment":8589934592})"}) {
    auto parsed = ArrayDefinitionFromJson(json::Parse(text).value());
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.error().kind, ErrorKind::kParse) << text;
  }
}

TEST(MemoryInitializer, JsonRoundTrip) {
  ArrayDefinition def;
  def.name = "data";
  def.type = DataTypeKind::kFloat;
  def.alignment = 16;
  def.fill = ArrayDefinition::Fill::kValues;
  def.values = {1.0, -2.5, 3.25};
  auto reparsed = ArrayDefinitionFromJson(ToJson(def));
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().ToText();
  EXPECT_EQ(reparsed.value().name, def.name);
  EXPECT_EQ(reparsed.value().type, def.type);
  EXPECT_EQ(reparsed.value().alignment, def.alignment);
  EXPECT_EQ(reparsed.value().values, def.values);
}

TEST(Dump, BinaryRoundTrip) {
  MainMemory memory(64);
  for (std::uint32_t i = 0; i < 64; ++i) {
    memory.Write8(i, static_cast<std::uint8_t>(i * 3));
  }
  std::string dump = ExportBinary(memory, 8, 16);
  EXPECT_EQ(dump.size(), 16u);
  MainMemory other(64);
  ASSERT_TRUE(ImportBinary(other, dump, 8).ok());
  for (std::uint32_t i = 8; i < 24; ++i) {
    EXPECT_EQ(other.Read8(i), memory.Read8(i));
  }
  EXPECT_FALSE(ImportBinary(other, std::string(100, 'x'), 0).ok());
}

TEST(Dump, CsvRoundTripAndValidation) {
  MainMemory memory(16);
  memory.Write8(3, 200);
  std::string csv = ExportCsv(memory);
  MainMemory other(16);
  ASSERT_TRUE(ImportCsv(other, csv).ok());
  EXPECT_EQ(other.Read8(3), 200);
  EXPECT_FALSE(ImportCsv(other, "address,value\n0x00,999\n").ok());
  EXPECT_FALSE(ImportCsv(other, "1,2,3\n").ok());
  EXPECT_TRUE(ImportCsv(other, "\n\naddress,value\n\n").ok());
}

}  // namespace
}  // namespace rvss::memory
