// Cross-module integration tests: the paper's complex workloads running on
// the full stack (rvcc -> assembler -> OoO core vs golden ISS) across
// processor configurations, plus end-to-end statistics checks.
#include <cstring>

#include <gtest/gtest.h>

#include "cc/compiler.h"
#include "server/api.h"
#include "test_util.h"

namespace rvss {
namespace {

struct StackCase {
  const char* name;
  const char* cSource;
  std::int32_t expected;
  const char* configName;
};

config::CpuConfig NamedConfig(const std::string& name) {
  if (name == "scalar") return config::ScalarConfig();
  if (name == "wide") return config::WideConfig();
  if (name == "nocache") return config::NoCacheConfig();
  return config::DefaultConfig();
}

const char* kMatmul = R"(
int a[8][8]; int b[8][8]; int c[8][8];
int main() {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++) { a[i][j] = i + j; b[i][j] = i - j; }
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++) {
      int acc = 0;
      for (int k = 0; k < 8; k++) acc += a[i][k] * b[k][j];
      c[i][j] = acc;
    }
  int checksum = 0;
  for (int i = 0; i < 8; i++) checksum += c[i][i];
  return checksum;
}
)";

const char* kStringReverse = R"(
char text[12] = "simulators";
int len(char* s) { int n = 0; while (s[n]) n++; return n; }
int main() {
  int n = len(text);
  for (int i = 0; i < n / 2; i++) {
    char t = text[i];
    text[i] = text[n - 1 - i];
    text[n - 1 - i] = t;
  }
  return text[0] * 100 + text[n - 1] + n;
}
)";

const char* kFloatDot = R"(
float x[16]; float y[16];
int main() {
  for (int i = 0; i < 16; i++) { x[i] = (float)i * 0.5f; y[i] = (float)(16 - i); }
  float dot = 0.0f;
  for (int i = 0; i < 16; i++) dot += x[i] * y[i];
  return (int)dot;
}
)";

class FullStack : public ::testing::TestWithParam<StackCase> {};

TEST_P(FullStack, CompiledProgramMatchesOnCoreAndIss) {
  const StackCase& param = GetParam();
  auto compiled = cc::Compile(param.cSource, cc::CompileOptions{2});
  ASSERT_TRUE(compiled.ok()) << compiled.error().ToText();
  const config::CpuConfig config = NamedConfig(param.configName);

  // Golden model.
  memory::MainMemory issMemory(config.memory.sizeBytes);
  auto loaded = assembler::LoadProgram(compiled.value().assembly, {}, config,
                                       issMemory, "main");
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToText();
  const assembler::DecodedProgram decoded(loaded.value().program);
  ref::Interpreter iss(decoded, issMemory);
  iss.InitRegisters(loaded.value().initialSp);
  ASSERT_EQ(iss.Run(100'000'000), ref::ExitReason::kMainReturned);
  EXPECT_EQ(static_cast<std::int32_t>(iss.ReadIntReg(10)), param.expected);

  // OoO core.
  auto sim = testutil::RunOnCore(compiled.value().assembly, config, "main",
                                 50'000'000);
  ASSERT_NE(sim, nullptr);
  ASSERT_EQ(sim->status(), core::SimStatus::kFinished)
      << (sim->fault() ? sim->fault()->ToText() : "");
  EXPECT_EQ(static_cast<std::int32_t>(sim->ReadIntReg(10)), param.expected);
  EXPECT_EQ(sim->statistics().committedInstructions,
            iss.stats().executedInstructions);
  EXPECT_EQ(0, std::memcmp(issMemory.bytes().data(),
                           sim->memorySystem().memory().bytes().data(),
                           issMemory.size()));
}

std::vector<StackCase> MakeStackCases() {
  // Expected values computed from the C semantics.
  int matmulExpected = 0;
  {
    int a[8][8], b[8][8];
    for (int i = 0; i < 8; i++)
      for (int j = 0; j < 8; j++) { a[i][j] = i + j; b[i][j] = i - j; }
    for (int i = 0; i < 8; i++) {
      int acc = 0;
      for (int k = 0; k < 8; k++) acc += a[i][k] * b[k][i];
      matmulExpected += acc;
    }
  }
  int reverseExpected = 0;
  {
    char text[] = "simulators";
    int n = static_cast<int>(strlen(text));
    reverseExpected = text[n - 1] * 100 + text[0] + n;
  }
  int dotExpected = 0;
  {
    float dot = 0.0f;
    for (int i = 0; i < 16; i++) {
      dot += (static_cast<float>(i) * 0.5f) * static_cast<float>(16 - i);
    }
    dotExpected = static_cast<int>(dot);
  }
  std::vector<StackCase> cases;
  for (const char* config : {"default", "scalar", "wide", "nocache"}) {
    cases.push_back({"matmul", kMatmul, matmulExpected, config});
    cases.push_back({"reverse", kStringReverse, reverseExpected, config});
    cases.push_back({"floatdot", kFloatDot, dotExpected, config});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Workloads, FullStack,
                         ::testing::ValuesIn(MakeStackCases()),
                         [](const ::testing::TestParamInfo<StackCase>& info) {
                           return std::string(info.param.name) + "_" +
                                  info.param.configName;
                         });

TEST(EndToEnd, ArchitectureComparisonViaApi) {
  // The paper's headline workflow: the same program on two architectures,
  // compared by IPC, all through the public JSON API.
  server::SimServer server;
  auto runWith = [&](const config::CpuConfig& config) {
    json::Json request = json::Json::MakeObject();
    request.Set("command", "createSession");
    request.Set("code", std::string(kMatmul));
    request.Set("isC", true);
    request.Set("optLevel", 2);
    request.Set("config", config::ToJson(config));
    json::Json created = server.Handle(request);
    EXPECT_EQ(created.GetString("status", ""), "ok");
    json::Json run = json::Json::MakeObject();
    run.Set("command", "run");
    run.Set("sessionId", created.GetInt("sessionId", -1));
    json::Json response = server.Handle(run);
    EXPECT_EQ(response.GetString("finishReason", ""), "main returned");
    return response.Find("statistics")->GetDouble("ipc", 0.0);
  };
  const double scalarIpc = runWith(config::ScalarConfig());
  const double wideIpc = runWith(config::WideConfig());
  EXPECT_GT(scalarIpc, 0.0);
  EXPECT_GT(wideIpc, scalarIpc);
}

}  // namespace
}  // namespace rvss
