// E6 — microbenchmark suite (the paper used JMH for the same purpose):
// simulator steps/s across configurations, assembler throughput,
// expression interpretation, compilation and compression.
#include <benchmark/benchmark.h>

#include "assembler/assembler.h"
#include "bench_common.h"
#include "ref/interpreter.h"
#include "ref/progen.h"
#include "common/slz.h"

using namespace rvss;

namespace {

std::string SortAssembly() {
  static const std::string kAsm =
      cc::Compile(bench::kSortC, cc::CompileOptions{2}).value().assembly;
  return kAsm;
}

void BM_SimulationStep(benchmark::State& state) {
  config::CpuConfig config = state.range(0) == 0   ? config::ScalarConfig()
                             : state.range(0) == 1 ? config::DefaultConfig()
                                                   : config::WideConfig();
  auto sim = core::Simulation::Create(config, SortAssembly(), {{}, "main"});
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    if (sim.value()->status() != core::SimStatus::kRunning) {
      sim.value()->Reset();
    }
    sim.value()->Step();
    ++cycles;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
  state.SetLabel(config.name);
}
BENCHMARK(BM_SimulationStep)->Arg(0)->Arg(1)->Arg(2);

void BM_IssInstruction(benchmark::State& state) {
  config::CpuConfig config = config::DefaultConfig();
  memory::MainMemory memory(config.memory.sizeBytes);
  auto loaded =
      assembler::LoadProgram(SortAssembly(), {}, config, memory, "main");
  const assembler::DecodedProgram decoded(loaded.value().program);
  ref::Interpreter iss(decoded, memory);
  iss.InitRegisters(loaded.value().initialSp);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    if (iss.StepOne() != ref::ExitReason::kRunning) {
      iss.InitRegisters(loaded.value().initialSp);
    }
    ++instructions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_IssInstruction);

void BM_Assemble(benchmark::State& state) {
  const std::string source = ref::GenerateProgram(7);
  assembler::Assembler asmArg;
  for (auto _ : state) {
    auto program = asmArg.Assemble(source);
    benchmark::DoNotOptimize(program);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * source.size()));
}
BENCHMARK(BM_Assemble);

void BM_ExpressionEvaluate(benchmark::State& state) {
  const isa::InstructionDescription* def =
      isa::InstructionSet::Default().Find("add");
  auto compiled = expr::Expression::Compile(def->interpretableAs, *def);
  expr::Value args[3] = {expr::Value(), expr::Value::Int(2),
                         expr::Value::Int(40)};
  for (auto _ : state) {
    auto result = compiled.value().Evaluate(args, 0);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ExpressionEvaluate);

void BM_CompileC(benchmark::State& state) {
  for (auto _ : state) {
    auto compiled = cc::Compile(
        bench::kSortC, cc::CompileOptions{static_cast<int>(state.range(0))});
    benchmark::DoNotOptimize(compiled);
  }
}
BENCHMARK(BM_CompileC)->Arg(0)->Arg(3);

void BM_SlzCompress(benchmark::State& state) {
  std::string payload;
  for (int i = 0; i < 400; ++i) {
    payload += "{\"name\": \"entry" + std::to_string(i % 13) +
               "\", \"valid\": true},";
  }
  for (auto _ : state) {
    std::string compressed = SlzCompress(payload);
    benchmark::DoNotOptimize(compressed);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * payload.size()));
}
BENCHMARK(BM_SlzCompress);

}  // namespace

BENCHMARK_MAIN();
