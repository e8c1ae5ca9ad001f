// Two-pass assembler tests: directives, label arithmetic, relocation
// operators, error reporting and the compiler-output filter.
#include <gtest/gtest.h>

#include "assembler/assembler.h"
#include "assembler/filter.h"
#include "assembler/lexer.h"
#include "test_util.h"

namespace rvss::assembler {
namespace {

Result<Program> Assemble(const std::string& source,
                         AssembleOptions options = {}) {
  return Assembler().Assemble(source, options);
}

TEST(Lexer, SplitsLabelsMnemonicsOperandsAndComments) {
  auto lines = LexSource("start: addi a0, a1, 4  # add\n  lw a0, 8(sp)\n");
  ASSERT_TRUE(lines.ok());
  ASSERT_EQ(lines.value().size(), 2u);
  EXPECT_EQ(lines.value()[0].labels, std::vector<std::string>{"start"});
  EXPECT_EQ(lines.value()[0].mnemonic, "addi");
  EXPECT_EQ(lines.value()[0].operands,
            (std::vector<std::string>{"a0", "a1", "4"}));
  EXPECT_EQ(lines.value()[0].comment, "add");
  EXPECT_EQ(lines.value()[1].operands,
            (std::vector<std::string>{"a0", "8(sp)"}));
}

TEST(Lexer, MultipleLabelsOnOneLine) {
  auto lines = LexSource("a: b: c: nop\n");
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(lines.value()[0].labels,
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Lexer, KeepsCommasInsideStrings) {
  auto lines = LexSource(".ascii \"a,b\"\n");
  ASSERT_TRUE(lines.ok());
  ASSERT_EQ(lines.value()[0].operands.size(), 1u);
  EXPECT_EQ(lines.value()[0].operands[0], "\"a,b\"");
}

TEST(Lexer, ReportsUnbalancedParens) {
  EXPECT_FALSE(LexSource("lw a0, 8(sp\n").ok());
  EXPECT_FALSE(LexSource("lw a0, 8)sp(\n").ok());
}

TEST(Assembler, EmptyProgramIsAnError) {
  EXPECT_FALSE(Assemble("# nothing here\n").ok());
}

TEST(Assembler, UnknownInstructionIsReportedWithLine) {
  auto result = Assemble("nop\nfoo a0, a1\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().pos.line, 2u);
}

TEST(Assembler, DuplicateLabelRejected) {
  EXPECT_FALSE(Assemble("x: nop\nx: nop\n").ok());
}

TEST(Assembler, UndefinedSymbolRejected) {
  auto result = Assemble("j nowhere\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("nowhere"), std::string::npos);
}

TEST(Assembler, BranchImmediatesAreRelative) {
  auto result = Assemble("nop\ntarget: nop\nbeq x0, x0, target\n");
  ASSERT_TRUE(result.ok()) << result.error().ToText();
  const Instruction& branch = result.value().instructions[2];
  // target at pc 4, branch at pc 8 -> imm -4.
  EXPECT_EQ(branch.operands[2].imm, -4);
}

TEST(Assembler, WordDirectiveWithLabelArithmetic) {
  AssembleOptions options;
  options.dataBase = 0x2000;
  auto result = Assemble(
      ".data\narr: .zero 64\nptr: .word arr+16\n.text\nnop\n", options);
  ASSERT_TRUE(result.ok()) << result.error().ToText();
  const Program& program = result.value();
  EXPECT_EQ(program.labels.at("arr"), 0x2000u);
  const std::uint32_t ptrOffset = program.labels.at("ptr") - 0x2000;
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(program.dataImage[ptrOffset + i])
              << (8 * i);
  }
  EXPECT_EQ(stored, 0x2010u);
}

TEST(Assembler, PaperListing2MemoryDefinitions) {
  // Listing 2 of the paper, verbatim (plus a .text stanza to have code).
  const char* source = R"(
.data
x:
    .word 5          # integer variable x

    .align 4
arr:
    .zero 64         # 64 bytes with 16B alignment

hello:
    .asciiz "Hello World"
.text
main:
    ret
)";
  AssembleOptions options;
  options.dataBase = 0x1000;
  auto result = Assemble(source, options);
  ASSERT_TRUE(result.ok()) << result.error().ToText();
  const Program& program = result.value();
  EXPECT_EQ(program.labels.at("x"), 0x1000u);
  EXPECT_EQ(program.labels.at("arr") % 16, 0u);  // .align 4 => 16 bytes
  const std::uint32_t helloOffset = program.labels.at("hello") - 0x1000;
  std::string hello(
      reinterpret_cast<const char*>(&program.dataImage[helloOffset]));
  EXPECT_EQ(hello, "Hello World");  // NUL-terminated by .asciiz
}

TEST(Assembler, AllDataDirectives) {
  const char* source = R"(
.data
b: .byte 1, 2, -1
h: .half 258
w: .word 100000
f: .float 1.5
d: .double 2.5
s: .skip 3
z: .zero 2
str: .string "hi"
ascii: .ascii "ab"
end: .byte 7
.text
nop
)";
  auto result = Assemble(source);
  ASSERT_TRUE(result.ok()) << result.error().ToText();
  const Program& p = result.value();
  EXPECT_EQ(p.dataImage[0], 1);
  EXPECT_EQ(p.dataImage[2], 0xff);
  EXPECT_EQ(p.labels.at("h") - p.labels.at("b"), 3u);
  // .string adds NUL, .ascii does not.
  EXPECT_EQ(p.labels.at("ascii") - p.labels.at("str"), 3u);
  EXPECT_EQ(p.labels.at("end") - p.labels.at("ascii"), 2u);
}

TEST(Assembler, HiLoRelocationsRoundTrip) {
  auto run = testutil::RunOnIss(R"(
.data
.align 4
value: .word 77
.text
main:
    lui a1, %hi(value)
    addi a1, a1, %lo(value)
    lw a0, 0(a1)
    ret
)", "main");
  ASSERT_NE(run.interp, nullptr);
  EXPECT_EQ(static_cast<std::int32_t>(run.interp->ReadIntReg(10)), 77);
}

TEST(Assembler, LaWithArithmetic) {
  // The paper calls out `lla x4, arr+64` support explicitly.
  auto run = testutil::RunOnIss(R"(
.data
arr: .word 1, 2, 3, 4
.text
main:
    lla x4, arr+8
    lw a0, 0(x4)
    ret
)", "main");
  ASSERT_NE(run.interp, nullptr);
  EXPECT_EQ(static_cast<std::int32_t>(run.interp->ReadIntReg(10)), 3);
}

TEST(Assembler, BareSymbolLoadAndStoreForms) {
  auto run = testutil::RunOnIss(R"(
.data
v: .word 5
w: .word 0
.text
main:
    lw a1, v
    addi a1, a1, 1
    sw a1, w, t0
    lw a0, w
    ret
)", "main");
  ASSERT_NE(run.interp, nullptr);
  EXPECT_EQ(static_cast<std::int32_t>(run.interp->ReadIntReg(10)), 6);
}

TEST(Assembler, ImmediateRangeChecks) {
  EXPECT_FALSE(Assemble("addi a0, a0, 5000\n").ok());
  EXPECT_FALSE(Assemble("slli a0, a0, 32\n").ok());
  EXPECT_FALSE(Assemble("lw a0, 4096(sp)\n").ok());
  EXPECT_TRUE(Assemble("addi a0, a0, -2048\n").ok());
  EXPECT_TRUE(Assemble("slli a0, a0, 31\n").ok());
}

TEST(Assembler, WrongRegisterFileRejected) {
  EXPECT_FALSE(Assemble("add a0, fa0, a1\n").ok());
  EXPECT_FALSE(Assemble("fadd.s fa0, a0, fa1\n").ok());
}

TEST(Assembler, EntryLabelSelectsStart) {
  AssembleOptions options;
  options.entryLabel = "start";
  auto result = Assemble("nop\nstart: nop\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().entryPc, 4u);

  options.entryLabel = "missing";
  EXPECT_FALSE(Assemble("nop\n", options).ok());
}

TEST(Assembler, ExternalSymbolsResolve) {
  AssembleOptions options;
  options.externalSymbols["ext"] = 0x1234;
  auto result = Assemble("la a0, ext\nnop\n", options);
  ASSERT_TRUE(result.ok()) << result.error().ToText();
}

TEST(Assembler, RoundingModeOperandAccepted) {
  EXPECT_TRUE(Assemble("fcvt.w.s a0, fa0, rtz\n").ok());
  EXPECT_TRUE(Assemble("fcvt.w.s a0, fa0\n").ok());
  EXPECT_TRUE(Assemble("fadd.s fa0, fa1, fa2, rne\n").ok());
}

TEST(Assembler, CLineTagsAttach) {
  auto result = Assemble("add a0, a0, a1 #@c 12\nnop\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().instructions[0].cLine, 12);
  EXPECT_EQ(result.value().instructions[1].cLine, -1);
}

TEST(Filter, DropsMetadataKeepsCode) {
  const char* input = R"(
    .file "t.c"
    .option nopic
    .attribute arch, "rv32i"
    .text
    .globl main
    .type main, @function
main:
    addi sp, sp, -16
    .size main, .-main
    .ident "GCC"
)";
  std::string filtered = FilterAssembly(input);
  EXPECT_EQ(filtered.find(".file"), std::string::npos);
  EXPECT_EQ(filtered.find(".globl"), std::string::npos);
  EXPECT_EQ(filtered.find(".ident"), std::string::npos);
  EXPECT_NE(filtered.find("main:"), std::string::npos);
  EXPECT_NE(filtered.find("addi sp, sp, -16"), std::string::npos);
}

TEST(Filter, DropsUnreferencedCompilerLabelsKeepsReferenced) {
  const char* input = R"(
.L1:
    nop
.L2:
    j .L2
)";
  std::string filtered = FilterAssembly(input);
  EXPECT_EQ(filtered.find(".L1:"), std::string::npos);
  EXPECT_NE(filtered.find(".L2:"), std::string::npos);
}

TEST(Filter, FilteredCompilerOutputStillAssembles) {
  // Round trip: the filter output of a realistic listing must assemble.
  const char* input = R"(
    .text
    .globl main
main:
    li a0, 21
    slli a0, a0, 1
    ret
)";
  auto result = Assemble(FilterAssembly(input));
  ASSERT_TRUE(result.ok()) << result.error().ToText();
  EXPECT_EQ(result.value().instructions.size(), 3u);  // addi, slli, jalr
}

TEST(OperandExpression, ArithmeticAndParens) {
  std::map<std::string, std::uint32_t> symbols{{"base", 0x100}};
  auto v1 = EvaluateOperandExpression("base+4*8", symbols, 1);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1.value(), 0x120);
  auto v2 = EvaluateOperandExpression("(base+4)*2", symbols, 1);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2.value(), 0x208);
  auto v3 = EvaluateOperandExpression("-4", symbols, 1);
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(v3.value(), -4);
  EXPECT_FALSE(EvaluateOperandExpression("base+", symbols, 1).ok());
  EXPECT_FALSE(EvaluateOperandExpression("missing", symbols, 1).ok());
}

TEST(OperandExpression, HiLoPairing) {
  std::map<std::string, std::uint32_t> symbols{{"sym", 0x12345ABC}};
  auto hi = EvaluateOperandExpression("%hi(sym)", symbols, 1);
  auto lo = EvaluateOperandExpression("%lo(sym)", symbols, 1);
  ASSERT_TRUE(hi.ok());
  ASSERT_TRUE(lo.ok());
  const std::uint32_t rebuilt =
      (static_cast<std::uint32_t>(hi.value()) << 12) +
      static_cast<std::uint32_t>(lo.value());
  EXPECT_EQ(rebuilt, 0x12345ABCu);
}

TEST(Loader, PlacesStackArraysAndDataInOrder) {
  config::CpuConfig config = config::DefaultConfig();
  memory::MainMemory memory(config.memory.sizeBytes);
  std::vector<memory::ArrayDefinition> arrays(1);
  arrays[0].name = "user";
  arrays[0].type = memory::DataTypeKind::kWord;
  arrays[0].fill = memory::ArrayDefinition::Fill::kConstant;
  arrays[0].values = {9};
  arrays[0].count = 4;
  auto loaded = assembler::LoadProgram(
      ".data\nown: .word 3\n.text\nmain: ret\n", arrays, config, memory,
      "main");
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToText();
  const std::uint32_t userAddr = loaded.value().arrayLayout.symbols.at("user");
  EXPECT_GE(userAddr, config.memory.callStackBytes);
  const std::uint32_t ownAddr = loaded.value().program.labels.at("own");
  EXPECT_GT(ownAddr, userAddr);
  EXPECT_EQ(memory.Read32(userAddr), 9u);
  EXPECT_EQ(memory.Read32(ownAddr), 3u);
  EXPECT_EQ(loaded.value().initialSp, config.memory.callStackBytes);
}

TEST(Assembler, DeepOperandNestingIsAParseError) {
  const std::string deep = std::string(20000, '(') + "1" +
                           std::string(20000, ')');
  for (const std::string& operand : {deep, std::string(20000, '-') + "1"}) {
    auto result = Assemble("addi x1, x0, " + operand + "\n");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, ErrorKind::kParse);
    EXPECT_NE(result.error().message.find("deeper than 256"),
              std::string::npos)
        << result.error().message;
  }
  // Within the budget the expression still evaluates.
  auto ok = Assemble("addi x1, x0, " + std::string(100, '(') + "5" +
                     std::string(100, ')') + "\n");
  ASSERT_TRUE(ok.ok()) << ok.error().ToText();
  EXPECT_EQ(ok.value().instructions[0].operands[2].imm, 5);
}

TEST(Assembler, DataImageIsBoundedBeforeItIsBuilt) {
  // .balign is bounded like .align: 2^62 once aborted on bad_alloc, and
  // 2^30 pushed 1 GiB of zeros before the loader refused it.
  for (const char* align : {"4611686018427387904", "1073741824"}) {
    auto result =
        Assemble(std::string(".data\n.byte 1\n.balign ") + align + "\n");
    ASSERT_FALSE(result.ok()) << align;
    EXPECT_EQ(result.error().kind, ErrorKind::kParse) << align;
  }
  auto widest =
      Assemble(".data\n.byte 1\n.balign 65536\n.text\naddi x1, x0, 1\n");
  ASSERT_TRUE(widest.ok()) << widest.error().ToText();
  EXPECT_EQ(widest.value().dataImage.size(), 65536u);

  // .skip is capped per line; the image as a whole stops at the largest
  // memory a config allows.
  std::string skips = ".data\n";
  for (int i = 0; i < 5; ++i) skips += ".skip 16777216\n";
  auto tooBig = Assemble(skips);
  ASSERT_FALSE(tooBig.ok());
  EXPECT_EQ(tooBig.error().kind, ErrorKind::kInvalidArgument);
  EXPECT_NE(tooBig.error().message.find("does not fit"), std::string::npos)
      << tooBig.error().message;
}

}  // namespace
}  // namespace rvss::assembler
