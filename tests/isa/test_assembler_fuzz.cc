/**
 * @file
 * Fuzz-style robustness tests for the assembler and decoder: random
 * garbage must produce clean errors (never crashes or bogus output),
 * and randomly generated valid programs must round-trip through
 * assembly text exactly.
 */

#include <gtest/gtest.h>

#include <string>

#include "isa/assembler.h"
#include "sim/rng.h"

namespace gp::isa {
namespace {

std::string
randomGarbageLine(sim::Rng &rng)
{
    static const char kChars[] =
        "abcdefghijklmnopqrstuvwxyz0123456789 ,()-+rx:;#";
    std::string line;
    const uint64_t len = rng.below(30);
    for (uint64_t i = 0; i < len; ++i)
        line += kChars[rng.below(sizeof(kChars) - 1)];
    return line;
}

TEST(AssemblerFuzz, GarbageNeverCrashes)
{
    sim::Rng rng(12345);
    for (int trial = 0; trial < 2000; ++trial) {
        std::string src;
        const uint64_t lines = 1 + rng.below(5);
        for (uint64_t i = 0; i < lines; ++i)
            src += randomGarbageLine(rng) + "\n";
        const Assembly a = assemble(src);
        // Either it's a (freak) valid program or a clean error with a
        // line number; never an "ok" result with an error message.
        if (!a.ok) {
            EXPECT_FALSE(a.error.empty());
            EXPECT_NE(a.error.find("line"), std::string::npos);
        } else {
            EXPECT_TRUE(a.error.empty());
        }
    }
}

TEST(AssemblerFuzz, RandomDecodedWordsNeverCrashDecode)
{
    sim::Rng rng(999);
    for (int i = 0; i < 100000; ++i) {
        const Word w = Word::fromInt(rng.next());
        auto inst = decodeInst(w);
        if (inst) {
            EXPECT_LT(unsigned(inst->op), unsigned(Op::OpCount));
            EXPECT_LT(inst->rd, kNumRegs);
            EXPECT_LT(inst->ra, kNumRegs);
            EXPECT_LT(inst->rb, kNumRegs);
        }
    }
}

/** Emit assembly text for an instruction, mirroring the parser. */
std::string
emit(const Inst &inst)
{
    const std::string mnem{opName(inst.op)};
    auto r = [](unsigned n) {
        std::string s = "r";
        s += std::to_string(n);
        return s;
    };
    const std::string imm = std::to_string(inst.imm);
    switch (inst.op) {
      case Op::NOP:
      case Op::HALT:
        return mnem;
      case Op::ADD:
      case Op::SUB:
      case Op::MUL:
      case Op::AND:
      case Op::OR:
      case Op::XOR:
      case Op::SHL:
      case Op::SHR:
      case Op::SRA:
      case Op::SLT:
      case Op::SLTU:
      case Op::LEA:
      case Op::LEAB:
      case Op::RESTRICT:
      case Op::SUBSEG:
      case Op::ITOP:
        return mnem + " " + r(inst.rd) + ", " + r(inst.ra) + ", " +
               r(inst.rb);
      case Op::ADDI:
      case Op::ANDI:
      case Op::ORI:
      case Op::XORI:
      case Op::SHLI:
      case Op::SHRI:
      case Op::SRAI:
      case Op::LEAI:
      case Op::LEABI:
      case Op::BEQ:
      case Op::BNE:
      case Op::BLT:
      case Op::BGE:
        return mnem + " " + r(inst.rd) + ", " + r(inst.ra) + ", " +
               imm;
      case Op::MOVI:
      case Op::LUI:
        return mnem + " " + r(inst.rd) + ", " + imm;
      case Op::MOV:
      case Op::SETPTR:
      case Op::ISPTR:
      case Op::PTOI:
        return mnem + " " + r(inst.rd) + ", " + r(inst.ra);
      case Op::LD:
      case Op::LDW:
      case Op::LDH:
      case Op::LDB:
      case Op::ST:
      case Op::STW:
      case Op::STH:
      case Op::STB:
        return mnem + " " + r(inst.rd) + ", " + imm + "(" +
               r(inst.ra) + ")";
      case Op::JMP:
        return mnem + " " + r(inst.ra);
      case Op::GETIP:
        return mnem + " " + r(inst.rd);
      default:
        return "nop";
    }
}

TEST(AssemblerFuzz, RandomProgramsRoundTrip)
{
    // Generate random instructions, emit text, assemble, and compare
    // the decoded result field-by-field (fields the syntax carries).
    sim::Rng rng(777);
    for (int trial = 0; trial < 500; ++trial) {
        Inst in;
        in.op = Op(rng.below(uint64_t(Op::OpCount)));
        in.rd = uint8_t(rng.below(kNumRegs));
        in.ra = uint8_t(rng.below(kNumRegs));
        in.rb = uint8_t(rng.below(kNumRegs));
        in.imm = int32_t(uint32_t(rng.next()));
        // Branch targets are instruction-relative labels/immediates;
        // keep them tiny so they stay representable.
        if (in.op == Op::BEQ || in.op == Op::BNE || in.op == Op::BLT ||
            in.op == Op::BGE) {
            in.imm = int32_t(rng.below(8)) - 4;
        }

        const std::string text = emit(in);
        const Assembly a = assemble(text);
        ASSERT_TRUE(a.ok) << text << ": " << a.error;
        ASSERT_EQ(a.words.size(), 1u) << text;
        auto out = decodeInst(a.words[0]);
        ASSERT_TRUE(out.has_value()) << text;

        EXPECT_EQ(out->op, in.op) << text;
        // Compare only the fields this syntax encodes.
        switch (in.op) {
          case Op::NOP:
          case Op::HALT:
            break;
          case Op::JMP:
            EXPECT_EQ(out->ra, in.ra) << text;
            break;
          case Op::GETIP:
            EXPECT_EQ(out->rd, in.rd) << text;
            break;
          case Op::MOVI:
          case Op::LUI:
            EXPECT_EQ(out->rd, in.rd) << text;
            EXPECT_EQ(out->imm, in.imm) << text;
            break;
          case Op::MOV:
          case Op::SETPTR:
          case Op::ISPTR:
          case Op::PTOI:
            EXPECT_EQ(out->rd, in.rd) << text;
            EXPECT_EQ(out->ra, in.ra) << text;
            break;
          case Op::LD:
          case Op::LDW:
          case Op::LDH:
          case Op::LDB:
          case Op::ST:
          case Op::STW:
          case Op::STH:
          case Op::STB:
          case Op::ADDI:
          case Op::ANDI:
          case Op::ORI:
          case Op::XORI:
          case Op::SHLI:
          case Op::SHRI:
          case Op::SRAI:
          case Op::LEAI:
          case Op::LEABI:
          case Op::BEQ:
          case Op::BNE:
          case Op::BLT:
          case Op::BGE:
            EXPECT_EQ(out->rd, in.rd) << text;
            EXPECT_EQ(out->ra, in.ra) << text;
            EXPECT_EQ(out->imm, in.imm) << text;
            break;
          default:
            EXPECT_EQ(out->rd, in.rd) << text;
            EXPECT_EQ(out->ra, in.ra) << text;
            EXPECT_EQ(out->rb, in.rb) << text;
            break;
        }
    }
}

} // namespace
} // namespace gp::isa
