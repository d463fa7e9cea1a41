#include "isa/inst.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>

namespace gp::isa {

namespace {

constexpr unsigned kOpShift = 56;
constexpr unsigned kRdShift = 51;
constexpr unsigned kRaShift = 46;
constexpr unsigned kRbShift = 41;
constexpr uint64_t kRegMask = 0x1f;

struct OpInfo
{
    Op op;
    std::string_view name;
};

constexpr std::array<OpInfo, size_t(Op::OpCount)> kOpTable = {{
    {Op::NOP, "nop"},           {Op::HALT, "halt"},
    {Op::ADD, "add"},           {Op::SUB, "sub"},
    {Op::MUL, "mul"},           {Op::AND, "and"},
    {Op::OR, "or"},             {Op::XOR, "xor"},
    {Op::SHL, "shl"},           {Op::SHR, "shr"},
    {Op::SRA, "sra"},           {Op::SLT, "slt"},
    {Op::SLTU, "sltu"},         {Op::ADDI, "addi"},
    {Op::ANDI, "andi"},         {Op::ORI, "ori"},
    {Op::XORI, "xori"},         {Op::SHLI, "shli"},
    {Op::SHRI, "shri"},         {Op::SRAI, "srai"},
    {Op::MOVI, "movi"},         {Op::LUI, "lui"},
    {Op::MOV, "mov"},           {Op::LD, "ld"},
    {Op::LDW, "ldw"},           {Op::LDH, "ldh"},
    {Op::LDB, "ldb"},           {Op::ST, "st"},
    {Op::STW, "stw"},           {Op::STH, "sth"},
    {Op::STB, "stb"},           {Op::LEA, "lea"},
    {Op::LEAI, "leai"},         {Op::LEAB, "leab"},
    {Op::LEABI, "leabi"},       {Op::RESTRICT, "restrict"},
    {Op::SUBSEG, "subseg"},     {Op::SETPTR, "setptr"},
    {Op::ISPTR, "isptr"},       {Op::PTOI, "ptoi"},
    {Op::ITOP, "itop"},         {Op::JMP, "jmp"},
    {Op::GETIP, "getip"},       {Op::BEQ, "beq"},
    {Op::BNE, "bne"},           {Op::BLT, "blt"},
    {Op::BGE, "bge"},
}};

} // namespace

Word
encode(const Inst &inst)
{
    const uint64_t bits =
        (uint64_t(inst.op) << kOpShift) |
        ((uint64_t(inst.rd) & kRegMask) << kRdShift) |
        ((uint64_t(inst.ra) & kRegMask) << kRaShift) |
        ((uint64_t(inst.rb) & kRegMask) << kRbShift) |
        (uint64_t(uint32_t(inst.imm)));
    return Word::fromInt(bits);
}

std::optional<Inst>
decodeInst(Word w)
{
    if (w.isPointer())
        return std::nullopt;

    const uint64_t bits = w.bits();
    const uint64_t op = bits >> kOpShift;
    if (op >= uint64_t(Op::OpCount))
        return std::nullopt;

    Inst inst;
    inst.op = Op(op);
    inst.rd = uint8_t((bits >> kRdShift) & kRegMask);
    inst.ra = uint8_t((bits >> kRaShift) & kRegMask);
    inst.rb = uint8_t((bits >> kRbShift) & kRegMask);
    inst.imm = int32_t(uint32_t(bits));
    if (inst.rd >= kNumRegs || inst.ra >= kNumRegs || inst.rb >= kNumRegs)
        return std::nullopt;
    return inst;
}

std::string_view
opName(Op op)
{
    for (const auto &info : kOpTable) {
        if (info.op == op)
            return info.name;
    }
    return "???";
}

std::optional<Op>
opFromName(std::string_view name)
{
    std::string lower(name);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    for (const auto &info : kOpTable) {
        if (info.name == lower)
            return info.op;
    }
    return std::nullopt;
}

std::string
toString(const Inst &inst)
{
    // Emit assembler-accepted syntax so disassembly round-trips.
    const std::string mnem{opName(inst.op)};
    auto reg = [](unsigned n) {
        std::string r = "r";
        r += std::to_string(n);
        return r;
    };
    const std::string imm = std::to_string(inst.imm);

    switch (inst.op) {
      case Op::NOP:
      case Op::HALT:
        return mnem;
      case Op::JMP:
        return mnem + " " + reg(inst.ra);
      case Op::GETIP:
        return mnem + " " + reg(inst.rd);
      case Op::MOVI:
      case Op::LUI:
        return mnem + " " + reg(inst.rd) + ", " + imm;
      case Op::MOV:
      case Op::SETPTR:
      case Op::ISPTR:
      case Op::PTOI:
        return mnem + " " + reg(inst.rd) + ", " + reg(inst.ra);
      case Op::LD:
      case Op::LDW:
      case Op::LDH:
      case Op::LDB:
      case Op::ST:
      case Op::STW:
      case Op::STH:
      case Op::STB:
        return mnem + " " + reg(inst.rd) + ", " + imm + "(" +
               reg(inst.ra) + ")";
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
        return mnem + " " + reg(inst.rd) + ", " + reg(inst.ra) +
               ", " + imm;
      default:
        return mnem + " " + reg(inst.rd) + ", " + reg(inst.ra) +
               ", " + reg(inst.rb);
    }
}

} // namespace gp::isa
