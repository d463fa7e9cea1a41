/**
 * @file
 * A deliberately small reference interpreter for the guarded-pointer
 * ISA, used as the differential oracle for the machine's dispatcher.
 *
 * It is written as an executable specification: one thread, one flat
 * word-addressed memory, every instruction fetched and checked afresh
 * through the gp operation set (paper §2.2), in program order. There
 * is no timing, no cache or TLB, no predecode, no IP proof, and no
 * check elision — nothing the machine adds for speed. Untouched
 * memory reads as untagged zero. Its outcome is the architectural
 * outcome the machine must reproduce.
 */

#ifndef GP_TESTS_VERIFY_REFERENCE_INTERP_H
#define GP_TESTS_VERIFY_REFERENCE_INTERP_H

#include <cstdint>
#include <map>

#include "gp/ops.h"
#include "gp/word.h"
#include "isa/inst.h"
#include "isa/thread.h"

namespace gp::verify {

struct RefOutcome
{
    isa::ThreadState state = isa::ThreadState::Ready;
    Fault fault = Fault::None;
    uint64_t faultAddr = 0;    //!< IP of the faulting instruction
    uint64_t instructions = 0; //!< fetched and decoded instructions
    Word regs[isa::kNumRegs];
};

/** Flat tagged memory: 8-aligned virtual address -> word. */
using RefMemory = std::map<uint64_t, Word>;

/**
 * Run one thread from @p ip with registers @p regs over @p mem until
 * it halts, faults, or executes @p max_insts instructions (then the
 * outcome stays Ready).
 */
inline RefOutcome
runReference(RefMemory &mem, Word ip, const Word (&regs)[isa::kNumRegs],
             uint64_t max_insts)
{
    using isa::Op;
    RefOutcome out;
    Word *r = out.regs;
    for (unsigned i = 0; i < isa::kNumRegs; ++i)
        r[i] = regs[i];

    auto read = [&](uint64_t addr, unsigned size) -> Word {
        auto it = mem.find(addr & ~uint64_t(7));
        const Word w = it == mem.end() ? Word{} : it->second;
        if (size == 8)
            return w;
        const unsigned shift = unsigned(addr & 7) * 8;
        return Word::fromInt((w.bits() >> shift) &
                             ((uint64_t(1) << (size * 8)) - 1));
    };
    auto write = [&](uint64_t addr, unsigned size, Word v) {
        if (size == 8) {
            mem[addr] = v;
            return;
        }
        // Sub-word stores merge bytes and always clear the tag.
        Word &w = mem[addr & ~uint64_t(7)];
        const unsigned shift = unsigned(addr & 7) * 8;
        const uint64_t mask = ((uint64_t(1) << (size * 8)) - 1) << shift;
        w = Word::fromInt((w.bits() & ~mask) |
                          ((v.bits() << shift) & mask));
    };
    auto fault = [&](Fault f) {
        out.state = isa::ThreadState::Faulted;
        out.fault = f;
        out.faultAddr = ip.addr();
        return out;
    };

    while (out.instructions < max_insts) {
        if (Fault f = checkAccess(ip, Access::InstFetch, 8);
            f != Fault::None)
            return fault(f);
        const auto decoded = isa::decodeInst(read(ip.addr(), 8));
        if (!decoded)
            return fault(Fault::InvalidInstruction);
        const isa::Inst in = *decoded;
        out.instructions++;

        const Word ra = r[in.ra];
        const Word rb = r[in.rb];
        const uint64_t a = ra.bits();
        const uint64_t b = rb.bits();
        const uint64_t imm = uint64_t(int64_t(in.imm));
        const bool priv = ipPrivileged(ip);
        int64_t next = 1; // instructions to advance by
        Result<Word> p = Result<Word>::ok(Word{});
        bool ptr_op = false;

        switch (in.op) {
          case Op::NOP: break;
          case Op::HALT:
            out.state = isa::ThreadState::Halted;
            return out;
          case Op::ADD: r[in.rd] = Word::fromInt(a + b); break;
          case Op::SUB: r[in.rd] = Word::fromInt(a - b); break;
          case Op::MUL: r[in.rd] = Word::fromInt(a * b); break;
          case Op::AND: r[in.rd] = Word::fromInt(a & b); break;
          case Op::OR: r[in.rd] = Word::fromInt(a | b); break;
          case Op::XOR: r[in.rd] = Word::fromInt(a ^ b); break;
          case Op::SHL: r[in.rd] = Word::fromInt(a << (b & 63)); break;
          case Op::SHR: r[in.rd] = Word::fromInt(a >> (b & 63)); break;
          case Op::SRA:
            r[in.rd] = Word::fromInt(uint64_t(int64_t(a) >> (b & 63)));
            break;
          case Op::SLT:
            r[in.rd] = Word::fromInt(int64_t(a) < int64_t(b));
            break;
          case Op::SLTU: r[in.rd] = Word::fromInt(a < b); break;
          case Op::ADDI: r[in.rd] = Word::fromInt(a + imm); break;
          case Op::ANDI: r[in.rd] = Word::fromInt(a & imm); break;
          case Op::ORI: r[in.rd] = Word::fromInt(a | imm); break;
          case Op::XORI: r[in.rd] = Word::fromInt(a ^ imm); break;
          case Op::SHLI: r[in.rd] = Word::fromInt(a << (imm & 63)); break;
          case Op::SHRI: r[in.rd] = Word::fromInt(a >> (imm & 63)); break;
          case Op::SRAI:
            r[in.rd] = Word::fromInt(uint64_t(int64_t(a) >> (imm & 63)));
            break;
          case Op::MOVI: r[in.rd] = Word::fromInt(imm); break;
          case Op::LUI:
            r[in.rd] = Word::fromInt(uint64_t(uint32_t(in.imm)) << 32);
            break;
          case Op::MOV: r[in.rd] = ra; break;

          case Op::LD: case Op::LDW: case Op::LDH: case Op::LDB:
          case Op::ST: case Op::STW: case Op::STH: case Op::STB: {
            const bool store = in.op >= Op::ST;
            const unsigned size =
                8u >> (unsigned(in.op) - unsigned(store ? Op::ST : Op::LD));
            Word ptr = ra;
            if (in.imm != 0) {
                const auto eff = lea(ra, in.imm);
                if (!eff)
                    return fault(eff.fault);
                ptr = eff.value;
            }
            if (Fault f = checkAccess(
                    ptr, store ? Access::Store : Access::Load, size);
                f != Fault::None)
                return fault(f);
            if (store)
                write(ptr.addr(), size, r[in.rd]);
            else
                r[in.rd] = read(ptr.addr(), size);
            break;
          }

          case Op::LEA: p = lea(ra, int64_t(b)); ptr_op = true; break;
          case Op::LEAI: p = lea(ra, in.imm); ptr_op = true; break;
          case Op::LEAB: p = leab(ra, int64_t(b)); ptr_op = true; break;
          case Op::LEABI: p = leab(ra, in.imm); ptr_op = true; break;
          case Op::RESTRICT:
            p = restrictPerm(ra, Perm(b & 0xf));
            ptr_op = true;
            break;
          case Op::SUBSEG: p = subseg(ra, b & 0x3f); ptr_op = true; break;
          case Op::PTOI: p = ptrToInt(ra); ptr_op = true; break;
          case Op::ITOP: p = intToPtr(ra, b); ptr_op = true; break;
          case Op::SETPTR:
            if (!priv)
                return fault(Fault::PrivilegeViolation);
            r[in.rd] = setptr(a);
            break;
          case Op::ISPTR: r[in.rd] = Word::fromInt(ispointer(ra)); break;

          case Op::JMP: {
            const auto target = jumpTarget(ra, priv);
            if (!target)
                return fault(target.fault);
            ip = target.value;
            continue;
          }
          case Op::GETIP: r[in.rd] = ip; break;
          // Branches compare rd with ra (the assembler's encoding).
          case Op::BEQ: next = r[in.rd] == ra ? 1 + in.imm : 1; break;
          case Op::BNE: next = r[in.rd] == ra ? 1 : 1 + in.imm; break;
          case Op::BLT:
            next = int64_t(r[in.rd].bits()) < int64_t(a) ? 1 + in.imm : 1;
            break;
          case Op::BGE:
            next = int64_t(r[in.rd].bits()) >= int64_t(a) ? 1 + in.imm : 1;
            break;
          default:
            return fault(Fault::InvalidInstruction);
        }
        if (ptr_op) {
            if (!p)
                return fault(p.fault);
            r[in.rd] = p.value;
        }
        // Code cannot leave its segment: the IP advance is a checked LEA.
        const auto next_ip = lea(ip, next * 8);
        if (!next_ip)
            return fault(next_ip.fault);
        ip = next_ip.value;
    }
    return out;
}

} // namespace gp::verify

#endif // GP_TESTS_VERIFY_REFERENCE_INTERP_H
