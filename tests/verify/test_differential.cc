/**
 * @file
 * Differential soundness harness: gpverify vs. the gp_isa machine.
 *
 * Generates >= 1000 randomized guarded-pointer programs, runs each one
 * through the static verifier AND the real machine, and holds the two
 * against each other:
 *
 *  Check A (clean => no fault): a program the verifier certifies as
 *    strictly clean must never raise a capability fault when executed
 *    from the matching entry state.
 *
 *  Check B (must-fault => faults): every *error* diagnostic whose
 *    instruction the machine actually reached must coincide with a
 *    runtime fault at that instruction, of a kind drawn from the
 *    diagnostic's declared fault mask. The one relaxed contract is
 *    RunOffEnd: control flow that runs off the code image executes
 *    zero-word NOPs until the IP escapes the code segment, so the
 *    fault (BoundsViolation) lands past the diagnosed instruction —
 *    the harness only requires that the run eventually dies of a
 *    BoundsViolation.
 *
 * The same corpus also drives the machine's own oracles: a blessed
 * digest of every timed outcome (cycle identity), the small untimed
 * reference interpreter in reference_interp.h (architectural
 * identity), --elide-checks, and --fast.
 *
 * Programs are generated from a weighted opcode mix with forward-only
 * branches (so almost every program terminates inside the cycle
 * budget), occasional garbage opcodes and tagged words injected into
 * the image, and the gpsim entry convention: r1 = 4 KiB read/write
 * data segment, r2 = integer 0.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gp/fault.h"
#include "gp/ops.h"
#include "isa/assembler.h"
#include "isa/loader.h"
#include "isa/machine.h"
#include "reference_interp.h"
#include "sim/rng.h"
#include "verify/verifier.h"

namespace gp::verify {
namespace {

constexpr unsigned kPrograms = 1100;  //!< generated programs
constexpr unsigned kRequired = 1000;  //!< minimum fully-checked runs
constexpr uint64_t kMaxCycles = 20000;
constexpr uint64_t kCodeBase = uint64_t(1) << 24;
constexpr uint64_t kDataBase = uint64_t(1) << 30;
constexpr uint64_t kDataLenLog2 = 12; // 4 KiB, gpsim default

/** Registers the generator draws from (r0 is the hardwired zero of
 *  convention, still fair game as a destination). */
unsigned
reg(sim::Rng &rng)
{
    return unsigned(rng.below(8));
}

/** One random instruction at index @p i of a body of @p n. */
std::string
genInst(sim::Rng &rng, unsigned i, unsigned n)
{
    std::ostringstream s;
    const unsigned rd = reg(rng);
    const unsigned ra = reg(rng);
    const unsigned rb = reg(rng);
    const uint64_t roll = rng.below(100);

    static const int64_t kLeaDisp[] = {-16, -8, -1, 0,   1,    4,
                                       8,   64, 512, 1024, 4095, 4096};
    static const int64_t kMemDisp[] = {0, 8, 16, 64, 256, 1024, 4088,
                                       4096};
    static const int64_t kWordDisp[] = {0, 2, 4, 8, 100};
    static const char *kAlu3[] = {"add", "sub", "mul", "and", "or",
                                  "xor", "slt", "sltu"};
    static const char *kAluI[] = {"addi", "andi", "ori", "xori"};
    static const char *kBr[] = {"beq", "bne", "blt", "bge"};

    if (roll < 10) {
        s << "movi r" << rd << ", " << rng.below(256);
    } else if (roll < 18) {
        s << kAluI[rng.below(4)] << " r" << rd << ", r" << ra << ", "
          << rng.below(64);
    } else if (roll < 27) {
        s << kAlu3[rng.below(8)] << " r" << rd << ", r" << ra << ", r"
          << rb;
    } else if (roll < 31) {
        s << (rng.below(2) ? "shli" : "shri") << " r" << rd << ", r"
          << ra << ", " << rng.below(8);
    } else if (roll < 41) {
        const bool word = rng.below(3) == 0;
        const int64_t d =
            word ? kWordDisp[rng.below(5)] : kMemDisp[rng.below(8)];
        s << (word ? "ldw" : "ld") << " r" << rd << ", " << d << "(r"
          << ra << ")";
    } else if (roll < 51) {
        const bool word = rng.below(3) == 0;
        const int64_t d =
            word ? kWordDisp[rng.below(5)] : kMemDisp[rng.below(8)];
        s << (word ? "stw" : "st") << " r" << rd << ", " << d << "(r"
          << ra << ")";
    } else if (roll < 60) {
        s << (rng.below(4) ? "leai" : "leabi") << " r" << rd << ", r"
          << ra << ", " << kLeaDisp[rng.below(12)];
    } else if (roll < 64) {
        s << (rng.below(2) ? "lea" : "leab") << " r" << rd << ", r"
          << ra << ", r" << rb;
    } else if (roll < 70) {
        s << "restrict r" << rd << ", r" << ra << ", r" << rb;
    } else if (roll < 75) {
        s << "subseg r" << rd << ", r" << ra << ", r" << rb;
    } else if (roll < 80) {
        s << "mov r" << rd << ", r" << ra;
    } else if (roll < 83) {
        s << (rng.below(2) ? "isptr" : "ptoi") << " r" << rd << ", r"
          << ra;
    } else if (roll < 85) {
        s << "itop r" << rd << ", r" << ra << ", r" << rb;
    } else if (roll < 87) {
        s << "getip r" << rd;
    } else if (roll < 89) {
        s << "jmp r" << ra;
    } else if (roll < 90) {
        s << "setptr r" << rd << ", r" << ra;
    } else {
        // Forward-only branch: target in (i, n], which is inside the
        // body or the final halt slot. Keeps generated programs loop-
        // free so nearly all runs finish inside the cycle budget.
        const uint64_t span = n - i; // >= 1
        s << kBr[rng.below(4)] << " r" << rd << ", r" << ra << ", "
          << rng.below(span);
    }
    return s.str();
}

/** A whole program; 10% of the time the trailing halt is dropped so
 *  the run-off-the-end contract gets exercised. */
std::string
genProgram(sim::Rng &rng)
{
    const unsigned n = 4 + unsigned(rng.below(12));
    std::ostringstream src;
    for (unsigned i = 0; i < n; ++i)
        src << genInst(rng, i, n) << "\n";
    if (rng.below(10) != 0)
        src << "halt\n";
    return src.str();
}

std::string
describe(uint64_t seed, const std::string &src, const VerifyResult &res)
{
    std::ostringstream s;
    s << "seed " << seed << "\n--- program ---\n"
      << src << "--- verifier ---\n"
      << res.report("prog.s", nullptr);
    return s.str();
}

/** FNV-1a over the final data-segment image, tag bits included. */
uint64_t
dataSignature(isa::Machine &machine)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    const uint64_t end = kDataBase + (uint64_t(1) << kDataLenLog2);
    for (uint64_t va = kDataBase; va < end; va += 8) {
        const auto w = machine.mem().tryPeekWord(va);
        if (!w) {
            mix(0x5157ull); // untouched page
            continue;
        }
        mix(w->bits());
        mix(w->isPointer() ? 0x9e3779b9ull : 0x51edull);
    }
    return h;
}

TEST(VerifierDifferential, SoundOverRandomPrograms)
{
    unsigned checked = 0;
    unsigned cleanRuns = 0;
    unsigned mustFaultChecks = 0;

    for (unsigned p = 0; p < kPrograms; ++p) {
        const uint64_t seed = 0xD1FF0000 + p;
        sim::Rng rng(seed);
        const std::string src = genProgram(rng);

        isa::Assembly assembly = isa::assemble(src);
        ASSERT_TRUE(assembly.ok)
            << "seed " << seed << ": " << assembly.error << "\n"
            << src;
        std::vector<Word> words = assembly.words;

        // Occasionally corrupt the image: a garbage opcode or a tagged
        // word in the instruction stream. Both sides see the same
        // image, so the verifier's must-fault verdicts stay testable.
        if (rng.below(16) == 0 && !words.empty()) {
            const size_t idx = rng.below(words.size());
            words[idx] = rng.below(2)
                             ? Word::fromInt(uint64_t(0xff) << 56)
                             : Word::fromRawPointerBits(0x1234);
        }

        // --- static side ---
        VerifyOptions vopts;
        vopts.privileged = false;
        vopts.entryRegs = {
            {1, AbsVal::pointer(Perm::ReadWrite, kDataLenLog2, 0)},
            {2, AbsVal::intConst(0)},
        };
        for (const auto &[name, index] : assembly.labels)
            vopts.leaderHints.push_back(uint32_t(index));
        const VerifyResult res = verifyWords(words, vopts,
                                             &assembly.srcMap);

        // --- dynamic side ---
        isa::MachineConfig cfg;
        cfg.mem.cache.setsPerBank = 64;
        isa::Machine machine(cfg);
        const isa::LoadedProgram prog =
            isa::loadProgram(machine.mem(), kCodeBase, words);
        isa::Thread *t = machine.spawn(prog.execPtr);
        ASSERT_NE(t, nullptr);
        t->setReg(1, isa::dataSegment(kDataBase, kDataLenLog2));
        t->setReg(2, Word::fromInt(0));

        std::set<uint32_t> executed;
        machine.setTraceHook([&](const isa::Thread &th,
                                 const isa::Inst &, uint64_t) {
            const uint64_t a = th.ip().addr();
            if (a >= prog.base && (a - prog.base) / 8 < words.size())
                executed.insert(uint32_t((a - prog.base) / 8));
        });
        machine.run(kMaxCycles);

        if (t->state() == isa::ThreadState::Ready)
            continue; // cycle-limited (rare backward jmp); skip
        ++checked;

        const bool faulted = t->state() == isa::ThreadState::Faulted;
        const Fault fault = t->faultRecord().fault;
        const uint64_t faultAddr = t->faultRecord().ip.addr();

        // Check A: a strictly clean verdict forbids any runtime fault.
        if (res.clean()) {
            ++cleanRuns;
            ASSERT_FALSE(faulted)
                << describe(seed, src, res) << "verified clean but "
                << "faulted: " << faultName(fault) << " at image index "
                << (faultAddr - prog.base) / 8;
        }

        // Check B: every reached must-fault diagnostic coincides with
        // a runtime fault of a declared kind.
        for (const Diag &d : res.diags) {
            if (!d.mustFault() || executed.count(d.index) == 0)
                continue;
            ++mustFaultChecks;
            ASSERT_TRUE(faulted)
                << describe(seed, src, res) << "must-fault at index "
                << d.index << " (" << diagKindName(d.kind)
                << ") but the run finished without faulting";
            if (d.kind == DiagKind::RunOffEnd) {
                EXPECT_EQ(fault, Fault::BoundsViolation)
                    << describe(seed, src, res)
                    << "run-off-end should die of a bounds violation, "
                    << "got " << faultName(fault);
                continue;
            }
            const uint64_t faultIdx = (faultAddr - prog.base) / 8;
            EXPECT_EQ(faultIdx, d.index)
                << describe(seed, src, res) << "must-fault ("
                << diagKindName(d.kind) << ") claimed index " << d.index
                << " but the machine faulted at " << faultIdx << " ("
                << faultName(fault) << ")";
            EXPECT_NE(faultBit(fault) & d.faults, 0)
                << describe(seed, src, res) << "fault kind "
                << faultName(fault) << " not in declared mask "
                << faultMaskNames(d.faults) << " at index " << d.index;
        }
        if (::testing::Test::HasFailure())
            break; // one counterexample is enough; keep the log small
    }

    EXPECT_GE(checked, kRequired)
        << "too many runs hit the cycle budget";
    // The generator must actually exercise both directions of the
    // contract, or the harness is vacuous.
    EXPECT_GT(cleanRuns, 20u);
    EXPECT_GT(mustFaultChecks, 100u);
}

/**
 * The elision arm: every generated program runs twice — full checks
 * vs. --elide-checks=verified with its own proof registered — and the
 * two runs must agree on every architectural observable: thread
 * state, all registers (payload AND tag), the fault record, the
 * retired-instruction count, and the final data-memory image. Only
 * cycle counts may differ (elided pointer ops complete in the fetch
 * shadow).
 */
TEST(VerifierDifferential, ElisionPreservesArchitecturalOutcomes)
{
    uint64_t elidedTotal = 0;

    for (unsigned p = 0; p < kPrograms; ++p) {
        // Same seeds as SoundOverRandomPrograms: identical corpus,
        // including the occasionally corrupted images.
        const uint64_t seed = 0xD1FF0000 + p;
        sim::Rng rng(seed);
        const std::string src = genProgram(rng);

        isa::Assembly assembly = isa::assemble(src);
        ASSERT_TRUE(assembly.ok)
            << "seed " << seed << ": " << assembly.error;
        std::vector<Word> words = assembly.words;
        if (rng.below(16) == 0 && !words.empty()) {
            const size_t idx = rng.below(words.size());
            words[idx] = rng.below(2)
                             ? Word::fromInt(uint64_t(0xff) << 56)
                             : Word::fromRawPointerBits(0x1234);
        }

        VerifyOptions vopts;
        vopts.privileged = false;
        vopts.entryRegs = {
            {1, AbsVal::pointer(Perm::ReadWrite, kDataLenLog2, 0)},
            {2, AbsVal::intConst(0)},
        };
        for (const auto &[name, index] : assembly.labels)
            vopts.leaderHints.push_back(uint32_t(index));
        const VerifyResult res = verifyWords(words, vopts,
                                             &assembly.srcMap);
        const isa::ElideProof proof =
            makeElideProof(res, words, false, kCodeBase);

        struct Arm
        {
            isa::ThreadState state{};
            Fault fault = Fault::None;
            uint64_t faultAddr = 0;
            std::vector<uint64_t> regs;
            uint64_t signature = 0;
            uint64_t instructions = 0;
            uint64_t elided = 0;
        };
        auto runArm = [&](bool elide) -> Arm {
            isa::MachineConfig cfg;
            cfg.mem.cache.setsPerBank = 64;
            isa::Machine machine(cfg);
            const isa::LoadedProgram prog =
                isa::loadProgram(machine.mem(), kCodeBase, words);
            if (elide)
                machine.registerElideProof(proof);
            isa::Thread *t = machine.spawn(prog.execPtr);
            EXPECT_NE(t, nullptr);
            t->setReg(1, isa::dataSegment(kDataBase, kDataLenLog2));
            t->setReg(2, Word::fromInt(0));
            machine.run(kMaxCycles);
            Arm a;
            a.state = t->state();
            a.fault = t->faultRecord().fault;
            a.faultAddr = t->faultRecord().ip.addr();
            for (unsigned r = 0; r < isa::kNumRegs; ++r) {
                a.regs.push_back(t->reg(r).bits());
                a.regs.push_back(t->reg(r).isPointer() ? 1 : 0);
            }
            a.signature = dataSignature(machine);
            a.instructions = machine.stats().get("instructions");
            a.elided = machine.stats().get("elide_checks_elided");
            return a;
        };

        const Arm off = runArm(false);
        const Arm on = runArm(true);
        elidedTotal += on.elided;

        ASSERT_EQ(unsigned(off.state), unsigned(on.state))
            << describe(seed, src, res)
            << "elision changed the final thread state";
        ASSERT_EQ(off.regs, on.regs)
            << describe(seed, src, res)
            << "elision changed a register (payload or tag)";
        ASSERT_EQ(off.signature, on.signature)
            << describe(seed, src, res)
            << "elision changed the final data-memory image";
        ASSERT_EQ(off.instructions, on.instructions)
            << describe(seed, src, res)
            << "elision changed the retired-instruction count";
        if (off.state == isa::ThreadState::Faulted) {
            ASSERT_EQ(unsigned(off.fault), unsigned(on.fault))
                << describe(seed, src, res)
                << "elision changed the fault kind";
            ASSERT_EQ(off.faultAddr, on.faultAddr)
                << describe(seed, src, res)
                << "elision changed the faulting IP";
        }
        if (::testing::Test::HasFailure())
            break;
    }

    // The arm is vacuous if the corpus never actually elides checks.
    EXPECT_GT(elidedTotal, 1000u);
}

/** Corpus program @p p: the same seeds, source, and occasional image
 * corruption as every other arm of this harness. */
std::vector<Word>
corpusProgram(unsigned p, std::string *src_out = nullptr)
{
    sim::Rng rng(0xD1FF0000 + p);
    const std::string src = genProgram(rng);
    isa::Assembly assembly = isa::assemble(src);
    EXPECT_TRUE(assembly.ok) << "program " << p << ": " << assembly.error;
    std::vector<Word> words = assembly.words;
    if (rng.below(16) == 0 && !words.empty()) {
        const size_t idx = rng.below(words.size());
        words[idx] = rng.below(2) ? Word::fromInt(uint64_t(0xff) << 56)
                                  : Word::fromRawPointerBits(0x1234);
    }
    if (src_out)
        *src_out = src;
    return words;
}

/** The gpsim entry convention: r1 = data segment, r2 = integer 0. */
void
setEntryRegs(isa::Thread &t)
{
    t.setReg(1, isa::dataSegment(kDataBase, kDataLenLog2));
    t.setReg(2, Word::fromInt(0));
}

/**
 * Blessed FNV-1a digest of the whole corpus run through the timed
 * machine — final state, fault kind, faulting IP and cycle, machine
 * cycles, retired instructions, registers with tags, and data image
 * of every program, each run twice (the second pass re-executes the
 * image over a warm predecode array). Recorded from the interpreter
 * that preceded the single dispatcher, so this arm enforces cycle
 * identity over the random corpus.
 */
constexpr uint64_t kCorpusDigest = 0x8b67468d2d6ead78ull;

TEST(VerifierDifferential, CorpusDigestMatchesBlessed)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    for (unsigned p = 0; p < kPrograms; ++p) {
        const std::vector<Word> words = corpusProgram(p);
        isa::MachineConfig cfg;
        cfg.mem.cache.setsPerBank = 64;
        isa::Machine machine(cfg);
        const isa::LoadedProgram prog =
            isa::loadProgram(machine.mem(), kCodeBase, words);
        for (unsigned pass = 0; pass < 2; ++pass) {
            isa::Thread *t = machine.spawn(prog.execPtr);
            ASSERT_NE(t, nullptr);
            setEntryRegs(*t);
            machine.run(kMaxCycles);
            mix(uint64_t(t->state()));
            mix(uint64_t(t->faultRecord().fault));
            mix(t->faultRecord().ip.addr());
            mix(t->faultRecord().cycle);
            for (unsigned r = 0; r < isa::kNumRegs; ++r) {
                mix(t->reg(r).bits());
                mix(t->reg(r).isPointer() ? 1 : 0);
            }
        }
        mix(machine.cycle());
        mix(machine.stats().get("instructions"));
        mix(dataSignature(machine));
    }
    EXPECT_EQ(h, kCorpusDigest)
        << "the corpus no longer runs cycle-for-cycle as blessed";
}

/**
 * The reference arm: every corpus program runs on the timed machine
 * and on the small reference interpreter (reference_interp.h), which
 * has no timing, caches, predecode, IP proof, or elision. The two
 * must agree on every architectural observable: final state, fault
 * kind and IP, registers with tags, executed instructions, and the
 * data image.
 */
TEST(VerifierDifferential, ReferenceInterpreterAgrees)
{
    unsigned compared = 0;
    for (unsigned p = 0; p < kPrograms; ++p) {
        std::string src;
        const std::vector<Word> words = corpusProgram(p, &src);

        isa::MachineConfig cfg;
        cfg.mem.cache.setsPerBank = 64;
        isa::Machine machine(cfg);
        const isa::LoadedProgram prog =
            isa::loadProgram(machine.mem(), kCodeBase, words);
        isa::Thread *t = machine.spawn(prog.execPtr);
        ASSERT_NE(t, nullptr);
        setEntryRegs(*t);
        machine.run(kMaxCycles);
        if (t->state() == isa::ThreadState::Ready)
            continue; // cycle-limited (rare backward jmp); skip
        ++compared;

        RefMemory mem;
        for (size_t i = 0; i < words.size(); ++i)
            mem[kCodeBase + 8 * i] = words[i];
        Word regs[isa::kNumRegs];
        regs[1] = isa::dataSegment(kDataBase, kDataLenLog2);
        regs[2] = Word::fromInt(0);
        const RefOutcome ref =
            runReference(mem, prog.execPtr, regs, kMaxCycles);

        const std::string what = "program " + std::to_string(p) + "\n" +
                                 src + "reference disagrees on ";
        ASSERT_EQ(unsigned(t->state()), unsigned(ref.state))
            << what << "the final state";
        ASSERT_EQ(unsigned(t->faultRecord().fault), unsigned(ref.fault))
            << what << "the fault kind";
        if (ref.state == isa::ThreadState::Faulted) {
            ASSERT_EQ(t->faultRecord().ip.addr(), ref.faultAddr)
                << what << "the faulting IP";
        }
        ASSERT_EQ(machine.stats().get("instructions"), ref.instructions)
            << what << "the instruction count";
        for (unsigned r = 0; r < isa::kNumRegs; ++r)
            ASSERT_TRUE(t->reg(r) == ref.regs[r])
                << what << "r" << r;
        for (uint64_t va = kDataBase;
             va < kDataBase + (uint64_t(1) << kDataLenLog2); va += 8) {
            const auto w = machine.mem().tryPeekWord(va);
            auto it = mem.find(va);
            ASSERT_TRUE((w ? *w : Word{}) ==
                        (it == mem.end() ? Word{} : it->second))
                << what << "the data word at 0x" << std::hex << va;
        }
    }
    EXPECT_GE(compared, kRequired);
}

/**
 * The fast arm: every corpus program runs timed and in functional-
 * only --fast mode (twice each, the second pass over a warm predecode
 * array). --fast must agree on everything architectural (state, fault
 * record, registers with tags, retired instructions, final data
 * image) with only the cycle count firewalled out.
 */
TEST(VerifierDifferential, FastModePreservesOutcomes)
{
    for (unsigned p = 0; p < kPrograms; ++p) {
        std::string src;
        const std::vector<Word> words = corpusProgram(p, &src);

        struct Arm
        {
            std::vector<uint64_t> state; //!< state, fault, IP, regs
            uint64_t signature = 0;
            uint64_t instructions = 0;
        };
        auto runArm = [&](bool fast) -> Arm {
            isa::MachineConfig cfg;
            cfg.mem.cache.setsPerBank = 64;
            cfg.fastMode = fast;
            isa::Machine machine(cfg);
            const isa::LoadedProgram prog =
                isa::loadProgram(machine.mem(), kCodeBase, words);
            Arm a;
            for (unsigned pass = 0; pass < 2; ++pass) {
                isa::Thread *t = machine.spawn(prog.execPtr);
                EXPECT_NE(t, nullptr);
                setEntryRegs(*t);
                machine.run(kMaxCycles);
                a.state.push_back(uint64_t(t->state()));
                a.state.push_back(uint64_t(t->faultRecord().fault));
                a.state.push_back(t->faultRecord().ip.addr());
                for (unsigned r = 0; r < isa::kNumRegs; ++r) {
                    a.state.push_back(t->reg(r).bits());
                    a.state.push_back(t->reg(r).isPointer() ? 1 : 0);
                }
            }
            a.signature = dataSignature(machine);
            a.instructions = machine.stats().get("instructions");
            return a;
        };

        const Arm timed = runArm(false);
        const Arm fast = runArm(true);
        ASSERT_EQ(timed.state, fast.state)
            << "program " << p << "\n"
            << src << "--fast changed the state, fault, or a register";
        ASSERT_EQ(timed.signature, fast.signature)
            << "program " << p << "\n"
            << src << "--fast changed the data image";
        ASSERT_EQ(timed.instructions, fast.instructions)
            << "program " << p << "\n"
            << src << "--fast changed the instruction count";
    }
}

} // namespace
} // namespace gp::verify
