/**
 * @file
 * Verifier-driven check elision (ISSUE 7 tentpole): the proof sidecar
 * round-trips, the machine skips proven checks without changing
 * architectural outcomes, and every soundness guard — bits binding,
 * privilege matching, config gating, injector re-arm — holds.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/campaign.h"
#include "isa/assembler.h"
#include "isa/elide.h"
#include "isa/loader.h"
#include "isa/machine.h"
#include "verify/verifier.h"

namespace gp::isa {
namespace {

constexpr uint64_t kCodeBase = uint64_t(1) << 24;
constexpr uint64_t kDataBase = uint64_t(1) << 30;
constexpr uint64_t kDataLenLog2 = 12;
constexpr uint64_t kDataBytes = uint64_t(1) << kDataLenLog2;

/// Loop over provably in-bounds loads/stores plus pointer arithmetic:
/// every capability check is statically discharged, so the elide
/// machine should skip all of them.
const char *kProvableLoop = R"(
    movi r10, 0
    movi r11, 8
loop:
    ld r3, 0(r1)
    addi r3, r3, 1
    st r3, 8(r1)
    leai r4, r1, 16
    addi r10, r10, 1
    bne r10, r11, loop
    halt
)";

struct RunOutcome
{
    ThreadState state = ThreadState::Ready;
    Fault fault = Fault::None;
    std::vector<uint64_t> regBits;
    uint64_t elided = 0;
    uint64_t executed = 0;
    uint64_t cyclesSaved = 0;
};

ElideProof
proofFor(const Assembly &assembly, bool privileged = false)
{
    verify::VerifyOptions vopts;
    vopts.privileged = privileged;
    vopts.entryRegs = verify::defaultEntryRegs(kDataBytes);
    const verify::VerifyResult res =
        verify::verifyProgram(assembly, vopts);
    return verify::makeElideProof(res, assembly.words, privileged,
                                  kCodeBase);
}

RunOutcome
runProgram(const std::string &src, bool elide,
           const ElideProof *proof = nullptr, bool clearProofs = false)
{
    Assembly assembly = assemble(src);
    EXPECT_TRUE(assembly.ok) << assembly.error;

    MachineConfig cfg;
    cfg.mem.cache.setsPerBank = 64;
    Machine machine(cfg);
    if (proof)
        machine.registerElideProof(*proof);
    else if (elide)
        machine.registerElideProof(proofFor(assembly));
    if (clearProofs)
        machine.clearElideProofs();

    const LoadedProgram prog =
        loadProgram(machine.mem(), kCodeBase, assembly.words, false);
    Thread *t = machine.spawn(prog.execPtr);
    EXPECT_NE(t, nullptr);
    t->setReg(1, dataSegment(kDataBase, kDataLenLog2));
    machine.run(100000);

    RunOutcome out;
    out.state = t->state();
    out.fault = t->faultRecord().fault;
    for (unsigned i = 0; i < kNumRegs; ++i) {
        out.regBits.push_back(t->reg(i).bits());
        out.regBits.push_back(t->reg(i).isPointer());
    }
    out.elided = machine.stats().get("elide_checks_elided");
    out.executed = machine.stats().get("elide_checks_executed");
    out.cyclesSaved = machine.stats().get("elide_cycles_saved");
    return out;
}

TEST(ElideProofFormat, VerdictNames)
{
    EXPECT_EQ(verdictNames(0), "none");
    EXPECT_EQ(verdictNames(kElideBoundsSafe), "bounds");
    EXPECT_EQ(verdictNames(kElideBoundsSafe | kElidePermSafe |
                           kElideAlignSafe | kElideNeverFaults),
              "bounds,perm,align,never-faults");
    EXPECT_EQ(verdictNames(kElideNeverFaults | kElidePrivileged),
              "never-faults,priv");
}

TEST(ElideProofFormat, SerializeParseRoundTrip)
{
    ElideProof proof;
    proof.base = kCodeBase;
    proof.privileged = true;
    proof.bits = {0x1234567890abcdefull, 0, ~0ull};
    proof.verdicts = {0x0f, 0x00, 0x03};

    const std::string text = serializeProof(proof);
    EXPECT_NE(text.find("gpproof 1"), std::string::npos);

    ElideProof back;
    std::string err;
    ASSERT_TRUE(parseProof(text, back, &err)) << err;
    EXPECT_EQ(back.base, proof.base);
    EXPECT_EQ(back.privileged, proof.privileged);
    EXPECT_EQ(back.bits, proof.bits);
    EXPECT_EQ(back.verdicts, proof.verdicts);
}

TEST(ElideProofFormat, ParseRejectsBadInput)
{
    ElideProof out;
    std::string err;
    EXPECT_FALSE(parseProof("", out, &err));
    EXPECT_FALSE(parseProof("not a proof\n", out, &err));
    // Version mismatch must be refused, not silently accepted.
    EXPECT_FALSE(parseProof("gpproof 999\nbase 0\nprivileged 0\n"
                            "insts 0\nend\n",
                            out, &err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
    // Truncated body (missing instruction lines).
    EXPECT_FALSE(parseProof("gpproof 1\nbase 0\nprivileged 0\n"
                            "insts 2\nend\n",
                            out, &err));
    // The count is input, never an allocation size: a huge one is a
    // truncated body like any other, not an exception.
    EXPECT_FALSE(parseProof("gpproof 1\nbase 0\nprivileged 0\n"
                            "insts 1000000000000000\nend\n",
                            out, &err));
    EXPECT_NE(err.find("truncated"), std::string::npos) << err;
}

TEST(ElideMachine, ProvenChecksSkippedWithIdenticalOutcome)
{
    const RunOutcome base = runProgram(kProvableLoop, false);
    const RunOutcome elide = runProgram(kProvableLoop, true);

    // Architectural state is bit-identical either way.
    EXPECT_EQ(base.state, elide.state);
    EXPECT_EQ(base.fault, elide.fault);
    EXPECT_EQ(base.regBits, elide.regBits);
    EXPECT_EQ(base.state, ThreadState::Halted);

    // Baseline never touches the elide counters; the proof-armed run
    // skips real check work and banks simulated cycles.
    EXPECT_EQ(base.elided, 0u);
    EXPECT_EQ(base.executed, 0u);
    EXPECT_EQ(base.cyclesSaved, 0u);
    EXPECT_GT(elide.elided, 0u);
    EXPECT_GT(elide.cyclesSaved, 0u);
}

TEST(ElideMachine, ClearedProofsElideNothing)
{
    // Registering a proof is what turns elision on; clearing the
    // proofs turns it, and the elide_checks_* counting, off again.
    const RunOutcome base = runProgram(kProvableLoop, false);
    const RunOutcome cleared =
        runProgram(kProvableLoop, true, nullptr, true);
    EXPECT_EQ(cleared.state, ThreadState::Halted);
    EXPECT_EQ(cleared.regBits, base.regBits);
    EXPECT_EQ(cleared.elided, 0u);
    EXPECT_EQ(cleared.executed, 0u);
    EXPECT_EQ(cleared.cyclesSaved, 0u);
}

TEST(ElideMachine, BitsMismatchReArmsFullChecks)
{
    Assembly assembly = assemble(kProvableLoop);
    ASSERT_TRUE(assembly.ok) << assembly.error;

    // A proof bound to different instruction bits (code drifted since
    // verification) must never license elision.
    ElideProof stale = proofFor(assembly);
    for (uint64_t &b : stale.bits)
        b ^= 1;

    const RunOutcome out = runProgram(kProvableLoop, true, &stale);
    EXPECT_EQ(out.state, ThreadState::Halted);
    EXPECT_EQ(out.elided, 0u);
    EXPECT_GT(out.executed, 0u);
    EXPECT_EQ(out.cyclesSaved, 0u);
}

TEST(ElideMachine, PrivilegeMismatchFallsBack)
{
    Assembly assembly = assemble(kProvableLoop);
    ASSERT_TRUE(assembly.ok) << assembly.error;

    // Proof established under privileged execution, program running
    // unprivileged: the kElidePrivileged bit must block elision.
    const ElideProof privProof = proofFor(assembly, true);
    const RunOutcome out = runProgram(kProvableLoop, true, &privProof);
    EXPECT_EQ(out.state, ThreadState::Halted);
    EXPECT_EQ(out.elided, 0u);
}

TEST(ElideMachine, SelfModifyingCodeDropsVerdicts)
{
    // First image: the proof is established for these exact words.
    Assembly first = assemble(R"(
    movi r10, 0
    movi r11, 8
loop:
    ld r3, 0(r1)
    addi r3, r3, 1
    st r3, 8(r1)
    leai r4, r1, 16
    addi r10, r10, 1
    bne r10, r11, loop
    movi r6, 3
    halt
)");
    ASSERT_TRUE(first.ok) << first.error;
    // Second image: every *executed* word differs from the first
    // image's word at the same index (registers and immediates all
    // changed; the final halt sits one slot earlier, leaving the old
    // halt word unreached). No rewritten instruction may elide.
    Assembly second = assemble(R"(
    movi r12, 0
    movi r13, 4
loop:
    ld r5, 8(r1)
    addi r5, r5, 2
    st r5, 16(r1)
    leai r7, r1, 24
    addi r12, r12, 1
    bne r12, r13, loop
    halt
    halt
)");
    ASSERT_TRUE(second.ok) << second.error;
    ASSERT_EQ(first.words.size(), second.words.size());
    for (size_t i = 0; i + 1 < first.words.size(); ++i)
        ASSERT_NE(first.words[i].bits(), second.words[i].bits()) << i;

    MachineConfig cfg;
    cfg.mem.cache.setsPerBank = 64;
    Machine machine(cfg);
    machine.registerElideProof(proofFor(first));

    const LoadedProgram prog =
        loadProgram(machine.mem(), kCodeBase, first.words, false);
    Thread *t = machine.spawn(prog.execPtr);
    ASSERT_NE(t, nullptr);
    t->setReg(1, dataSegment(kDataBase, kDataLenLog2));
    machine.run(100000);
    EXPECT_EQ(t->state(), ThreadState::Halted);
    const uint64_t elidedFirst =
        machine.stats().get("elide_checks_elided");
    EXPECT_GT(elidedFirst, 0u);

    // Overwrite the code image in place. The predecode cache
    // revalidates raw bits on every fetch, so the stale verdicts die
    // with the old bits: the rewritten instructions run full checks.
    for (size_t i = 0; i < second.words.size(); ++i)
        machine.mem().pokeWord(kCodeBase + 8 * i, second.words[i]);

    Thread *t2 = machine.spawn(prog.execPtr);
    ASSERT_NE(t2, nullptr);
    t2->setReg(1, dataSegment(kDataBase, kDataLenLog2));
    machine.run(100000);
    EXPECT_EQ(t2->state(), ThreadState::Halted);
    EXPECT_EQ(machine.stats().get("elide_checks_elided"), elidedFirst)
        << "rewritten code must not inherit the old proof's verdicts";
    EXPECT_GT(machine.stats().get("elide_checks_executed"), 0u);
}

TEST(ElideCampaign, OutcomeTableIdenticalWithElision)
{
    fault::CampaignConfig cc;
    cc.runs = 12;
    cc.seed = 7;
    cc.iterations = 40;
    cc.faults.rate[static_cast<unsigned>(
        sim::FaultSite::MemDataBit)] = 2e-4;

    fault::CampaignConfig ccElide = cc;
    ccElide.elideChecks = true;

    fault::CampaignRunner off(cc);
    fault::CampaignRunner on(ccElide);
    const fault::CampaignTotals a = off.runAll();
    const fault::CampaignTotals b = on.runAll();

    // Injected runs auto-disable elision, so the whole taxonomy — and
    // the per-run records behind it — must be bit-identical.
    EXPECT_EQ(a.goldenCycles, b.goldenCycles);
    for (unsigned o = 0; o < fault::kOutcomeCount; ++o)
        EXPECT_EQ(a.perOutcome[o], b.perOutcome[o])
            << outcomeName(fault::Outcome(o));
    EXPECT_EQ(a.totalInjections, b.totalInjections);
    ASSERT_EQ(off.results().size(), on.results().size());
    for (size_t i = 0; i < off.results().size(); ++i) {
        EXPECT_EQ(off.results()[i].signature,
                  on.results()[i].signature)
            << "run " << i;
        EXPECT_EQ(off.results()[i].firstFault,
                  on.results()[i].firstFault)
            << "run " << i;
    }
}

} // namespace
} // namespace gp::isa
