/**
 * @file
 * Verifier-driven check elision: the machine skips checks proven in
 * the same process without changing architectural outcomes, and every
 * soundness guard — bits binding, privilege matching, proof clearing,
 * and the two runtime gates (an armed fault injector, an installed
 * fault handler) — holds.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "isa/assembler.h"
#include "isa/elide.h"
#include "isa/loader.h"
#include "isa/machine.h"
#include "sim/faultinject.h"
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
    uint64_t injected = 0;
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

/// A runtime mechanism that must close the elision gate.
enum class Gate
{
    Open,     //!< nothing installed: proven checks are elided
    Injector, //!< a FaultInjector armed (every rate zero)
    Flipping, //!< a FaultInjector flipping stored data bits
    Handler,  //!< a software FaultHandler installed
};

RunOutcome
runProgram(const std::string &src, bool elide,
           const ElideProof *proof = nullptr, bool clearProofs = false,
           Gate gate = Gate::Open)
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
    auto &inj = sim::FaultInjector::instance();
    if (gate == Gate::Injector)
        inj.arm(sim::FaultConfig{});
    if (gate == Gate::Flipping) {
        sim::FaultConfig fc;
        fc.seed = 7;
        fc.rate[unsigned(sim::FaultSite::MemDataBit)] = 0.05;
        inj.arm(fc);
        mem::TaggedMemory &phys = machine.mem().phys();
        inj.setTickTarget(sim::FaultSite::MemDataBit,
                          [&phys](sim::Rng &rng) {
                              const auto addrs = phys.wordAddrs();
                              return !addrs.empty() &&
                                     phys.flipStoredBit(
                                         addrs[rng.below(addrs.size())],
                                         unsigned(rng.below(64)));
                          });
    }
    if (gate == Gate::Handler)
        machine.setFaultHandler([](Thread &, const FaultRecord &) {
            return FaultAction::Terminate;
        });
    machine.run(100000);
    const uint64_t injected = inj.injectedTotal();
    inj.disarm();

    RunOutcome out;
    out.injected = injected;
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

/// Both runtime gates: with a proof registered that elides every
/// check when the gate is open, an armed fault injector or an
/// installed fault handler must run every check in full and end in the
/// architectural state of a run with no proof at all.
void
expectGateRunsFullChecks(Gate gate)
{
    const RunOutcome base = runProgram(kProvableLoop, false);
    const RunOutcome open =
        runProgram(kProvableLoop, true, nullptr, false, Gate::Open);
    ASSERT_GT(open.elided, 0u) << "the proof must elide when open";

    const RunOutcome shut =
        runProgram(kProvableLoop, true, nullptr, false, gate);
    EXPECT_EQ(shut.elided, 0u);
    EXPECT_GT(shut.executed, 0u);
    EXPECT_EQ(shut.executed, open.elided + open.executed);
    EXPECT_EQ(shut.cyclesSaved, 0u);
    EXPECT_EQ(shut.state, base.state);
    EXPECT_EQ(shut.fault, base.fault);
    EXPECT_EQ(shut.regBits, base.regBits);
}

TEST(ElideMachine, ArmedInjectorRunsFullChecks)
{
    expectGateRunsFullChecks(Gate::Injector);
}

TEST(ElideMachine, FaultHandlerRunsFullChecks)
{
    expectGateRunsFullChecks(Gate::Handler);
}

TEST(ElideMachine, InjectedFaultsIdenticalWithProof)
{
    // Live bit flips under the same seed: a registered proof elides
    // nothing, so the flips land on the same words at the same cycles
    // and the run ends exactly as it does with no proof.
    const RunOutcome base =
        runProgram(kProvableLoop, false, nullptr, false, Gate::Flipping);
    const RunOutcome proven =
        runProgram(kProvableLoop, true, nullptr, false, Gate::Flipping);
    ASSERT_GT(base.injected, 0u) << "the injector must fire";
    EXPECT_EQ(proven.injected, base.injected);
    EXPECT_EQ(proven.elided, 0u);
    EXPECT_EQ(proven.cyclesSaved, 0u);
    EXPECT_EQ(proven.state, base.state);
    EXPECT_EQ(proven.fault, base.fault);
    EXPECT_EQ(proven.regBits, base.regBits);
}

} // namespace
} // namespace gp::isa
