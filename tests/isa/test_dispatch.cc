/**
 * @file
 * Tests for the machine's single dispatcher: one handler table over
 * the predecoded-instruction array, with fetch checks elided under a
 * per-thread IP proof.
 *
 * Every expectation here is either hand-computed or blessed: the
 * cycle counts, fault records, and register values were recorded from
 * the previous interpreter and must not move — host-side dispatch
 * work is the only thing the dispatcher may change. Invalidation must
 * never be needed for correctness: every predecode hit re-validates
 * its raw bits against the always-performed timed fetch, so
 * self-modifying code and reloads re-decode on the very same fetch.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gp/ops.h"
#include "isa/assembler.h"
#include "isa/loader.h"
#include "isa/machine.h"
#include "verify/verifier.h"

namespace gp::isa {
namespace {

constexpr uint64_t kCodeBase = uint64_t(1) << 24;
constexpr uint64_t kDataBase = uint64_t(1) << 30;

/** Everything observable about a finished single-thread run. */
struct Outcome
{
    ThreadState state = ThreadState::Idle;
    Fault fault = Fault::None;
    uint64_t faultCycle = 0;
    uint64_t faultAddr = 0;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    std::array<uint64_t, kNumRegs> regs{};
};

MachineConfig
baseConfig()
{
    MachineConfig cfg;
    cfg.mem.cache.setsPerBank = 64;
    return cfg;
}

Outcome
outcomeOf(Machine &machine, const Thread &t)
{
    Outcome o;
    o.state = t.state();
    if (o.state == ThreadState::Faulted) {
        o.fault = t.faultRecord().fault;
        o.faultCycle = t.faultRecord().cycle;
        o.faultAddr = t.faultRecord().ip.addr();
    }
    o.cycles = machine.cycle();
    o.instructions = machine.stats().get("instructions");
    for (unsigned r = 0; r < kNumRegs; ++r)
        o.regs[r] = t.reg(r).bits();
    return o;
}

/** Assemble @p src at kCodeBase, spawn one thread with @p regs, run. */
Outcome
runWith(const MachineConfig &cfg, const std::string &src,
        const std::vector<std::pair<unsigned, Word>> &regs = {},
        std::unique_ptr<Machine> *machine_out = nullptr)
{
    auto machine = std::make_unique<Machine>(cfg);
    Assembly a = assemble(src);
    EXPECT_TRUE(a.ok) << a.error;
    LoadedProgram prog =
        loadProgram(machine->mem(), kCodeBase, a.words);
    Thread *t = machine->spawn(prog.execPtr);
    EXPECT_NE(t, nullptr);
    for (const auto &[i, w] : regs)
        t->setReg(i, w);
    machine->run(500000);
    const Outcome o = outcomeOf(*machine, *t);
    if (machine_out)
        *machine_out = std::move(machine);
    return o;
}

/** A hot loop covering the ALU, load/store, LEA, and branch
 * handlers. */
constexpr const char *kHotLoop = R"(
    movi r3, 0
    movi r4, 0
    movi r5, 200
loop:
    addi r3, r3, 7
    andi r6, r3, 255
    shli r6, r6, 3
    lea r7, r1, r6
    st r3, 0(r7)
    ld r8, 0(r7)
    add r4, r4, r8
    leai r9, r1, 8
    ld r9, 0(r9)
    xor r4, r4, r9
    addi r5, r5, -1
    bne r5, r0, loop
    halt
)";
constexpr uint64_t kHotLoopStatic = 16; //!< static instructions

/** r7 walks off a 16-byte segment: the 3rd LEA raises
 * BoundsViolation. */
constexpr const char *kFaulting = R"(
    movi r3, 0
loop:
    shli r7, r3, 3
    lea r8, r1, r7
    st r3, 0(r8)
    addi r3, r3, 1
    beq r0, r0, loop
)";

std::vector<std::pair<unsigned, Word>>
dataRegs(uint64_t len_log2 = 12)
{
    auto seg = makePointer(Perm::ReadWrite, len_log2, kDataBase);
    EXPECT_TRUE(seg);
    return {{1, seg.value}};
}

/** Expected kHotLoop outcome (blessed). */
void
expectHotLoop(const Outcome &o)
{
    EXPECT_EQ(o.state, ThreadState::Halted);
    EXPECT_EQ(o.cycles, 5459u);
    EXPECT_EQ(o.instructions, 3u + 200u * 12u + 1u);
    EXPECT_EQ(o.regs[3], 1400u); // 200 * 7, hand-computed
    EXPECT_EQ(o.regs[4], 144284u);
}

TEST(Dispatch, HotLoopMatchesBlessedOutcome)
{
    std::unique_ptr<Machine> m;
    const Outcome o = runWith(baseConfig(), kHotLoop, dataRegs(), &m);
    expectHotLoop(o);
    // One predecode lookup per issue: each static instruction misses
    // exactly once, every other execution hits.
    EXPECT_EQ(m->stats().get("predecode_misses"), kHotLoopStatic);
    EXPECT_EQ(m->stats().get("predecode_hits"),
              o.instructions - kHotLoopStatic);
}

TEST(Dispatch, FaultTimingAndKind)
{
    const Outcome o = runWith(baseConfig(), kFaulting, dataRegs(4));
    EXPECT_EQ(o.state, ThreadState::Faulted);
    EXPECT_EQ(o.fault, Fault::BoundsViolation);
    EXPECT_EQ(o.faultCycle, 91u);
    EXPECT_EQ(o.faultAddr, kCodeBase + 2 * 8); // the lea
    EXPECT_EQ(o.cycles, 92u);
    EXPECT_EQ(o.instructions, 13u);
    EXPECT_EQ(o.regs[3], 2u);
}

TEST(Dispatch, SelfModifyingCodeReDecodedOnSameFetch)
{
    // The program patches an instruction inside its own already-
    // predecoded body through an RW alias, then re-executes it. The
    // slot's raw-bits re-validation must miss and re-decode the word
    // the fetch returned — a stale decode would replay
    // "addi r1, r1, 1" and finish with 2.
    constexpr const char *kSmc = R"(
        movi r1, 0
        movi r10, 0
        movi r11, 1
        ld r4, 0(r5)
        addi r1, r1, 1
        bne r10, r11, cont
        halt
        cont:
        st r4, 0(r2)
        movi r10, 1
        jmp r6
    )";
    auto machine = std::make_unique<Machine>(baseConfig());
    Assembly a = assemble(kSmc);
    ASSERT_TRUE(a.ok) << a.error;
    LoadedProgram prog =
        loadProgram(machine->mem(), kCodeBase, a.words);

    Assembly patch = assemble("addi r1, r1, 100");
    ASSERT_TRUE(patch.ok) << patch.error;
    const uint64_t patch_addr = uint64_t(1) << 22;
    machine->mem().pokeWord(patch_addr, patch.words[0]);

    const uint64_t target_addr = prog.execPtr.addr() + 4 * 8;
    auto rw_code = makePointer(Perm::ReadWrite, 12, target_addr);
    ASSERT_TRUE(rw_code);
    auto rw_patch = makePointer(Perm::ReadWrite, 12, patch_addr);
    ASSERT_TRUE(rw_patch);
    auto exec_target = lea(prog.execPtr, 4 * 8);
    ASSERT_TRUE(exec_target);

    Thread *t = machine->spawn(prog.execPtr);
    ASSERT_NE(t, nullptr);
    t->setReg(2, rw_code.value);
    t->setReg(5, rw_patch.value);
    t->setReg(6, exec_target.value);
    machine->run(200000);

    ASSERT_EQ(t->state(), ThreadState::Halted)
        << faultName(t->faultRecord().fault);
    EXPECT_EQ(t->reg(1).bits(), 101u)
        << "stale predecode replayed the pre-patch instruction";
    EXPECT_EQ(machine->cycle(), 99u);
    // 10 static words plus the patched one, re-decoded in place.
    EXPECT_EQ(machine->stats().get("predecode_misses"), 11u);
}

TEST(Dispatch, ReloadAtSameAddressReDecoded)
{
    auto machine = std::make_unique<Machine>(baseConfig());

    Assembly first = assemble("movi r1, 1\nmovi r2, 2\nhalt\n");
    ASSERT_TRUE(first.ok);
    LoadedProgram p1 =
        loadProgram(machine->mem(), kCodeBase, first.words);
    Thread *t1 = machine->spawn(p1.execPtr);
    machine->run(100000);
    ASSERT_EQ(t1->state(), ThreadState::Halted);
    EXPECT_EQ(t1->reg(1).bits(), 1u);

    Assembly second = assemble("movi r1, 9\nmovi r2, 8\nhalt\n");
    ASSERT_TRUE(second.ok);
    LoadedProgram p2 =
        loadProgram(machine->mem(), p1.execPtr.addr(), second.words);
    Thread *t2 = machine->spawn(p2.execPtr);
    machine->run(100000);
    ASSERT_EQ(t2->state(), ThreadState::Halted);
    EXPECT_EQ(t2->reg(1).bits(), 9u)
        << "reload at the same base must invalidate by re-validation";
    EXPECT_EQ(t2->reg(2).bits(), 8u);
    EXPECT_EQ(machine->stats().get("predecode_misses"), 5u);
}

TEST(Dispatch, FlushPredecodeForcesColdDecode)
{
    std::unique_ptr<Machine> m;
    const Outcome o = runWith(baseConfig(), kHotLoop, dataRegs(), &m);
    ASSERT_EQ(o.state, ThreadState::Halted);
    ASSERT_EQ(m->stats().get("predecode_misses"), kHotLoopStatic);
    m->flushPredecode();

    // A second run over the same image after the flush decodes every
    // static instruction afresh and computes the same result.
    auto code = makePointer(Perm::ExecuteUser, 7, kCodeBase);
    ASSERT_TRUE(code);
    Thread *t = m->spawn(code.value);
    ASSERT_NE(t, nullptr);
    t->setReg(1, dataRegs()[0].second);
    m->run(500000);
    EXPECT_EQ(t->state(), ThreadState::Halted);
    EXPECT_EQ(t->reg(3).bits(), 1400u);
    EXPECT_EQ(m->stats().get("predecode_misses"), 2 * kHotLoopStatic);
}

TEST(Dispatch, ComposesWithElideVerdicts)
{
    // Check elision over the dispatcher: a registered proof elides
    // the proven checks, the per-event accounting is pinned, and the
    // architectural outcome matches the full-check run.
    Assembly a = assemble(kHotLoop);
    ASSERT_TRUE(a.ok) << a.error;
    verify::VerifyOptions vopts;
    vopts.entryRegs = verify::defaultEntryRegs(4096);
    const ElideProof proof = verify::makeElideProof(
        verify::verifyProgram(a, vopts), a.words, false, kCodeBase);

    Machine machine(baseConfig());
    LoadedProgram prog = loadProgram(machine.mem(), kCodeBase, a.words);
    machine.registerElideProof(proof);
    Thread *t = machine.spawn(prog.execPtr);
    ASSERT_NE(t, nullptr);
    t->setReg(1, dataRegs()[0].second);
    machine.run(500000);
    const Outcome o = outcomeOf(machine, *t);

    EXPECT_EQ(o.state, ThreadState::Halted);
    EXPECT_EQ(o.regs[3], 1400u);
    EXPECT_EQ(o.regs[4], 144284u);
    EXPECT_EQ(o.instructions, 3u + 200u * 12u + 1u);
    EXPECT_EQ(o.cycles, 5259u); // 200 elided pointer-op tails fewer
    EXPECT_EQ(machine.stats().get("elide_checks_elided"), 2203u);
    EXPECT_EQ(machine.stats().get("elide_checks_executed"), 1200u);
    EXPECT_EQ(machine.stats().get("elide_cycles_saved"), 200u);
}

/** The fast-mode tests run without ECC and under SECDED: --fast
 * composes with every ECC mode. */
constexpr mem::EccMode kFastEccModes[] = {mem::EccMode::None,
                                          mem::EccMode::Secded};

TEST(Dispatch, FastModeMatchesArchitecturalOutcome)
{
    // --fast skips the timing model: registers, fault kind, and the
    // instruction count must match the timed run; cycle counts are
    // firewalled out of the comparison (that is the whole point).
    for (const mem::EccMode ecc : kFastEccModes) {
        SCOPED_TRACE(int(ecc));
        MachineConfig timed = baseConfig();
        timed.mem.ecc = ecc;
        MachineConfig fast = timed;
        fast.fastMode = true;
        const Outcome t = runWith(timed, kHotLoop, dataRegs());
        const Outcome f = runWith(fast, kHotLoop, dataRegs());
        if (ecc == mem::EccMode::None)
            expectHotLoop(t); // blessed with ECC off (cycles differ)
        EXPECT_EQ(f.state, ThreadState::Halted);
        EXPECT_EQ(t.state, f.state);
        EXPECT_EQ(t.instructions, f.instructions);
        EXPECT_EQ(t.regs, f.regs);
    }
}

TEST(Dispatch, FastModeFaultKindMatches)
{
    for (const mem::EccMode ecc : kFastEccModes) {
        SCOPED_TRACE(int(ecc));
        MachineConfig timed = baseConfig();
        timed.mem.ecc = ecc;
        MachineConfig fast = timed;
        fast.fastMode = true;
        const Outcome t = runWith(timed, kFaulting, dataRegs(4));
        const Outcome f = runWith(fast, kFaulting, dataRegs(4));
        EXPECT_EQ(t.state, ThreadState::Faulted);
        EXPECT_EQ(t.state, f.state);
        EXPECT_EQ(t.fault, f.fault);
        EXPECT_EQ(t.faultAddr, f.faultAddr);
        EXPECT_EQ(t.regs, f.regs);
    }
}

TEST(Dispatch, MultithreadInterleaving)
{
    // Two threads sharing one cluster: one instruction issues per
    // cycle, so the round-robin interleaving (and with it every
    // bank-contention cycle) is pinned by the blessed cycle count.
    MachineConfig cfg = baseConfig();
    cfg.clusters = 1;
    auto machine = std::make_unique<Machine>(cfg);
    Assembly a = assemble(R"(
        movi r3, 0
        movi r5, 60
    loop:
        addi r3, r3, 1
        st r3, 0(r1)
        ld r4, 0(r1)
        add r6, r6, r4
        addi r5, r5, -1
        bne r5, r0, loop
        halt
    )");
    ASSERT_TRUE(a.ok) << a.error;
    LoadedProgram prog = loadProgram(machine->mem(), kCodeBase, a.words);
    for (unsigned i = 0; i < 2; ++i) {
        auto seg = makePointer(Perm::ReadWrite, 12,
                               kDataBase + (uint64_t(i) << 16));
        ASSERT_TRUE(seg);
        Thread *t = machine->spawn(prog.execPtr);
        ASSERT_NE(t, nullptr);
        t->setReg(1, seg.value);
    }
    machine->run(500000);
    unsigned halted = 0;
    for (const Thread &t : machine->threads()) {
        if (t.state() != ThreadState::Halted)
            continue;
        ++halted;
        EXPECT_EQ(t.reg(6).bits(), 60u * 61u / 2u); // hand-computed
    }
    EXPECT_EQ(halted, 2u);
    EXPECT_EQ(machine->cycle(), 2691u);
}

// --- IP-proof edges: each must behave exactly as a fully checked
// fetch would. ---

TEST(DispatchIpProof, JmpThroughNarrowerExecutePointer)
{
    // Jump into the same code through a 16-byte execute pointer over
    // words 6..7: the jump voids the proof, the narrow pointer is
    // re-proven on its first fetch, and the advance out of word 7
    // faults although the loader's segment continues.
    constexpr const char *kNarrow = R"(
        getip r6
        leai r6, r6, 48
        movi r7, 4
        subseg r6, r6, r7
        jmp r6
        halt
        addi r3, r3, 1
        addi r3, r3, 1
        addi r3, r3, 1
        halt
    )";
    const Outcome o = runWith(baseConfig(), kNarrow);
    EXPECT_EQ(o.state, ThreadState::Faulted);
    EXPECT_EQ(o.fault, Fault::BoundsViolation);
    EXPECT_EQ(o.faultAddr, kCodeBase + 7 * 8);
    EXPECT_EQ(o.regs[3], 2u);
    EXPECT_EQ(o.instructions, 7u);
    EXPECT_EQ(o.faultCycle, 50u);
}

TEST(DispatchIpProof, HandlerResumeAtInstalledIp)
{
    // The handler moves the IP twice: first onto a data pointer (no
    // execute right — the next fetch must fault, not run data as
    // code), then onto the recovery code.
    constexpr const char *kProg = R"(
        ld r3, 0(r2)
        halt
        movi r4, 77
        halt
    )";
    auto machine = std::make_unique<Machine>(baseConfig());
    Assembly a = assemble(kProg);
    ASSERT_TRUE(a.ok) << a.error;
    LoadedProgram prog = loadProgram(machine->mem(), kCodeBase, a.words);
    auto recovery = lea(prog.execPtr, 2 * 8);
    ASSERT_TRUE(recovery);
    auto data = makePointer(Perm::ReadWrite, 12, kCodeBase);
    ASSERT_TRUE(data);
    std::vector<Fault> seen;
    machine->setFaultHandler([&](Thread &thread, const FaultRecord &rec) {
        seen.push_back(rec.fault);
        thread.setIp(seen.size() == 1 ? data.value : recovery.value);
        return FaultAction::Resume;
    });
    Thread *t = machine->spawn(prog.execPtr);
    ASSERT_NE(t, nullptr);
    machine->run(100000);
    EXPECT_EQ(t->state(), ThreadState::Halted);
    EXPECT_EQ(t->reg(4).bits(), 77u);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], Fault::NotAPointer);
    EXPECT_EQ(seen[1], Fault::PermissionDenied);
    EXPECT_EQ(machine->cycle(), 103u);
}

TEST(DispatchIpProof, ExecuteSegmentSmallerThanAWord)
{
    // A 4-byte execute segment cannot hold an 8-byte fetch: the very
    // first fetch faults, and no proof is ever established.
    auto machine = std::make_unique<Machine>(baseConfig());
    Assembly a = assemble("movi r1, 1\nhalt\n");
    ASSERT_TRUE(a.ok);
    loadProgram(machine->mem(), kCodeBase, a.words);
    auto tiny = makePointer(Perm::ExecuteUser, 2, kCodeBase);
    ASSERT_TRUE(tiny);
    Thread *t = machine->spawn(tiny.value);
    ASSERT_NE(t, nullptr);
    machine->run(1000);
    const Outcome o = outcomeOf(*machine, *t);
    EXPECT_EQ(o.state, ThreadState::Faulted);
    EXPECT_EQ(o.fault, Fault::BoundsViolation);
    EXPECT_EQ(o.faultAddr, kCodeBase);
    EXPECT_EQ(o.faultCycle, 0u);
    EXPECT_EQ(o.instructions, 0u);
    EXPECT_EQ(o.regs[1], 0u);
}

TEST(DispatchIpProof, RunOffTheEndOfTheSegment)
{
    // Three instructions in a 32-byte segment: word 3 is an all-zero
    // NOP inside the segment, and the advance out of it faults.
    const Outcome o =
        runWith(baseConfig(), "movi r1, 1\nmovi r2, 2\nmovi r3, 3\n");
    EXPECT_EQ(o.state, ThreadState::Faulted);
    EXPECT_EQ(o.fault, Fault::BoundsViolation);
    EXPECT_EQ(o.faultAddr, kCodeBase + 3 * 8);
    EXPECT_EQ(o.instructions, 4u);
    EXPECT_EQ(o.regs[3], 3u);
    EXPECT_EQ(o.faultCycle, 35u);
}

TEST(DispatchIpProof, GetIpJmpRoundTrip)
{
    // A call and return through GETIP-derived pointers: the jump to
    // the subroutine and the jump back both void the proof, and both
    // landings re-prove it.
    constexpr const char *kCall = R"(
        movi r3, 0
        getip r14
        leai r14, r14, 40
        getip r6
        leai r6, r6, 48
        jmp r6
        addi r3, r3, 10
        halt
        nop
        addi r3, r3, 1
        jmp r14
    )";
    const Outcome o = runWith(baseConfig(), kCall);
    EXPECT_EQ(o.state, ThreadState::Halted);
    EXPECT_EQ(o.regs[3], 11u);
    EXPECT_EQ(o.instructions, 10u);
    EXPECT_EQ(o.cycles, 66u);
}

TEST(DispatchIpProof, OnlyInSegmentStepsKeepTheProof)
{
    Thread t;
    auto code = makePointer(Perm::ExecuteUser, 7, kCodeBase);
    ASSERT_TRUE(code);
    t.start(code.value, 0);
    EXPECT_FALSE(t.ipProven());
    t.proveIp(false, segmentMask(7));
    auto next = lea(code.value, 8);
    ASSERT_TRUE(next);
    t.stepIp(next.value);
    EXPECT_TRUE(t.ipProven());
    t.setIp(code.value);
    EXPECT_FALSE(t.ipProven());
    t.proveIp(true, segmentMask(7));
    EXPECT_TRUE(t.ipPrivileged());
    t.takeFault(Fault::BoundsViolation, 1);
    EXPECT_FALSE(t.ipProven());
    t.proveIp(false, segmentMask(7));
    t.start(code.value, 1);
    EXPECT_FALSE(t.ipProven());
}

} // namespace
} // namespace gp::isa
