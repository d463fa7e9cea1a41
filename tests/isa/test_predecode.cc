/**
 * @file
 * Tests for the predecoded-instruction cache: the simulator memoises
 * decode results keyed by fetch address, but correctness must never
 * depend on explicit invalidation — every hit re-validates the cached
 * raw bits against the word the (always-performed, timed) fetch
 * returned, so self-modifying code and program reloads simply miss
 * and are re-decoded.
 */

#include "machine_fixture.h"

namespace gp::isa {
namespace {

using testutil::MachineFixture;

class PredecodeTest : public MachineFixture
{
};

TEST_F(PredecodeTest, LoopReusesDecodedInstructions)
{
    Thread *t = run(R"(
        movi r1, 0
        movi r2, 50
        loop:
        addi r1, r1, 1
        bne r1, r2, loop
        halt
    )");
    EXPECT_EQ(t->state(), ThreadState::Halted);
    EXPECT_EQ(t->reg(1).bits(), 50u);
    // 5 static instructions; the loop body re-executes 49 times, so
    // hits must dominate and misses stay at the static count.
    EXPECT_EQ(machine_->stats().get("predecode_misses"), 5u);
    EXPECT_GT(machine_->stats().get("predecode_hits"), 90u);
}

TEST_F(PredecodeTest, SelfModifyingCodeIsReDecoded)
{
    // A program that overwrites one of its own instructions (via a
    // read/write alias of its code page) and re-executes it. A stale
    // predecode entry would replay the old instruction; the bits
    // re-validation must force a re-decode instead.
    //
    //   index 0  movi r1, 0
    //   index 1  movi r10, 0
    //   index 2  movi r11, 1
    //   index 3  ld   r4, 0(r5)    ; replacement instruction bits
    //   index 4  addi r1, r1, 1    ; <- overwritten on pass 1
    //   index 5  bne  r10, r11, cont
    //   index 6  halt
    //   index 7  cont: st r4, 0(r2) ; patch index 4
    //   index 8  movi r10, 1
    //   index 9  jmp  r6            ; back to index 4
    LoadedProgram prog = load(R"(
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
    )");

    // Host-side: the replacement instruction's encoding, parked in a
    // data page the program can load from.
    Assembly patch = assemble("addi r1, r1, 100");
    ASSERT_TRUE(patch.ok) << patch.error;
    ASSERT_EQ(patch.words.size(), 1u);
    const uint64_t patch_addr = uint64_t(1) << 22;
    machine_->mem().pokeWord(patch_addr, patch.words[0]);

    const uint64_t target_addr = prog.execPtr.addr() + 4 * 8;
    auto rw_code = makePointer(Perm::ReadWrite, 12, target_addr);
    ASSERT_TRUE(rw_code);
    auto rw_patch = makePointer(Perm::ReadWrite, 12, patch_addr);
    ASSERT_TRUE(rw_patch);
    auto exec_target = lea(prog.execPtr, 4 * 8);
    ASSERT_TRUE(exec_target);

    Thread *t = runThread(prog, {{2, rw_code.value},
                                 {5, rw_patch.value},
                                 {6, exec_target.value}});
    ASSERT_EQ(t->state(), ThreadState::Halted)
        << faultName(t->faultRecord().fault);
    // Pass 1 adds 1, pass 2 executes the patched instruction: +100.
    EXPECT_EQ(t->reg(1).bits(), 101u)
        << "stale predecode entry replayed the pre-patch instruction";
}

TEST_F(PredecodeTest, ProgramReloadAtSameAddressIsReDecoded)
{
    // The loader scenario: a new program dropped over an old one at
    // the same base must not execute stale decodes.
    LoadedProgram first = load(R"(
        movi r1, 1
        halt
    )");
    Thread *t1 = runThread(first);
    ASSERT_EQ(t1->state(), ThreadState::Halted);
    EXPECT_EQ(t1->reg(1).bits(), 1u);

    Assembly second = assemble(R"(
        movi r1, 2
        halt
    )");
    ASSERT_TRUE(second.ok) << second.error;
    LoadedProgram reloaded = loadProgram(
        machine_->mem(), first.execPtr.addr(), second.words);
    Thread *t2 = runThread(reloaded);
    ASSERT_EQ(t2->state(), ThreadState::Halted);
    EXPECT_EQ(t2->reg(1).bits(), 2u)
        << "reload at the same base must invalidate by re-validation";
}

TEST_F(PredecodeTest, FlushPredecodeIsObservationallyInvisible)
{
    // flushPredecode() only drops host-side memoisation; simulated
    // state and timing are untouched.
    LoadedProgram prog = load(R"(
        movi r1, 0
        movi r2, 10
        loop:
        addi r1, r1, 1
        bne r1, r2, loop
        halt
    )");
    Thread *t = runThread(prog);
    const uint64_t cycles = machine_->cycle();
    ASSERT_EQ(t->state(), ThreadState::Halted);

    machine_->flushPredecode();
    LoadedProgram again = loadProgram(machine_->mem(),
                                      prog.execPtr.addr() + (1 << 20),
                                      assemble(R"(
        movi r1, 0
        movi r2, 10
        loop:
        addi r1, r1, 1
        bne r1, r2, loop
        halt
    )").words);
    const uint64_t before = machine_->cycle();
    Thread *t2 = runThread(again);
    ASSERT_EQ(t2->state(), ThreadState::Halted);
    EXPECT_EQ(t2->reg(1).bits(), t->reg(1).bits());
    EXPECT_EQ(machine_->cycle() - before, cycles)
        << "cold decode path must cost zero simulated cycles";
}

TEST_F(PredecodeTest, RecycledMachineRunsLikeAFreshOne)
{
    // A machine built after another one in this thread takes over its
    // predecode table and cache lines. A stale entry would show as a
    // predecode hit or a cache hit the first machine did not have.
    const char *src = R"(
        movi r3, 0
        movi r4, 300
        loop:
        shli r5, r3, 5
        andi r5, r5, 8191
        leab r6, r2, r5
        ld r7, 0(r6)
        add r7, r7, r3
        st r7, 0(r6)
        addi r3, r3, 1
        bne r3, r4, loop
        halt
    )";
    struct Counts
    {
        uint64_t predecodeHits, predecodeMisses, cacheHits, cacheMisses,
            cycles;
        bool operator==(const Counts &) const = default;
    };
    auto run_once = [&] {
        nextBase_ = uint64_t(1) << 24;
        dataBase_ = uint64_t(1) << 30;
        Thread *t = run(src, {{2, data(13)}});
        EXPECT_EQ(t->state(), ThreadState::Halted);
        sim::StatGroup &cache = machine_->mem().cache().stats();
        return Counts{machine_->stats().get("predecode_hits"),
                      machine_->stats().get("predecode_misses"),
                      cache.get("hits"), cache.get("misses"),
                      machine_->cycle()};
    };
    const Counts first = run_once();
    EXPECT_EQ(first.predecodeMisses, 11u);
    EXPECT_GT(first.cacheMisses, 256u);

    machine_.reset();
    SetUp();
    const Counts second = run_once();
    EXPECT_TRUE(second == first)
        << "predecode " << second.predecodeHits << "/"
        << second.predecodeMisses << " vs " << first.predecodeHits << "/"
        << first.predecodeMisses << ", cache " << second.cacheHits << "/"
        << second.cacheMisses << " vs " << first.cacheHits << "/"
        << first.cacheMisses << ", cycles " << second.cycles << " vs "
        << first.cycles;
}

} // namespace
} // namespace gp::isa
