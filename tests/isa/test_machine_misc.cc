/**
 * @file
 * Machine housekeeping tests: cluster placement, run limits, the
 * fault log, and stat counters — the operational surface the tools
 * depend on.
 */

#include "machine_fixture.h"

#include "sim/log.h"

namespace gp::isa {
namespace {

using testutil::MachineFixture;

class MachineMisc : public MachineFixture
{
};

TEST_F(MachineMisc, SpawnOnClusterRespectsBounds)
{
    LoadedProgram prog = load("halt");
    EXPECT_EQ(machine_->spawnOnCluster(99, prog.execPtr), nullptr);
    EXPECT_NE(machine_->spawnOnCluster(3, prog.execPtr), nullptr);
}

TEST_F(MachineMisc, SpawnOnClusterFillsAllSlots)
{
    LoadedProgram prog = load(
        "spin: beq r0, r0, spin"); // never finishes
    for (int i = 0; i < 4; ++i)
        EXPECT_NE(machine_->spawnOnCluster(0, prog.execPtr), nullptr);
    EXPECT_EQ(machine_->spawnOnCluster(0, prog.execPtr), nullptr)
        << "cluster 0 full";
    EXPECT_NE(machine_->spawnOnCluster(1, prog.execPtr), nullptr);
}

TEST_F(MachineMisc, RunReturnsCyclesAndStopsAtLimit)
{
    LoadedProgram prog = load("spin: beq r0, r0, spin");
    machine_->spawn(prog.execPtr);
    sim::setQuiet(true); // the limit warning is expected
    const uint64_t ran = machine_->run(500);
    sim::setQuiet(false);
    EXPECT_EQ(ran, 500u);
    EXPECT_FALSE(machine_->allDone());
}

TEST_F(MachineMisc, AllDoneOnEmptyMachine)
{
    EXPECT_TRUE(machine_->allDone());
    EXPECT_EQ(machine_->run(), 0u);
}

TEST_F(MachineMisc, FaultLogAccumulatesAcrossThreads)
{
    LoadedProgram bad = load("ld r2, 0(r1)\nhalt");
    machine_->spawn(bad.execPtr);
    machine_->spawn(bad.execPtr);
    machine_->run();
    EXPECT_EQ(machine_->faultLog().size(), 2u);
    for (const FaultRecord &rec : machine_->faultLog())
        EXPECT_EQ(rec.fault, Fault::NotAPointer);
    EXPECT_EQ(machine_->stats().get("faults"), 2u);
}

TEST_F(MachineMisc, CycleCounterMatchesStats)
{
    run("nop\nnop\nhalt");
    EXPECT_EQ(machine_->cycle(), machine_->stats().get("cycles"));
}

TEST_F(MachineMisc, ThreadIdsAreUnique)
{
    LoadedProgram prog = load("halt");
    Thread *a = machine_->spawn(prog.execPtr);
    Thread *b = machine_->spawn(prog.execPtr);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    const uint32_t id_a = a->id();
    const uint32_t id_b = b->id();
    EXPECT_NE(id_a, id_b);
    machine_->run();
    // c may reuse a's slot (same Thread object) but gets a fresh id.
    Thread *c = machine_->spawn(prog.execPtr);
    ASSERT_NE(c, nullptr);
    EXPECT_NE(c->id(), id_a) << "ids not recycled with slots";
    EXPECT_NE(c->id(), id_b);
}

TEST_F(MachineMisc, TraceHookSeesEveryInstruction)
{
    std::vector<std::string> trace;
    machine_->setTraceHook(
        [&](const Thread &, const Inst &inst, uint64_t) {
            trace.push_back(std::string(opName(inst.op)));
        });
    run("movi r1, 1\nadd r2, r1, r1\nhalt");
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace[0], "movi");
    EXPECT_EQ(trace[1], "add");
    EXPECT_EQ(trace[2], "halt");
}

TEST_F(MachineMisc, IdleClusterCyclesCounted)
{
    run("halt"); // one thread, three idle clusters every cycle
    EXPECT_GT(machine_->stats().get("idle_cluster_cycles"), 0u);
}

} // namespace
} // namespace gp::isa
