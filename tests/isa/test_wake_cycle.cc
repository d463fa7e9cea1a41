/**
 * @file
 * The per-cluster wake cycle: a cluster whose scan issued nothing is
 * not rescanned until its earliest stalled thread can issue, unless a
 * thread changes first. One test per path that changes a thread from
 * outside the cluster's own issue: spawn, the software fault handler,
 * the watchdog, Thread::stallTo between runs, and the park/unpark of
 * a split transaction under the sharded mesh. Each pins the halt
 * cycle and the idle-cycle split; a path that forgot to reset the
 * wake cycle would leave a cluster asleep and move them.
 */

#include <gtest/gtest.h>

#include "gp/ops.h"
#include "isa/assembler.h"
#include "isa/loader.h"
#include "isa/machine.h"
#include "noc/shard.h"

namespace gp::isa {
namespace {

constexpr const char *kOneLoad = "ld r3, 0(r1)\nmovi r4, 1\nhalt\n";
constexpr const char *kCountdown =
    "movi r2, 20\nloop: addi r2, r2, -1\nbne r2, r0, loop\nhalt\n";

LoadedProgram
loadAt(mem::MemoryPort &port, uint64_t base, const std::string &src)
{
    Assembly a = assemble(src);
    EXPECT_TRUE(a.ok) << a.error;
    return loadProgram(port, base, a.words);
}

/** The counters the wake cycle must leave as a full rescan would. */
struct Counts
{
    uint64_t cycle, idle, stalled, empty, switches;
};

void
expectCounts(Machine &m, const Counts &want)
{
    EXPECT_EQ(m.cycle(), want.cycle);
    EXPECT_EQ(m.stats().get("idle_cluster_cycles"), want.idle);
    EXPECT_EQ(m.stats().get("stalled_cluster_cycles"), want.stalled);
    EXPECT_EQ(m.stats().get("empty_cluster_cycles"), want.empty);
    EXPECT_EQ(m.stats().get("domain_switches"), want.switches);
}

/** Two clusters; a miss costs ~400 cycles on the external port. */
MachineConfig
slowMemory()
{
    MachineConfig cfg;
    cfg.clusters = 2;
    cfg.mem.cache.setsPerBank = 64;
    cfg.mem.timing.extMemAccess = 400;
    return cfg;
}

TEST(WakeCycle, SpawnOntoSleepingClustersBetweenRuns)
{
    Machine m(slowMemory());
    const LoadedProgram load = loadAt(m.port(), 1 << 20, kOneLoad);
    const LoadedProgram count = loadAt(m.port(), 2 << 20, kCountdown);
    Thread *a = m.spawnOnCluster(0, load.execPtr);
    ASSERT_NE(a, nullptr);
    a->setReg(1, dataSegment(1 << 24, 12));
    m.run(100);
    // Cluster 0 sleeps on the miss, cluster 1 has no thread at all.
    ASSERT_EQ(a->state(), ThreadState::Ready);
    Thread *b = m.spawnOnCluster(0, count.execPtr);
    Thread *c = m.spawnOnCluster(1, count.execPtr);
    ASSERT_NE(b, nullptr);
    ASSERT_NE(c, nullptr);
    // Stepped outside run(), as ShardedMesh and examples/multinode
    // step a machine: no run() entry resets the wake cycles for the
    // spawns.
    for (int i = 0; i < 50; ++i)
        m.step();
    m.run(100000);
    EXPECT_EQ(a->state(), ThreadState::Halted);
    EXPECT_EQ(b->state(), ThreadState::Halted);
    EXPECT_EQ(c->state(), ThreadState::Halted);
    expectCounts(m, {1646, 3205, 1966, 1239, 4});
}

TEST(WakeCycle, HandlerResumeWakesAnotherCluster)
{
    // V faults at once and is left Faulted, so cluster 1 sleeps as
    // empty. A faults later on cluster 0; its handler skips A's
    // faulting load and also revives V past its own.
    Machine m(slowMemory());
    const LoadedProgram vp = loadAt(m.port(), 1 << 20,
                                    "ld r2, 0(r1)\nmovi r3, 7\nhalt\n");
    const LoadedProgram ap = loadAt(
        m.port(), 2 << 20,
        "movi r2, 30\nloop: addi r2, r2, -1\nbne r2, r0, loop\n"
        "ld r4, 0(r1)\nmovi r5, 9\nhalt\n");
    Thread *v = m.spawnOnCluster(1, vp.execPtr);
    Thread *a = m.spawnOnCluster(0, ap.execPtr);
    ASSERT_NE(v, nullptr);
    ASSERT_NE(a, nullptr);
    Word v_fault_ip;
    m.setFaultHandler([&](Thread &t, const FaultRecord &rec) {
        if (&t == v) {
            v_fault_ip = rec.ip;
            return FaultAction::Terminate;
        }
        auto skip = gp::lea(rec.ip, 8);
        EXPECT_TRUE(skip);
        t.setIp(skip.value);
        v->resumeFromFault();
        auto v_skip = gp::lea(v_fault_ip, 8);
        EXPECT_TRUE(v_skip);
        v->setIp(v_skip.value);
        return FaultAction::Resume;
    });
    m.run(100000);
    EXPECT_EQ(v->state(), ThreadState::Halted);
    EXPECT_EQ(v->reg(3).bits(), 7u);
    EXPECT_EQ(a->state(), ThreadState::Halted);
    EXPECT_EQ(a->reg(5).bits(), 9u);
    EXPECT_EQ(m.stats().get("faults_recovered"), 1u);
    expectCounts(m, {1224, 2381, 1162, 1219, 0});
}

TEST(WakeCycle, WatchdogKillTurnsStalledCyclesIntoEmptyCycles)
{
    MachineConfig cfg = slowMemory();
    cfg.mem.timing.extMemAccess = 2000;
    cfg.watchdogCycles = 300;
    Machine m(cfg);
    const LoadedProgram load = loadAt(m.port(), 1 << 20, kOneLoad);
    Thread *a = m.spawnOnCluster(0, load.execPtr);
    ASSERT_NE(a, nullptr);
    a->setReg(1, dataSegment(1 << 24, 12));
    m.run(100000);
    ASSERT_TRUE(m.watchdogTripped());
    EXPECT_EQ(a->state(), ThreadState::Faulted);
    // Stepped outside run() after the kill, as ShardedMesh and
    // examples/multinode step a machine: both clusters are empty
    // from the trip on.
    for (int i = 0; i < 10; ++i)
        m.step();
    expectCounts(m, {310, 619, 299, 320, 0});
}

TEST(WakeCycle, StallToBetweenRunsWakesTheCluster)
{
    MachineConfig cfg = slowMemory();
    cfg.mem.timing.extMemAccess = 2000;
    Machine m(cfg);
    const LoadedProgram load = loadAt(m.port(), 1 << 20, kOneLoad);
    Thread *a = m.spawnOnCluster(0, load.execPtr);
    ASSERT_NE(a, nullptr);
    a->setReg(1, dataSegment(1 << 24, 12));
    m.run(100);
    ASSERT_GT(a->stallUntil(), m.cycle());
    // A debugger cuts the wait short.
    a->stallTo(m.cycle());
    m.run(100000);
    EXPECT_EQ(a->state(), ThreadState::Halted);
    EXPECT_EQ(a->reg(4).bits(), 1u);
    expectCounts(m, {2026, 4049, 2023, 2026, 0});
}

TEST(WakeCycle, ParkAndUnparkUnderTheShardedMesh)
{
    // Per node: thread A alternates local and remote loads, so it
    // parks on a split transaction every other iteration and the
    // epoch barrier unparks it. Thread B shares the cluster only
    // briefly; after it halts, a parked A leaves the cluster empty,
    // and only the unpark can wake it.
    noc::ShardConfig cfg;
    cfg.mesh.dimX = 2;
    cfg.mesh.dimY = 1;
    cfg.mesh.dimZ = 1;
    cfg.node.cache.setsPerBank = 64;
    cfg.machine.clusters = 1;
    noc::ShardedMesh shard(cfg);
    auto full = makePointer(Perm::ReadWrite, 54, 0);
    ASSERT_TRUE(full);
    for (unsigned n = 0; n < shard.nodeCount(); ++n) {
        const uint64_t base = noc::nodeBase(n);
        const LoadedProgram ap = loadAt(
            shard.node(n), base + 0x20000,
            "movi r3, 0\nmovi r4, 6\nloop:\nadd r7, r3, r2\n"
            "andi r7, r7, 1\nshli r7, r7, 48\naddi r7, r7, 4096\n"
            "leab r9, r1, r7\nld r10, 0(r9)\naddi r3, r3, 1\n"
            "bne r3, r4, loop\nhalt\n");
        const LoadedProgram bp = loadAt(
            shard.node(n), base + 0x30000,
            "movi r2, 4\nloop: mul r3, r2, r2\naddi r2, r2, -1\n"
            "bne r2, r0, loop\nhalt\n");
        Thread *a = shard.machine(n).spawn(ap.execPtr);
        Thread *b = shard.machine(n).spawn(bp.execPtr);
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr);
        a->setReg(1, full.value);
        a->setReg(2, Word::fromInt(n));
    }
    shard.run(200000);
    ASSERT_TRUE(shard.allDone());
    EXPECT_EQ(shard.cycle(), 236u);
    expectCounts(shard.machine(0), {220, 155, 149, 6, 12});
    expectCounts(shard.machine(1), {236, 171, 165, 6, 12});
}

} // namespace
} // namespace gp::isa
