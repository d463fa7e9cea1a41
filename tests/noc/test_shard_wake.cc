/**
 * @file
 * The shard engine steps a node only from its wake on. A node whose
 * threads are all parked or stalled owes its idle cycles and pays
 * them in one Machine::idleTo() when something needs it current.
 * These tests pin that the owed cycles are exactly the ones a node
 * stepped every cycle spends: every counter, the cycle a machine
 * watchdog trips at, the clock a fail-stopped node freezes at, and
 * the profiler's stall and empty charge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "isa/assembler.h"
#include "isa/loader.h"
#include "noc/shard.h"
#include "sim/faultinject.h"
#include "sim/profile.h"

namespace gp::noc {
namespace {

/** Remote-heavy all-to-all traffic (r1 = full-space RW pointer, r2 =
 * node id): most iterations park on another node's partition. */
constexpr const char *kTrafficSrc = R"(
    movi r3, 0
    movi r4, 24
loop:
    add r7, r3, r2
    andi r7, r7, 7
    shli r7, r7, 48
    shli r8, r3, 3
    andi r8, r8, 1016
    addi r8, r8, 4096
    add r7, r7, r8
    leab r9, r1, r7
    ld r10, 0(r9)
    add r10, r10, r2
    st r10, 0(r9)
    addi r3, r3, 1
    bne r3, r4, loop
    halt
)";

/** Node 0 loads from node 1's partition r4 times, then halts. */
constexpr const char *kRemoteLoadsSrc = R"(
    movi r3, 0
    movi r7, 1
    shli r7, r7, 48
    addi r7, r7, 4096
    leab r9, r1, r7
loop:
    ld r10, 0(r9)
    addi r3, r3, 1
    bne r3, r4, loop
    halt
)";

ShardConfig
meshConfig(unsigned x, unsigned y, unsigned z, unsigned hostThreads)
{
    ShardConfig cfg;
    cfg.mesh.dimX = x;
    cfg.mesh.dimY = y;
    cfg.mesh.dimZ = z;
    cfg.node.cache.setsPerBank = 64;
    cfg.machine.clusters = 1;
    cfg.hostThreads = hostThreads;
    return cfg;
}

Word
fullSpace()
{
    auto full = makePointer(Perm::ReadWrite, 54, 0);
    EXPECT_TRUE(full);
    return full.value;
}

/** Load @p src at node @p n and start one thread on it. */
isa::Thread *
spawnOn(ShardedMesh &shard, unsigned n, const char *src,
        uint64_t offset = 0x20000)
{
    isa::Assembly a = isa::assemble(src);
    EXPECT_TRUE(a.ok) << a.error;
    auto prog = isa::loadProgram(shard.node(n), nodeBase(n) + offset,
                                 a.words);
    isa::Thread *t = shard.machine(n).spawn(prog.execPtr);
    EXPECT_NE(t, nullptr);
    t->setReg(1, fullSpace());
    t->setReg(2, Word::fromInt(n));
    return t;
}

void
loadAll(ShardedMesh &shard, const char *src)
{
    for (unsigned n = 0; n < shard.nodeCount(); ++n)
        spawnOn(shard, n, src);
}

/** A thread on node @p n that never wakes by itself. */
isa::Thread *
spawnWedged(ShardedMesh &shard, unsigned n)
{
    isa::Thread *t = spawnOn(shard, n, "halt\n", 0x30000);
    t->stallTo(UINT64_MAX);
    return t;
}

/** Every machine's clock and counters, node by node. */
std::vector<std::map<std::string, uint64_t>>
machineCounters(ShardedMesh &shard)
{
    std::vector<std::map<std::string, uint64_t>> all;
    for (unsigned n = 0; n < shard.nodeCount(); ++n) {
        std::map<std::string, uint64_t> m;
        m["cycle()"] = shard.machine(n).cycle();
        for (const auto &[name, ctr] : shard.machine(n).stats().counters())
            m[name] = ctr.value();
        all.push_back(std::move(m));
    }
    return all;
}

TEST(ShardWake, EpochByEpochRunsMatchOneRun)
{
    // A loop of run(epochHorizon()) brings every node current at each
    // return, where one run() lets parked nodes owe cycles across
    // barriers. Both must end in the same state.
    ShardedMesh ref(meshConfig(2, 2, 2, 1));
    loadAll(ref, kTrafficSrc);
    ref.run(200000);
    ASSERT_TRUE(ref.allDone());
    for (unsigned threads : {1u, 2u}) {
        ShardedMesh one(meshConfig(2, 2, 2, threads));
        loadAll(one, kTrafficSrc);
        one.run(200000);
        ShardedMesh stepped(meshConfig(2, 2, 2, threads));
        loadAll(stepped, kTrafficSrc);
        while (!stepped.allDone() && stepped.cycle() < 200000) {
            stepped.run(stepped.epochHorizon());
            // run() returns with every running node current.
            for (unsigned n = 0; n < stepped.nodeCount(); ++n) {
                if (!stepped.machine(n).allDone()) {
                    EXPECT_EQ(stepped.machine(n).cycle(),
                              stepped.cycle());
                }
            }
        }
        EXPECT_EQ(one.cycle(), ref.cycle()) << threads;
        EXPECT_EQ(stepped.cycle(), ref.cycle()) << threads;
        EXPECT_EQ(one.signature(), ref.signature()) << threads;
        EXPECT_EQ(stepped.signature(), ref.signature()) << threads;
        EXPECT_EQ(machineCounters(one), machineCounters(ref)) << threads;
        EXPECT_EQ(machineCounters(stepped), machineCounters(ref))
            << threads;
    }
}

TEST(ShardWake, MachineBudgetTripsAtItsCycleWhileParked)
{
    // Node 0 spends most cycles parked on node 1's memory; node 1's
    // only thread never wakes. Whatever cycle the budget ends at,
    // both machines trip in the step of cycle W - 1 (the record reads
    // W), and their clocks freeze at the end of that epoch.
    for (uint64_t w = 20; w < 44; ++w) {
        ShardConfig cfg = meshConfig(2, 1, 1, 1);
        cfg.machine.watchdogCycles = w;
        ShardedMesh shard(cfg);
        isa::Thread *loader = spawnOn(shard, 0, kRemoteLoadsSrc);
        loader->setReg(4, Word::fromInt(1000));
        isa::Thread *wedged = spawnWedged(shard, 1);
        shard.run(100000);
        const uint64_t h = shard.epochHorizon();
        const uint64_t epoch_end = ((w - 1) / h + 1) * h;
        for (isa::Thread *t : {loader, wedged}) {
            EXPECT_EQ(t->state(), isa::ThreadState::Faulted) << w;
            EXPECT_EQ(t->faultRecord().fault, Fault::WatchdogTimeout)
                << w;
            EXPECT_EQ(t->faultRecord().cycle, w);
        }
        EXPECT_EQ(shard.machine(0).cycle(), epoch_end) << w;
        EXPECT_EQ(shard.machine(1).cycle(), epoch_end) << w;
        EXPECT_EQ(shard.cycle(), epoch_end) << w;
    }
}

TEST(ShardWake, QuiescenceTripsAtItsCycleAfterParks)
{
    // Node 0 holds a thread that never wakes beside one that parks on
    // remote loads and then halts. Windows shorter than a park expire
    // while a split transaction is in flight, which vetoes the trip;
    // the trip comes exactly one window after the last issue.
    for (uint64_t q = 1; q <= 12; ++q) {
        ShardConfig cfg = meshConfig(2, 1, 1, 1);
        cfg.machine.watchdogQuiescence = q;
        ShardedMesh shard(cfg);
        isa::Thread *loader = spawnOn(shard, 0, kRemoteLoadsSrc);
        loader->setReg(4, Word::fromInt(5));
        isa::Thread *wedged = spawnWedged(shard, 0);
        uint64_t last_issue = 0;
        shard.machine(0).setTraceHook(
            [&last_issue](const isa::Thread &, const isa::Inst &,
                          uint64_t cycle) { last_issue = cycle; });
        shard.run(100000);
        EXPECT_EQ(loader->state(), isa::ThreadState::Halted) << q;
        EXPECT_EQ(wedged->state(), isa::ThreadState::Faulted) << q;
        EXPECT_EQ(wedged->faultRecord().fault, Fault::WatchdogTimeout)
            << q;
        EXPECT_EQ(wedged->faultRecord().cycle, last_issue + q) << q;
        EXPECT_EQ(shard.machine(0).watchdogTripped(), true) << q;
    }
}

TEST(ShardWake, QuiescenceCountsACompletionAtItsBarrier)
{
    // The loader's last progress is a completion: its load to a dead
    // home comes back NodeUnreachable at the barrier after the issue,
    // which counts from that barrier's cycle. The wedged thread then
    // trips one window later.
    const uint64_t q = 5;
    ShardConfig cfg = meshConfig(2, 1, 1, 1);
    cfg.machine.watchdogQuiescence = q;
    ShardedMesh shard(cfg);
    isa::Thread *loader = spawnOn(shard, 0, kRemoteLoadsSrc);
    loader->setReg(4, Word::fromInt(5));
    isa::Thread *wedged = spawnWedged(shard, 0);
    uint64_t last_issue = 0;
    shard.machine(0).setTraceHook(
        [&last_issue](const isa::Thread &, const isa::Inst &,
                      uint64_t cycle) { last_issue = cycle; });
    shard.killNode(1);
    shard.run(100000);
    const uint64_t h = shard.epochHorizon();
    ASSERT_EQ(loader->state(), isa::ThreadState::Faulted);
    ASSERT_EQ(loader->faultRecord().fault, Fault::NodeUnreachable);
    const uint64_t barrier = (last_issue / h + 1) * h;
    EXPECT_EQ(loader->faultRecord().cycle, barrier);
    EXPECT_EQ(wedged->faultRecord().fault, Fault::WatchdogTimeout);
    EXPECT_EQ(wedged->faultRecord().cycle, barrier + q);
}

TEST(ShardWake, KilledNodeFreezesAtItsBarrier)
{
    // Between runs: the victim's clock stops where run() left it.
    {
        ShardedMesh shard(meshConfig(2, 2, 2, 2));
        loadAll(shard, kTrafficSrc);
        shard.run(10);
        shard.killNode(1);
        shard.run(200000);
        EXPECT_EQ(shard.machine(1).cycle(), 10u);
        EXPECT_TRUE(shard.allDone());
    }
    // At barriers: one survivor dies at every barrier, mostly while
    // parked, and freezes at that barrier's cycle.
    struct Scoped
    {
        ~Scoped() { sim::FaultInjector::instance().disarm(); }
    } disarm;
    uint64_t sig[2] = {};
    for (unsigned threads : {1u, 2u}) {
        sim::FaultConfig fc;
        fc.seed = 5;
        fc.rate[unsigned(sim::FaultSite::NodeFailStop)] = 1.0;
        sim::FaultInjector::instance().arm(fc);
        ShardedMesh shard(meshConfig(2, 2, 2, threads));
        loadAll(shard, kTrafficSrc);
        shard.run(200000);
        std::vector<uint64_t> frozen;
        for (unsigned n = 0; n < shard.nodeCount(); ++n) {
            EXPECT_TRUE(shard.nodeDead(n)) << n;
            frozen.push_back(shard.machine(n).cycle());
        }
        std::sort(frozen.begin(), frozen.end());
        const uint64_t h = shard.epochHorizon();
        for (unsigned i = 0; i < frozen.size(); ++i)
            EXPECT_EQ(frozen[i], (i + 1) * h) << threads;
        sig[threads - 1] = shard.signature();
        sim::FaultInjector::instance().disarm();
    }
    EXPECT_EQ(sig[0], sig[1]);
}

TEST(ShardWake, ProfiledStallAndEmptyMatchIdleCycles)
{
    // Two threads per node, so clusters both stall (a Ready thread
    // waits) and go empty (every thread parked or halted).
    struct Scoped
    {
        ~Scoped() { sim::Profiler::instance().reset(); }
    } reset;
    ShardConfig cfg = meshConfig(2, 2, 2, 1);
    ShardedMesh shard(cfg);
    const isa::MachineConfig &mc = shard.machine(0).config();
    const unsigned slots = mc.clusters * mc.threadsPerCluster;
    sim::ProfileConfig pc;
    pc.interval = true;
    pc.intervalCycles = 16;
    sim::Profiler::instance().reset();
    sim::Profiler::instance().arm(mc.clusters,
                                  shard.nodeCount() * slots, pc);
    loadAll(shard, kTrafficSrc);
    for (unsigned n = 0; n < shard.nodeCount(); ++n)
        spawnOn(shard, n, kTrafficSrc, 0x28000);
    shard.run(200000);
    ASSERT_TRUE(shard.allDone());
    const sim::Profiler &prof = sim::Profiler::instance();

    uint64_t cluster_cycles = 0, empty = 0, stalled = 0;
    for (unsigned n = 0; n < shard.nodeCount(); ++n) {
        isa::Machine &m = shard.machine(n);
        const uint64_t cc = m.cycle() * mc.clusters;
        const uint64_t node_empty = m.stats().get("empty_cluster_cycles");
        const uint64_t node_stalled =
            m.stats().get("stalled_cluster_cycles");
        EXPECT_EQ(node_empty + node_stalled,
                  m.stats().get("idle_cluster_cycles"))
            << n;
        // The profiler charges every non-empty cluster-cycle (issue
        // or stall) to one of the node's own thread slots.
        uint64_t charged = 0;
        for (unsigned s = 0; s < slots; ++s)
            charged += prof.threadCycles(n * slots + s);
        EXPECT_EQ(charged, cc - node_empty) << n;
        EXPECT_EQ(charged - m.stats().get("instructions"), node_stalled)
            << n;
        cluster_cycles += cc;
        empty += node_empty;
        stalled += node_stalled;
    }
    EXPECT_GT(empty, 0u);
    EXPECT_GT(stalled, 0u);
    EXPECT_EQ(prof.clusterCycles(), cluster_cycles);
    EXPECT_EQ(prof.comp(sim::ProfComp::Empty), empty);
    uint64_t stall_comps = 0;
    for (unsigned c = 0; c < sim::kProfCompCount; ++c)
        if (c != unsigned(sim::ProfComp::Issue) &&
            c != unsigned(sim::ProfComp::Empty))
            stall_comps += prof.comp(sim::ProfComp(c));
    EXPECT_EQ(stall_comps, stalled);
    // A snapshot at a barrier sees every node's cycles up to it,
    // owed idle ones included: while all nodes run, each interval
    // holds its cycles times the mesh's clusters.
    ASSERT_GE(prof.intervals().size(), 2u);
    uint64_t prev = 0;
    for (unsigned i = 0; i < 2; ++i) {
        const auto &iv = prof.intervals()[i];
        uint64_t sum = 0;
        for (unsigned c = 0; c < sim::kProfCompCount; ++c)
            sum += iv.comp[c];
        EXPECT_EQ(sum, (iv.cycle - prev) * shard.nodeCount() * mc.clusters)
            << i;
        prev = iv.cycle;
    }
}

} // namespace
} // namespace gp::noc
