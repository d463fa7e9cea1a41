/**
 * @file
 * Epoch-barrier determinism of the sharded mesh engine: randomized
 * cross-node traffic must produce bit-identical architectural
 * signatures for every host-thread count (1/2/8) and across repeated
 * runs — including with the fault injector armed, whose draws the
 * engine serializes at the epoch barrier.
 */

#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "isa/loader.h"
#include "noc/shard.h"
#include "sim/faultinject.h"

namespace gp::noc {
namespace {

/**
 * Pseudo-random all-to-all traffic: every node walks a mix of local
 * and remote lines (target rotates with the iteration index), doing a
 * tag-preserving load + store per step. r1 = full-space RW pointer,
 * r2 = node id (seeds per-node divergence).
 */
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

ShardConfig
meshConfig(unsigned hostThreads)
{
    ShardConfig cfg;
    cfg.mesh.dimX = 2;
    cfg.mesh.dimY = 2;
    cfg.mesh.dimZ = 2;
    cfg.node.cache.setsPerBank = 64;
    cfg.machine.clusters = 1;
    cfg.hostThreads = hostThreads;
    return cfg;
}

struct RunResult
{
    uint64_t signature = 0;
    uint64_t cycles = 0;
    uint64_t remoteMisses = 0;
    bool allHalted = true;
};

RunResult
runTraffic(const ShardConfig &cfg)
{
    ShardedMesh shard(cfg);

    isa::Assembly a = isa::assemble(kTrafficSrc);
    EXPECT_TRUE(a.ok) << a.error;
    auto full = makePointer(Perm::ReadWrite, 54, 0);
    EXPECT_TRUE(full);

    for (unsigned n = 0; n < shard.nodeCount(); ++n) {
        auto prog = isa::loadProgram(shard.node(n),
                                     nodeBase(n) + 0x20000, a.words);
        isa::Thread *t = shard.machine(n).spawn(prog.execPtr);
        EXPECT_NE(t, nullptr);
        t->setReg(1, full.value);
        t->setReg(2, Word::fromInt(n));
    }

    shard.run(200000);

    RunResult r;
    r.signature = shard.signature();
    r.cycles = shard.cycle();
    for (unsigned n = 0; n < shard.nodeCount(); ++n) {
        r.remoteMisses += shard.node(n).stats().get("remote_misses");
        if (!shard.machine(n).allDone())
            r.allHalted = false;
    }
    return r;
}

TEST(ShardDeterminism, TrafficCompletesAndCrossesTheMesh)
{
    const RunResult r = runTraffic(meshConfig(1));
    EXPECT_TRUE(r.allHalted);
    EXPECT_GT(r.cycles, 0u);
    // The rotating target pattern must actually exercise the
    // exchange: most iterations address another node's partition.
    EXPECT_GT(r.remoteMisses, 0u);
}

TEST(ShardDeterminism, SignatureIdenticalAcrossHostThreads)
{
    const RunResult t1 = runTraffic(meshConfig(1));
    const RunResult t2 = runTraffic(meshConfig(2));
    const RunResult t8 = runTraffic(meshConfig(8));
    EXPECT_EQ(t1.signature, t2.signature);
    EXPECT_EQ(t1.signature, t8.signature);
    EXPECT_EQ(t1.cycles, t2.cycles);
    EXPECT_EQ(t1.cycles, t8.cycles);
}

TEST(ShardDeterminism, RepeatedRunsAreIdentical)
{
    const RunResult a = runTraffic(meshConfig(2));
    const RunResult b = runTraffic(meshConfig(2));
    EXPECT_EQ(a.signature, b.signature);
}

TEST(ShardDeterminism, ShortHorizonStillThreadCountInvariant)
{
    // The horizon is part of the canonical schedule (remote split
    // transactions complete at barriers), so changing it changes the
    // signature — but for any fixed horizon the result must still be
    // identical across host-thread counts.
    ShardConfig one = meshConfig(1);
    one.epochHorizon = 1;
    ShardConfig four = meshConfig(4);
    four.epochHorizon = 1;
    EXPECT_EQ(runTraffic(one).signature, runTraffic(four).signature);
}

TEST(ShardDeterminism, OversizedHorizonClampedToLookahead)
{
    ShardConfig cfg = meshConfig(1);
    cfg.epochHorizon = 1 << 20;
    ShardedMesh shard(cfg);
    EXPECT_EQ(shard.epochHorizon(), shard.mesh().minMessageLatency());
}

TEST(ShardDeterminism, MoreNodesThanHomeIdsIsFatal)
{
    // VA bits 53..48 name the home node: a 65th node has no address.
    ShardConfig cfg;
    cfg.mesh.dimX = 65;
    cfg.mesh.dimY = 1;
    cfg.mesh.dimZ = 1;
    EXPECT_EXIT(ShardedMesh{cfg}, ::testing::ExitedWithCode(1),
                "65 nodes.*at most 64");
}

TEST(ShardDeterminism, ShardRangesPartitionTheMesh)
{
    ShardConfig cfg = meshConfig(3); // uneven split of 8 nodes
    ShardedMesh shard(cfg);
    EXPECT_EQ(shard.hostThreads(), 3u);
    unsigned prev = 0;
    for (unsigned n = 0; n < shard.nodeCount(); ++n) {
        const unsigned s = shard.shardOf(n);
        EXPECT_LT(s, shard.hostThreads());
        EXPECT_GE(s, prev); // contiguous, monotone shards
        prev = s;
    }
    EXPECT_EQ(prev, shard.hostThreads() - 1);
}

/**
 * Per-node mesh-traffic attribution (poster-attributed at resolve
 * time in the canonical drain order). Regression for the bulk-charge
 * bug: traffic used to be observable only as mesh-wide totals
 * accumulated at the barrier, so per-shard accounting was impossible
 * and anything derived from it silently depended on the host-thread
 * count. The per-NODE attribution must be a pure function of the
 * simulated schedule — identical for t1 and t4 — and must conserve
 * the mesh totals exactly.
 */
struct TrafficAttribution
{
    std::vector<std::array<uint64_t, ShardedMesh::kTallyCount>>
        perNode;
    std::array<uint64_t, ShardedMesh::kTallyCount> meshTotals{};
};

TrafficAttribution
runAttribution(unsigned hostThreads)
{
    ShardConfig cfg = meshConfig(hostThreads);
    ShardedMesh shard(cfg);

    isa::Assembly a = isa::assemble(kTrafficSrc);
    EXPECT_TRUE(a.ok) << a.error;
    auto full = makePointer(Perm::ReadWrite, 54, 0);
    EXPECT_TRUE(full);
    for (unsigned n = 0; n < shard.nodeCount(); ++n) {
        auto prog = isa::loadProgram(shard.node(n),
                                     nodeBase(n) + 0x20000, a.words);
        isa::Thread *t = shard.machine(n).spawn(prog.execPtr);
        EXPECT_NE(t, nullptr);
        t->setReg(1, full.value);
        t->setReg(2, Word::fromInt(n));
    }
    shard.run(200000);

    TrafficAttribution r;
    for (unsigned n = 0; n < shard.nodeCount(); ++n)
        r.perNode.push_back(shard.nodeMeshTraffic(n));
    r.meshTotals = {shard.mesh().stats().get("messages"),
                    shard.mesh().stats().get("flits"),
                    shard.mesh().stats().get("link_stall_cycles"),
                    shard.mesh().stats().get("hops_traversed")};
    return r;
}

TEST(ShardTrafficAttribution, PerNodeIdenticalAcrossHostThreads)
{
    const TrafficAttribution t1 = runAttribution(1);
    const TrafficAttribution t4 = runAttribution(4);
    ASSERT_EQ(t1.perNode.size(), t4.perNode.size());
    for (size_t n = 0; n < t1.perNode.size(); ++n)
        for (unsigned k = 0; k < ShardedMesh::kTallyCount; ++k)
            EXPECT_EQ(t1.perNode[n][k], t4.perNode[n][k])
                << "node " << n << " tally " << k;
}

TEST(ShardTrafficAttribution, AttributionConservesMeshTotals)
{
    const TrafficAttribution r = runAttribution(2);
    std::array<uint64_t, ShardedMesh::kTallyCount> sums{};
    for (const auto &node : r.perNode)
        for (unsigned k = 0; k < ShardedMesh::kTallyCount; ++k)
            sums[k] += node[k];
    for (unsigned k = 0; k < ShardedMesh::kTallyCount; ++k)
        EXPECT_EQ(sums[k], r.meshTotals[k]) << "tally " << k;
    // The rotating pattern crosses the mesh, so the attribution must
    // actually see traffic (messages and flits are never all-zero).
    EXPECT_GT(r.meshTotals[ShardedMesh::kTallyMessages], 0u);
    EXPECT_GT(r.meshTotals[ShardedMesh::kTallyFlits], 0u);
}

class ShardFaultDeterminism : public ::testing::Test
{
  protected:
    ~ShardFaultDeterminism() override
    {
        sim::FaultInjector::instance().disarm();
    }

    RunResult
    armedRun(unsigned hostThreads)
    {
        // arm() resets every per-site stream, so each run draws the
        // identical fault sequence; the engine ticks the injector
        // centrally at the barrier regardless of host-thread count.
        sim::FaultConfig fc;
        fc.seed = 77;
        fc.rate[unsigned(sim::FaultSite::NocDelay)] = 0.02;
        fc.rate[unsigned(sim::FaultSite::NocCorrupt)] = 0.01;
        fc.rate[unsigned(sim::FaultSite::PtWalkTransient)] = 0.01;
        sim::FaultInjector::instance().arm(fc);

        ShardConfig cfg = meshConfig(hostThreads);
        cfg.retrans.enabled = true;
        return runTraffic(cfg);
    }
};

TEST_F(ShardFaultDeterminism, ArmedSignatureIdenticalAcrossThreads)
{
    const RunResult t1 = armedRun(1);
    const RunResult t2 = armedRun(2);
    const RunResult t8 = armedRun(8);
    EXPECT_EQ(t1.signature, t2.signature);
    EXPECT_EQ(t1.signature, t8.signature);
}

TEST_F(ShardFaultDeterminism, ArmedRepeatedRunsAreIdentical)
{
    EXPECT_EQ(armedRun(2).signature, armedRun(2).signature);
}

} // namespace
} // namespace gp::noc
