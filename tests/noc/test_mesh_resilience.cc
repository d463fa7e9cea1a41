/**
 * @file
 * Fault-aware mesh routing (ISSUE 9): fail-stop node deaths and
 * permanent link failures, dimension-order routing that detours
 * around the damage deterministically, and the typed-unreachable
 * signal for dead or partitioned endpoints — surfaced by NodeMemory
 * as a NodeUnreachable fault, never a hang.
 */

#include <gtest/gtest.h>

#include "gp/ops.h"
#include "noc/mesh.h"
#include "noc/node_memory.h"

namespace gp::noc {
namespace {

MeshConfig
line2()
{
    // A 2-node line: one physical route each way, so one link
    // failure partitions the pair in that direction.
    MeshConfig mc;
    mc.dimX = 2;
    mc.dimY = 1;
    mc.dimZ = 1;
    return mc;
}

TEST(MeshResilience, RouteAvoidingTheFailureKeepsHealthyTiming)
{
    // Twin fabrics, one with the +z link out of node 0 down. Traffic
    // confined to the z=0 plane never crosses a Z link in dimension
    // order, so the degraded twin must charge exactly what the
    // healthy one does: same cycles, same contention, same hops.
    Mesh healthy, degraded;
    degraded.failLink(0, 4);
    ASSERT_TRUE(degraded.degraded());
    uint64_t now = 0;
    for (unsigned m = 0; m < 200; ++m) {
        const unsigned from = m % 8, to = (m * 5 + 2) % 8;
        const Mesh::SendOutcome a = healthy.trySend(from, to, now, 4);
        const Mesh::SendOutcome b = degraded.trySend(from, to, now, 4);
        ASSERT_TRUE(a.delivered);
        ASSERT_TRUE(b.delivered);
        ASSERT_FALSE(b.detoured);
        ASSERT_EQ(b.cycle, a.cycle) << "message " << m;
        now += m % 3; // overlapping messages contend for links
    }
    EXPECT_GT(healthy.stats().get("link_stall_cycles"), 0u);
    EXPECT_EQ(degraded.stats().get("link_stall_cycles"),
              healthy.stats().get("link_stall_cycles"));
    EXPECT_EQ(degraded.stats().get("hops_traversed"),
              healthy.stats().get("hops_traversed"));
    EXPECT_EQ(degraded.detourCount(), 0u);
    EXPECT_EQ(degraded.unreachableCount(), 0u);
}

TEST(MeshResilience, LinkFailureForcesDetourWithPenalty)
{
    // Kill the one-hop +x link 0->1 (default 4x2x2 mesh). The
    // dim-order route dies; the BFS detour goes around in 3 hops
    // and pays kDetourPenalty per hop beyond the Manhattan distance.
    Mesh mesh;
    mesh.failLink(0, 0);
    EXPECT_TRUE(mesh.degraded());
    EXPECT_EQ(mesh.downLinkCount(), 1u);

    const Mesh::SendOutcome o = mesh.trySend(0, 1, 1000, 1);
    ASSERT_TRUE(o.delivered);
    EXPECT_TRUE(o.detoured);
    EXPECT_EQ(mesh.detourCount(), 1u);
    const MeshConfig &mc = mesh.config();
    const uint64_t expect = 1000 + 2 * mc.injectLatency +
                            3 * mc.hopLatency + 2 * kDetourPenalty;
    EXPECT_EQ(o.cycle, expect);

    // The reverse link 1->0 is untouched: dim-order, no detour.
    const Mesh::SendOutcome back = mesh.trySend(1, 0, 2000, 1);
    ASSERT_TRUE(back.delivered);
    EXPECT_FALSE(back.detoured);
    EXPECT_EQ(back.cycle, 2000 + mesh.uncontendedLatency(1, 0));
}

TEST(MeshResilience, DeadEndpointIsUnreachable)
{
    Mesh mesh;
    mesh.failNode(3);
    EXPECT_TRUE(mesh.nodeDead(3));
    EXPECT_EQ(mesh.deadNodeCount(), 1u);

    const Mesh::SendOutcome o = mesh.trySend(0, 3, 0, 1);
    EXPECT_FALSE(o.delivered);
    EXPECT_EQ(mesh.unreachableCount(), 1u);

    // Traffic between survivors still flows (possibly detouring
    // around the corpse).
    const Mesh::SendOutcome ok = mesh.trySend(0, 5, 0, 1);
    EXPECT_TRUE(ok.delivered);
}

TEST(MeshResilience, PartitionedPairIsUnreachableNotDead)
{
    // Links are unidirectional: losing 0->1 on a 2-node line
    // partitions that direction only. Node 1 is alive — just
    // unreachable from 0.
    Mesh mesh{line2()};
    mesh.failLink(0, 0);

    const Mesh::SendOutcome fwd = mesh.trySend(0, 1, 0, 1);
    EXPECT_FALSE(fwd.delivered);
    EXPECT_FALSE(mesh.nodeDead(1));
    EXPECT_EQ(mesh.unreachableCount(), 1u);

    const Mesh::SendOutcome rev = mesh.trySend(1, 0, 0, 1);
    EXPECT_TRUE(rev.delivered);
    EXPECT_FALSE(rev.detoured);
}

TEST(MeshResilience, LinkOnlyFailureKeepsNodeDeadWellDefined)
{
    // Regression: the dead-node and down-link vectors are sized on
    // the FIRST failure of their kind. A link-only failure set must
    // leave nodeDead() false (and in-bounds) for every node, and a
    // node-only set must do the same for linkDown().
    Mesh linkOnly;
    linkOnly.failLink(2, 0);
    EXPECT_TRUE(linkOnly.degraded());
    for (unsigned n = 0; n < linkOnly.nodeCount(); ++n)
        EXPECT_FALSE(linkOnly.nodeDead(n));
    EXPECT_TRUE(linkOnly.linkDown(2, 0));
    EXPECT_FALSE(linkOnly.linkDown(2, 2));

    Mesh nodeOnly;
    nodeOnly.failNode(2);
    EXPECT_TRUE(nodeOnly.nodeDead(2));
    // failNode takes the victim's own outgoing links down with it.
    for (unsigned d = 0; d < 6; ++d) {
        if (nodeOnly.neighbor(2, d) >= 0) {
            EXPECT_TRUE(nodeOnly.linkDown(2, d)) << "dir " << d;
        }
    }
}

TEST(MeshResilience, FailuresAreIdempotent)
{
    Mesh mesh;
    mesh.failNode(1);
    mesh.failNode(1);
    mesh.failLink(0, 0);
    mesh.failLink(0, 0);
    EXPECT_EQ(mesh.deadNodeCount(), 1u);
    // Node 1's death took its own valid links (4 of them at that
    // corner-adjacent position) plus the explicit 0->1 link.
    const uint64_t links = mesh.downLinkCount();
    mesh.failNode(1);
    EXPECT_EQ(mesh.downLinkCount(), links);
}

TEST(MeshResilience, DeadHomeSurfacesAsTypedNodeUnreachableFault)
{
    // The end of the line: a memory access whose home node
    // fail-stopped must come back as the typed NodeUnreachable
    // fault — never a hang, never a silent delivery failure.
    mem::MemConfig cfg;
    cfg.cache.setsPerBank = 64;
    Mesh mesh;
    GlobalMemory global;
    NodeMemory local(0, mesh, global, cfg);

    mesh.failNode(1);
    auto p = makePointer(Perm::ReadWrite, 12, nodeBase(1) + 0x1000);
    ASSERT_TRUE(p);

    const mem::MemAccess acc = local.load(p.value, 8, 100);
    EXPECT_EQ(acc.fault, Fault::NodeUnreachable);
    EXPECT_FALSE(acc.hang);
    EXPECT_EQ(local.unreachableFaults(), 1u);
    EXPECT_EQ(local.stats().get("node_unreachable_faults"), 1u);

    const mem::MemAccess st =
        local.store(p.value, Word::fromInt(1), 8, 200);
    EXPECT_EQ(st.fault, Fault::NodeUnreachable);
    EXPECT_EQ(local.unreachableFaults(), 2u);
}

TEST(MeshResilience, HealthyNodeMemoryRegistersNoUnreachableCounter)
{
    // The sharded-mesh signature mixes every node counter, so the
    // lazily registered unreachable counter must NOT appear on a
    // failure-free run — or every blessed baseline signature drifts.
    mem::MemConfig cfg;
    cfg.cache.setsPerBank = 64;
    Mesh mesh;
    GlobalMemory global;
    NodeMemory local(0, mesh, global, cfg);

    auto p = makePointer(Perm::ReadWrite, 12, nodeBase(1) + 0x1000);
    ASSERT_TRUE(p);
    const mem::MemAccess acc = local.load(p.value, 8, 100);
    EXPECT_EQ(acc.fault, Fault::None);
    EXPECT_EQ(local.stats().counters().count("node_unreachable_faults"),
              0u);
}

} // namespace
} // namespace gp::noc
