/**
 * @file
 * Tests for the multicomputer memory view: one global space, local
 * caches, remote misses over the mesh — and the headline property
 * that a guarded pointer to remote memory is the same unmodified
 * word that works locally.
 */

#include <gtest/gtest.h>

#include <memory>

#include "noc/node_memory.h"
#include "sim/faultinject.h"
#include "sim/profile.h"

namespace gp::noc {
namespace {

class NodeMemoryTest : public ::testing::Test
{
  protected:
    NodeMemoryTest() : mesh_(MeshConfig{})
    {
        mem::MemConfig cfg;
        cfg.cache.setsPerBank = 64;
        for (unsigned n = 0; n < 4; ++n) {
            nodes_.push_back(std::make_unique<NodeMemory>(
                n, mesh_, global_, cfg));
        }
    }

    NodeMemory &node(unsigned n) { return *nodes_[n]; }

    /** Mint an RW pointer into `node`'s partition at offset. */
    Word
    ptrOn(unsigned node, uint64_t offset, uint64_t len = 12)
    {
        auto p = makePointer(Perm::ReadWrite, len,
                             nodeBase(node) + offset);
        EXPECT_TRUE(p);
        return p.value;
    }

    Mesh mesh_;
    GlobalMemory global_;
    std::vector<std::unique_ptr<NodeMemory>> nodes_;
};

TEST_F(NodeMemoryTest, AddressPartitioning)
{
    EXPECT_EQ(homeNode(nodeBase(0) + 0x1000), 0u);
    EXPECT_EQ(homeNode(nodeBase(3) + 0x1000), 3u);
    EXPECT_EQ(homeNode(nodeBase(63)), 63u);
    EXPECT_LT(nodeBase(63) + (uint64_t(1) << kNodeShift) - 1,
              kAddressSpaceBytes)
        << "partitions tile the 54-bit space exactly";
}

TEST_F(NodeMemoryTest, LocalStoreLoad)
{
    Word p = ptrOn(0, 0x10000);
    EXPECT_EQ(node(0).store(p, Word::fromInt(42), 8).fault,
              Fault::None);
    auto ld = node(0).load(p, 8);
    EXPECT_EQ(ld.fault, Fault::None);
    EXPECT_EQ(ld.data.bits(), 42u);
}

TEST_F(NodeMemoryTest, RemoteAccessSamePointerWorks)
{
    // The paper's global-space property: node 2 dereferences a
    // pointer to node 0's memory with the identical word node 0 uses.
    Word p = ptrOn(0, 0x10000);
    node(0).store(p, Word::fromInt(0x5EED), 8);
    auto ld = node(2).load(p, 8);
    EXPECT_EQ(ld.fault, Fault::None);
    EXPECT_EQ(ld.data.bits(), 0x5EEDu);
    EXPECT_EQ(node(2).stats().get("remote_misses"), 1u);
}

TEST_F(NodeMemoryTest, RemoteMissCostsMeshRoundTrip)
{
    Word local = ptrOn(1, 0x20000);
    Word remote = ptrOn(3, 0x20000);
    const auto l = node(1).load(local, 8, 0);
    const auto r = node(1).load(remote, 8, 0);
    EXPECT_GT(r.latency(), l.latency())
        << "remote miss pays the network";
}

TEST_F(NodeMemoryTest, RemoteHitsAreLocalAfterCaching)
{
    Word remote = ptrOn(3, 0x30000);
    node(0).store(remote, Word::fromInt(7), 8);
    const auto miss = node(0).load(remote, 8, 0);
    const auto hit = node(0).load(remote, 8, miss.completeCycle);
    EXPECT_TRUE(hit.cacheHit);
    EXPECT_EQ(hit.latency(), 1u)
        << "virtually-addressed cache makes remote data local";
}

TEST_F(NodeMemoryTest, LatencyGrowsWithHopDistance)
{
    // Default mesh is 4x2x2: node 0 -> 1 is one hop, 0 -> 3 is three.
    const auto near = node(0).load(ptrOn(1, 0x40000), 8, 0);
    const auto far = node(0).load(ptrOn(3, 0x40000), 8, 0);
    EXPECT_GT(far.latency(), near.latency());
}

TEST_F(NodeMemoryTest, PermissionChecksIdenticalForRemote)
{
    auto ro = restrictPerm(ptrOn(3, 0x50000), Perm::ReadOnly);
    ASSERT_TRUE(ro);
    auto st = node(0).store(ro.value, Word::fromInt(1), 8);
    EXPECT_EQ(st.fault, Fault::PermissionDenied);
    EXPECT_EQ(st.completeCycle, st.startCycle)
        << "faults before any network traffic";
    EXPECT_EQ(mesh_.stats().get("messages"), 0u);
}

TEST_F(NodeMemoryTest, HomeOutsideTheMeshFaultsAtIssue)
{
    // The default mesh has 16 nodes; a pointer into home 40 passes
    // the pointer check but names no node. Both a load and a store
    // end at issue with the typed fault, before any network traffic.
    const Word p = ptrOn(40, 0x1000);
    const auto ld = node(0).load(p, 8, 100);
    EXPECT_EQ(ld.fault, Fault::NodeUnreachable);
    EXPECT_EQ(ld.startCycle, 100u);
    EXPECT_EQ(ld.completeCycle, 100u);
    const auto st = node(2).store(p, Word::fromInt(1), 8, 200);
    EXPECT_EQ(st.fault, Fault::NodeUnreachable);
    EXPECT_EQ(st.completeCycle, st.startCycle);
    EXPECT_EQ(node(0).unreachableFaults(), 1u);
    EXPECT_EQ(node(2).unreachableFaults(), 1u);
    EXPECT_EQ(node(0).stats().get("access_faults"), 0u);
    EXPECT_EQ(mesh_.stats().get("messages"), 0u);
}

TEST_F(NodeMemoryTest, CapabilitiesTravelAcrossNodes)
{
    // Node 0 stores a capability into node 1's memory; node 2 loads
    // it and dereferences it — three nodes, one word, no translation
    // of the capability anywhere.
    Word target = ptrOn(3, 0x60000);
    node(3).store(target, Word::fromInt(0xABCD), 8);

    Word mailbox = ptrOn(1, 0x70000);
    auto grant = restrictPerm(target, Perm::ReadOnly);
    ASSERT_TRUE(grant);
    node(0).store(mailbox, grant.value, 8);

    auto fetched = node(2).load(mailbox, 8);
    ASSERT_EQ(fetched.fault, Fault::None);
    ASSERT_TRUE(fetched.data.isPointer()) << "tag crossed the mesh";
    auto deref = node(2).load(fetched.data, 8);
    EXPECT_EQ(deref.data.bits(), 0xABCDu);
}

TEST(NodeMemoryProfile, LossyRemoteLoadItemisesRetransmitAndNoc)
{
    // Remote loads over a lossy link with the protocol on. Each leg
    // of a miss must be itemised as Retransmit = its retryCycles and
    // Noc = the rest of the leg, and the profile must still tile.
    // A twin Retransmitter fed the same injector stream and the same
    // leg start cycles on a fresh mesh yields each leg's Delivery.
    sim::FaultConfig fc;
    fc.seed = 5;
    fc.rate[unsigned(sim::FaultSite::NocDrop)] = 0.3;
    RetransConfig rc;
    rc.enabled = true;
    rc.maxAttempts = 16;
    mem::MemConfig cfg;
    const mem::MemTiming &tm = cfg.timing;
    const unsigned kLoads = 24;
    auto issueCycle = [](unsigned i) { return uint64_t(i) * 20000; };

    auto &inj = sim::FaultInjector::instance();
    uint64_t retransmit = 0, noc = 0;
    std::vector<uint64_t> done;
    {
        Mesh twinMesh;
        Retransmitter twin(twinMesh, rc, "t_twin_legs");
        inj.arm(fc);
        for (unsigned i = 0; i < kLoads; ++i) {
            // Every load misses into a fresh page: probe, LTLB miss,
            // walk, then the request leg.
            const uint64_t t =
                issueCycle(i) + tm.cacheHit + tm.tlbLookup + tm.ptWalk;
            const Delivery rq = twin.transfer(0, 3, t, 1);
            const uint64_t served = rq.cycle + tm.extMemAccess;
            const Delivery rp =
                twin.transfer(3, 0, served, cfg.cache.lineBytes / 8);
            ASSERT_TRUE(rq.delivered && rp.delivered);
            retransmit += rq.retryCycles + rp.retryCycles;
            noc += (rq.cycle - t - rq.retryCycles) +
                   (rp.cycle - served - rp.retryCycles);
            done.push_back(rp.cycle);
        }
        inj.disarm();
    }
    ASSERT_GT(retransmit, 0u) << "the storm must force retries";

    Mesh mesh;
    GlobalMemory global;
    NodeMemory node(0, mesh, global, cfg, rc);
    sim::Profiler &prof = sim::Profiler::instance();
    prof.reset();
    sim::ProfileConfig pc;
    pc.pc = true;
    prof.arm(1, 1, pc);
    inj.arm(fc);
    for (unsigned i = 0; i < kLoads; ++i) {
        const uint64_t now = issueCycle(i);
        auto p = makePointer(Perm::ReadWrite, 12,
                             nodeBase(3) + 0x100000 + i * 4096);
        ASSERT_TRUE(p);
        prof.beginInst(0, now, 0x1000, 0x1000, 0x2000);
        prof.accBegin(sim::ProfComp::DCache);
        const mem::MemAccess acc = node.load(p.value, 8, now);
        ASSERT_EQ(acc.fault, Fault::None);
        ASSERT_EQ(acc.completeCycle, done[i]) << "load " << i;
        prof.flushAccess(0, acc.completeCycle - now);
        prof.endInst(0, acc.completeCycle + 1, sim::ProfComp::Compute);
    }
    inj.disarm();

    ASSERT_EQ(prof.pcs().size(), 1u);
    const auto &row = prof.pcs()[0];
    EXPECT_EQ(row.comp[unsigned(sim::ProfComp::Retransmit)], retransmit);
    EXPECT_EQ(row.comp[unsigned(sim::ProfComp::Noc)], noc);
    uint64_t sum = 0;
    for (unsigned c = 0; c < sim::kProfCompCount; ++c)
        sum += row.comp[c];
    EXPECT_EQ(sum, row.cycles) << "per-PC components tile occupancy";
    prof.reset();
}

TEST_F(NodeMemoryTest, StatsDistinguishLocalAndRemote)
{
    node(0).load(ptrOn(0, 0x1000), 8);
    node(0).load(ptrOn(2, 0x1000), 8);
    EXPECT_EQ(node(0).stats().get("local_misses"), 1u);
    EXPECT_EQ(node(0).stats().get("remote_misses"), 1u);
}

} // namespace
} // namespace gp::noc
