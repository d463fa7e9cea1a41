/**
 * @file
 * Parity of the two timed memory ports. A lone machine's MemorySystem
 * and a home-local mesh node's NodeMemory run one access path; only a
 * lone machine models its bank ports and its external port (with the
 * ECC check cycle and the dirty-writeback cost). Where that model has
 * nothing to charge, every access matches field for field. The other
 * cases pin the only intended differences, each with the lone path's
 * exact excess; a node that adopts the model turns them into
 * equalities.
 */

#include <gtest/gtest.h>

#include "mem/memory_system.h"
#include "noc/node_memory.h"
#include "sim/rng.h"

namespace gp::noc {
namespace {

using mem::MemAccess;
using mem::MemConfig;

/** A lone machine and node 0 of a 1x1x1 mesh, on one configuration.
 * Node 0's partition starts at address 0, so both ports see the same
 * virtual addresses. */
struct Ports
{
    explicit Ports(const MemConfig &cfg)
        : lone(cfg), mesh(MeshConfig{1, 1, 1}), node(0, mesh, global, cfg)
    {
        global.setEccMode(cfg.ecc);
    }

    mem::MemorySystem lone;
    Mesh mesh;
    GlobalMemory global;
    NodeMemory node;
};

Word
ptr(Perm perm, uint64_t addr)
{
    auto p = makePointer(perm, 16, addr);
    EXPECT_TRUE(p);
    return p.value;
}

void
expectSame(const MemAccess &lone, const MemAccess &node, int i)
{
    EXPECT_EQ(lone.fault, node.fault) << "access " << i;
    EXPECT_EQ(lone.cacheHit, node.cacheHit) << "access " << i;
    EXPECT_EQ(lone.hang, node.hang) << "access " << i;
    EXPECT_EQ(lone.deferred, node.deferred) << "access " << i;
    EXPECT_EQ(lone.ticket, node.ticket) << "access " << i;
    EXPECT_EQ(lone.startCycle, node.startCycle) << "access " << i;
    EXPECT_EQ(lone.completeCycle, node.completeCycle) << "access " << i;
    EXPECT_EQ(lone.data.bits(), node.data.bits()) << "access " << i;
    EXPECT_EQ(lone.data.isPointer(), node.data.isPointer())
        << "access " << i;
}

constexpr uint64_t kBase = 0x100000;

TEST(NodeMemoryParity, CacheResidentStreamMatchesLoneMachine)
{
    // 256 lines stay resident in the default cache, so no access
    // evicts a dirty line; each access issues one cycle after the
    // previous one completed, so no bank or port is busy; ECC is off.
    Ports p{MemConfig{}};
    sim::Rng rng(0x5eed0035);
    constexpr uint64_t kLines = 256;
    const unsigned kSizes[] = {1, 2, 4, 8};
    uint64_t now = 0;
    for (int i = 0; i < 20000; ++i) {
        const unsigned size = kSizes[rng.below(4)];
        const uint64_t addr =
            kBase + rng.below(kLines) * 32 + rng.below(32 / size) * size;
        MemAccess a, b;
        switch (rng.below(8)) {
          case 0: {
            // Not a pointer: the pre-issue check faults.
            const Word w = Word::fromInt(addr);
            a = p.lone.load(w, size, now);
            b = p.node.load(w, size, now);
            break;
          }
          case 1: {
            const Word ip = ptr(Perm::ExecuteUser, addr & ~uint64_t(7));
            a = p.lone.fetch(ip, now);
            b = p.node.fetch(ip, now);
            break;
          }
          case 2:
          case 3: {
            // A pointer value: kept whole by an 8-byte store, its tag
            // cleared by a smaller one.
            const Word v =
                rng.below(2)
                    ? ptr(Perm::ReadOnly, rng.below(uint64_t(1) << 40))
                    : Word::fromInt(rng.next());
            const Word w = ptr(Perm::ReadWrite, addr);
            a = p.lone.store(w, v, size, now);
            b = p.node.store(w, v, size, now);
            break;
          }
          default: {
            const Word w = ptr(Perm::ReadWrite, addr);
            a = p.lone.load(w, size, now);
            b = p.node.load(w, size, now);
            break;
          }
        }
        expectSame(a, b, i);
        if (::testing::Test::HasFailure())
            return;
        now = a.completeCycle + 1;
    }
    for (const char *name :
         {"hits", "loads", "stores", "fetches", "access_faults",
          "unmapped_faults", "ecc_corrected", "ecc_detected"})
        EXPECT_EQ(p.lone.stats().get(name), p.node.stats().get(name))
            << name;
    EXPECT_GT(p.lone.stats().get("hits"), 0u);
    EXPECT_GT(p.lone.stats().get("access_faults"), 0u);
    EXPECT_EQ(p.lone.stats().get("writebacks"), 0u);
}

TEST(NodeMemoryParity, DirtyEvictionCostsLoneMachineOneWriteback)
{
    // One line of cache: the second miss evicts the first, dirty.
    MemConfig cfg;
    cfg.cache.banks = 1;
    cfg.cache.setsPerBank = 1;
    cfg.cache.ways = 1;
    Ports p{cfg};
    const Word a = ptr(Perm::ReadWrite, kBase);
    const Word b = ptr(Perm::ReadWrite, kBase + 32);
    const MemAccess la = p.lone.store(a, Word::fromInt(1), 8, 0);
    const MemAccess na = p.node.store(a, Word::fromInt(1), 8, 0);
    expectSame(la, na, 0);
    const uint64_t now = la.completeCycle + 1;
    const MemAccess lb = p.lone.load(b, 8, now);
    const MemAccess nb = p.node.load(b, 8, now);
    EXPECT_FALSE(lb.cacheHit);
    EXPECT_FALSE(nb.cacheHit);
    EXPECT_EQ(lb.completeCycle - nb.completeCycle, cfg.timing.writeback);
    EXPECT_EQ(p.lone.stats().get("writebacks"), 1u);
}

TEST(NodeMemoryParity, BackToBackMissesStallLoneExternalPort)
{
    MemConfig cfg;
    Ports p{cfg};
    const Word a = ptr(Perm::ReadWrite, kBase);
    const Word b = ptr(Perm::ReadWrite, kBase + 32);
    ASSERT_NE(p.lone.bankOf(a.addr()), p.lone.bankOf(b.addr()));
    const MemAccess la = p.lone.load(a, 8, 0);
    const MemAccess na = p.node.load(a, 8, 0);
    expectSame(la, na, 0);
    // b misses one cycle later on the same page (an LTLB hit) and in
    // another bank: only the lone machine's external port is busy.
    const MemAccess lb = p.lone.load(b, 8, 1);
    const MemAccess nb = p.node.load(b, 8, 1);
    EXPECT_FALSE(lb.cacheHit);
    EXPECT_FALSE(nb.cacheHit);
    const uint64_t stall =
        la.completeCycle - (1 + cfg.timing.cacheHit + cfg.timing.tlbLookup);
    EXPECT_GT(stall, 0u);
    EXPECT_EQ(lb.completeCycle - nb.completeCycle, stall);
    EXPECT_EQ(p.lone.stats().get("ext_port_stalls"), stall);
}

TEST(NodeMemoryParity, SameBankSameCycleStallsLoneBankPort)
{
    MemConfig cfg;
    Ports p{cfg};
    const Word x = ptr(Perm::ReadWrite, kBase);
    const Word y =
        ptr(Perm::ReadWrite, kBase + cfg.cache.banks * cfg.cache.lineBytes);
    ASSERT_EQ(p.lone.bankOf(x.addr()), p.lone.bankOf(y.addr()));
    uint64_t now = 0;
    for (const Word w : {x, y}) {
        const MemAccess l = p.lone.load(w, 8, now);
        expectSame(l, p.node.load(w, 8, now), 0);
        now = l.completeCycle + 1;
    }
    // Two hits in one bank in one cycle: the second waits a cycle for
    // the lone machine's bank port.
    expectSame(p.lone.load(x, 8, now), p.node.load(x, 8, now), 1);
    const MemAccess ly = p.lone.load(y, 8, now);
    const MemAccess ny = p.node.load(y, 8, now);
    EXPECT_TRUE(ly.cacheHit);
    EXPECT_TRUE(ny.cacheHit);
    EXPECT_EQ(ly.completeCycle - ny.completeCycle, 1u);
    EXPECT_EQ(p.lone.stats().get("bank_conflict_stalls"), 1u);
}

TEST(NodeMemoryParity, SecdedChargesLoneMachineOneCyclePerFill)
{
    MemConfig cfg;
    cfg.ecc = mem::EccMode::Secded;
    Ports p{cfg};
    uint64_t now = 0;
    for (unsigned i = 0; i < 4; ++i) {
        const Word w = ptr(Perm::ReadWrite, kBase + i * 4096);
        const MemAccess l = p.lone.store(w, Word::fromInt(i), 8, now);
        const MemAccess n = p.node.store(w, Word::fromInt(i), 8, now);
        EXPECT_FALSE(l.cacheHit);
        EXPECT_EQ(l.completeCycle - n.completeCycle, 1u) << "fill " << i;
        now = l.completeCycle + 1;
        // The hit on the filled line costs both the same.
        const MemAccess lh = p.lone.load(w, 8, now);
        expectSame(lh, p.node.load(w, 8, now), int(i));
        EXPECT_EQ(lh.data.bits(), i);
        now = lh.completeCycle + 1;
    }
}

} // namespace
} // namespace gp::noc
