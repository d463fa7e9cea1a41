/**
 * @file
 * Experiment F6 (§3): the multicomputer — guarded pointers across a
 * 3-D mesh.
 *
 * The M-Machine is a multicomputer whose 54-bit space is global: a
 * guarded pointer works identically on every node, so protection and
 * sharing need no per-node capability state. This bench measures the
 * remote-access cost surface (latency vs hop distance, caching of
 * remote lines, link contention under all-to-all traffic) and
 * verifies the invariance property: the same capability word, byte
 * for byte, is dereferenced from every node of the mesh.
 */

#include <cstring>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "isa/assembler.h"
#include "isa/loader.h"
#include "noc/node_memory.h"
#include "noc/shard.h"
#include "sim/rng.h"

namespace {

using namespace gp;
using namespace gp::noc;

void
latencyVsDistance()
{
    MeshConfig mcfg;
    mcfg.dimX = 4;
    mcfg.dimY = 2;
    mcfg.dimZ = 2;
    Mesh mesh(mcfg);
    GlobalMemory global;
    mem::MemConfig cfg;
    cfg.cache = gp::bench::mapCache();
    NodeMemory origin(0, mesh, global, cfg);

    gp::bench::Table t(
        "F6: access latency vs home-node distance (from node 0)",
        {"home node", "hops", "miss latency", "hit latency",
         "vs local miss"});

    double local_miss = 0;
    for (unsigned target : {0u, 1u, 3u, 7u, 15u}) {
        auto p = makePointer(Perm::ReadWrite, 12,
                             nodeBase(target) + 0x10000);
        const auto miss = origin.load(p.value, 8, 0);
        const auto hit = origin.load(p.value, 8, miss.completeCycle);
        if (target == 0)
            local_miss = double(miss.latency());
        t.addRow({gp::bench::fmt("%u", target),
                  gp::bench::fmt("%u", mesh.hops(0, target)),
                  gp::bench::fmt("%llu",
                                 (unsigned long long)miss.latency()),
                  gp::bench::fmt("%llu",
                                 (unsigned long long)hit.latency()),
                  gp::bench::fmt("%.2fx",
                                 double(miss.latency()) /
                                     local_miss)});
    }
    t.print();
}

void
allToAllTraffic()
{
    // Every node streams reads from every other node's partition:
    // aggregate mesh pressure, remote-hit caching, link stalls.
    MeshConfig mcfg;
    mcfg.dimX = 4;
    mcfg.dimY = 2;
    mcfg.dimZ = 2;
    Mesh mesh(mcfg);
    GlobalMemory global;
    mem::MemConfig cfg;
    cfg.cache = gp::bench::mapCache();

    std::vector<std::unique_ptr<NodeMemory>> nodes;
    for (unsigned n = 0; n < mesh.nodeCount(); ++n)
        nodes.push_back(
            std::make_unique<NodeMemory>(n, mesh, global, cfg));

    sim::Rng rng(6);
    const int kRefsPerNode = 2000;
    std::vector<uint64_t> now(mesh.nodeCount(), 0);
    for (int i = 0; i < kRefsPerNode; ++i) {
        for (unsigned n = 0; n < mesh.nodeCount(); ++n) {
            const unsigned target =
                unsigned(rng.below(mesh.nodeCount()));
            // 64 lines per target, each target in its own cache-set
            // window so capacity (not conflicts) governs hit rate.
            const uint64_t offset =
                0x10000 + uint64_t(target) * 4096 +
                rng.below(64) * 64;
            auto p = makePointer(Perm::ReadOnly, 20,
                                 nodeBase(target) + offset);
            const auto acc = nodes[n]->load(p.value, 8, now[n]);
            now[n] = acc.completeCycle;
        }
    }

    uint64_t remote = 0, local = 0, hits = 0;
    for (auto &node : nodes) {
        remote += node->stats().get("remote_misses");
        local += node->stats().get("local_misses");
        hits += node->stats().get("hits");
    }
    const uint64_t total =
        uint64_t(kRefsPerNode) * mesh.nodeCount();

    gp::bench::Table t("F6b: all-to-all random reads, 16 nodes",
                       {"metric", "value"});
    t.addRow({"references", gp::bench::fmt("%llu",
                                           (unsigned long long)total)});
    t.addRow({"cache hits (incl. cached remote lines)",
              gp::bench::fmt("%llu (%.1f%%)", (unsigned long long)hits,
                             100.0 * double(hits) / double(total))});
    t.addRow({"local misses",
              gp::bench::fmt("%llu", (unsigned long long)local)});
    t.addRow({"remote misses",
              gp::bench::fmt("%llu", (unsigned long long)remote)});
    t.addRow({"mesh messages",
              gp::bench::fmt("%llu", (unsigned long long)
                                         mesh.stats().get("messages"))});
    t.addRow({"link stall cycles",
              gp::bench::fmt("%llu",
                             (unsigned long long)mesh.stats().get(
                                 "link_stall_cycles"))});
    t.addRow({"per-node protection state", "0 words (the point)"});
    t.print();
}

void
invarianceCheck()
{
    // The same capability word dereferenced from every node.
    MeshConfig mcfg;
    Mesh mesh(mcfg);
    GlobalMemory global;
    std::vector<std::unique_ptr<NodeMemory>> nodes;
    for (unsigned n = 0; n < mesh.nodeCount(); ++n)
        nodes.push_back(
            std::make_unique<NodeMemory>(n, mesh, global));

    auto p = makePointer(Perm::ReadWrite, 12, nodeBase(5) + 0x8000);
    nodes[5]->store(p.value, Word::fromInt(0x600D), 8);

    unsigned agree = 0;
    for (auto &node : nodes) {
        if (node->load(p.value, 8).data.bits() == 0x600D)
            agree++;
    }
    std::printf("\nF6c: capability invariance — %u/%u nodes "
                "dereferenced the identical 64-bit word "
                "0x%016llx successfully.\n",
                agree, mesh.nodeCount(),
                (unsigned long long)p.value.bits());
    std::printf(
        "Claims under test (SS3): one global space means capabilities "
        "cross the mesh as plain data; remote cost is\npure topology "
        "(hops + contention), with the virtually-addressed cache "
        "absorbing re-references to remote lines.\n");
}

/**
 * Sharded epoch engine over a 4x4x4 mesh: 64 full machines running a
 * pseudo-random all-to-all load/store loop. The deterministic table
 * (signature, cycles, instructions, traffic) must be byte-identical
 * for EVERY host-thread count (--threads=N). Host speed of the
 * sharded mesh is perfbench's mesh64 workload.
 */
void
shardedEpochEngine(unsigned host_threads)
{
    // One node's traffic loop: target rotates with the iteration and
    // the node id, so every node touches many remote partitions.
    // r1 = full-space RW pointer, r2 = node id.
    constexpr const char *kSrc = R"(
        movi r3, 0
        movi r4, 96
    loop:
        add r7, r3, r2
        andi r7, r7, 63
        shli r7, r7, 48
        shli r8, r3, 3
        andi r8, r8, 2040
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

    auto build = [](unsigned threads) {
        ShardConfig cfg;
        cfg.mesh.dimX = 4;
        cfg.mesh.dimY = 4;
        cfg.mesh.dimZ = 4;
        cfg.node.cache = gp::bench::mapCache();
        cfg.machine.clusters = 1;
        cfg.hostThreads = threads;
        return std::make_unique<ShardedMesh>(cfg);
    };

    isa::Assembly a = isa::assemble(kSrc);
    if (!a.ok)
        std::abort();
    auto full = makePointer(Perm::ReadWrite, 54, 0);

    auto load = [&](ShardedMesh &shard) {
        for (unsigned n = 0; n < shard.nodeCount(); ++n) {
            auto prog = isa::loadProgram(
                shard.node(n), nodeBase(n) + 0x20000, a.words);
            isa::Thread *t = shard.machine(n).spawn(prog.execPtr);
            t->setReg(1, full.value);
            t->setReg(2, Word::fromInt(n));
        }
    };

    auto shard = build(host_threads);
    load(*shard);
    shard->run(2'000'000);

    uint64_t insts = 0, remote = 0;
    for (unsigned n = 0; n < shard->nodeCount(); ++n) {
        insts += shard->machine(n).stats().get("instructions");
        remote += shard->node(n).stats().get("remote_misses");
    }

    // The deterministic table deliberately omits the host-thread
    // count: the whole point is that these values do not depend on
    // it, so perfgate can compare a --threads=1 run against a
    // --threads=4 run row for row.
    gp::bench::Table det(
        "F6d: sharded epoch engine, 64 nodes (deterministic)",
        {"metric", "value"});
    det.addRow({"nodes",
                gp::bench::fmt("%u", shard->nodeCount())});
    det.addRow({"epoch horizon",
                gp::bench::fmt("%llu", (unsigned long long)
                                           shard->epochHorizon())});
    det.addRow({"simulated cycles",
                gp::bench::fmt("%llu",
                               (unsigned long long)shard->cycle())});
    det.addRow({"instructions",
                gp::bench::fmt("%llu", (unsigned long long)insts)});
    det.addRow({"remote misses",
                gp::bench::fmt("%llu", (unsigned long long)remote)});
    det.addRow(
        {"mesh messages",
         gp::bench::fmt("%llu", (unsigned long long)shard->mesh()
                                    .stats()
                                    .get("messages"))});
    det.addRow({"signature",
                gp::bench::fmt("%016llx", (unsigned long long)
                                              shard->signature())});
    det.print();
}

} // namespace

int
main(int argc, char **argv)
{
    gp::bench::init(argc, argv);

    unsigned host_threads = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--threads=", 10) == 0)
            host_threads =
                std::max(1u, unsigned(std::atoi(argv[i] + 10)));
    }

    latencyVsDistance();
    allToAllTraffic();
    invarianceCheck();
    shardedEpochEngine(host_threads);
    return 0;
}
