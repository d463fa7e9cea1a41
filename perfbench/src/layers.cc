#include "layers.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "gp/ops.h"
#include "gp/pointer.h"
#include "isa/loader.h"
#include "isa/machine.h"
#include "mem/cache.h"
#include "mem/ecc.h"
#include "mem/memory_system.h"
#include "mem/page_table.h"
#include "mem/tlb.h"
#include "noc/mesh.h"
#include "noc/node_memory.h"
#include "noc/shard.h"
#include "sim/stats_registry.h"
#include "workloads.h"

namespace perfbench {

using namespace gp;
using Clock = std::chrono::steady_clock;

namespace {

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Results feed this sink so the compiler cannot drop the work.
volatile uint64_t g_sink = 0;

/**
 * Median ns/op of @p batch, which performs @p ops operations per
 * call. Runs at least five batches and keeps going until @p budget_s
 * is spent.
 */
template <typename F>
double
nsPerOp(F &&batch, uint64_t ops, double budget_s)
{
    std::vector<double> per_op;
    uint64_t sink = 0;
    sink += batch(); // warm caches and lazy allocation
    const auto start = Clock::now();
    while (per_op.size() < 5 ||
           (since(start) < budget_s && per_op.size() < 1000)) {
        const auto t0 = Clock::now();
        sink += batch();
        per_op.push_back(since(t0) * 1e9 / double(ops));
    }
    g_sink = g_sink + sink;
    return median(per_op);
}

constexpr unsigned kThreads = 16;

/** Fig. 5 footprint: every word of 16 private 4 KiB segments. */
std::vector<uint64_t>
fig5Addresses()
{
    std::vector<uint64_t> a;
    for (unsigned w = 0; w < 4096 / 8; ++w)
        for (unsigned t = 0; t < kThreads; ++t)
            a.push_back(((uint64_t(t) + 1) << 30) + uint64_t(t) * 4096 +
                        uint64_t(w) * 8);
    return a;
}

/** memsys-miss stream: 16 threads striding one page plus one line
 * over private 128 KiB segments, interleaved as they issue. */
std::vector<uint64_t>
missAddresses()
{
    std::vector<uint64_t> a;
    const uint64_t seg = uint64_t(1) << 17;
    for (unsigned k = 0; k < 2048; ++k)
        for (unsigned t = 0; t < kThreads; ++t)
            a.push_back(((uint64_t(t) + 1) << 30) +
                        ((uint64_t(k) * 4128) & (seg - 32)));
    return a;
}

/** Guarded pointers to @p addrs inside segments of 2^len_log2. */
std::vector<Word>
pointersTo(const std::vector<uint64_t> &addrs, uint64_t len_log2)
{
    std::vector<Word> p;
    p.reserve(addrs.size());
    for (uint64_t a : addrs)
        p.push_back(makePointer(Perm::ReadWrite, len_log2, a).value);
    return p;
}

void
gpBenches(double budget, Values &out)
{
    // LEA deltas and pointers inside one fig5-sized 4 KiB segment.
    const Word seg = isa::dataSegment(uint64_t(1) << 30, 12);
    std::vector<int64_t> deltas;
    std::vector<Word> ptrs;
    for (unsigned i = 0; i < 4096 / 8; ++i) {
        deltas.push_back(int64_t((i * 200) % 4096) & ~int64_t(7));
        ptrs.push_back(gp::lea(seg, deltas.back()).value);
    }
    const uint64_t n = deltas.size();
    out["gp.lea_ns"] = nsPerOp(
        [&] {
            uint64_t s = 0;
            for (int64_t d : deltas)
                s += gp::lea(seg, d).value.bits();
            return s;
        },
        n, budget);
    out["gp.check_access_ns"] = nsPerOp(
        [&] {
            uint64_t s = 0;
            for (const Word &p : ptrs)
                s += unsigned(gp::checkAccess(p, Access::Load, 8));
            return s + ptrs.size();
        },
        n, budget);
    out["gp.lea_check_access_ns"] = nsPerOp(
        [&] {
            uint64_t s = 0;
            for (int64_t d : deltas)
                s += gp::leaCheckAccess(seg, d, Access::Load, 8)
                         .value.bits();
            return s;
        },
        n, budget);
    out["gp.restrict_perm_ns"] = nsPerOp(
        [&] {
            uint64_t s = 0;
            for (const Word &p : ptrs)
                s += gp::restrictPerm(p, Perm::ReadOnly).value.bits();
            return s;
        },
        n, budget);
}

void
memBenches(double budget, Values &out)
{
    const std::vector<uint64_t> hit_addrs = fig5Addresses();
    const std::vector<uint64_t> miss_addrs = missAddresses();

    {
        mem::Cache c(mapCache());
        for (uint64_t a : hit_addrs)
            c.access(a, false);
        out["mem.cache.access_hit_ns"] = nsPerOp(
            [&] {
                uint64_t s = 0;
                for (uint64_t a : hit_addrs)
                    s += c.accessHit(a, false);
                return s;
            },
            hit_addrs.size(), budget);
    }
    {
        mem::Cache c(mapCache());
        out["mem.cache.access_miss_ns"] = nsPerOp(
            [&] {
                uint64_t s = 0;
                for (uint64_t a : miss_addrs)
                    s += c.access(a, true).writeback;
                return s;
            },
            miss_addrs.size(), budget);
    }
    {
        // Lookups that miss, each followed by the refill insert, as
        // on the memsys-miss path.
        mem::Tlb tlb(64);
        out["mem.tlb.lookup_ns"] = nsPerOp(
            [&] {
                uint64_t s = 0;
                for (uint64_t a : miss_addrs) {
                    const uint64_t vpn = a >> 12;
                    if (auto pfn = tlb.lookup(vpn))
                        s += *pfn;
                    else
                        tlb.insert(vpn, vpn);
                }
                return s;
            },
            miss_addrs.size(), budget);
    }
    {
        mem::PageTable pt(4096);
        auto translate_all = [&pt](const std::vector<uint64_t> &addrs) {
            uint64_t s = 0;
            for (uint64_t a : addrs)
                s += *pt.translateAddr(a);
            return s;
        };
        // Fig. 5's 16 pages fit the memo; memsys-miss's 512 thrash it.
        out["mem.page_table.translate_hit_ns"] = nsPerOp(
            [&] { return translate_all(hit_addrs); }, hit_addrs.size(),
            budget);
        out["mem.page_table.translate_thrash_ns"] = nsPerOp(
            [&] { return translate_all(miss_addrs); },
            miss_addrs.size(), budget);
    }

    mem::MemConfig cfg;
    cfg.cache = mapCache();
    {
        mem::MemorySystem ms(cfg);
        const std::vector<Word> ptrs = pointersTo(hit_addrs, 12);
        uint64_t now = 0;
        for (const Word &p : ptrs)
            now = ms.load(p, 8, now).completeCycle;
        out["mem.memsys.load_hit_ns"] = nsPerOp(
            [&] {
                uint64_t s = 0;
                for (const Word &p : ptrs) {
                    const mem::MemAccess a = ms.load(p, 8, now);
                    now = a.completeCycle;
                    s += a.cacheHit;
                }
                return s;
            },
            ptrs.size(), budget);
    }
    const std::vector<Word> miss_ptrs = pointersTo(miss_addrs, 17);
    {
        mem::MemorySystem ms(cfg);
        uint64_t now = 0;
        out["mem.memsys.load_miss_ns"] = nsPerOp(
            [&] {
                uint64_t s = 0;
                for (const Word &p : miss_ptrs) {
                    const mem::MemAccess a = ms.load(p, 8, now);
                    now = a.completeCycle;
                    s += a.cacheHit;
                }
                return s;
            },
            miss_ptrs.size(), budget);
    }
    {
        mem::MemorySystem ms(cfg);
        uint64_t now = 0;
        out["mem.memsys.store_miss_ns"] = nsPerOp(
            [&] {
                uint64_t s = 0;
                for (const Word &p : miss_ptrs) {
                    const mem::MemAccess a =
                        ms.store(p, Word::fromInt(now), 8, now);
                    now = a.completeCycle;
                    s += a.cacheHit;
                }
                return s;
            },
            miss_ptrs.size(), budget);
    }
    {
        std::vector<uint64_t> bits;
        for (unsigned i = 0; i < 4096; ++i)
            bits.push_back(mix64(i));
        out["mem.ecc.encode_ns"] = nsPerOp(
            [&] {
                uint64_t s = 0;
                for (size_t i = 0; i < bits.size(); ++i)
                    s += mem::eccEncode(mem::EccMode::Secded, bits[i],
                                        i & 1);
                return s;
            },
            bits.size(), budget);
        std::vector<uint8_t> checks;
        for (size_t i = 0; i < bits.size(); ++i)
            checks.push_back(
                mem::eccEncode(mem::EccMode::Secded, bits[i], i & 1));
        out["mem.ecc.decode_ns"] = nsPerOp(
            [&] {
                uint64_t s = 0;
                for (size_t i = 0; i < bits.size(); ++i) {
                    uint64_t b = bits[i];
                    bool tag = i & 1;
                    uint8_t check = checks[i];
                    s += unsigned(mem::eccDecode(mem::EccMode::Secded, b,
                                                 tag, check));
                }
                return s + bits.size();
            },
            bits.size(), budget);
    }
}

void
isaBenches(double budget, Values &out)
{
    {
        // The campaign's machine shape: one cluster, one thread,
        // SECDED and walk retries.
        isa::MachineConfig cfg;
        cfg.clusters = 1;
        cfg.threadsPerCluster = 1;
        cfg.mem.ecc = mem::EccMode::Secded;
        cfg.mem.walkRetries = 2;
        constexpr unsigned kBuilds = 20;
        out["isa.machine_ctor_us"] =
            nsPerOp(
                [&] {
                    uint64_t s = 0;
                    for (unsigned i = 0; i < kBuilds; ++i) {
                        isa::Machine m(cfg);
                        s += m.threads().size();
                    }
                    return s;
                },
                kBuilds, budget) /
            1e3;
    }
    const isa::Assembly fig5 = assembleOrDie(kFig5Source);
    {
        // The interpreter alone: Fig. 5 against the functional port.
        isa::MachineConfig cfg;
        cfg.mem.cache = mapCache();
        cfg.fastMode = true;
        uint64_t insts = 0;
        {
            isa::Machine m(cfg);
            loadFig5(m, m.port(), fig5);
            m.run(50'000'000);
            insts = m.stats().get("instructions");
        }
        out["isa.fast_ns_per_inst"] = nsPerOp(
            [&] {
                isa::Machine m(cfg);
                loadFig5(m, m.port(), fig5);
                m.run(50'000'000);
                return uint64_t(m.cycle());
            },
            insts, budget);
    }
    {
        // Cost of stepping a cluster-cycle in which nothing issues:
        // 16 loads queue on a very slow external port.
        const isa::Assembly one_load =
            assembleOrDie("ld r3, 0(r1)\nhalt\n");
        isa::MachineConfig cfg;
        cfg.mem.cache = mapCache();
        cfg.mem.timing.extMemAccess = 20000;
        uint64_t idle = 0;
        auto run = [&](uint64_t *idle_out) {
            isa::Machine m(cfg);
            for (unsigned i = 0; i < kThreads; ++i) {
                auto prog = isa::loadProgram(
                    m.port(), (uint64_t(i) + 1) << 20, one_load.words);
                m.spawn(prog.execPtr)
                    ->setReg(1, isa::dataSegment(
                                    (uint64_t(i) + 1) << 30, 12));
            }
            m.run(50'000'000);
            if (idle_out)
                *idle_out = m.stats().get("idle_cluster_cycles");
            return uint64_t(m.cycle());
        };
        run(&idle);
        out["isa.stall_cluster_cycle_ns"] =
            nsPerOp([&] { return run(nullptr); }, idle, budget);
    }
}

void
nocBenches(double budget, Values &out)
{
    noc::MeshConfig mcfg;
    mcfg.dimX = mcfg.dimY = mcfg.dimZ = 4;
    std::vector<std::pair<unsigned, unsigned>> pairs;
    for (unsigned i = 0; i < 4096; ++i) {
        const unsigned from = i % 64;
        pairs.emplace_back(from, (from + 1 + (i / 64) % 63) % 64);
    }
    {
        noc::Mesh mesh(mcfg);
        uint64_t now = 0;
        out["noc.mesh.send_ns"] = nsPerOp(
            [&] {
                uint64_t s = 0;
                for (const auto &[from, to] : pairs)
                    s += mesh.send(from, to, ++now, 1);
                return s;
            },
            pairs.size(), budget);
    }
    {
        noc::Mesh mesh(mcfg);
        uint64_t now = 0;
        out["noc.mesh.try_send_ns"] = nsPerOp(
            [&] {
                uint64_t s = 0;
                for (const auto &[from, to] : pairs)
                    s += mesh.trySend(from, to, ++now, 1).cycle;
                return s;
            },
            pairs.size(), budget);
    }
    {
        // Remote loads from node 0 over a footprint far larger than
        // its cache, as drained at an epoch barrier.
        noc::Mesh mesh(mcfg);
        noc::GlobalMemory global;
        mem::MemConfig cfg;
        cfg.cache = mapCache();
        noc::NodeMemory node(0, mesh, global, cfg);
        std::vector<noc::DeferredAccess> ops;
        for (unsigned i = 0; i < 8192; ++i) {
            noc::DeferredAccess op;
            op.node = 0;
            op.ticket = i;
            op.kind = Access::Load;
            op.size = 8;
            const unsigned home = 1 + i % 63;
            op.ptr = makePointer(Perm::ReadWrite, 20,
                                 noc::nodeBase(home) + 4096 +
                                     (uint64_t(i / 63) * 32) % 65536)
                         .value;
            ops.push_back(op);
        }
        uint64_t now = 0;
        out["noc.node.resolve_deferred_ns"] = nsPerOp(
            [&] {
                uint64_t s = 0;
                for (noc::DeferredAccess &op : ops) {
                    op.cycle = now;
                    now = node.resolveDeferred(op).completeCycle;
                    s += now;
                }
                return s;
            },
            ops.size(), budget);
    }
    {
        // Post one epoch's worth of ops on every lane, then drain.
        noc::EpochExchange ex(64);
        constexpr unsigned kPerLane = 4;
        uint64_t epoch = 0;
        out["noc.exchange.drain_ns_per_op"] = nsPerOp(
            [&] {
                for (unsigned k = 0; k < kPerLane; ++k)
                    for (unsigned n = 0; n < 64; ++n) {
                        noc::DeferredAccess op;
                        op.node = n;
                        op.ticket = epoch * kPerLane + k;
                        op.cycle = epoch * 4 + (n * 7 + k) % 4;
                        ex.post(op);
                    }
                ++epoch;
                return uint64_t(ex.drain().size());
            },
            64 * kPerLane, budget);
    }
}

/** Host seconds inside ShardedMesh::run for one full run. */
double
timedMeshRun(const isa::Assembly &program, unsigned threads,
             const std::vector<unsigned> &perm, uint64_t *epochs)
{
    auto mesh = buildMesh(program, threads, perm);
    const auto t0 = Clock::now();
    mesh->run(2'000'000);
    const double s = since(t0);
    if (epochs)
        *epochs = (mesh->cycle() + mesh->epochHorizon() - 1) /
                  mesh->epochHorizon();
    return s;
}

} // namespace

double
clockReadSeconds()
{
    constexpr unsigned kReads = 200000;
    std::vector<double> per;
    for (unsigned rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        int64_t s = 0;
        for (unsigned i = 0; i < kReads; ++i)
            s += Clock::now().time_since_epoch().count();
        per.push_back(since(t0) / kReads);
        g_sink = g_sink + uint64_t(s);
    }
    return median(per);
}

void
runMicrobenches(double budget_s, Values &out)
{
    gpBenches(budget_s, out);
    memBenches(budget_s, out);
    isaBenches(budget_s, out);
    nocBenches(budget_s, out);
}

bool
runShardProbe(const isa::Assembly &program,
              const std::vector<unsigned> &perm,
              uint64_t expected_signature, Values &out)
{
    // Epochs, one horizon per run() call, at two host threads.
    std::vector<double> epoch_us;
    bool same = true;
    {
        auto mesh = buildMesh(program, kMeshHostThreads, perm);
        while (!mesh->allDone() && mesh->cycle() < 2'000'000) {
            const auto t0 = Clock::now();
            mesh->run(mesh->epochHorizon());
            epoch_us.push_back(since(t0) * 1e6);
        }
        same = mesh->signature() == expected_signature;
        const sim::StatSnapshot snap =
            sim::StatRegistry::instance().snapshot();
        const double b0 = double(snap.at("shard0.busy_cycles"));
        const double b1 = double(snap.at("shard1.busy_cycles"));
        out["shard.busy_imbalance"] =
            (b0 + b1) > 0 ? std::max(b0, b1) / ((b0 + b1) / 2) : 0;
    }
    out["shard.epochs"] = double(epoch_us.size());
    std::sort(epoch_us.begin(), epoch_us.end());
    out["shard.epoch_us_p50"] = epoch_us[epoch_us.size() / 2];
    out["shard.epoch_us_p90"] = epoch_us[epoch_us.size() * 9 / 10];

    // Speedup and barrier cost: alternate 1- and 2-thread runs.
    const isa::Assembly local = assembleOrDie(R"(
        shli r7, r2, 48
        addi r7, r7, 65536
        leab r9, r1, r7
        movi r3, 0
        movi r4, 600
    loop:
        ld r10, 0(r9)
        addi r3, r3, 1
        bne r3, r4, loop
        halt
    )");
    std::vector<double> speedup, barrier;
    for (unsigned rep = 0; rep < 3; ++rep) {
        const double one = timedMeshRun(program, 1, perm, nullptr);
        const double two = timedMeshRun(program, 2, perm, nullptr);
        speedup.push_back(one / two);
        uint64_t epochs = 0;
        const double l1 = timedMeshRun(local, 1, {}, nullptr);
        const double l2 = timedMeshRun(local, 2, {}, &epochs);
        // Excess of the 2-thread run over a perfect halving, per
        // epoch: what synchronisation costs when nothing crosses
        // shards.
        barrier.push_back((l2 - l1 / 2) / double(epochs) * 1e6);
    }
    out["shard.speedup"] = median(speedup);
    out["shard.barrier_us_per_epoch"] = median(barrier);
    return same;
}

} // namespace perfbench
