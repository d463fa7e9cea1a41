/**
 * @file
 * Host memory of a 64-node mesh. Each node's predecode table and
 * cache line array span 128 KiB apiece, but a node writes only a few
 * pages of each; the arrays live in sim::ZeroedArray blocks, so a
 * node holds only those pages. Kept as dense arrays, the 64 nodes
 * would add 16 MiB of zeroes on their own.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "isa/assembler.h"
#include "isa/loader.h"
#include "noc/shard.h"

namespace gp::noc {
namespace {

/// VmRSS of this process in KiB (0 if /proc is not readable).
uint64_t
residentKib()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    unsigned long long kib = 0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmRSS: %llu kB", &kib) == 1)
            break;
    std::fclose(f);
    return kib;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/** The F6d all-to-all loop (bench_f6_multicomputer): r1 = full-space
 * RW pointer, r2 = node id. */
constexpr const char *kF6dSrc = R"(
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

TEST(MeshMemory, F6dMeshGrowsResidentMemoryByLessThan8MiB)
{
    // Sanitizer shadow memory, not the simulator, dominates RSS there.
    if (kSanitized)
        GTEST_SKIP() << "RSS is not the simulator's in a sanitizer build";

    isa::Assembly a = isa::assemble(kF6dSrc);
    ASSERT_TRUE(a.ok) << a.error;
    const Word full = makePointer(Perm::ReadWrite, 54, 0).value;

    const uint64_t before = residentKib();
    ASSERT_GT(before, 0u) << "no VmRSS in /proc/self/status";
    ShardConfig cfg;
    cfg.mesh.dimX = 4;
    cfg.mesh.dimY = 4;
    cfg.mesh.dimZ = 4;
    cfg.node.cache = mem::CacheConfig{}; // the MAP chip's cache
    cfg.machine.clusters = 1;
    auto shard = std::make_unique<ShardedMesh>(cfg);
    for (unsigned n = 0; n < shard->nodeCount(); ++n) {
        auto prog = isa::loadProgram(shard->node(n),
                                     nodeBase(n) + 0x20000, a.words);
        isa::Thread *t = shard->machine(n).spawn(prog.execPtr);
        ASSERT_NE(t, nullptr);
        t->setReg(1, full);
        t->setReg(2, Word::fromInt(n));
    }
    shard->run(2'000'000);
    ASSERT_TRUE(shard->allDone());
    const int64_t grown = int64_t(residentKib()) - int64_t(before);
    EXPECT_LT(grown, 8 * 1024) << "a 64-node mesh grew RSS by "
                                << grown << " KiB";
}

} // namespace
} // namespace gp::noc
