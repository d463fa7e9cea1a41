/**
 * @file
 * Benchmark self-test: the workloads must reproduce the simulator's
 * blessed numbers before their host timings mean anything.
 *
 *  - one fig5-hit machine at 4 banks reproduces the P1 legacy row of
 *    bench/BENCH_PERF.json: 94156 cycles, 114480 instructions;
 *  - the mesh program at the F6d length (96 loops, identity
 *    rotation) reproduces signature 5c787dfaf2fdff29 at 1 and at 2
 *    host threads.
 *
 * Exit 0 when every check passes, 1 otherwise.
 */

#include <cstdio>

#include "isa/machine.h"
#include "sim/log.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int failures = 0;

void
expect(bool ok, const char *what, unsigned long long got,
       unsigned long long want)
{
    std::printf("%s %s: got %llu (%#llx), want %llu (%#llx)\n",
                ok ? "PASS" : "FAIL", what, got, got, want, want);
    failures += ok ? 0 : 1;
}

} // namespace

int
main()
{
    gp::sim::setQuiet(true);

    const gp::isa::Assembly fig5 = assembleOrDie(kFig5Source);
    gp::isa::MachineConfig cfg;
    cfg.mem.cache = mapCache();
    cfg.mem.cache.banks = 4;
    gp::isa::Machine m(cfg);
    loadFig5(m, m.port(), fig5);
    m.run(50'000'000);
    expect(m.cycle() == 94156, "fig5-hit 4-bank cycles", m.cycle(),
           94156);
    const uint64_t insts = m.stats().get("instructions");
    expect(insts == 114480, "fig5-hit 4-bank instructions", insts,
           114480);

    const gp::isa::Assembly mesh_program = assembleOrDie(meshSource(96));
    for (unsigned threads : {1u, 2u}) {
        auto mesh = buildMesh(mesh_program, threads, {});
        mesh->run(2'000'000);
        const bool halted = meshError(*mesh).empty();
        expect(halted && mesh->signature() == 0x5c787dfaf2fdff29ull,
               threads == 1 ? "F6d signature, 1 host thread"
                            : "F6d signature, 2 host threads",
               mesh->signature(), 0x5c787dfaf2fdff29ull);
    }

    std::printf("%s\n", failures ? "selftest FAILED" : "selftest ok");
    return failures ? 1 : 0;
}
