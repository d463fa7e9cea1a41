/**
 * @file
 * Machine-level contract tests for the cycle-attribution profiler.
 *
 * Three properties the profiler's whole design serves, asserted on
 * real workloads rather than hand-driven hooks:
 *
 *  1. Exactness: the CPI-stack components sum to clusters x cycles —
 *     every cluster-cycle lands in exactly one component.
 *  2. Identity: per-domain (and per-thread) cycles and instruction
 *     counts tie out against the machine's own counters.
 *  3. Invisibility: arming the profiler never changes simulated
 *     timing — the cycle count is bit-identical either way.
 */

#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "isa/loader.h"
#include "isa/machine.h"
#include "os/kernel.h"
#include "sim/profile.h"

namespace gp {
namespace {

sim::ProfileConfig
allModes()
{
    sim::ProfileConfig c;
    c.pc = c.domain = c.interval = c.stacks = true;
    c.intervalCycles = 256;
    return c;
}

/** Every test starts and ends with a pristine, disarmed profiler. */
class ProfileWorkloadTest : public ::testing::Test
{
  protected:
    void SetUp() override { sim::Profiler::instance().reset(); }
    void TearDown() override { sim::Profiler::instance().reset(); }

    sim::Profiler &prof() { return sim::Profiler::instance(); }
};

/** The Fig. 5-style multithreaded load sweep, optionally profiled. */
uint64_t
runMemoryWorkload(unsigned nthreads, bool profiled,
                  uint64_t *instructions = nullptr)
{
    isa::MachineConfig cfg;
    isa::Machine m(cfg);
    if (profiled)
        sim::Profiler::instance().arm(
            cfg.clusters, cfg.clusters * cfg.threadsPerCluster,
            allModes());

    auto assembly = isa::assemble(R"(
        movi r10, 0
        movi r11, 32
        loop:
        ld r3, 0(r2)
        ld r4, 8(r2)
        leai r2, r2, 16
        addi r10, r10, 1
        bne r10, r11, loop
        halt
    )");
    EXPECT_TRUE(assembly.ok) << assembly.error;
    for (unsigned i = 0; i < nthreads; ++i) {
        auto prog = isa::loadProgram(m.mem(),
                                     (uint64_t(i) + 1) << 20,
                                     assembly.words);
        isa::Thread *t = m.spawn(prog.execPtr);
        EXPECT_NE(t, nullptr);
        t->setReg(2, isa::dataSegment((uint64_t(i) + 1) << 30, 12));
    }
    m.run(1'000'000);
    if (instructions)
        *instructions = m.stats().get("instructions");
    if (profiled)
        sim::Profiler::instance().disarm();
    return m.cycle();
}

TEST_F(ProfileWorkloadTest, ComponentsSumToClustersTimesCycles)
{
    uint64_t instructions = 0;
    const uint64_t cycles = runMemoryWorkload(8, true, &instructions);

    uint64_t sum = 0;
    for (unsigned i = 0; i < sim::kProfCompCount; ++i)
        sum += prof().comp(sim::ProfComp(i));
    EXPECT_EQ(sum, prof().clusterCycles())
        << "every cluster-cycle lands in exactly one component";
    EXPECT_EQ(prof().clusterCycles(),
              uint64_t(prof().clusters()) * cycles)
        << "attribution covers every cycle of every cluster";
    EXPECT_EQ(prof().instructions(), instructions)
        << "profiler instruction count ties out with the machine's";
    EXPECT_GT(prof().comp(sim::ProfComp::Issue), 0u);
    EXPECT_GT(prof().comp(sim::ProfComp::IFetch), 0u);
    EXPECT_GT(prof().comp(sim::ProfComp::DCache), 0u);
}

TEST_F(ProfileWorkloadTest, DomainAndThreadSumsTieOut)
{
    runMemoryWorkload(8, true);

    const uint64_t busy =
        prof().clusterCycles() - prof().comp(sim::ProfComp::Empty);
    uint64_t dom_cycles = 0, dom_insts = 0;
    for (const auto &d : prof().domains()) {
        dom_cycles += d.cycles;
        dom_insts += d.insts;
    }
    EXPECT_EQ(dom_cycles, busy)
        << "per-domain cycles partition the busy cluster-cycles";
    EXPECT_EQ(dom_insts, prof().instructions());

    uint64_t thr_cycles = 0, thr_insts = 0;
    for (unsigned s = 0; s < 16; ++s) {
        thr_cycles += prof().threadCycles(s);
        thr_insts += prof().threadInsts(s);
    }
    EXPECT_EQ(thr_cycles, busy);
    EXPECT_EQ(thr_insts, prof().instructions());

    // 8 threads in 8 distinct code segments: 8 domains, each with
    // the same static program, so equal instruction counts.
    ASSERT_EQ(prof().domains().size(), 8u);
    for (const auto &d : prof().domains())
        EXPECT_EQ(d.insts, prof().instructions() / 8);
}

TEST_F(ProfileWorkloadTest, ProfilingIsObservationallyInvisible)
{
    uint64_t insts_off = 0, insts_on = 0;
    const uint64_t off = runMemoryWorkload(8, false, &insts_off);
    const uint64_t on = runMemoryWorkload(8, true, &insts_on);
    EXPECT_EQ(off, on)
        << "arming the profiler must not change simulated timing";
    EXPECT_EQ(insts_off, insts_on);
}

TEST_F(ProfileWorkloadTest, PerPcAttributionCoversOccupancy)
{
    runMemoryWorkload(2, true);
    ASSERT_FALSE(prof().pcs().empty());
    uint64_t insts = 0;
    for (const auto &pc : prof().pcs()) {
        insts += pc.insts;
        uint64_t sum = 0;
        for (unsigned i = 0; i < sim::kProfCompCount; ++i)
            sum += pc.comp[i];
        EXPECT_EQ(sum, pc.cycles)
            << "PC 0x" << std::hex << pc.pc
            << ": components must tile its occupancy cycles";
    }
    EXPECT_EQ(insts, prof().instructions());
}

TEST_F(ProfileWorkloadTest, GateCrossingsBuildCallStacks)
{
    // A caller crossing into a protected subsystem via an enter
    // pointer (the Fig. 3 sequence): with stacks on, the profiler
    // must record a multi-frame caller->subsystem stack, named after
    // the kernel's registered domains — the flamegraph input.
    sim::Profiler::instance().arm(4, 16, allModes());

    os::Kernel kernel;
    auto data = kernel.segments().allocate(4096, Perm::ReadWrite);
    auto sub = kernel.buildSubsystem(R"(
        getip r2
        leabi r2, r2, 0
        ld r3, 0(r2)
        ld r4, 0(r3)
        addi r4, r4, 1
        st r4, 0(r3)
        jmp r14
    )",
                                     {data.value});
    auto caller = kernel.loadAssembly(R"(
        movi r10, 0
        movi r11, 16
        loop:
        getip r14
        leai r14, r14, 24
        jmp r1
        addi r10, r10, 1
        bne r10, r11, loop
        halt
    )");
    ASSERT_TRUE(data && sub && caller);
    isa::Thread *t = kernel.spawn(caller.value.execPtr,
                                  {{1, sub.value.enterPtr}});
    ASSERT_NE(t, nullptr);
    kernel.machine().run(100'000);
    ASSERT_EQ(t->state(), isa::ThreadState::Halted);
    prof().disarm();

    // Both domains present and named by the kernel's registration.
    bool saw_sub = false;
    for (const auto &d : prof().domains())
        saw_sub |= d.name == "sub1";
    EXPECT_TRUE(saw_sub);

    size_t multi = 0;
    uint64_t multi_cycles = 0;
    for (const auto &s : prof().stacks()) {
        if (s.frames.size() > 1) {
            multi++;
            multi_cycles += s.cycles;
            for (uint32_t f : s.frames)
                EXPECT_LT(f, prof().domains().size());
        }
    }
    EXPECT_GE(multi, 1u) << "the subsystem must appear as a leaf "
                            "frame under its caller";
    EXPECT_GT(multi_cycles, 0u);

    // The subsystem's per-domain enter count reflects the crossings:
    // one enter per call (plus none for the return, which re-enters
    // the caller's domain instead).
    for (const auto &d : prof().domains()) {
        if (d.name == "sub1") {
            EXPECT_EQ(d.enters, 16u);
        }
    }
}

TEST_F(ProfileWorkloadTest, IntervalSeriesCoversTheRun)
{
    const uint64_t cycles = runMemoryWorkload(8, true);
    ASSERT_FALSE(prof().intervals().empty());
    uint64_t insts = 0;
    uint64_t last = 0;
    for (const auto &iv : prof().intervals()) {
        EXPECT_GT(iv.cycle, last);
        last = iv.cycle;
        insts += iv.insts;
    }
    EXPECT_LE(last, cycles);
    EXPECT_LE(insts, prof().instructions())
        << "snapshots cover whole intervals; the final partial "
           "interval stays unsnapshotted";
}

} // namespace
} // namespace gp
