/**
 * @file
 * Experiment P1: host simulation speed (the perf-CI anchor).
 *
 * Unlike every other bench, P1's primary metric is *host* work per
 * simulated instruction: it runs three representative workloads —
 * the Fig. 5 multithreaded memory sweep, the F7 microkernel server
 * chain, and a fault-injection campaign — and reports simulated
 * instructions (or runs) per host second, timed tightly around the
 * simulation loop so loader/assembler setup is excluded.
 *
 * The output is split into two tables on purpose:
 *
 *  - "P1 signature (deterministic)": simulated cycles, instruction
 *    counts, and campaign outcome classes. These are pure functions
 *    of the simulator and must be *bit-identical* on every host and
 *    every commit that claims to be observationally invisible.
 *    tools/perfgate.py hard-fails CI when they drift from the
 *    checked-in bench/BENCH_PERF.json baseline.
 *
 *  - "P1 host speed (host-dependent)": wall time and derived rates.
 *    Informational / warn-only in CI — machines differ; the
 *    committed baseline documents the reference machine's numbers.
 *
 * See docs/ARCHITECTURE.md ("Performance & perf-CI") for the
 * conventions this bench enforces.
 */

#include <chrono>
#include <string>

#include "bench_util.h"
#include "fault/campaign.h"
#include "isa/assembler.h"
#include "isa/loader.h"
#include "isa/machine.h"
#include "os/kernel.h"
#include "sim/log.h"
#include "sim/profile.h"
#include "verify/verifier.h"

namespace {

using namespace gp;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ArmResult
{
    uint64_t cycles = 0;       //!< simulated cycles (deterministic)
    uint64_t instructions = 0; //!< simulated instructions (det.)
    double wallSeconds = 0;    //!< host time around the sim loop only
};

/**
 * The Fig. 5 memory-system workload (mirrors bench_fig5_map_memsys):
 * 16 threads, each with its own code copy and data segment, sweeping
 * 8 x 127 x 4 loads.
 */
ArmResult
runFig5Program(isa::Machine &machine)
{
    auto assembly = isa::assemble(R"(
        movi r12, 0
        movi r13, 8
        outer:
        leabi r2, r1, 0
        movi r10, 0
        movi r11, 127
        inner:
        ld r3, 0(r2)
        ld r4, 8(r2)
        ld r5, 16(r2)
        ld r6, 24(r2)
        leai r2, r2, 32
        addi r10, r10, 1
        bne r10, r11, inner
        addi r12, r12, 1
        bne r12, r13, outer
        halt
    )");
    if (!assembly.ok)
        sim::fatal("P1: %s", assembly.error.c_str());
    for (unsigned i = 0; i < 16; ++i) {
        const uint64_t code_base =
            ((uint64_t(i) + 1) << 20) + uint64_t(i) * 128;
        auto prog =
            isa::loadProgram(machine.mem(), code_base, assembly.words);
        isa::Thread *t = machine.spawn(prog.execPtr);
        if (!t)
            sim::fatal("P1: out of thread slots");
        t->setReg(1, isa::dataSegment(((uint64_t(i) + 1) << 30) +
                                          uint64_t(i) * 4096,
                                      12));
    }
    ArmResult r;
    const auto t0 = Clock::now();
    machine.run(50'000'000);
    r.wallSeconds = secondsSince(t0);
    r.cycles = machine.cycle();
    r.instructions = machine.stats().get("instructions");
    return r;
}

/**
 * Arm 1: the Fig. 5 memory-system workload at its heaviest point
 * (16 threads, 4 banks) plus the most serialized one (16 threads,
 * 1 bank), so both the hit-dominated and conflict-dominated paths
 * are exercised. Workload mirrors bench_fig5_map_memsys.
 */
ArmResult
runFig5Arm()
{
    ArmResult r;
    for (unsigned banks : {4u, 1u}) {
        isa::MachineConfig cfg;
        cfg.mem.cache = gp::bench::mapCache();
        cfg.mem.cache.banks = banks;
        isa::Machine machine(cfg);
        const ArmResult one = runFig5Program(machine);
        r.wallSeconds += one.wallSeconds;
        r.cycles += one.cycles;
        r.instructions += one.instructions;
    }
    return r;
}

/**
 * Arm 2: the F7 microkernel chain — a caller crossing two protected
 * subsystems per request via enter pointers, exercising the OS
 * layer, gate crossings, and the fault-free control-flow paths.
 */
ArmResult
runMicrokernelArm()
{
    constexpr int kRequests = 512;

    os::Kernel kernel;
    auto state = kernel.segments().allocate(4096, Perm::ReadWrite);
    auto server = kernel.buildSubsystem(R"(
        getip r2
        leabi r2, r2, 0
        ld r3, 0(r2)
        ld r4, 0(r3)
        addi r4, r4, 1
        st r4, 0(r3)
        jmp r12
    )",
                                        {state.value});
    auto front_table =
        kernel.segments().allocate(4096, Perm::ReadWrite);
    auto front = kernel.buildSubsystem(R"(
        getip r2
        leabi r2, r2, 0
        ld r3, 0(r2)
        ld r4, 8(r2)
        ld r5, 0(r3)
        getip r12
        leai r12, r12, 24
        jmp r4
        jmp r14
    )",
                                       {front_table.value,
                                        server ? server.value.enterPtr
                                               : Word{}});
    if (!state || !server || !front_table || !front)
        sim::fatal("P1: microkernel setup failed");

    auto caller = kernel.loadAssembly(R"(
        movi r10, 0
        movi r11, )" + std::to_string(kRequests) +
                                      R"(
        loop:
        getip r14
        leai r14, r14, 24
        jmp r1
        addi r10, r10, 1
        bne r10, r11, loop
        halt
    )");
    if (!caller)
        sim::fatal("P1: caller failed");
    isa::Thread *t =
        kernel.spawn(caller.value.execPtr,
                     {{1, front.value.enterPtr}});
    if (!t)
        sim::fatal("P1: no slot");

    ArmResult r;
    const auto t0 = Clock::now();
    kernel.machine().run(50'000'000);
    r.wallSeconds = secondsSince(t0);
    if (t->state() != isa::ThreadState::Halted)
        sim::fatal("P1: chain faulted: %s",
                   std::string(faultName(t->faultRecord().fault))
                       .c_str());
    r.cycles = kernel.machine().cycle();
    r.instructions = kernel.machine().stats().get("instructions");
    return r;
}

/**
 * Arm 4: the profiler contract. Runs the heaviest Fig. 5 point
 * (16 threads, 4 banks) twice — profiling off, then fully on — and
 * fatals unless the simulated signature is bit-identical and the
 * profiled run's CPI components sum exactly to clusters x cycles.
 * The off run's wall time lands in the host table next to the on
 * run's, making any host-speed cost of the disarmed hooks (which
 * must be one static-bool branch per site) visible to perfgate.
 */
struct ProfiledArm
{
    ArmResult off;
    ArmResult on;
};

ProfiledArm
runFig5ProfiledArm()
{
    auto run_once = [&](bool profiled) {
        isa::MachineConfig cfg;
        cfg.mem.cache = gp::bench::mapCache();
        cfg.mem.cache.banks = 4;
        isa::Machine machine(cfg);
        if (profiled) {
            sim::ProfileConfig pcfg;
            pcfg.pc = pcfg.domain = pcfg.interval = pcfg.stacks = true;
            sim::Profiler::instance().arm(
                cfg.clusters, cfg.clusters * cfg.threadsPerCluster,
                pcfg);
        }
        const ArmResult r = runFig5Program(machine);
        if (profiled)
            sim::Profiler::instance().disarm();
        return r;
    };

    ProfiledArm arm;
    arm.off = run_once(false);
    arm.on = run_once(true);

    if (arm.off.cycles != arm.on.cycles ||
        arm.off.instructions != arm.on.instructions)
        sim::fatal("P1: profiling changed simulated behaviour: "
                   "%llu/%llu cycles, %llu/%llu instructions",
                   (unsigned long long)arm.off.cycles,
                   (unsigned long long)arm.on.cycles,
                   (unsigned long long)arm.off.instructions,
                   (unsigned long long)arm.on.instructions);

    const auto &prof = sim::Profiler::instance();
    uint64_t sum = 0;
    for (unsigned i = 0; i < sim::kProfCompCount; ++i)
        sum += prof.comp(sim::ProfComp(i));
    if (sum != prof.clusterCycles() ||
        sum != uint64_t(prof.clusters()) * prof.cycles())
        sim::fatal("P1: CPI components sum to %llu, expected %llu",
                   (unsigned long long)sum,
                   (unsigned long long)prof.clusterCycles());
    if (prof.instructions() != arm.on.instructions)
        sim::fatal("P1: profiler counted %llu instructions, "
                   "machine %llu",
                   (unsigned long long)prof.instructions(),
                   (unsigned long long)arm.on.instructions);
    return arm;
}

/**
 * Arm 5: verifier-driven check elision (ISSUE 7). An elide-friendly
 * variant of the Fig. 5 sweep — constant-offset loads plus fresh
 * (non-loop-carried) pointer arithmetic the verifier can discharge —
 * runs once with full checks and once with the proof registered.
 * Deterministic contract: instruction counts are identical, elide-on
 * cycles never exceed elide-off cycles, and the elided/executed/saved
 * counters are pure functions of the simulator. The two host rows
 * make the host-speed gain of skipping proven check work visible.
 */
struct ElideArm
{
    ArmResult off;
    ArmResult on;
    uint64_t elided = 0;
    uint64_t executed = 0;
    uint64_t cyclesSaved = 0;
};

ElideArm
runFig5ElideArm()
{
    const std::string src = R"(
        movi r10, 0
        movi r11, 1024
        loop:
        leabi r2, r1, 0
        ld r3, 0(r2)
        ld r4, 8(r2)
        ld r5, 16(r2)
        ld r6, 24(r2)
        leai r7, r2, 32
        addi r10, r10, 1
        bne r10, r11, loop
        halt
    )";
    auto assembly = isa::assemble(src);
    if (!assembly.ok)
        sim::fatal("P1: %s", assembly.error.c_str());

    verify::VerifyOptions vopts;
    vopts.entryRegs = verify::defaultEntryRegs(4096);
    const verify::VerifyResult vres =
        verify::verifyProgram(assembly, vopts);

    ElideArm arm;
    auto run_once = [&](bool elide) {
        ArmResult r;
        isa::MachineConfig cfg;
        cfg.mem.cache = gp::bench::mapCache();
        cfg.mem.cache.banks = 4;
        cfg.elideChecks = elide;
        isa::Machine machine(cfg);
        for (unsigned i = 0; i < 16; ++i) {
            const uint64_t code_base =
                ((uint64_t(i) + 1) << 20) + uint64_t(i) * 128;
            if (elide)
                machine.registerElideProof(verify::makeElideProof(
                    vres, assembly.words, false, code_base));
            auto prog = isa::loadProgram(machine.mem(), code_base,
                                         assembly.words);
            isa::Thread *t = machine.spawn(prog.execPtr);
            if (!t)
                sim::fatal("P1: out of thread slots");
            t->setReg(1,
                      isa::dataSegment(((uint64_t(i) + 1) << 30) +
                                           uint64_t(i) * 4096,
                                       12));
        }
        const auto t0 = Clock::now();
        machine.run(50'000'000);
        r.wallSeconds = secondsSince(t0);
        r.cycles = machine.cycle();
        r.instructions = machine.stats().get("instructions");
        if (elide) {
            arm.elided =
                machine.stats().get("elide_checks_elided");
            arm.executed =
                machine.stats().get("elide_checks_executed");
            arm.cyclesSaved =
                machine.stats().get("elide_cycles_saved");
        }
        return r;
    };

    arm.off = run_once(false);
    arm.on = run_once(true);

    if (arm.off.instructions != arm.on.instructions)
        sim::fatal("P1: elision changed the instruction count: "
                   "%llu -> %llu",
                   (unsigned long long)arm.off.instructions,
                   (unsigned long long)arm.on.instructions);
    if (arm.on.cycles > arm.off.cycles)
        sim::fatal("P1: elision made the run slower: %llu -> %llu "
                   "cycles",
                   (unsigned long long)arm.off.cycles,
                   (unsigned long long)arm.on.cycles);
    if (arm.elided == 0 || arm.cyclesSaved == 0)
        sim::fatal("P1: elide arm proved nothing (elided=%llu, "
                   "saved=%llu)",
                   (unsigned long long)arm.elided,
                   (unsigned long long)arm.cyclesSaved);
    return arm;
}

/**
 * Arm 6: functional-only --fast mode on the heaviest Fig. 5 point.
 * Deterministic contract (fatal on violation): --fast preserves the
 * instruction count of the timed run. perfgate additionally requires
 * the in-run fig5-fast rate to be >= 2x the in-run fig5-memsys rate
 * (a same-host ratio, robust to machine differences).
 */
ArmResult
runFig5FastArm(const ArmResult &timed)
{
    isa::MachineConfig cfg;
    cfg.mem.cache = gp::bench::mapCache();
    cfg.mem.cache.banks = 4;
    cfg.fastMode = true;
    isa::Machine machine(cfg);
    const ArmResult r = runFig5Program(machine);
    if (r.instructions != timed.instructions)
        sim::fatal("P1: fast mode changed the instruction count: "
                   "%llu -> %llu",
                   (unsigned long long)timed.instructions,
                   (unsigned long long)r.instructions);
    return r;
}

/** Arm 3: a small deterministic fault campaign (hardened config). */
struct CampaignArm
{
    fault::CampaignTotals totals;
    uint64_t goldenCycles = 0;
    double wallSeconds = 0;
};

CampaignArm
runCampaignArm()
{
    fault::CampaignConfig cfg;
    cfg.seed = 12345;
    cfg.runs = 24;
    cfg.ecc = mem::EccMode::Secded;
    cfg.walkRetries = 2;
    cfg.faults.rate[unsigned(sim::FaultSite::MemDataBit)] = 3e-4;
    cfg.faults.rate[unsigned(sim::FaultSite::MemTagBit)] = 1e-4;
    cfg.faults.rate[unsigned(sim::FaultSite::TlbCorrupt)] = 1e-3;
    cfg.faults.rate[unsigned(sim::FaultSite::PtWalkTransient)] = 2e-2;

    fault::CampaignRunner runner(cfg);
    CampaignArm arm;
    const auto t0 = Clock::now();
    arm.totals = runner.runAll();
    arm.wallSeconds = secondsSince(t0);
    arm.goldenCycles = runner.goldenCycles();
    return arm;
}

} // namespace

int
main(int argc, char **argv)
{
    gp::bench::init(argc, argv);

    const ArmResult fig5 = runFig5Arm();
    const ArmResult mk = runMicrokernelArm();
    const CampaignArm camp = runCampaignArm();
    const ProfiledArm prof = runFig5ProfiledArm();
    const ElideArm elide = runFig5ElideArm();
    const ArmResult fast = runFig5FastArm(prof.off);

    // ---- Table 1: deterministic signature (hard CI gate). --------
    // Every cell here is a pure function of the simulator: any drift
    // means a change was NOT observationally invisible.
    gp::bench::Table det(
        "P1 signature (deterministic)",
        {"arm", "cycles", "instructions", "extra"});
    det.addRow({"fig5-memsys",
                gp::bench::fmt("%llu",
                               (unsigned long long)fig5.cycles),
                gp::bench::fmt("%llu",
                               (unsigned long long)fig5.instructions),
                "-"});
    det.addRow({"f7-microkernel",
                gp::bench::fmt("%llu", (unsigned long long)mk.cycles),
                gp::bench::fmt("%llu",
                               (unsigned long long)mk.instructions),
                "-"});
    det.addRow(
        {"fault-campaign",
         gp::bench::fmt("%llu",
                        (unsigned long long)camp.goldenCycles),
         gp::bench::fmt("%llu",
                        (unsigned long long)camp.totals.runs),
         gp::bench::fmt(
             "masked=%llu corrected=%llu detected=%llu sdc=%llu "
             "hang=%llu",
             (unsigned long long)camp.totals.outcome(
                 fault::Outcome::Masked),
             (unsigned long long)camp.totals.outcome(
                 fault::Outcome::Corrected),
             (unsigned long long)camp.totals.outcome(
                 fault::Outcome::DetectedFault),
             (unsigned long long)camp.totals.outcome(
                 fault::Outcome::Sdc),
             (unsigned long long)camp.totals.outcome(
                 fault::Outcome::CrashHang))});
    det.addRow({"fig5-profiled",
                gp::bench::fmt("%llu",
                               (unsigned long long)prof.on.cycles),
                gp::bench::fmt(
                    "%llu",
                    (unsigned long long)prof.on.instructions),
                "profiled==off; cpi-sum exact"});
    det.addRow(
        {"fig5-elide",
         gp::bench::fmt("%llu", (unsigned long long)elide.on.cycles),
         gp::bench::fmt("%llu",
                        (unsigned long long)elide.on.instructions),
         gp::bench::fmt("off=%llu saved=%llu elided=%llu "
                        "executed=%llu",
                        (unsigned long long)elide.off.cycles,
                        (unsigned long long)elide.cyclesSaved,
                        (unsigned long long)elide.elided,
                        (unsigned long long)elide.executed)});
    det.addRow(
        {"fig5-fast",
         gp::bench::fmt("%llu", (unsigned long long)fast.cycles),
         gp::bench::fmt("%llu", (unsigned long long)fast.instructions),
         "functional-only; timing model bypassed"});
    det.print();

    // ---- Table 2: host speed (warn-only in CI). ------------------
    gp::bench::Table host(
        "P1 host speed (host-dependent)",
        {"arm", "wall ms", "sim Minst/s", "sim Mcycles/s"});
    auto hostRow = [&](const char *name, const ArmResult &r) {
        host.addRow(
            {name, gp::bench::fmt("%.1f", r.wallSeconds * 1e3),
             gp::bench::fmt("%.2f", double(r.instructions) /
                                        r.wallSeconds / 1e6),
             gp::bench::fmt("%.2f",
                            double(r.cycles) / r.wallSeconds / 1e6)});
    };
    hostRow("fig5-memsys", fig5);
    hostRow("f7-microkernel", mk);
    hostRow("fig5-prof-off", prof.off);
    hostRow("fig5-prof-on", prof.on);
    hostRow("fig5-elide-off", elide.off);
    hostRow("fig5-elide-on", elide.on);
    hostRow("fig5-fast", fast);
    host.addRow({"fault-campaign",
                 gp::bench::fmt("%.1f", camp.wallSeconds * 1e3),
                 gp::bench::fmt("%.1f runs/s",
                                double(camp.totals.runs) /
                                    camp.wallSeconds),
                 "-"});
    host.print();

    std::printf(
        "\nPerf-CI contract: the deterministic table must match "
        "bench/BENCH_PERF.json bit-for-bit (tools/perfgate.py\n"
        "hard-fails on drift — a perf change must not change "
        "simulated behaviour). The host-speed table is warn-only;\n"
        "the committed baseline records the reference machine.\n");
    return 0;
}
