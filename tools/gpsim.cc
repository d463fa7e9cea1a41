/**
 * @file
 * gpsim — command-line driver for the guarded-pointer machine.
 *
 * Assembles a program from a file (or stdin with "-"), loads it on
 * the simulated MAP, gives each spawned thread a private read/write
 * data segment in r1, runs to completion, and reports final state
 * and statistics. The smallest path from "I wrote some assembly" to
 * "I watched it run under capability protection".
 *
 * Usage:
 *   gpsim prog.s [--threads N] [--data BYTES] [--clusters N]
 *                [--issue-width N] [--max-cycles N]
 *                [--ecc=off|parity|secded] [--mesh X,Y,Z]
 *                [--trace[=CATS]] [--trace-out=FILE]
 *                [--flight-recorder=N] [--stats-json=FILE]
 *                [--profile[=MODES]] [--profile-out=FILE]
 *                [--profile-interval=N]
 *                [--dump-regs] [--dump-stats] [--privileged]
 *
 * --mesh X,Y,Z runs the same pipeline on a sharded multicomputer:
 * gpsim builds either the kernel's machine or the mesh, and from
 * there verification, loading, observers, the run, the report, the
 * exports and the exit status are shared.
 *
 * Robustness: --max-cycles arms the machine watchdog, so a hung or
 * livelocked program dies with a structured WatchdogTimeout fault
 * (and a flight-recorder dump when one is armed) instead of just
 * running out the budget silently; gpsim exits 3 in that case. Bad
 * input (flags, paths, combinations) exits 2 with one line before
 * anything runs; a fault or a refused --verify exits 1.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "cli_number.h"
#include "gp/ops.h"
#include "isa/assembler.h"
#include "isa/loader.h"
#include "mem/ecc.h"
#include "noc/shard.h"
#include "os/kernel.h"
#include "sim/profile.h"
#include "sim/stats_registry.h"
#include "sim/trace.h"
#include "verify/verifier.h"

using namespace gp;
using gp::tools::badInput;
using gp::tools::cycleBudgetArg;
using gp::tools::numberArg;

namespace {

/// In mesh mode r1 is a read/write pointer to the whole 2^54-byte
/// global space.
constexpr unsigned kMeshSpaceLog2 = 54;

/// The MAP has 4 clusters. A machine allocates its thread slots and
/// per-cluster state up front and scans every cluster each cycle, so
/// a count near UINT32_MAX would exhaust memory before anything ran.
constexpr unsigned kMaxClusters = 1024;

/// The flight recorder reserves its whole ring (one TraceEvent, ~80
/// bytes, per entry) when it is armed; 2^20 entries is ~80 MB.
constexpr size_t kMaxFlightRecorder = size_t(1) << 20;

/// Cycles the run goes past --max-cycles, so the watchdog trip (and
/// its flight-recorder dump) happens inside the machine, not here.
constexpr uint64_t kRunSlackCycles = 1000;

struct Options
{
    std::string source;
    unsigned threads = 1;
    bool mesh = false;            //!< sharded multicomputer mode
    unsigned meshDims[3] = {};    //!< X, Y, Z
    bool profileIntervalSet = false;
    bool dataSet = false;
    uint64_t dataBytes = 4096;
    unsigned clusters = 4;
    unsigned issueWidth = 1;
    uint64_t maxCycles = 10'000'000;
    mem::EccMode ecc = mem::EccMode::None;
    bool dumpRegs = false;
    bool dumpStats = false;
    bool privileged = false;
    uint32_t traceMask = 0;       //!< text-sink categories (0 = off)
    std::string traceOut;         //!< Chrome trace-event JSON path
    size_t flightRecorder = 0;    //!< ring depth (0 = disarmed)
    std::string statsJson;        //!< stats JSON export path
    bool verify = false;          //!< run gpverify before executing
    bool verifyStrict = false;    //!< ... and make warnings fatal
    bool elide = false;           //!< skip verifier-proven checks
    bool profile = false;         //!< arm the cycle profiler
    sim::ProfileConfig profileConfig; //!< aggregation modes
    std::string profileOut;       //!< gpprof JSON export path
    bool fastMode = false;        //!< functional-only memory port
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <prog.s | -> [options]\n"
        "  --threads N      spawn N copies of the program (default 1);\n"
        "                   with --mesh, N is the HOST thread count\n"
        "                   simulating the mesh (results identical for\n"
        "                   every N; an observed run, with --profile,\n"
        "                   --trace* or --flight-recorder, uses 1)\n"
        "  --mesh X,Y,Z     multicomputer mode: load the program on\n"
        "                   every node of an X*Y*Z mesh of at most 64\n"
        "                   nodes (one thread per node, r1 = full-space\n"
        "                   RW pointer, r2 = node id) under the sharded\n"
        "                   epoch engine; prints a deterministic\n"
        "                   signature; an epoch lasts the mesh\n"
        "                   lookahead (the minimum message latency)\n"
        "  --data BYTES     size of each thread's r1 data segment "
        "(default 4096;\n"
        "                   not with --mesh)\n"
        "  --clusters N     hardware clusters (default 4, at most\n"
        "                   1024)\n"
        "  --issue-width N  instructions/cluster/cycle (default 1)\n"
        "  --max-cycles N   cycle budget; arms the machine watchdog\n"
        "                   (every node's with --mesh), so hangs die\n"
        "                   with WatchdogTimeout and exit status 3\n"
        "                   (default 10M)\n"
        "  --ecc=MODE       memory protection over stored words:\n"
        "                   off | parity | secded (default off)\n"
        "  --privileged     load as privileged code\n"
        "  --fast           functional-only mode: skip the timing\n"
        "                   model entirely (identical registers,\n"
        "                   faults, and memory, but no cycle\n"
        "                   accounting — never use for timing\n"
        "                   measurements)\n"
        "  --verify[=strict] statically verify capability safety\n"
        "                   under the entry state above before\n"
        "                   running; abort on errors (strict: abort\n"
        "                   on warnings too)\n"
        "  --elide-checks=verified  skip runtime checks the verifier\n"
        "                   proves can never fire (identical\n"
        "                   architectural outcomes, fewer cycles);\n"
        "                   the proof is derived at load\n"
        "  --trace[=CATS]   structured event trace to stdout; CATS is\n"
        "                   'all' or a comma list of exec,mem,cache,\n"
        "                   tlb,fault,gate,noc (default exec)\n"
        "  --trace-out=FILE write a Chrome trace-event JSON (all\n"
        "                   categories; open in Perfetto)\n"
        "  --flight-recorder=N  keep the last N events (at most\n"
        "                   1048576) and dump them when a thread dies\n"
        "                   on an unhandled fault\n"
        "  --stats-json=FILE    export every stat group as JSON\n"
        "  --profile[=MODES]    attribute every cycle to a CPI-stack\n"
        "                   component; MODES is a comma list of\n"
        "                   pc,domain,interval,stacks (default all).\n"
        "                   Prints a CPI-stack summary after the run\n"
        "  --profile-out=FILE   write the profile as gpprof JSON\n"
        "                   (analyse with tools/gpprof.py)\n"
        "  --profile-interval=N time-series snapshot period in\n"
        "                   cycles (default 4096); a mesh snapshots\n"
        "                   at the first epoch barrier at or past\n"
        "                   each multiple\n"
        "  --dump-regs      print final registers of every thread\n"
        "  --dump-stats     print statistics from every component\n"
        "exit status: 0 every thread halted, 1 a fault or a refused\n"
        "--verify, 2 bad input (nothing ran), 3 watchdog trip\n",
        argv0);
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    if (argc < 2)
        return false;
    opts.source = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto valueOf = [&](const char *name, std::string &out) {
            return tools::flagValue(argc, argv, i, name, out);
        };
        std::string value;
        if (valueOf("--ecc", value)) {
            opts.ecc = tools::eccArg("gpsim", value);
            continue;
        }
        if (arg == "--verify" || arg == "--verify=strict") {
            opts.verify = true;
            opts.verifyStrict = arg == "--verify=strict";
            continue;
        }
        if (arg == "--elide-checks" ||
            arg == "--elide-checks=verified") {
            opts.elide = true;
            continue;
        }
        if (arg.rfind("--elide-checks=", 0) == 0)
            badInput("gpsim", "bad --elide-checks mode: " +
                                  arg.substr(15) +
                                  " (only 'verified' is supported)");
        if (arg == "--trace" || arg.rfind("--trace=", 0) == 0) {
            const std::string spec =
                arg == "--trace" ? "exec" : arg.substr(8);
            auto mask = sim::parseTraceMask(spec);
            if (!mask)
                badInput("gpsim", "bad trace categories: " + spec);
            opts.traceMask = *mask;
            continue;
        }
        if (valueOf("--trace-out", value)) {
            opts.traceOut = value;
            continue;
        }
        if (valueOf("--flight-recorder", value)) {
            opts.flightRecorder =
                numberArg("gpsim", "--flight-recorder", value, SIZE_MAX);
            continue;
        }
        if (valueOf("--stats-json", value)) {
            opts.statsJson = value;
            continue;
        }
        if (arg == "--profile" || arg.rfind("--profile=", 0) == 0) {
            opts.profile = true;
            const std::string spec =
                arg == "--profile" ? "pc,domain,interval,stacks"
                                   : arg.substr(10);
            sim::ProfileConfig &pc = opts.profileConfig;
            for (size_t pos = 0, comma = 0; comma != std::string::npos;
                 pos = comma + 1) {
                comma = spec.find(',', pos);
                const std::string mode = spec.substr(pos, comma - pos);
                bool *on = mode == "pc"         ? &pc.pc
                           : mode == "domain"   ? &pc.domain
                           : mode == "interval" ? &pc.interval
                           : mode == "stacks"   ? &pc.stacks
                                                : nullptr;
                if (!on)
                    badInput("gpsim", "bad profile mode: " + mode);
                *on = true;
            }
            continue;
        }
        if (valueOf("--profile-out", value)) {
            opts.profile = true;
            opts.profileOut = value;
            continue;
        }
        if (valueOf("--profile-interval", value)) {
            opts.profileConfig.intervalCycles =
                numberArg("gpsim", "--profile-interval", value);
            opts.profileIntervalSet = true;
            continue;
        }
        if (valueOf("--mesh", value)) {
            tools::meshArg("gpsim", value, noc::kMaxNodes, opts.meshDims);
            opts.mesh = true;
            continue;
        }
        if (valueOf("--threads", value)) {
            opts.threads = unsigned(
                numberArg("gpsim", "--threads", value, UINT32_MAX));
        } else if (valueOf("--data", value)) {
            opts.dataBytes = numberArg("gpsim", "--data", value);
            opts.dataSet = true;
        } else if (valueOf("--clusters", value)) {
            opts.clusters = unsigned(
                numberArg("gpsim", "--clusters", value, UINT32_MAX));
        } else if (valueOf("--issue-width", value)) {
            opts.issueWidth = unsigned(
                numberArg("gpsim", "--issue-width", value, UINT32_MAX));
        } else if (valueOf("--max-cycles", value)) {
            opts.maxCycles = cycleBudgetArg("gpsim", "--max-cycles",
                                            value, kRunSlackCycles);
        } else if (arg == "--dump-regs") {
            opts.dumpRegs = true;
        } else if (arg == "--dump-stats") {
            opts.dumpStats = true;
        } else if (arg == "--privileged") {
            opts.privileged = true;
        } else if (arg == "--fast") {
            opts.fastMode = true;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return false;
        }
    }
    return true;
}

/** @return true when a process-wide observer is attached. */
bool
observed(const Options &opts)
{
    return opts.profile || opts.traceMask != 0 || !opts.traceOut.empty() ||
           opts.flightRecorder > 0;
}

/**
 * Reject bad values and meaningless flag combinations up front with a
 * clear diagnostic, instead of silently degrading mid-run. Returns ""
 * when the options are coherent.
 */
std::string
validateOptions(const Options &opts)
{
    if (opts.threads == 0)
        return "--threads must be at least 1";
    if (opts.clusters == 0)
        return "--clusters must be at least 1";
    if (opts.clusters > kMaxClusters)
        return "--clusters " + std::to_string(opts.clusters) +
               " exceeds the limit of " + std::to_string(kMaxClusters) +
               " (each cluster's thread slots are allocated up front)";
    if (opts.flightRecorder > kMaxFlightRecorder)
        return "--flight-recorder " +
               std::to_string(opts.flightRecorder) +
               " exceeds the limit of " +
               std::to_string(kMaxFlightRecorder) +
               " events (the ring is reserved up front)";
    if (opts.issueWidth == 0)
        return "--issue-width must be at least 1";
    if (opts.dataBytes == 0)
        return "--data must be at least 1";
    const uint64_t slots = uint64_t(opts.clusters) *
                           isa::MachineConfig{}.threadsPerCluster;
    if (!opts.mesh && opts.threads > slots)
        return "--threads " + std::to_string(opts.threads) +
               " exceeds the " + std::to_string(slots) +
               " hardware thread slots of " +
               std::to_string(opts.clusters) + " cluster(s)";
    if (opts.profileIntervalSet && !opts.profile)
        return "--profile-interval requires --profile";
    if (opts.fastMode && opts.mesh)
        return "--fast is functional-only and cannot drive the mesh "
               "timing model; drop --fast or --mesh";
    if (opts.mesh && opts.dataSet)
        return "--data is single-machine: a mesh thread's r1 covers "
               "the whole 2^54-byte space; drop --data";
    if (opts.mesh && opts.elide)
        return "--elide-checks is single-machine: a store by one node "
               "into another node's verified image drops only the "
               "issuing machine's proofs, so the home node would keep "
               "stale verdicts";
    return "";
}

/** Read @p path ("-" for stdin) into @p out; false if unopenable. */
bool
readInput(const std::string &path, std::string &out)
{
    std::ostringstream ss;
    if (path == "-") {
        ss << std::cin.rdbuf();
    } else {
        std::ifstream in(path);
        if (!in)
            return false;
        ss << in.rdbuf();
    }
    out = ss.str();
    return true;
}

/**
 * The simulated system a run drives: the kernel's machine, or a
 * sharded mesh with one machine per node.
 */
struct System
{
    std::unique_ptr<os::Kernel> kernel;     //!< single-machine mode
    std::unique_ptr<noc::ShardedMesh> mesh; //!< --mesh mode

    unsigned machines() const { return mesh ? mesh->nodeCount() : 1; }

    isa::Machine &
    machine(unsigned n)
    {
        return mesh ? mesh->machine(n) : kernel->machine();
    }
};

System
build(const Options &opts)
{
    isa::MachineConfig mcfg;
    mcfg.clusters = opts.clusters;
    mcfg.issueWidth = opts.issueWidth;
    // The cycle budget doubles as the watchdog: if the program is
    // still running at --max-cycles the machine converts the hang
    // into structured WatchdogTimeout faults (dumping the flight
    // recorder when one is armed) rather than timing out silently.
    mcfg.watchdogCycles = opts.maxCycles;
    System sys;
    if (!opts.mesh) {
        os::KernelConfig kcfg;
        kcfg.machine = mcfg;
        kcfg.machine.fastMode = opts.fastMode;
        kcfg.machine.mem.ecc = opts.ecc;
        sys.kernel = std::make_unique<os::Kernel>(kcfg);
        return sys;
    }
    noc::ShardConfig scfg;
    scfg.mesh.dimX = opts.meshDims[0];
    scfg.mesh.dimY = opts.meshDims[1];
    scfg.mesh.dimZ = opts.meshDims[2];
    scfg.node.ecc = opts.ecc;
    scfg.machine = mcfg;
    scfg.hostThreads = opts.threads;
    // The profiler, trace sinks and flight recorder are process-wide,
    // with no per-shard buffering, so an observed mesh runs on one
    // host thread. Results are identical at every thread count.
    if (observed(opts) && opts.threads > 1) {
        std::fprintf(stderr,
                     "gpsim: observers are process-wide: simulating "
                     "the mesh on 1 host thread, not %u (identical "
                     "results)\n",
                     opts.threads);
        scfg.hostThreads = 1;
    }
    sys.mesh = std::make_unique<noc::ShardedMesh>(scfg);
    return sys;
}

/**
 * Load the program and spawn its threads: one copy per --threads on
 * the kernel's machine, each with its own --data segment in r1, or
 * one per mesh node with the full-space pointer in r1. r2 is the
 * copy index or node id. Registers the elision proof, made from
 * @p vres, on the way.
 * @return the spawned threads, or an empty list on a load failure.
 */
std::vector<isa::Thread *>
loadAndSpawn(System &sys, const Options &opts,
             const isa::Assembly &assembly,
             const verify::VerifyResult &vres, const std::string &source)
{
    std::vector<isa::Thread *> threads;
    if (sys.mesh) {
        const auto full =
            makePointer(Perm::ReadWrite, kMeshSpaceLog2, 0);
        for (unsigned n = 0; n < sys.machines(); ++n) {
            const auto prog = isa::loadProgram(
                sys.mesh->node(n), noc::nodeBase(n) + 0x20000,
                assembly.words, opts.privileged);
            isa::Thread *t = sys.machine(n).spawn(prog.execPtr);
            t->setReg(1, full.value);
            t->setReg(2, Word::fromInt(n));
            threads.push_back(t);
        }
        return threads;
    }

    os::Kernel &kernel = *sys.kernel;
    auto prog = kernel.loadAssembly(source, opts.privileged);
    if (!prog)
        return threads;
    // No check is skipped unless it was proven in this process, under
    // the entry state the spawn loop below sets up.
    if (opts.elide)
        kernel.machine().registerElideProof(verify::makeElideProof(
            vres, assembly.words, opts.privileged, prog.value.base));
    for (unsigned i = 0; i < opts.threads; ++i) {
        auto seg = kernel.segments().allocate(opts.dataBytes,
                                              Perm::ReadWrite);
        if (!seg)
            badInput("gpsim", std::to_string(opts.threads) +
                                  " data segment(s) of --data " +
                                  std::to_string(opts.dataBytes) +
                                  " bytes do not fit the kernel heap");
        isa::Thread *t = kernel.spawn(prog.value.execPtr,
                                      {{1, seg.value},
                                       {2, Word::fromInt(i)}});
        // Label the thread's Perfetto track with what it runs, so
        // exported traces read "prog copy 3" instead of "thread 3".
        if (!opts.traceOut.empty())
            sim::TraceManager::instance().setTrackName(
                sim::TraceCat::Exec, t->id(),
                opts.source + " copy " + std::to_string(i));
        threads.push_back(t);
    }
    return threads;
}

/** Open @p path for writing into @p out, or end the run (exit 2). */
void
openOutput(std::ofstream &out, const std::string &path, const char *what)
{
    if (path.empty())
        return;
    out.open(path, std::ios::trunc);
    if (!out)
        badInput("gpsim", std::string("cannot open ") + what + " file " +
                              path);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        usage(argv[0]);
        return 2;
    }
    const std::string err = validateOptions(opts);
    if (!err.empty())
        badInput("gpsim", err);

    // Every input and output opens before anything is built, so a bad
    // path is one line and exit 2.
    std::string source;
    if (!readInput(opts.source, source))
        badInput("gpsim", "cannot open " + opts.source);
    std::ofstream profileOut, statsOut;
    openOutput(profileOut, opts.profileOut, "profile");
    openOutput(statsOut, opts.statsJson, "stats");
    sim::TraceManager &tracer = sim::TraceManager::instance();
    if (!opts.traceOut.empty() && !tracer.openJson(opts.traceOut))
        badInput("gpsim", "cannot open trace file " + opts.traceOut);
    if (opts.traceMask != 0)
        tracer.setTextSink(&std::cout, opts.traceMask);
    if (opts.flightRecorder > 0)
        tracer.setFlightRecorder(opts.flightRecorder);

    const isa::Assembly assembly = isa::assemble(source);
    if (!assembly.ok) {
        std::fprintf(stderr, "gpsim: %s: %s\n", opts.source.c_str(),
                     assembly.error.c_str());
        return 1;
    }
    // Verify under the entry state the spawn sets up: r1 = RW pointer
    // to the --data segment (to the whole space in a mesh), r2 = an
    // integer. --verify refuses an unsafe program before a single
    // instruction executes; --elide-checks derives its proof here.
    verify::VerifyResult vres;
    if (opts.verify || opts.elide) {
        verify::VerifyOptions vopts;
        vopts.privileged = opts.privileged;
        vopts.entryRegs = verify::defaultEntryRegs(
            opts.mesh ? uint64_t(1) << kMeshSpaceLog2 : opts.dataBytes);
        vres = verify::verifyProgram(assembly, vopts);
    }
    if (opts.verify) {
        if (!vres.clean()) {
            std::fputs(vres.report(opts.source, &assembly).c_str(),
                       stderr);
        }
        if (opts.verifyStrict ? !vres.clean() : !vres.ok()) {
            std::fprintf(stderr,
                         "gpsim: --verify: refusing to run\n");
            return 1;
        }
    }

    System sys = build(opts);
    // Arm the profiler before loading: the kernel registers domain
    // and symbol names as each program image lands. In a mesh every
    // node's threads keep their own slots (the engine gives each node
    // a slot range) while the CPI stack sums over nodes, and interval
    // snapshots fall on the epoch barriers.
    if (opts.profile) {
        const isa::MachineConfig &mc = sys.machine(0).config();
        sim::Profiler::instance().arm(
            mc.clusters,
            sys.machines() * mc.clusters * mc.threadsPerCluster,
            opts.profileConfig);
    }

    const std::vector<isa::Thread *> threads =
        loadAndSpawn(sys, opts, assembly, vres, source);
    if (threads.empty()) {
        std::fprintf(stderr, "gpsim: %s: cannot load the program\n",
                     opts.source.c_str());
        return 1;
    }

    const uint64_t budget = opts.maxCycles + kRunSlackCycles;
    const uint64_t cycles = sys.mesh ? sys.mesh->run(budget)
                                     : sys.kernel->machine().run(budget);

    int halted = 0, faulted = 0;
    for (isa::Thread *t : threads) {
        if (t->state() == isa::ThreadState::Halted)
            halted++;
        if (t->state() == isa::ThreadState::Faulted)
            faulted++;
    }
    uint64_t instructions = 0;
    for (unsigned n = 0; n < sys.machines(); ++n)
        instructions += sys.machine(n).stats().get("instructions");

    // The per-thread report: a fault line per faulted thread and,
    // with --dump-regs, its final registers. A mesh run lists its
    // node faults ahead of the summary.
    const char *unit = sys.mesh ? "node" : "thread";
    auto report = [&](bool faults, bool regs) {
        for (size_t i = 0; i < threads.size(); ++i) {
            const isa::Thread *t = threads[i];
            if (faults && t->state() == isa::ThreadState::Faulted)
                std::printf("  %s %zu FAULT: %s at %s\n", unit, i,
                            std::string(
                                faultName(t->faultRecord().fault))
                                .c_str(),
                            toString(t->faultRecord().ip).c_str());
            if (!regs)
                continue;
            std::printf("  %s %zu registers:\n", unit, i);
            for (unsigned r = 0; r < isa::kNumRegs; ++r)
                std::printf("    r%-2u = %s\n", r,
                            toString(t->reg(r)).c_str());
        }
    };
    if (sys.mesh) {
        report(true, false);
        std::printf("gpsim: mesh %ux%ux%u (%u nodes, %u host threads, "
                    "epoch %llu): ",
                    opts.meshDims[0], opts.meshDims[1], opts.meshDims[2],
                    sys.machines(),
                    sys.mesh->hostThreads(),
                    (unsigned long long)sys.mesh->epochHorizon());
    } else {
        std::printf("gpsim: %u thread(s): ", opts.threads);
    }
    std::printf("%d halted, %d faulted; %llu cycles, %llu "
                "instructions\n",
                halted, faulted, (unsigned long long)cycles,
                (unsigned long long)instructions);
    if (sys.mesh)
        std::printf("gpsim: mesh signature %016llx\n",
                    (unsigned long long)sys.mesh->signature());
    if (opts.elide) {
        sim::StatGroup &ms = sys.machine(0).stats();
        std::printf("gpsim: elide: %llu checks elided, %llu executed, "
                    "%llu cycles saved\n",
                    (unsigned long long)ms.get("elide_checks_elided"),
                    (unsigned long long)ms.get("elide_checks_executed"),
                    (unsigned long long)ms.get("elide_cycles_saved"));
    }
    report(!sys.mesh, opts.dumpRegs);

    if (opts.dumpStats) {
        // Every component registers its StatGroup with the process-wide
        // registry, so one call covers machine, memory, cache, TLB,
        // kernel, mesh, and anything added later.
        std::printf("\n");
        sim::StatRegistry::instance().dumpAll(std::cout);
    }
    if (opts.profile) {
        sim::Profiler::instance().disarm();
        sim::Profiler::instance().summary(std::cout);
        if (profileOut.is_open())
            sim::Profiler::instance().exportJson(profileOut);
    }
    if (statsOut.is_open())
        sim::StatRegistry::instance().exportJson(statsOut);
    tracer.closeJson();

    const bool tripped = sys.mesh
                             ? sys.mesh->watchdogTripped()
                             : sys.kernel->machine().watchdogTripped();
    if (tripped) {
        std::fprintf(stderr,
                     "gpsim: watchdog tripped after %llu cycles "
                     "(hang or livelock)\n",
                     (unsigned long long)cycles);
        // The flight-recorder-style mesh post-mortem: failure set,
        // degraded-routing tallies, and every unfinished survivor's
        // thread states — the first thing to read after a mesh hang.
        // A single machine's WatchdogTimeout faults are above.
        if (sys.mesh)
            sys.mesh->postMortem(std::cerr);
        return 3;
    }
    return faulted ? 1 : 0;
}
