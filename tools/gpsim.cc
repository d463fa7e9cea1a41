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
 *                [--ecc=off|parity|secded] [--walk-retries N]
 *                [--trace[=CATS]] [--trace-out=FILE]
 *                [--flight-recorder=N] [--stats-json=FILE]
 *                [--profile[=MODES]] [--profile-out=FILE]
 *                [--profile-interval=N]
 *                [--dump-regs] [--dump-stats] [--privileged]
 *
 * Robustness: --max-cycles arms the machine watchdog, so a hung or
 * livelocked program dies with a structured WatchdogTimeout fault
 * (and a flight-recorder dump when one is armed) instead of just
 * running out the budget silently; gpsim exits 3 in that case.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "cli_number.h"
#include "gp/ops.h"
#include "isa/assembler.h"
#include "isa/elide.h"
#include "isa/loader.h"
#include "mem/ecc.h"
#include "noc/shard.h"
#include "os/kernel.h"
#include "sim/log.h"
#include "sim/profile.h"
#include "sim/stats_registry.h"
#include "sim/trace.h"
#include "verify/verifier.h"

using namespace gp;
using gp::tools::numberArg;

namespace {

struct Options
{
    std::string source;
    unsigned threads = 1;
    bool threadsSet = false;
    bool mesh = false;            //!< sharded multicomputer mode
    unsigned meshX = 0, meshY = 0, meshZ = 0;
    uint64_t epochHorizon = 0;    //!< 0 = derive from link latency
    bool profileIntervalSet = false;
    uint64_t dataBytes = 4096;
    unsigned clusters = 4;
    unsigned issueWidth = 1;
    uint64_t maxCycles = 10'000'000;
    mem::EccMode ecc = mem::EccMode::None;
    unsigned walkRetries = 0;
    bool dumpRegs = false;
    bool dumpStats = false;
    bool privileged = false;
    uint32_t traceMask = 0;       //!< text-sink categories (0 = off)
    std::string traceOut;         //!< Chrome trace-event JSON path
    size_t flightRecorder = 0;    //!< ring depth (0 = disarmed)
    uint64_t meshWatchdog = 0;    //!< mesh quiescence window (0 = off)
    std::string statsJson;        //!< stats JSON export path
    bool verify = false;          //!< run gpverify before executing
    bool verifyStrict = false;    //!< ... and make warnings fatal
    bool elideChecks = false;     //!< skip verifier-proven checks
    std::string proofsFile;       //!< gpproof sidecar ("" = verify here)
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
        "                   every N; N=1 is today's serial path)\n"
        "  --mesh X,Y,Z     multicomputer mode: load the program on\n"
        "                   every node of an X*Y*Z mesh (one thread\n"
        "                   per node, r1 = full-space RW pointer,\n"
        "                   r2 = node id) under the sharded epoch\n"
        "                   engine; prints a deterministic signature\n"
        "  --epoch-horizon N  cycles per epoch in --mesh mode\n"
        "                   (default/max: the mesh lookahead)\n"
        "  --mesh-watchdog N  distributed quiescence watchdog: trip\n"
        "                   (with a post-mortem) after N cycles of\n"
        "                   zero mesh-wide progress (requires --mesh)\n"
        "  --data BYTES     size of each thread's r1 data segment "
        "(default 4096)\n"
        "  --clusters N     hardware clusters (default 4)\n"
        "  --issue-width N  instructions/cluster/cycle (default 1)\n"
        "  --max-cycles N   cycle budget; arms the machine watchdog,\n"
        "                   so hangs die with WatchdogTimeout and\n"
        "                   exit status 3 (default 10M)\n"
        "  --ecc=MODE       memory protection over stored words:\n"
        "                   off | parity | secded (default off)\n"
        "  --walk-retries N retry transient page-walk failures up to\n"
        "                   N times (default 0)\n"
        "  --privileged     load as privileged code\n"
        "  --fast           functional-only mode: skip the timing\n"
        "                   model entirely (identical registers,\n"
        "                   faults, and memory, but no cycle\n"
        "                   accounting — never use for timing\n"
        "                   measurements)\n"
        "  --verify[=strict] statically verify capability safety\n"
        "                   before running; abort on errors (strict:\n"
        "                   abort on warnings too)\n"
        "  --elide-checks=verified  skip runtime checks the verifier\n"
        "                   proves can never fire (identical\n"
        "                   architectural outcomes, fewer cycles);\n"
        "                   the proof is always derived at load\n"
        "  --proofs=FILE    gpproof sidecar from gpverify\n"
        "                   --emit-proofs, checked against the derived\n"
        "                   proof; a mismatch exits 2 before anything\n"
        "                   runs (requires --elide-checks)\n"
        "  --trace[=CATS]   structured event trace to stdout; CATS is\n"
        "                   'all' or a comma list of exec,mem,cache,\n"
        "                   tlb,fault,gate,noc,sched (default exec)\n"
        "  --trace-out=FILE write a Chrome trace-event JSON (all\n"
        "                   categories; open in Perfetto)\n"
        "  --flight-recorder=N  keep the last N events and dump them\n"
        "                   when a thread dies on an unhandled fault\n"
        "  --stats-json=FILE    export every stat group as JSON\n"
        "  --profile[=MODES]    attribute every cycle to a CPI-stack\n"
        "                   component; MODES is a comma list of\n"
        "                   pc,domain,interval,stacks (default all).\n"
        "                   Prints a CPI-stack summary after the run\n"
        "  --profile-out=FILE   write the profile as gpprof JSON\n"
        "                   (analyse with tools/gpprof.py)\n"
        "  --profile-interval=N time-series snapshot period in\n"
        "                   cycles (default 4096)\n"
        "  --dump-regs      print final registers of every thread\n"
        "  --dump-stats     print statistics from every component\n",
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
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        // "--name=value" handling for the observability flags.
        auto valueOf = [&](const char *name,
                           std::string &out) -> bool {
            const std::string prefix = std::string(name) + "=";
            if (arg.rfind(prefix, 0) == 0) {
                out = arg.substr(prefix.size());
                return true;
            }
            if (arg == name) {
                const char *v = next();
                if (v)
                    out = v;
                return !out.empty();
            }
            return false;
        };
        std::string value;
        if (valueOf("--ecc", value)) {
            if (value == "off" || value == "none") {
                opts.ecc = mem::EccMode::None;
            } else if (value == "parity") {
                opts.ecc = mem::EccMode::Parity;
            } else if (value == "secded") {
                opts.ecc = mem::EccMode::Secded;
            } else {
                std::fprintf(stderr, "bad --ecc mode: %s\n",
                             value.c_str());
                return false;
            }
            continue;
        }
        if (valueOf("--walk-retries", value)) {
            opts.walkRetries = unsigned(
                numberArg("gpsim", "--walk-retries", value, UINT32_MAX));
            continue;
        }
        if (arg == "--verify" || arg == "--verify=strict") {
            opts.verify = true;
            opts.verifyStrict = arg == "--verify=strict";
            continue;
        }
        if (arg == "--elide-checks" ||
            arg == "--elide-checks=verified") {
            opts.elideChecks = true;
            continue;
        }
        if (arg.rfind("--elide-checks=", 0) == 0) {
            std::fprintf(stderr, "bad --elide-checks mode: %s "
                         "(only 'verified' is supported)\n",
                         arg.c_str() + 15);
            return false;
        }
        if (valueOf("--proofs", value)) {
            opts.proofsFile = value;
            continue;
        }
        if (arg == "--trace" || arg.rfind("--trace=", 0) == 0) {
            const std::string spec =
                arg == "--trace" ? "exec" : arg.substr(8);
            auto mask = sim::parseTraceMask(spec);
            if (!mask) {
                std::fprintf(stderr, "bad trace categories: %s\n",
                             spec.c_str());
                return false;
            }
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
        if (valueOf("--mesh-watchdog", value)) {
            opts.meshWatchdog =
                numberArg("gpsim", "--mesh-watchdog", value);
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
            size_t pos = 0;
            while (pos <= spec.size()) {
                const size_t comma = spec.find(',', pos);
                const std::string mode = spec.substr(
                    pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
                if (mode == "pc") {
                    opts.profileConfig.pc = true;
                } else if (mode == "domain") {
                    opts.profileConfig.domain = true;
                } else if (mode == "interval") {
                    opts.profileConfig.interval = true;
                } else if (mode == "stacks") {
                    opts.profileConfig.stacks = true;
                } else {
                    std::fprintf(stderr, "bad profile mode: %s\n",
                                 mode.c_str());
                    return false;
                }
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
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
            unsigned x = 0, y = 0, z = 0;
            if (std::sscanf(value.c_str(), "%u,%u,%u", &x, &y, &z) !=
                    3 ||
                x == 0 || y == 0 || z == 0) {
                std::fprintf(stderr,
                             "bad --mesh geometry: %s (want X,Y,Z "
                             "with all dimensions > 0)\n",
                             value.c_str());
                return false;
            }
            opts.mesh = true;
            opts.meshX = x;
            opts.meshY = y;
            opts.meshZ = z;
            continue;
        }
        if (valueOf("--epoch-horizon", value)) {
            opts.epochHorizon =
                numberArg("gpsim", "--epoch-horizon", value);
            continue;
        }
        if (arg == "--threads") {
            const char *v = next();
            if (!v)
                return false;
            opts.threads =
                unsigned(numberArg("gpsim", "--threads", v, UINT32_MAX));
            opts.threadsSet = true;
        } else if (arg == "--data") {
            const char *v = next();
            if (!v)
                return false;
            opts.dataBytes = numberArg("gpsim", "--data", v);
        } else if (arg == "--clusters") {
            const char *v = next();
            if (!v)
                return false;
            opts.clusters =
                unsigned(numberArg("gpsim", "--clusters", v, UINT32_MAX));
        } else if (arg == "--issue-width") {
            const char *v = next();
            if (!v)
                return false;
            opts.issueWidth = unsigned(
                numberArg("gpsim", "--issue-width", v, UINT32_MAX));
        } else if (arg == "--max-cycles") {
            const char *v = next();
            if (!v)
                return false;
            opts.maxCycles = numberArg("gpsim", "--max-cycles", v);
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

/**
 * Reject mutually inconsistent flag combinations up front with a
 * clear diagnostic, instead of silently degrading mid-run. Returns
 * nullptr when the options are coherent.
 */
const char *
validateOptions(const Options &opts)
{
    if (opts.threads == 0)
        return "--threads must be at least 1";
    if (opts.clusters == 0)
        return "--clusters must be at least 1";
    if (opts.issueWidth == 0)
        return "--issue-width must be at least 1";
    if (!opts.proofsFile.empty() && !opts.elideChecks)
        return "--proofs requires --elide-checks";
    if (opts.profileIntervalSet && !opts.profile)
        return "--profile-interval requires --profile";
    if (opts.epochHorizon != 0 && !opts.mesh)
        return "--epoch-horizon requires --mesh";
    if (opts.meshWatchdog != 0 && !opts.mesh)
        return "--mesh-watchdog requires --mesh";
    if (opts.fastMode) {
        if (opts.mesh)
            return "--fast is functional-only and cannot drive the "
                   "mesh timing model; drop --fast or --mesh";
        if (opts.profile)
            return "--fast skips the timing model, so there are no "
                   "cycles to profile; drop --fast or --profile";
    }
    if (opts.mesh) {
        // The verifier pipeline is single-machine: it assumes one
        // Machine owns the process-wide singleton state, which a
        // sharded mesh does not satisfy.
        if (opts.profile && opts.threads > 1)
            return "--profile aggregates into a process-wide "
                   "singleton and is only available in mesh mode "
                   "with --threads 1 (results are identical)";
        if (opts.profile && opts.profileIntervalSet)
            return "--profile-interval snapshots are per-machine "
                   "and not mesh-aware; drop --profile-interval";
        if (opts.verify || opts.elideChecks)
            return "--verify/--elide-checks analyse a single-machine "
                   "entry state and are not available with --mesh";
        if (opts.threads > 1) {
            // The trace sinks and flight recorder are process-wide
            // singletons with no shard-local buffering: multiple
            // host threads would interleave writes nondeterministically.
            if (opts.traceMask != 0 || !opts.traceOut.empty())
                return "--trace/--trace-out are not shard-aware; use "
                       "--threads 1 (results are identical)";
            if (opts.flightRecorder > 0)
                return "--flight-recorder is not shard-aware; use "
                       "--threads 1 (results are identical)";
        }
    }
    return nullptr;
}

/**
 * Multicomputer mode: the program runs on every node of the mesh
 * under the sharded epoch engine. One hardware thread per node,
 * r1 = full-space RW pointer, r2 = node id.
 */
int
runMesh(const Options &opts, const std::string &source)
{
    noc::ShardConfig scfg;
    scfg.mesh.dimX = opts.meshX;
    scfg.mesh.dimY = opts.meshY;
    scfg.mesh.dimZ = opts.meshZ;
    scfg.node.ecc = opts.ecc;
    scfg.node.walkRetries = opts.walkRetries;
    scfg.machine.clusters = opts.clusters;
    scfg.machine.issueWidth = opts.issueWidth;
    scfg.machine.watchdogCycles = opts.maxCycles;
    scfg.hostThreads = opts.threads;
    scfg.epochHorizon = opts.epochHorizon;
    scfg.meshWatchdogCycles = opts.meshWatchdog;
    noc::ShardedMesh shard(scfg);

    // Mesh profiling (single host thread only — validateOptions
    // rejects --threads > 1): every node machine ticks the
    // process-wide profiler, so the CPI stack aggregates across
    // nodes, while each node's threads keep their own slots (the
    // engine gives every node a slot range). Interval snapshots are
    // forced off — N machines advancing the singleton's cycle clock
    // would interleave the time series meaninglessly.
    if (opts.profile) {
        sim::ProfileConfig pcfg = opts.profileConfig;
        pcfg.interval = false;
        sim::Profiler::instance().arm(
            scfg.machine.clusters,
            shard.nodeCount() * scfg.machine.clusters *
                scfg.machine.threadsPerCluster,
            pcfg);
    }

    const isa::Assembly assembly = isa::assemble(source);
    if (!assembly.ok) {
        std::fprintf(stderr, "gpsim: %s: %s\n", opts.source.c_str(),
                     assembly.error.c_str());
        return 1;
    }

    auto full = makePointer(Perm::ReadWrite, 54, 0);
    if (!full)
        sim::fatal("cannot build the full-space data pointer");

    std::vector<isa::Thread *> threads;
    for (unsigned n = 0; n < shard.nodeCount(); ++n) {
        auto prog =
            isa::loadProgram(shard.node(n), noc::nodeBase(n) + 0x20000,
                             assembly.words, opts.privileged);
        isa::Thread *t = shard.machine(n).spawn(prog.execPtr);
        if (!t)
            sim::fatal("node %u: out of hardware thread slots", n);
        t->setReg(1, full.value);
        t->setReg(2, Word::fromInt(n));
        threads.push_back(t);
    }

    sim::TraceManager &tracer = sim::TraceManager::instance();
    if (opts.traceMask != 0)
        tracer.setTextSink(&std::cout, opts.traceMask);
    if (!opts.traceOut.empty() && !tracer.openJson(opts.traceOut))
        sim::fatal("cannot open trace file %s", opts.traceOut.c_str());
    if (opts.flightRecorder > 0)
        tracer.setFlightRecorder(opts.flightRecorder);

    const uint64_t cycles = shard.run(opts.maxCycles + 1000);

    int halted = 0, faulted = 0;
    uint64_t instructions = 0;
    for (unsigned n = 0; n < shard.nodeCount(); ++n) {
        isa::Thread *t = threads[n];
        if (t->state() == isa::ThreadState::Halted)
            halted++;
        if (t->state() == isa::ThreadState::Faulted) {
            faulted++;
            std::printf("  node %u FAULT: %s at %s\n", n,
                        std::string(faultName(t->faultRecord().fault))
                            .c_str(),
                        toString(t->faultRecord().ip).c_str());
        }
        instructions += shard.machine(n).stats().get("instructions");
    }
    std::printf("gpsim: mesh %ux%ux%u (%u nodes, %u host threads, "
                "epoch %llu): %d halted, %d faulted; %llu cycles, "
                "%llu instructions\n",
                opts.meshX, opts.meshY, opts.meshZ, shard.nodeCount(),
                shard.hostThreads(),
                (unsigned long long)shard.epochHorizon(), halted,
                faulted, (unsigned long long)cycles,
                (unsigned long long)instructions);
    std::printf("gpsim: mesh signature %016llx\n",
                (unsigned long long)shard.signature());

    if (opts.dumpRegs) {
        for (unsigned n = 0; n < shard.nodeCount(); ++n) {
            std::printf("  node %u registers:\n", n);
            for (unsigned r = 0; r < isa::kNumRegs; ++r)
                std::printf("    r%-2u = %s\n", r,
                            toString(threads[n]->reg(r)).c_str());
        }
    }
    if (opts.dumpStats) {
        std::printf("\n");
        sim::StatRegistry::instance().dumpAll(std::cout);
    }
    if (opts.profile) {
        sim::Profiler::instance().disarm();
        sim::Profiler::instance().summary(std::cout);
        if (!opts.profileOut.empty()) {
            std::ofstream out(opts.profileOut, std::ios::trunc);
            if (!out)
                sim::fatal("cannot open profile file %s",
                           opts.profileOut.c_str());
            sim::Profiler::instance().exportJson(out);
        }
    }
    if (!opts.statsJson.empty()) {
        std::ofstream out(opts.statsJson, std::ios::trunc);
        if (!out)
            sim::fatal("cannot open stats file %s",
                       opts.statsJson.c_str());
        sim::StatRegistry::instance().exportJson(out);
    }

    tracer.closeJson();
    if (shard.watchdogTripped() || shard.meshWatchdogTripped()) {
        std::fprintf(stderr,
                     "gpsim: watchdog tripped after %llu cycles "
                     "(hang or livelock)\n",
                     (unsigned long long)cycles);
        // The flight-recorder-style mesh post-mortem: failure set,
        // degraded-routing tallies, and every unfinished survivor's
        // thread states — the first thing to read after a mesh hang.
        shard.postMortem(std::cerr);
        return 3;
    }
    return faulted ? 1 : 0;
}

/**
 * Check a gpproof sidecar against the proof derived in-process: the
 * instruction bits and verdicts must match (the load base is
 * ignored; the sidecar records gpverify's --base). @return "" on a
 * match, else a one-line reason.
 */
std::string
sidecarMismatch(const std::string &path, const isa::ElideProof &derived)
{
    std::ifstream in(path);
    if (!in)
        return "cannot read proof sidecar " + path;
    std::ostringstream ss;
    ss << in.rdbuf();
    isa::ElideProof claimed;
    std::string perr;
    if (!isa::parseProof(ss.str(), claimed, &perr))
        return "bad proof sidecar " + path + ": " + perr;
    if (claimed.bits != derived.bits ||
        claimed.verdicts != derived.verdicts)
        return "proof sidecar " + path +
               " does not match the proof derived from the program";
    return "";
}

std::string
readSource(const std::string &path)
{
    if (path == "-") {
        std::ostringstream ss;
        ss << std::cin.rdbuf();
        return ss.str();
    }
    std::ifstream in(path);
    if (!in) {
        sim::fatal("cannot open %s", path.c_str());
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
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

    if (const char *err = validateOptions(opts)) {
        std::fprintf(stderr, "gpsim: %s\n", err);
        return 2;
    }

    if (opts.mesh)
        return runMesh(opts, readSource(opts.source));

    os::KernelConfig kcfg;
    kcfg.machine.clusters = opts.clusters;
    kcfg.machine.issueWidth = opts.issueWidth;
    kcfg.machine.elideChecks = opts.elideChecks;
    kcfg.machine.fastMode = opts.fastMode;
    kcfg.machine.mem.ecc = opts.ecc;
    kcfg.machine.mem.walkRetries = opts.walkRetries;
    // The cycle budget doubles as the watchdog: if the program is
    // still running at --max-cycles the machine converts the hang
    // into structured WatchdogTimeout faults (dumping the flight
    // recorder when one is armed) rather than timing out silently.
    kcfg.machine.watchdogCycles = opts.maxCycles;
    os::Kernel kernel(kcfg);

    // Arm the profiler before loading: the kernel registers domain
    // and symbol names as each program image lands.
    if (opts.profile) {
        sim::Profiler::instance().arm(
            kcfg.machine.clusters,
            kcfg.machine.clusters * kcfg.machine.threadsPerCluster,
            opts.profileConfig);
    }

    const std::string source = readSource(opts.source);

    if (opts.verify) {
        // Opt-in pre-run pass: prove the program respects the rights
        // lattice before a single instruction executes.
        const isa::Assembly assembly = isa::assemble(source);
        if (!assembly.ok) {
            std::fprintf(stderr, "gpsim: %s: %s\n",
                         opts.source.c_str(), assembly.error.c_str());
            return 1;
        }
        verify::VerifyOptions vopts;
        vopts.privileged = opts.privileged;
        vopts.entryRegs = verify::defaultEntryRegs(opts.dataBytes);
        const verify::VerifyResult vres =
            verify::verifyProgram(assembly, vopts);
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

    auto prog = kernel.loadAssembly(source, opts.privileged);
    if (!prog) {
        std::fprintf(stderr, "assembly failed (see warning above)\n");
        return 1;
    }

    if (opts.elideChecks) {
        // No check is skipped unless it was proven in this process:
        // derive the proof here, under the same entry-state
        // assumptions the spawn loop below sets up (r1 = RW data
        // segment of --data bytes, r2 = integer). A sidecar is only
        // a claim, checked against the derived proof.
        const isa::Assembly assembly = isa::assemble(source);
        verify::VerifyOptions vopts;
        vopts.privileged = opts.privileged;
        vopts.entryRegs = verify::defaultEntryRegs(opts.dataBytes);
        const isa::ElideProof proof = verify::makeElideProof(
            verify::verifyProgram(assembly, vopts), assembly.words,
            opts.privileged, prog.value.base);
        if (!opts.proofsFile.empty()) {
            const std::string err =
                sidecarMismatch(opts.proofsFile, proof);
            if (!err.empty()) {
                std::fprintf(stderr, "gpsim: %s\n", err.c_str());
                return 2;
            }
        }
        kernel.machine().registerElideProof(proof);
    }

    // Attach the requested trace sinks before any thread runs.
    sim::TraceManager &tracer = sim::TraceManager::instance();
    if (opts.traceMask != 0)
        tracer.setTextSink(&std::cout, opts.traceMask);
    if (!opts.traceOut.empty() && !tracer.openJson(opts.traceOut))
        sim::fatal("cannot open trace file %s", opts.traceOut.c_str());
    if (opts.flightRecorder > 0)
        tracer.setFlightRecorder(opts.flightRecorder);

    std::vector<isa::Thread *> threads;
    for (unsigned i = 0; i < opts.threads; ++i) {
        auto seg = kernel.segments().allocate(opts.dataBytes,
                                              Perm::ReadWrite);
        if (!seg)
            sim::fatal("data segment allocation failed");
        isa::Thread *t =
            kernel.spawn(prog.value.execPtr,
                         {{1, seg.value},
                          {2, Word::fromInt(i)}});
        if (!t)
            sim::fatal("out of hardware thread slots (16)");
        // Label the thread's Perfetto track with what it runs, so
        // exported traces read "prog copy 3" instead of "thread 3".
        if (!opts.traceOut.empty())
            tracer.setTrackName(sim::TraceCat::Exec, t->id(),
                                opts.source + " copy " +
                                    std::to_string(i));
        threads.push_back(t);
    }

    // Run slightly past the watchdog budget so the trip (and its
    // flight-recorder dump) happens inside the machine, not here.
    const uint64_t cycles =
        kernel.machine().run(opts.maxCycles + 1000);

    int halted = 0, faulted = 0;
    for (isa::Thread *t : threads) {
        if (t->state() == isa::ThreadState::Halted)
            halted++;
        if (t->state() == isa::ThreadState::Faulted)
            faulted++;
    }
    std::printf("gpsim: %u thread(s): %d halted, %d faulted; %llu "
                "cycles, %llu instructions\n",
                opts.threads, halted, faulted,
                (unsigned long long)cycles,
                (unsigned long long)kernel.machine().stats().get(
                    "instructions"));
    if (opts.elideChecks) {
        sim::StatGroup &ms = kernel.machine().stats();
        std::printf("gpsim: elide: %llu checks elided, %llu executed, "
                    "%llu cycles saved\n",
                    (unsigned long long)ms.get("elide_checks_elided"),
                    (unsigned long long)ms.get("elide_checks_executed"),
                    (unsigned long long)ms.get("elide_cycles_saved"));
    }

    for (size_t i = 0; i < threads.size(); ++i) {
        isa::Thread *t = threads[i];
        if (t->state() == isa::ThreadState::Faulted) {
            std::printf("  thread %zu FAULT: %s at %s\n", i,
                        std::string(
                            faultName(t->faultRecord().fault))
                            .c_str(),
                        toString(t->faultRecord().ip).c_str());
        }
        if (opts.dumpRegs) {
            std::printf("  thread %zu registers:\n", i);
            for (unsigned r = 0; r < isa::kNumRegs; ++r) {
                std::printf("    r%-2u = %s\n", r,
                            toString(t->reg(r)).c_str());
            }
        }
    }

    if (opts.dumpStats) {
        // Every component registers its StatGroup with the process-wide
        // registry, so one call covers machine, memory, cache, TLB,
        // pointer ops, kernel, and anything added later.
        std::printf("\n");
        sim::StatRegistry::instance().dumpAll(std::cout);
    }

    if (opts.profile) {
        sim::Profiler::instance().disarm();
        sim::Profiler::instance().summary(std::cout);
        if (!opts.profileOut.empty()) {
            std::ofstream out(opts.profileOut, std::ios::trunc);
            if (!out)
                sim::fatal("cannot open profile file %s",
                           opts.profileOut.c_str());
            sim::Profiler::instance().exportJson(out);
        }
    }

    if (!opts.statsJson.empty()) {
        std::ofstream out(opts.statsJson, std::ios::trunc);
        if (!out)
            sim::fatal("cannot open stats file %s",
                       opts.statsJson.c_str());
        sim::StatRegistry::instance().exportJson(out);
    }

    tracer.closeJson();
    if (kernel.machine().watchdogTripped()) {
        std::fprintf(stderr,
                     "gpsim: watchdog tripped after %llu cycles "
                     "(hang or livelock); see WatchdogTimeout "
                     "faults above\n",
                     (unsigned long long)cycles);
        return 3;
    }
    return faulted ? 1 : 0;
}
