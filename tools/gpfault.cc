/**
 * @file
 * gpfault — deterministic fault-injection campaign driver.
 *
 * Runs the standard campaign workload (see src/fault/campaign.cc)
 * many times under per-run derived seeds, injecting hardware faults
 * at the configured sites/rates, and prints the five-way coverage
 * table {masked, corrected, detected-fault, silent-data-corruption,
 * crash-hang}. The whole campaign is a pure function of the
 * configuration and master seed: same flags, same table, bit for bit.
 *
 * Usage:
 *   gpfault [--runs N] [--seed N] [--iterations N]
 *           [--ecc=off|parity|secded] [--walk-retries N]
 *           [--rate SITE=R]... [--burst-max-bits N]
 *           [--max-cycles N] [--stats-json=FILE]
 *           [--verbose] [--list-sites]
 *           [--expect-zero-sdc] [--expect-detected]
 *
 * The --expect-* flags turn the driver into a CI tripwire: the
 * headline result of the paper's tag-bit design is that a flipped
 * tag *faults* instead of forging a capability, so
 *   gpfault --rate mem-tag-bit=2e-4 --expect-detected
 * must find detections, and with SECDED armed
 *   gpfault --ecc=secded --rate mem-data-bit=2e-4 --expect-zero-sdc
 * must classify zero runs as silent data corruption.
 *
 * The mesh arm (--mesh X,Y,Z) runs the multi-node campaign instead:
 * fail-stop node deaths and persistent link failures over the
 * sharded mesh engine, classified {masked, degraded-but-correct,
 * detected-fault, silent-data-corruption, hang}. The printed
 * "mesh campaign signature" is bit-identical for every --threads
 * value — CI cross-checks --threads 1 against --threads 4.
 *
 * Each arm fires only its own fault sites (--list-sites names them).
 * A --rate for a site the selected arm never fires, or a flag only
 * the other arm uses, is a one-line error with exit status 2 instead
 * of a silent no-op.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "cli_number.h"
#include "fault/campaign.h"
#include "fault/mesh_campaign.h"
#include "mem/ecc.h"
#include "noc/node_memory.h"
#include "sim/faultinject.h"
#include "sim/log.h"
#include "sim/stats_registry.h"

using namespace gp;
using gp::tools::badInput;
using gp::tools::numberArg;

namespace {

struct Options
{
    fault::CampaignConfig campaign;
    fault::MeshCampaignConfig meshCampaign;
    bool mesh = false; //!< --mesh X,Y,Z given: run the mesh campaign
    std::string statsJson;
    bool verbose = false;
    bool expectZeroSdc = false;
    bool expectDetected = false;
    std::vector<sim::FaultSite> rated; //!< every site given a --rate
    std::string singleFlag; //!< a flag only the single arm uses
    std::string meshFlag;   //!< a flag only the mesh arm uses
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --runs N           injected runs (default 100; mesh 25)\n"
        "  --seed N           master seed (default 1)\n"
        "  --iterations N     workload loop iterations (default 150;\n"
        "                     mesh 48)\n"
        "  --rate SITE=R      per-opportunity fault rate at SITE\n"
        "                     (repeatable; see --list-sites)\n"
        "  --max-cycles N     per-run cycle budget (default 300000;\n"
        "                     mesh 400000); the fault-free run must\n"
        "                     halt within it\n"
        "  --stats-json=FILE  export the campaign stat group as JSON\n"
        "  --verbose          one line per run\n"
        "  --list-sites       print each fault site and the arm that\n"
        "                     fires it, and exit\n"
        "  --expect-zero-sdc  exit 1 if any run is classified SDC\n"
        "  --expect-detected  exit 1 if no run is detected-fault\n"
        "single-machine campaign (the default arm):\n"
        "  --ecc=MODE         off | parity | secded (default off)\n"
        "  --walk-retries N   transient page-walk retries (default 0)\n"
        "  --burst-max-bits N max bits per cache-line burst (default 4)\n"
        "mesh campaign (multi-node fail-stop resilience):\n"
        "  --mesh X,Y,Z       run the mesh campaign on an XxYxZ mesh\n"
        "                     (at most 64 nodes)\n"
        "  --threads N        host threads per run (default 1); the\n"
        "                     printed campaign signature is identical\n"
        "                     for every value\n"
        "  --no-retrans       disable the end-to-end retry protocol\n"
        "exit status: 0 done, 1 an --expect-* tripwire failed,\n"
        "             2 bad input (nothing ran)\n",
        argv0);
}

const char *
armName(bool mesh)
{
    return mesh ? "mesh" : "single-machine";
}

void
listSites()
{
    for (unsigned i = 0; i < sim::kFaultSiteCount; ++i) {
        const auto site = static_cast<sim::FaultSite>(i);
        std::printf("%-18s %s\n",
                    std::string(sim::faultSiteName(site)).c_str(),
                    armName(fault::MeshCampaignRunner::wires(site)));
    }
}

void
parseRate(const std::string &spec, Options &opts)
{
    const size_t eq = spec.find('=');
    const std::string name = spec.substr(0, eq);
    const sim::FaultSite site = sim::faultSiteFromName(name);
    if (eq == std::string::npos || site == sim::FaultSite::Count)
        badInput("gpfault", "unknown fault site '" + name +
                                "' (try --list-sites)");
    // Checked like every numeric flag (cli_number.h): the whole value
    // must parse, as a finite non-negative rate.
    const std::string text = spec.substr(eq + 1);
    errno = 0;
    char *end = nullptr;
    const double rate = std::strtod(text.c_str(), &end);
    if (text.empty() || errno == ERANGE ||
        end != text.c_str() + text.size() || !(rate >= 0) ||
        !std::isfinite(rate)) {
        badInput("gpfault", "bad rate for '" + name + "': '" + text +
                                "' (want a finite number >= 0)");
    }
    opts.campaign.faults.rate[static_cast<unsigned>(site)] = rate;
    opts.rated.push_back(site);
}

bool
parseArgs(int argc, char **argv, Options &opts, bool &exitEarly)
{
    exitEarly = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto valueOf = [&](const char *name, std::string &out) {
            return tools::flagValue(argc, argv, i, name, out);
        };
        std::string value;
        if (arg == "--list-sites") {
            listSites();
            exitEarly = true;
            return true;
        }
        if (arg == "--verbose") {
            opts.verbose = true;
            continue;
        }
        if (arg == "--expect-zero-sdc") {
            opts.expectZeroSdc = true;
            continue;
        }
        if (arg == "--expect-detected") {
            opts.expectDetected = true;
            continue;
        }
        if (valueOf("--runs", value)) {
            opts.campaign.runs =
                unsigned(numberArg("gpfault", "--runs", value, UINT32_MAX));
            opts.meshCampaign.runs = opts.campaign.runs;
            continue;
        }
        if (valueOf("--seed", value)) {
            opts.campaign.seed = numberArg("gpfault", "--seed", value);
            opts.meshCampaign.seed = opts.campaign.seed;
            continue;
        }
        if (valueOf("--iterations", value)) {
            opts.campaign.iterations =
                numberArg("gpfault", "--iterations", value);
            opts.meshCampaign.iterations = opts.campaign.iterations;
            continue;
        }
        if (valueOf("--max-cycles", value)) {
            opts.campaign.maxCycles =
                numberArg("gpfault", "--max-cycles", value);
            // 0 would turn the single arm's watchdog off but leave
            // the mesh arm no cycle to run: both arms refuse it.
            if (opts.campaign.maxCycles == 0)
                badInput("gpfault", "bad value for --max-cycles: '" +
                                        value +
                                        "' (want a cycle budget of at "
                                        "least 1)");
            opts.meshCampaign.maxCycles = opts.campaign.maxCycles;
            continue;
        }
        if (valueOf("--walk-retries", value)) {
            opts.campaign.walkRetries = unsigned(numberArg(
                "gpfault", "--walk-retries", value, UINT32_MAX));
            opts.singleFlag = "--walk-retries";
            continue;
        }
        if (valueOf("--burst-max-bits", value)) {
            opts.campaign.faults.burstMaxBits =
                numberArg("gpfault", "--burst-max-bits", value);
            opts.singleFlag = "--burst-max-bits";
            continue;
        }
        if (valueOf("--stats-json", value)) {
            opts.statsJson = value;
            continue;
        }
        if (valueOf("--rate", value)) {
            parseRate(value, opts);
            continue;
        }
        if (valueOf("--mesh", value)) {
            unsigned dims[3];
            tools::meshArg("gpfault", value, noc::kMaxNodes, dims);
            opts.mesh = true;
            opts.meshCampaign.dimX = dims[0];
            opts.meshCampaign.dimY = dims[1];
            opts.meshCampaign.dimZ = dims[2];
            continue;
        }
        if (valueOf("--threads", value)) {
            opts.meshCampaign.hostThreads = unsigned(
                numberArg("gpfault", "--threads", value, UINT32_MAX));
            opts.meshFlag = "--threads";
            continue;
        }
        if (arg == "--no-retrans") {
            opts.meshCampaign.retrans.enabled = false;
            opts.meshFlag = "--no-retrans";
            continue;
        }
        if (valueOf("--ecc", value)) {
            opts.campaign.ecc = tools::eccArg("gpfault", value);
            opts.singleFlag = "--ecc";
            continue;
        }
        std::fprintf(stderr, "gpfault: unknown option: %s\n",
                     arg.c_str());
        return false;
    }
    return true;
}

/**
 * Run one campaign arm and report it: per-run lines (--verbose), the
 * arm's @p header, the outcome table, the campaign signature, the
 * stats JSON and the --expect-* exit status. Both arms report here;
 * they differ only in the header and in the per-run counts
 * @p runCounts formats for --verbose.
 */
template <class Runner, class RunCounts, class Header>
int
runCampaign(const Options &opts, Runner &runner, std::ofstream &stats,
            RunCounts runCounts, Header header)
{
    // Every run is judged against the fault-free one; if that does
    // not halt, each run would be a vacuous hang. Its budget warning
    // would only repeat the message below.
    const bool was_quiet = sim::quiet();
    sim::setQuiet(true);
    const bool halts = runner.goldenHalts();
    sim::setQuiet(was_quiet);
    if (!halts)
        badInput("gpfault",
                 "the fault-free golden run does not halt within "
                 "--max-cycles " +
                     std::to_string(runner.config().maxCycles) +
                     ", so there is nothing to compare runs against");

    const auto totals = runner.runAll();

    if (opts.verbose) {
        const auto &results = runner.results();
        for (size_t i = 0; i < results.size(); ++i) {
            const auto &r = results[i];
            std::printf(
                "run %4zu: %-23s cycles=%-7llu inj=%-3llu %s fault=%s\n",
                i, std::string(outcomeName(r.outcome)).c_str(),
                (unsigned long long)r.cycles,
                (unsigned long long)r.injections, runCounts(r).c_str(),
                std::string(faultName(r.firstFault)).c_str());
        }
    }

    header(totals);
    using Outcome = typename Runner::Outcome;
    for (unsigned o = 0; o < unsigned(Outcome::Count); ++o) {
        const uint64_t n = totals.perOutcome[o];
        std::printf("  %-23s %6llu  (%5.1f%%)\n",
                    std::string(outcomeName(Outcome(o))).c_str(),
                    (unsigned long long)n,
                    totals.runs
                        ? 100.0 * double(n) / double(totals.runs)
                        : 0.0);
    }
    std::printf("gpfault: %scampaign signature %016llx\n",
                opts.mesh ? "mesh " : "",
                (unsigned long long)runner.campaignSignature());

    if (stats.is_open())
        sim::StatRegistry::instance().exportJson(stats);

    const uint64_t sdc = totals.outcome(Outcome::Sdc);
    const uint64_t detected = totals.outcome(Outcome::DetectedFault);
    if (opts.expectZeroSdc && sdc != 0) {
        std::fprintf(stderr,
                     "gpfault: FAIL: expected zero silent data "
                     "corruption, saw %llu run(s)\n",
                     (unsigned long long)sdc);
        return 1;
    }
    if (opts.expectDetected && detected == 0) {
        std::fprintf(stderr,
                     "gpfault: FAIL: expected detected-fault runs, "
                     "saw none\n");
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    bool exitEarly = false;
    if (!parseArgs(argc, argv, opts, exitEarly)) {
        usage(argv[0]);
        return 2;
    }
    if (exitEarly)
        return 0;

    // Input the selected arm would ignore is an error, reported
    // before anything runs.
    if (opts.mesh && !opts.singleFlag.empty())
        badInput("gpfault", opts.singleFlag +
                                " is a single-machine campaign flag; "
                                "the mesh arm (--mesh) never uses it");
    if (!opts.mesh && !opts.meshFlag.empty())
        badInput("gpfault", opts.meshFlag +
                                " is a mesh campaign flag; the "
                                "single-machine arm never uses it "
                                "(add --mesh X,Y,Z)");
    for (sim::FaultSite site : opts.rated) {
        if (opts.mesh ? !fault::MeshCampaignRunner::wires(site)
                      : !fault::CampaignRunner::wires(site))
            badInput("gpfault",
                     "--rate " + std::string(sim::faultSiteName(site)) +
                         ": the " + armName(opts.mesh) +
                         " arm never fires this site (see --list-sites)");
    }
    std::ofstream stats;
    if (!opts.statsJson.empty()) {
        stats.open(opts.statsJson, std::ios::trunc);
        if (!stats)
            badInput("gpfault", "cannot open stats file " + opts.statsJson);
    }

    if (opts.mesh) {
        fault::MeshCampaignConfig &mc = opts.meshCampaign;
        mc.faults = opts.campaign.faults;
        fault::MeshCampaignRunner runner(mc);
        return runCampaign(
            opts, runner, stats,
            [](const fault::MeshRunResult &r) {
                return "dead=" + std::to_string(r.deadNodes) +
                       " links=" + std::to_string(r.downLinks) +
                       " detours=" + std::to_string(r.detours) +
                       " unreach=" + std::to_string(r.unreachableFaults);
            },
            [&mc](const fault::MeshCampaignTotals &t) {
                std::printf(
                    "gpfault: mesh %ux%ux%u campaign, %llu runs, "
                    "%llu injections, %u host thread(s), retrans=%s, "
                    "golden=%llu cycles\n",
                    mc.dimX, mc.dimY, mc.dimZ, (unsigned long long)t.runs,
                    (unsigned long long)t.totalInjections,
                    mc.hostThreads, mc.retrans.enabled ? "on" : "off",
                    (unsigned long long)t.goldenCycles);
                std::printf("  dead-nodes=%llu down-links=%llu "
                            "detours=%llu unreachable-faults=%llu\n",
                            (unsigned long long)t.totalDeadNodes,
                            (unsigned long long)t.totalDownLinks,
                            (unsigned long long)t.totalDetours,
                            (unsigned long long)t.totalUnreachableFaults);
            });
    }
    const fault::CampaignConfig &cc = opts.campaign;
    fault::CampaignRunner runner(cc);
    return runCampaign(
        opts, runner, stats,
        [](const fault::RunResult &r) {
            return "eccC=" + std::to_string(r.eccCorrected) +
                   " eccD=" + std::to_string(r.eccDetected) +
                   " walkT=" + std::to_string(r.walkTransients);
        },
        [&cc](const fault::CampaignTotals &t) {
            std::printf("gpfault: %llu runs, %llu injections, ecc=%s, "
                        "walk-retries=%u, golden=%llu cycles\n",
                        (unsigned long long)t.runs,
                        (unsigned long long)t.totalInjections,
                        std::string(mem::eccModeName(cc.ecc)).c_str(),
                        cc.walkRetries,
                        (unsigned long long)t.goldenCycles);
        });
}
