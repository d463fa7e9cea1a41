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
 *           [--watchdog-cycles N] [--stats-json=FILE]
 *           [--elide-checks] [--verbose] [--list-sites]
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
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "cli_number.h"
#include "fault/campaign.h"
#include "fault/mesh_campaign.h"
#include "mem/ecc.h"
#include "sim/faultinject.h"
#include "sim/log.h"
#include "sim/stats_registry.h"

using namespace gp;
using gp::tools::numberArg;

namespace {

struct Options
{
    fault::CampaignConfig campaign;
    std::string statsJson;
    bool verbose = false;
    bool expectZeroSdc = false;
    bool expectDetected = false;
    bool mesh = false; //!< --mesh X,Y,Z given: run the mesh campaign
    fault::MeshCampaignConfig meshCampaign;
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --runs N           injected runs (default 100)\n"
        "  --seed N           master seed (default 1)\n"
        "  --iterations N     workload loop iterations (default 150)\n"
        "  --ecc=MODE         off | parity | secded (default off)\n"
        "  --walk-retries N   transient page-walk retries (default 0)\n"
        "  --rate SITE=R      per-opportunity fault rate at SITE\n"
        "                     (repeatable; see --list-sites)\n"
        "  --burst-max-bits N max bits per cache-line burst (default 4)\n"
        "  --watchdog-cycles N  per-run hang budget (default 300000)\n"
        "  --stats-json=FILE  export the campaign stat group as JSON\n"
        "  --elide-checks     arm verifier-driven check elision; the\n"
        "                     outcome table must match the elide-off\n"
        "                     campaign bit for bit (injected runs\n"
        "                     auto-disable elision)\n"
        "  --verbose          one line per run\n"
        "  --list-sites       print the fault-site names and exit\n"
        "  --expect-zero-sdc  exit 1 if any run is classified SDC\n"
        "  --expect-detected  exit 1 if no run is detected-fault\n"
        "mesh campaign (multi-node fail-stop resilience):\n"
        "  --mesh X,Y,Z       run the mesh campaign on an XxYxZ mesh\n"
        "                     (sites: node-fail-stop, link-down, plus\n"
        "                     the noc-* transients)\n"
        "  --threads N        host threads per run (default 1); the\n"
        "                     printed campaign signature is identical\n"
        "                     for every value\n"
        "  --max-cycles N     per-run cycle budget (default 400000)\n"
        "  --mesh-watchdog N  mesh quiescence window (default 20000)\n"
        "  --no-retrans       disable the end-to-end retry protocol\n",
        argv0);
}

void
listSites()
{
    for (unsigned i = 0; i < sim::kFaultSiteCount; ++i) {
        std::printf("%s\n",
                    std::string(sim::faultSiteName(
                                    static_cast<sim::FaultSite>(i)))
                        .c_str());
    }
}

bool
parseRate(const std::string &spec, sim::FaultConfig &fc)
{
    const size_t eq = spec.find('=');
    if (eq == std::string::npos)
        return false;
    const std::string name = spec.substr(0, eq);
    const sim::FaultSite site = sim::faultSiteFromName(name);
    if (site == sim::FaultSite::Count) {
        std::fprintf(stderr, "gpfault: unknown fault site '%s' "
                             "(try --list-sites)\n",
                     name.c_str());
        return false;
    }
    // Checked like every numeric flag (cli_number.h): the whole value
    // must parse, as a finite non-negative rate.
    const std::string text = spec.substr(eq + 1);
    errno = 0;
    char *end = nullptr;
    const double rate = std::strtod(text.c_str(), &end);
    if (text.empty() || errno == ERANGE ||
        end != text.c_str() + text.size() || !(rate >= 0) ||
        !std::isfinite(rate)) {
        std::fprintf(stderr, "gpfault: bad rate for '%s': '%s' (want "
                             "a finite number >= 0)\n",
                     name.c_str(), text.c_str());
        std::exit(2);
    }
    fc.rate[static_cast<unsigned>(site)] = rate;
    return true;
}

bool
parseArgs(int argc, char **argv, Options &opts, bool &exitEarly)
{
    exitEarly = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
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
        if (arg == "--elide-checks" ||
            arg == "--elide-checks=verified") {
            opts.campaign.elideChecks = true;
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
        if (valueOf("--walk-retries", value)) {
            opts.campaign.walkRetries = unsigned(numberArg(
                "gpfault", "--walk-retries", value, UINT32_MAX));
            continue;
        }
        if (valueOf("--burst-max-bits", value)) {
            opts.campaign.faults.burstMaxBits =
                numberArg("gpfault", "--burst-max-bits", value);
            continue;
        }
        if (valueOf("--watchdog-cycles", value)) {
            opts.campaign.watchdogCycles =
                numberArg("gpfault", "--watchdog-cycles", value);
            continue;
        }
        if (valueOf("--stats-json", value)) {
            opts.statsJson = value;
            continue;
        }
        if (valueOf("--rate", value)) {
            if (!parseRate(value, opts.campaign.faults))
                return false;
            opts.meshCampaign.faults = opts.campaign.faults;
            continue;
        }
        if (valueOf("--mesh", value)) {
            unsigned x = 0, y = 0, z = 0;
            if (std::sscanf(value.c_str(), "%u,%u,%u", &x, &y, &z) !=
                    3 ||
                x == 0 || y == 0 || z == 0) {
                std::fprintf(stderr,
                             "gpfault: bad --mesh geometry: %s\n",
                             value.c_str());
                return false;
            }
            opts.mesh = true;
            opts.meshCampaign.dimX = x;
            opts.meshCampaign.dimY = y;
            opts.meshCampaign.dimZ = z;
            continue;
        }
        if (valueOf("--threads", value)) {
            opts.meshCampaign.hostThreads = unsigned(
                numberArg("gpfault", "--threads", value, UINT32_MAX));
            continue;
        }
        if (valueOf("--max-cycles", value)) {
            opts.meshCampaign.maxCycles =
                numberArg("gpfault", "--max-cycles", value);
            continue;
        }
        if (valueOf("--mesh-watchdog", value)) {
            opts.meshCampaign.meshWatchdogCycles =
                numberArg("gpfault", "--mesh-watchdog", value);
            continue;
        }
        if (arg == "--no-retrans") {
            opts.meshCampaign.retrans.enabled = false;
            continue;
        }
        if (valueOf("--ecc", value)) {
            if (value == "off" || value == "none") {
                opts.campaign.ecc = mem::EccMode::None;
            } else if (value == "parity") {
                opts.campaign.ecc = mem::EccMode::Parity;
            } else if (value == "secded") {
                opts.campaign.ecc = mem::EccMode::Secded;
            } else {
                std::fprintf(stderr, "gpfault: bad --ecc mode: %s\n",
                             value.c_str());
                return false;
            }
            continue;
        }
        std::fprintf(stderr, "gpfault: unknown option: %s\n",
                     arg.c_str());
        return false;
    }
    return true;
}

/** The multi-node fail-stop arm of the driver (--mesh X,Y,Z). */
int
runMeshCampaign(const Options &opts)
{
    fault::MeshCampaignRunner runner(opts.meshCampaign);
    const fault::MeshCampaignTotals totals = runner.runAll();

    if (opts.verbose) {
        const auto &results = runner.results();
        for (size_t i = 0; i < results.size(); ++i) {
            const fault::MeshRunResult &r = results[i];
            std::printf(
                "run %4zu: %-23s cycles=%-7llu inj=%-3llu "
                "dead=%llu links=%llu detours=%llu unreach=%llu "
                "fault=%s\n",
                i, std::string(meshOutcomeName(r.outcome)).c_str(),
                (unsigned long long)r.cycles,
                (unsigned long long)r.injections,
                (unsigned long long)r.deadNodes,
                (unsigned long long)r.downLinks,
                (unsigned long long)r.detours,
                (unsigned long long)r.unreachableFaults,
                std::string(faultName(r.firstFault)).c_str());
        }
    }

    const auto &mc = opts.meshCampaign;
    std::printf("gpfault: mesh %ux%ux%u campaign, %llu runs, "
                "%llu injections, %u host thread(s), retrans=%s, "
                "golden=%llu cycles\n",
                mc.dimX, mc.dimY, mc.dimZ,
                (unsigned long long)totals.runs,
                (unsigned long long)totals.totalInjections,
                mc.hostThreads, mc.retrans.enabled ? "on" : "off",
                (unsigned long long)totals.goldenCycles);
    std::printf("  dead-nodes=%llu down-links=%llu detours=%llu "
                "unreachable-faults=%llu\n",
                (unsigned long long)totals.totalDeadNodes,
                (unsigned long long)totals.totalDownLinks,
                (unsigned long long)totals.totalDetours,
                (unsigned long long)totals.totalUnreachableFaults);
    for (unsigned o = 0; o < fault::kMeshOutcomeCount; ++o) {
        const uint64_t n = totals.perOutcome[o];
        std::printf("  %-23s %6llu  (%5.1f%%)\n",
                    std::string(
                        meshOutcomeName(fault::MeshOutcome(o)))
                        .c_str(),
                    (unsigned long long)n,
                    totals.runs
                        ? 100.0 * double(n) / double(totals.runs)
                        : 0.0);
    }
    std::printf("gpfault: mesh campaign signature %016llx\n",
                (unsigned long long)runner.campaignSignature());

    if (!opts.statsJson.empty()) {
        std::ofstream out(opts.statsJson, std::ios::trunc);
        if (!out)
            sim::fatal("cannot open stats file %s",
                       opts.statsJson.c_str());
        sim::StatRegistry::instance().exportJson(out);
    }

    const uint64_t sdc = totals.outcome(fault::MeshOutcome::Sdc);
    const uint64_t detected =
        totals.outcome(fault::MeshOutcome::DetectedFault);
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

    if (opts.mesh)
        return runMeshCampaign(opts);

    fault::CampaignRunner runner(opts.campaign);
    const fault::CampaignTotals totals = runner.runAll();

    if (opts.verbose) {
        const auto &results = runner.results();
        for (size_t i = 0; i < results.size(); ++i) {
            const fault::RunResult &r = results[i];
            std::printf(
                "run %4zu: %-23s cycles=%-7llu inj=%-3llu "
                "eccC=%llu eccD=%llu walkT=%llu fault=%s\n",
                i, std::string(outcomeName(r.outcome)).c_str(),
                (unsigned long long)r.cycles,
                (unsigned long long)r.injections,
                (unsigned long long)r.eccCorrected,
                (unsigned long long)r.eccDetected,
                (unsigned long long)r.walkTransients,
                std::string(faultName(r.firstFault)).c_str());
        }
    }

    std::printf("gpfault: %llu runs, %llu injections, ecc=%s, "
                "walk-retries=%u%s, golden=%llu cycles\n",
                (unsigned long long)totals.runs,
                (unsigned long long)totals.totalInjections,
                std::string(mem::eccModeName(opts.campaign.ecc))
                    .c_str(),
                opts.campaign.walkRetries,
                opts.campaign.elideChecks ? ", elide-checks" : "",
                (unsigned long long)totals.goldenCycles);
    for (unsigned o = 0; o < fault::kOutcomeCount; ++o) {
        const uint64_t n = totals.perOutcome[o];
        std::printf("  %-23s %6llu  (%5.1f%%)\n",
                    std::string(outcomeName(fault::Outcome(o)))
                        .c_str(),
                    (unsigned long long)n,
                    totals.runs ? 100.0 * double(n) /
                                      double(totals.runs)
                                : 0.0);
    }

    if (!opts.statsJson.empty()) {
        std::ofstream out(opts.statsJson, std::ios::trunc);
        if (!out)
            sim::fatal("cannot open stats file %s",
                       opts.statsJson.c_str());
        sim::StatRegistry::instance().exportJson(out);
    }

    const uint64_t sdc = totals.outcome(fault::Outcome::Sdc);
    const uint64_t detected =
        totals.outcome(fault::Outcome::DetectedFault);
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
