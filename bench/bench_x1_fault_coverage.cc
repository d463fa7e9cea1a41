/**
 * @file
 * X1: fault-coverage of the guarded-pointer hardware (ISSUE 4).
 *
 * The paper's single tag bit is the whole security argument: a
 * capability cannot be forged because user code cannot set the tag.
 * But a *hardware* fault can — a cosmic-ray upset in DRAM or a
 * flipped bit on a mesh link touches the tag like any other stored
 * bit. This experiment quantifies what the machine does about it:
 *
 *  - X1.1: the at-rest truth table. One stored capability, one
 *    deliberate bit strike, read back under each protection mode.
 *    With ECC off a tag strike *mints or destroys a capability
 *    silently*; parity detects all single strikes; SECDED corrects
 *    them and still detects doubles.
 *  - X1.2: per-site campaign coverage. 60-run campaigns with exactly
 *    one fault site active each, classified into the five-way
 *    taxonomy {masked, corrected, detected, SDC, crash/hang}.
 *  - X1.3: the hardening ablation — the headline table. The same
 *    stored-bit campaign swept over {off, parity, secded} x
 *    {0, 3 walk retries}: SECDED drives single-bit SDC *and*
 *    detected-faults to zero (everything is corrected or masked),
 *    and walk retries absorb transient page-walk failures.
 *  - X1.4: NoC link storms. Raw links lose or silently corrupt
 *    messages; the retransmission protocol converts storms into
 *    latency (retries + acks) with zero corrupted deliveries.
 *  - X1.5: mesh-scale fail-stop campaigns (ISSUE 9). Node deaths and
 *    persistent link failures swept over a 2x2x2 mesh: link-only
 *    storms are absorbed by route-around (degraded-but-correct),
 *    node deaths surface as typed NodeUnreachable detections, and
 *    the silent-data-corruption column stays zero in every arm.
 *
 * Every table is deterministic: same seed, same numbers.
 */

#include <string>

#include "bench_util.h"
#include "fault/campaign.h"
#include "fault/mesh_campaign.h"
#include "gp/ops.h"
#include "mem/tagged_memory.h"
#include "noc/retransmit.h"
#include "sim/faultinject.h"
#include "sim/log.h"

namespace {

using namespace gp;
using fault::CampaignConfig;
using fault::CampaignRunner;
using fault::CampaignTotals;
using fault::Outcome;
using sim::FaultInjector;
using sim::FaultSite;

/** X1.1: what one stored-bit strike does under each ECC mode. */
std::string
strikeVerdict(mem::EccMode mode, const unsigned *bits, unsigned n)
{
    mem::TaggedMemory pm;
    pm.setEccMode(mode);
    auto cap = makePointer(Perm::ReadWrite, 12, uint64_t(1) << 30);
    if (!cap)
        sim::fatal("X1: bad pointer");
    pm.writeWord(0, cap.value);
    for (unsigned i = 0; i < n; ++i)
        pm.flipStoredBit(0, bits[i]);
    const mem::CheckedWord cw = pm.readWordChecked(0);
    if (cw.status == mem::EccStatus::Detected)
        return "detected (faults)";
    const bool clean = cw.word.bits() == cap.value.bits() &&
                       cw.word.isPointer();
    if (cw.status == mem::EccStatus::Corrected)
        return clean ? "corrected" : "miscorrected!";
    if (clean)
        return "intact";
    return cw.word.isPointer() == cap.value.isPointer()
               ? "SILENT data flip"
               : "SILENT tag forgery";
}

void
truthTable()
{
    gp::bench::Table t(
        "X1.1: one stored capability, deliberate bit strikes at rest",
        {"strike", "ecc=off", "ecc=parity", "ecc=secded"});
    struct Case
    {
        const char *name;
        unsigned bits[2];
        unsigned n;
    };
    const Case cases[] = {
        {"payload bit 17", {17}, 1},
        {"perm-field bit 61", {61}, 1},
        {"tag bit", {64}, 1},
        {"double payload bits", {5, 41}, 2},
        {"payload + tag", {23, 64}, 2},
    };
    for (const Case &c : cases) {
        t.addRow({c.name,
                  strikeVerdict(mem::EccMode::None, c.bits, c.n),
                  strikeVerdict(mem::EccMode::Parity, c.bits, c.n),
                  strikeVerdict(mem::EccMode::Secded, c.bits, c.n)});
    }
    t.print();
}

/** Run one campaign and return its totals. */
CampaignTotals
runCampaign(const CampaignConfig &cc)
{
    CampaignRunner runner(cc);
    return runner.runAll();
}

std::vector<std::string>
outcomeCells(const CampaignTotals &t)
{
    std::vector<std::string> cells;
    for (unsigned o = 0; o < fault::kOutcomeCount; ++o)
        cells.push_back(gp::bench::fmt(
            "%llu", (unsigned long long)t.perOutcome[o]));
    return cells;
}

void
perSiteCoverage()
{
    gp::bench::Table t(
        "X1.2: per-site coverage, 60 runs each (counts)",
        {"fault site", "rate", "ecc", "injected", "masked",
         "corrected", "detected", "SDC", "crash/hang"});
    struct Site
    {
        FaultSite site;
        double rate;
        mem::EccMode ecc;
    };
    const Site sites[] = {
        {FaultSite::MemDataBit, 3e-4, mem::EccMode::None},
        {FaultSite::MemDataBit, 3e-4, mem::EccMode::Secded},
        {FaultSite::MemTagBit, 3e-4, mem::EccMode::None},
        {FaultSite::MemPermField, 3e-4, mem::EccMode::None},
        {FaultSite::CacheLineBurst, 3e-4, mem::EccMode::None},
        {FaultSite::TlbCorrupt, 2e-4, mem::EccMode::None},
        {FaultSite::TlbInvalidate, 2e-4, mem::EccMode::None},
        {FaultSite::PtWalkTransient, 5e-2, mem::EccMode::None},
    };
    for (const Site &s : sites) {
        CampaignConfig cc;
        cc.runs = 60;
        cc.seed = 42;
        cc.ecc = s.ecc;
        // Tight hang budget: a spinning run must be *converted* by
        // the watchdog before a later incidental flip kills it with
        // an architectural fault (which would misfile the hang as
        // detected). 30k cycles is ~8x the golden runtime.
        cc.maxCycles = 30000;
        cc.faults.rate[unsigned(s.site)] = s.rate;
        const CampaignTotals totals = runCampaign(cc);
        std::vector<std::string> row = {
            std::string(sim::faultSiteName(s.site)),
            gp::bench::fmt("%g", s.rate),
            std::string(mem::eccModeName(s.ecc)),
            gp::bench::fmt("%llu",
                           (unsigned long long)
                               totals.totalInjections)};
        for (const std::string &c : outcomeCells(totals))
            row.push_back(c);
        t.addRow(row);
    }
    t.print();
}

void
hardeningAblation()
{
    gp::bench::Table t(
        "X1.3: hardening ablation, stored-bit + walk faults, "
        "120 runs (counts)",
        {"configuration", "masked", "corrected", "detected", "SDC",
         "crash/hang", "ecc corr", "ecc det"});
    struct Arm
    {
        const char *name;
        mem::EccMode ecc;
        unsigned walkRetries;
    };
    const Arm arms[] = {
        {"unprotected", mem::EccMode::None, 0},
        {"parity", mem::EccMode::Parity, 0},
        {"secded", mem::EccMode::Secded, 0},
        {"secded + walk-retry=3", mem::EccMode::Secded, 3},
    };
    uint64_t unprotectedSdc = 0, secdedSdc = 0;
    for (const Arm &a : arms) {
        CampaignConfig cc;
        cc.runs = 120;
        cc.seed = 7;
        cc.maxCycles = 30000;
        cc.ecc = a.ecc;
        cc.walkRetries = a.walkRetries;
        // Single stored-bit flips (data or tag) plus transient
        // page-walk failures: the exact threat SECDED + bounded
        // retry are designed to kill.
        cc.faults.rate[unsigned(FaultSite::MemDataBit)] = 3e-4;
        cc.faults.rate[unsigned(FaultSite::MemTagBit)] = 1e-4;
        cc.faults.rate[unsigned(FaultSite::PtWalkTransient)] = 2e-2;
        const CampaignTotals totals = runCampaign(cc);
        if (a.ecc == mem::EccMode::None)
            unprotectedSdc = totals.outcome(Outcome::Sdc);
        if (a.ecc == mem::EccMode::Secded)
            secdedSdc += totals.outcome(Outcome::Sdc);
        std::vector<std::string> row = {a.name};
        for (const std::string &c : outcomeCells(totals))
            row.push_back(c);
        row.push_back(gp::bench::fmt(
            "%llu", (unsigned long long)totals.totalEccCorrected));
        row.push_back(gp::bench::fmt(
            "%llu", (unsigned long long)totals.totalEccDetected));
        t.addRow(row);
    }
    t.print();

    std::printf("\nheadline: unprotected single-bit SDC runs = %llu; "
                "with SECDED = %llu\n",
                (unsigned long long)unprotectedSdc,
                (unsigned long long)secdedSdc);
    gp::bench::Table h("X1 headline: single-bit SDC runs by ECC mode",
                       {"ecc", "SDC runs"});
    h.addRow({"off", gp::bench::fmt(
                         "%llu",
                         (unsigned long long)unprotectedSdc)});
    h.addRow({"secded", gp::bench::fmt(
                            "%llu", (unsigned long long)secdedSdc)});
    h.print();
}

void
nocStorms()
{
    gp::bench::Table t(
        "X1.4: 2000 one-line transfers over a faulty mesh link",
        {"storm (drop/corrupt rate)", "protocol", "delivered",
         "corrupted", "abandoned", "retransmits", "crc discards",
         "avg cycles"});
    const double storms[] = {0.0, 0.01, 0.05, 0.2};
    for (const double p : storms) {
        for (const bool reliable : {false, true}) {
            noc::Mesh mesh;
            noc::RetransConfig rc;
            rc.enabled = reliable;
            noc::Retransmitter rt(mesh, rc, "x1_retrans");

            sim::FaultConfig fc;
            fc.seed = 99;
            fc.rate[unsigned(FaultSite::NocDrop)] = p;
            fc.rate[unsigned(FaultSite::NocCorrupt)] = p;
            fc.rate[unsigned(FaultSite::NocDelay)] = p;
            FaultInjector::instance().arm(fc);

            const unsigned kMsgs = 2000;
            uint64_t delivered = 0, corrupted = 0, cycles = 0;
            uint64_t now = 0;
            for (unsigned m = 0; m < kMsgs; ++m) {
                const noc::Delivery d =
                    rt.transfer(0, 13, now, 4);
                if (d.delivered && !d.corrupted)
                    delivered++;
                if (d.delivered && d.corrupted)
                    corrupted++;
                cycles += d.cycle - now;
                now = d.cycle + 1;
            }
            FaultInjector::instance().disarm();

            t.addRow({gp::bench::fmt("%g", p),
                      reliable ? "retransmit" : "raw",
                      gp::bench::fmt("%llu",
                                     (unsigned long long)delivered),
                      gp::bench::fmt("%llu",
                                     (unsigned long long)corrupted),
                      gp::bench::fmt(
                          "%llu",
                          (unsigned long long)rt.abandoned()),
                      gp::bench::fmt(
                          "%llu",
                          (unsigned long long)rt.retransmissions()),
                      gp::bench::fmt(
                          "%llu",
                          (unsigned long long)rt.crcDiscards()),
                      gp::bench::fmt("%.1f", double(cycles) /
                                                 double(kMsgs))});
        }
    }
    t.print();
}

void
meshFailStop()
{
    gp::bench::Table t(
        "X1.5: mesh fail-stop campaigns, 2x2x2 mesh, 20 runs each "
        "(counts)",
        {"arm", "retrans", "injected", "dead", "links down",
         "detours", "masked", "degraded", "detected", "SDC", "hang"});
    struct Arm
    {
        const char *name;
        double nodeRate;
        double linkRate;
        bool retrans;
    };
    const Arm arms[] = {
        {"link storms only", 0.0, 2e-3, true},
        {"node deaths only", 1e-3, 0.0, true},
        {"deaths + link storms", 1e-3, 2e-3, true},
        {"deaths, raw links", 1e-3, 0.0, false},
    };
    uint64_t totalSdc = 0, totalHang = 0;
    for (const Arm &a : arms) {
        fault::MeshCampaignConfig cc;
        cc.seed = 31;
        cc.runs = 20;
        cc.iterations = 24;
        cc.retrans.enabled = a.retrans;
        cc.faults.rate[unsigned(FaultSite::NodeFailStop)] =
            a.nodeRate;
        cc.faults.rate[unsigned(FaultSite::LinkDown)] = a.linkRate;
        fault::MeshCampaignRunner runner(cc);
        const fault::MeshCampaignTotals totals = runner.runAll();
        totalSdc += totals.outcome(fault::MeshOutcome::Sdc);
        totalHang += totals.outcome(fault::MeshOutcome::Hang);
        t.addRow({a.name, a.retrans ? "on" : "off",
                  gp::bench::fmt("%llu", (unsigned long long)
                                             totals.totalInjections),
                  gp::bench::fmt("%llu", (unsigned long long)
                                             totals.totalDeadNodes),
                  gp::bench::fmt("%llu", (unsigned long long)
                                             totals.totalDownLinks),
                  gp::bench::fmt("%llu", (unsigned long long)
                                             totals.totalDetours),
                  gp::bench::fmt(
                      "%llu", (unsigned long long)totals.outcome(
                                  fault::MeshOutcome::Masked)),
                  gp::bench::fmt(
                      "%llu", (unsigned long long)totals.outcome(
                                  fault::MeshOutcome::Degraded)),
                  gp::bench::fmt(
                      "%llu", (unsigned long long)totals.outcome(
                                  fault::MeshOutcome::DetectedFault)),
                  gp::bench::fmt(
                      "%llu", (unsigned long long)totals.outcome(
                                  fault::MeshOutcome::Sdc)),
                  gp::bench::fmt(
                      "%llu", (unsigned long long)totals.outcome(
                                  fault::MeshOutcome::Hang))});
    }
    t.print();
    std::printf("\nheadline: mesh fail-stop SDC runs = %llu, "
                "hangs = %llu (both must be zero)\n",
                (unsigned long long)totalSdc,
                (unsigned long long)totalHang);
}

} // namespace

int
main(int argc, char **argv)
{
    gp::bench::init(argc, argv);
    truthTable();
    perSiteCoverage();
    hardeningAblation();
    nocStorms();
    meshFailStop();
    return 0;
}
