/**
 * @file
 * Deterministic fault-injection campaign runner (ISSUE 4 tentpole).
 *
 * A *campaign* is a set of independent simulated runs of one fixed
 * workload, each under a distinct per-run seed, with hardware faults
 * injected at configured sites/rates. Every run is classified into
 * the five-way outcome taxonomy used by the resilience literature:
 *
 *  - **masked**: faults were injected (or none fired) but the
 *    architectural result is bit-identical to the golden run and no
 *    hardware repair was needed;
 *  - **corrected**: the result is golden *because* a hardening
 *    mechanism repaired the damage (SECDED correction, page-walk
 *    retry, NoC retransmission);
 *  - **detected-fault**: the run terminated with an architectural
 *    fault — the hardware noticed (NotAPointer on a cleared tag,
 *    MemoryIntegrity from the code check, BoundsViolation from a
 *    mangled length field, ...). Detection is the security win: a
 *    flipped tag that faults cannot forge a capability;
 *  - **silent-data-corruption**: the run completed "successfully"
 *    but its memory image differs from golden — including any
 *    difference in *tag bits*, so a forged capability at rest is
 *    SDC even if the payload matches;
 *  - **crash-hang**: the run never completed; the machine watchdog
 *    converted the hang/livelock into WatchdogTimeout faults.
 *
 * The workload is a small self-contained loop chosen so that every
 * class is reachable: it keeps its loop bound *and* a capability to
 * its own data segment in memory (reloaded every iteration), writes
 * a result vector, and stores an accumulator — so a stored-bit flip
 * can variously be overwritten (masked), corrupted into the result
 * (SDC), strip/forge the reloaded capability (detected / SDC), or
 * blow up the loop bound (hang).
 *
 * Determinism: the whole campaign outcome is a pure function of
 * (CampaignConfig, master seed). Per-run seeds derive from the
 * master seed (fault/engine.h); all stochastic choices flow through
 * the per-site FaultInjector streams; victim words are chosen from
 * *sorted* address lists, never from hash iteration order.
 */

#ifndef GP_FAULT_CAMPAIGN_H
#define GP_FAULT_CAMPAIGN_H

#include <cstdint>
#include <string_view>
#include <vector>

#include "fault/engine.h"
#include "gp/fault.h"
#include "mem/ecc.h"
#include "sim/faultinject.h"

namespace gp::fault {

/** Five-way outcome taxonomy of one injected run. */
enum class Outcome : uint8_t
{
    Masked = 0,
    Corrected,
    DetectedFault,
    Sdc,
    CrashHang,
    Count,
};

inline constexpr unsigned kOutcomeCount =
    static_cast<unsigned>(Outcome::Count);

/** @return stable lower-case outcome name (stat/JSON key). */
constexpr std::string_view
outcomeName(Outcome o)
{
    switch (o) {
      case Outcome::Masked:
        return "masked";
      case Outcome::Corrected:
        return "corrected";
      case Outcome::DetectedFault:
        return "detected-fault";
      case Outcome::Sdc:
        return "silent-data-corruption";
      case Outcome::CrashHang:
        return "crash-hang";
      default:
        return "unknown";
    }
}

/// Cycles a single-arm run goes past its budget, so the machine
/// watchdog trips inside the run, not at its end.
inline constexpr uint64_t kRunSlackCycles = 10000;

/** Full configuration of one campaign. */
struct CampaignConfig
{
    /** Master seed; run r uses a seed derived from (seed, r). */
    uint64_t seed = 1;
    /** Number of injected runs. */
    unsigned runs = 100;
    /** Hardening: code over stored words. */
    mem::EccMode ecc = mem::EccMode::None;
    /** Hardening: bounded page-walk retries. */
    unsigned walkRetries = 0;
    /** Per-site injection rates etc. (seed field is ignored; the
     * campaign installs the per-run seed). */
    sim::FaultConfig faults;
    /** Workload size: loop iterations. */
    uint64_t iterations = 150;
    /** Per-run cycle budget: the machine watchdog's (converts
     * hangs). */
    uint64_t maxCycles = 300000;
    /** Watchdog quiescence window per run. */
    uint64_t watchdogQuiescence = 5000;
};

/** Everything observed about one run. */
struct RunResult
{
    Outcome outcome = Outcome::Masked;
    uint64_t cycles = 0;          //!< cycles executed
    uint64_t injections = 0;      //!< faults fired by the injector
    uint64_t eccCorrected = 0;    //!< SECDED repairs during the run
    uint64_t eccDetected = 0;     //!< uncorrectable detections
    uint64_t walkTransients = 0;  //!< transient walk failures retried
    Fault firstFault = Fault::None; //!< first architectural fault
    uint64_t signature = 0;       //!< final data-memory hash
    bool hung = false;            //!< a watchdog or the budget ended it
};

/** Aggregated campaign outcome table. */
struct CampaignTotals : TotalsBase<Outcome>
{
    uint64_t totalEccCorrected = 0;
    uint64_t totalEccDetected = 0;
};

/**
 * Runs the standard workload under a campaign configuration on one
 * machine. Owns a "campaign" stat group (outcome.*, runs,
 * injections, ...) that feeds the registry JSON export.
 */
class CampaignRunner
    : public CampaignEngine<CampaignRunner, RunResult, CampaignTotals>
{
  public:
    using Config = CampaignConfig;
    using Outcome = fault::Outcome;

    /** The memory, TLB and page-walk sites this arm wires. */
    static constexpr sim::FaultSite kSites[] = {
        sim::FaultSite::MemDataBit,     sim::FaultSite::MemTagBit,
        sim::FaultSite::MemPermField,   sim::FaultSite::CacheLineBurst,
        sim::FaultSite::TlbCorrupt,     sim::FaultSite::TlbInvalidate,
        sim::FaultSite::PtWalkTransient,
    };

    static constexpr CampaignExtra<RunResult, CampaignTotals> kExtras[] = {
        {"ecc_corrected", &RunResult::eccCorrected,
         &CampaignTotals::totalEccCorrected},
        {"ecc_detected", &RunResult::eccDetected,
         &CampaignTotals::totalEccDetected},
    };

    explicit CampaignRunner(const CampaignConfig &config);

    /** The fault-free data-image signature (computed lazily). */
    uint64_t goldenSignature() { return golden().signature; }

    const CampaignConfig &config() const { return config_; }

  private:
    friend CampaignEngine;

    /** Execute the workload once; inject iff @p runSeed != nullptr. */
    RunResult execute(const uint64_t *runSeed);

    static void mixGolden(Fnv &h, const RunResult &g) { h.mix(g.signature); }

    static void
    mixRun(Fnv &h, const RunResult &r)
    {
        h.mix(uint64_t(r.outcome));
        mixGolden(h, r);
    }

    CampaignConfig config_;
};

} // namespace gp::fault

#endif // GP_FAULT_CAMPAIGN_H
