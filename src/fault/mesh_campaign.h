/**
 * @file
 * Deterministic multi-node fault campaign over the sharded mesh
 * engine (ISSUE 9 tentpole).
 *
 * Where the single-machine campaign (campaign.h) strikes stored
 * bits and TLB entries, this campaign strikes the *fabric*: fail-stop
 * node deaths and persistent link failures, armed once per epoch at
 * the barrier so the failure schedule is a pure function of
 * (configuration, seed) — never of the host-thread count. Each run is
 * classified into a mesh-specific five-way taxonomy:
 *
 *  - **masked**: no mesh fault fired this run; every node's result is
 *    bit-identical to the failure-free golden run;
 *  - **degraded-but-correct**: the fabric lost nodes or links, yet
 *    every *surviving* node's architectural result is bit-identical
 *    to its failure-free golden result — route-around, end-to-end
 *    retries, and dead-op dropping absorbed the damage;
 *  - **detected-fault**: at least one survivor terminated with an
 *    architectural fault (typically NodeUnreachable: its remote home
 *    died and the bounded retry budget exhausted). Detection is the
 *    fail-stop win — a dead home surfaces as a typed error, never as
 *    a parked-forever thread;
 *  - **silent-data-corruption**: a survivor completed "successfully"
 *    but its result image differs from golden. The tripwire class:
 *    the campaign exists to prove this count stays zero;
 *  - **hang**: the run never completed — a node's quiescence
 *    watchdog (or the per-run cycle budget) had to end it.
 *
 * The workload makes per-node results *timing-independent*: each node
 * accumulates over constants the harness pre-poked into its ring
 * neighbor's partition (remote traffic that exercises routing and the
 * retry protocol) and writes a result vector into its own partition
 * (a pure function of node ids alone). Survivor results can therefore
 * be compared word-for-word against the failure-free golden run even
 * when every message detoured.
 */

#ifndef GP_FAULT_MESH_CAMPAIGN_H
#define GP_FAULT_MESH_CAMPAIGN_H

#include <cstdint>
#include <string_view>
#include <vector>

#include "fault/engine.h"
#include "gp/fault.h"
#include "noc/shard.h"
#include "sim/faultinject.h"

namespace gp::fault {

/** Five-way outcome taxonomy of one injected mesh run. */
enum class MeshOutcome : uint8_t
{
    Masked = 0,
    Degraded, //!< failures happened; every survivor still correct
    DetectedFault,
    Sdc,
    Hang,
    Count,
};

inline constexpr unsigned kMeshOutcomeCount =
    static_cast<unsigned>(MeshOutcome::Count);

/** @return stable lower-case outcome name (stat/JSON key). */
constexpr std::string_view
outcomeName(MeshOutcome o)
{
    switch (o) {
      case MeshOutcome::Masked:
        return "masked";
      case MeshOutcome::Degraded:
        return "degraded-but-correct";
      case MeshOutcome::DetectedFault:
        return "detected-fault";
      case MeshOutcome::Sdc:
        return "silent-data-corruption";
      case MeshOutcome::Hang:
        return "hang";
      default:
        return "unknown";
    }
}

/** Full configuration of one mesh campaign. */
struct MeshCampaignConfig
{
    /** Master seed; run r uses a seed derived from (seed, r). */
    uint64_t seed = 1;
    /** Number of injected runs. */
    unsigned runs = 25;
    /** Mesh geometry. */
    unsigned dimX = 2, dimY = 2, dimZ = 2;
    /** Host threads per simulated run (identical outcomes for any
     * value — the CI cross-check asserts exactly that). */
    unsigned hostThreads = 1;
    /** Per-site injection rates. NodeFailStop / LinkDown rates are
     * per-epoch opportunities; NoC transient sites may be armed too.
     * The seed field is ignored (per-run seed installed instead). */
    sim::FaultConfig faults;
    /** Workload size: accumulate iterations per node. */
    uint64_t iterations = 48;
    /** Per-run simulated-cycle budget. */
    uint64_t maxCycles = 400000;
    /** Every node's quiescence watchdog window (cycles without an
     * issue or completion before a wedged node stops). */
    uint64_t watchdogQuiescence = 20000;
    /** End-to-end retry protocol on the NoC links. On by default:
     * bounded timeout/backoff/retry is the mechanism under test
     * (aggregate init — the remaining fields keep their own
     * defaults). */
    noc::RetransConfig retrans{/*enabled=*/true};
};

/** Everything observed about one mesh run. */
struct MeshRunResult
{
    MeshOutcome outcome = MeshOutcome::Masked;
    uint64_t cycles = 0;        //!< simulated cycles executed
    uint64_t injections = 0;    //!< injector firings (all sites)
    uint64_t deadNodes = 0;     //!< fail-stopped nodes at run end
    uint64_t downLinks = 0;     //!< down links at run end
    uint64_t detours = 0;       //!< messages routed around failures
    uint64_t unreachableFaults = 0; //!< typed NodeUnreachable faults
    /** Survivors that completed CLEANLY yet differ from golden —
     * the silent-data-corruption tally (faulted survivors' truncated
     * results are detected failures, not corruption). */
    uint64_t survivorsWrong = 0;
    Fault firstFault = Fault::None; //!< first fault any survivor took
    /** Not every live thread halted or faulted within maxCycles, or
     * a node's watchdog tripped. */
    bool hung = false;
    /** Per-node result signatures (a placeholder for a dead node). */
    std::vector<uint64_t> nodeSignatures;
};

/** Aggregated campaign outcome table. */
struct MeshCampaignTotals : TotalsBase<MeshOutcome>
{
    uint64_t totalDeadNodes = 0;
    uint64_t totalDownLinks = 0;
    uint64_t totalDetours = 0;
    uint64_t totalUnreachableFaults = 0;
};

/**
 * Runs the ring-traffic workload under a mesh campaign configuration.
 * Owns a "mesh_campaign" stat group (outcome.*, runs, dead_nodes,
 * ...) feeding the registry JSON export, so tools/statdiff.py can
 * diff campaign outcome tables between builds. Its campaign
 * signature is identical for every hostThreads value — the CI
 * t1-vs-t4 cross-check pins it.
 */
class MeshCampaignRunner
    : public CampaignEngine<MeshCampaignRunner, MeshRunResult,
                            MeshCampaignTotals>
{
  public:
    using Config = MeshCampaignConfig;
    using Outcome = MeshOutcome;

    /** The NoC transient and fail-stop sites this arm wires. */
    static constexpr sim::FaultSite kSites[] = {
        sim::FaultSite::NocDrop,      sim::FaultSite::NocDuplicate,
        sim::FaultSite::NocDelay,     sim::FaultSite::NocCorrupt,
        sim::FaultSite::NodeFailStop, sim::FaultSite::LinkDown,
    };

    static constexpr CampaignExtra<MeshRunResult, MeshCampaignTotals>
        kExtras[] = {
            {"dead_nodes", &MeshRunResult::deadNodes,
             &MeshCampaignTotals::totalDeadNodes},
            {"down_links", &MeshRunResult::downLinks,
             &MeshCampaignTotals::totalDownLinks},
            {"detours", &MeshRunResult::detours,
             &MeshCampaignTotals::totalDetours},
            {"unreachable_faults", &MeshRunResult::unreachableFaults,
             &MeshCampaignTotals::totalUnreachableFaults},
        };

    explicit MeshCampaignRunner(const MeshCampaignConfig &config);

    /** Per-node golden signatures (failure-free run; lazy). */
    const std::vector<uint64_t> &
    goldenNodeSignatures()
    {
        return golden().nodeSignatures;
    }

    const MeshCampaignConfig &config() const { return config_; }

  private:
    friend CampaignEngine;

    /** Execute the workload once; inject iff @p runSeed != nullptr. */
    MeshRunResult execute(const uint64_t *runSeed);

    static void
    mixGolden(Fnv &h, const MeshRunResult &g)
    {
        for (uint64_t sig : g.nodeSignatures)
            h.mix(sig);
    }

    static void
    mixRun(Fnv &h, const MeshRunResult &r)
    {
        h.mix(uint64_t(r.outcome));
        h.mix(r.deadNodes);
        h.mix(r.downLinks);
        h.mix(r.survivorsWrong);
        mixGolden(h, r);
    }

    MeshCampaignConfig config_;
};

} // namespace gp::fault

#endif // GP_FAULT_MESH_CAMPAIGN_H
