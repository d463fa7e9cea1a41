/**
 * @file
 * The campaign engine both fault-campaign arms share.
 *
 * A campaign is a set of independent runs of one fixed workload, each
 * under a seed derived from the master seed, classified against one
 * fault-free golden run. CampaignEngine owns everything about that
 * which does not depend on the workload: per-run seed derivation, the
 * lazily computed golden run, the loop over run indices, the
 * per-outcome totals, the stats table and the campaign digest. An arm
 * (CampaignRunner, MeshCampaignRunner) derives from it and keeps only
 * what is its own:
 *
 *  - its workload source, which the engine assembles once, at
 *    construction, for every run to load (`code()`);
 *  - `Result execute(const uint64_t *runSeed)`: build the harness,
 *    wire the faults (iff @p runSeed is set), run and classify,
 *    setting `hung` when the run did not finish within its budget;
 *  - `Config`, `Outcome` (with `outcomeName(Outcome)` beside it):
 *    its configuration and outcome taxonomy;
 *  - `kSites`: the fault sites it wires. Every other site never
 *    fires in this arm;
 *  - `kExtras`: per-run counts it sums into extra totals and
 *    publishes next to `runs`/`injections`/`golden_cycles`;
 *  - `mixGolden`/`mixRun`: what the campaign digest hashes of the
 *    golden run and of each injected run. Outcomes and result
 *    signatures only, never cycle counts, so the digest is the same
 *    for every host-thread count and under check elision.
 */

#ifndef GP_FAULT_ENGINE_H
#define GP_FAULT_ENGINE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gp/word.h"
#include "isa/assembler.h"
#include "sim/faultinject.h"
#include "sim/log.h"
#include "sim/rng.h"
#include "sim/stats.h"

namespace gp::fault {

/** FNV-1a accumulator for result signatures and campaign digests. */
struct Fnv
{
    uint64_t hash = 1469598103934665603ull; // FNV-1a offset basis

    void
    mix(uint64_t v)
    {
        hash ^= v;
        hash *= 1099511628211ull;
    }
};

/** The totals every arm reports. */
template <class OutcomeT>
struct TotalsBase
{
    uint64_t perOutcome[unsigned(OutcomeT::Count)] = {};
    uint64_t runs = 0;
    uint64_t totalInjections = 0;
    uint64_t goldenCycles = 0; //!< cycles of the fault-free run

    uint64_t
    outcome(OutcomeT o) const
    {
        return perOutcome[static_cast<unsigned>(o)];
    }
};

/** One per-run count an arm sums into a campaign total. */
template <class Result, class Totals>
struct CampaignExtra
{
    const char *stat;        //!< stats-table counter name
    uint64_t Result::*run;   //!< the per-run count
    uint64_t Totals::*total; //!< its campaign sum
};

template <class Arm, class Result, class Totals>
class CampaignEngine
{
  public:
    /** @return true when this arm ever fires @p site. */
    static bool
    wires(sim::FaultSite site)
    {
        for (sim::FaultSite s : Arm::kSites)
            if (s == site)
                return true;
        return false;
    }

    /** Cycles of the fault-free golden run (computed lazily). */
    uint64_t goldenCycles() { return golden().cycles; }

    /**
     * @return true when the fault-free run halts within the arm's
     * budget (runs it if it has not run yet). Without that, there is
     * no golden result and every injected run would class as a hang.
     */
    bool goldenHalts() { return !golden().hung; }

    /** Execute run @p index (0-based) under its derived seed. */
    Result
    runOne(unsigned index)
    {
        golden(); // ensure golden exists before arming
        const uint64_t runSeed =
            sim::deriveSeed(arm().config().seed, index);
        return arm().execute(&runSeed);
    }

    /** Execute the whole campaign, aggregate, publish the stats. */
    Totals
    runAll()
    {
        Totals totals;
        totals.goldenCycles = goldenCycles();
        Fnv digest;
        Arm::mixGolden(digest, golden_);
        const unsigned runs = arm().config().runs;
        results_.clear();
        results_.reserve(runs);
        for (unsigned i = 0; i < runs; ++i) {
            results_.push_back(runOne(i));
            const Result &r = results_.back();
            totals.perOutcome[unsigned(r.outcome)]++;
            totals.totalInjections += r.injections;
            for (const auto &e : Arm::kExtras)
                totals.*e.total += r.*e.run;
            Arm::mixRun(digest, r);
        }
        totals.runs = runs;
        signature_ = digest.hash;

        // Publish the outcome table through the stats registry so the
        // JSON export (and tools/statdiff.py) can diff campaigns.
        stats_.counter("runs").set(totals.runs);
        stats_.counter("injections").set(totals.totalInjections);
        stats_.counter("golden_cycles").set(totals.goldenCycles);
        for (const auto &e : Arm::kExtras)
            stats_.counter(e.stat).set(totals.*e.total);
        using Outcome = typename Arm::Outcome;
        for (unsigned o = 0; o < unsigned(Outcome::Count); ++o) {
            stats_
                .counter("outcome." + std::string(outcomeName(Outcome(o))))
                .set(totals.perOutcome[o]);
        }
        return totals;
    }

    /** Per-run results of the last runAll(). */
    const std::vector<Result> &results() const { return results_; }

    /**
     * Deterministic digest of the whole campaign (valid after
     * runAll()): the golden result, then every run's outcome and
     * result signatures.
     */
    uint64_t campaignSignature() const { return signature_; }

    sim::StatGroup &stats() { return stats_; }

  protected:
    CampaignEngine(const char *statGroup, const char *workload)
        : stats_(statGroup)
    {
        isa::Assembly assembly = isa::assemble(workload);
        if (!assembly.ok)
            sim::fatal("%s workload failed to assemble: %s", statGroup,
                       assembly.error.c_str());
        code_ = std::move(assembly.words);
    }

    ~CampaignEngine()
    {
        // Never leave a half-finished campaign armed behind us.
        if (sim::FaultInjector::armed())
            sim::FaultInjector::instance().disarm();
    }

    /** The assembled workload every run loads. */
    const std::vector<Word> &code() const { return code_; }

    /** The fault-free run, executed on first use. */
    const Result &
    golden()
    {
        if (!goldenValid_) {
            golden_ = arm().execute(nullptr);
            goldenValid_ = true;
        }
        return golden_;
    }

  private:
    Arm &arm() { return static_cast<Arm &>(*this); }

    std::vector<Word> code_;
    bool goldenValid_ = false;
    Result golden_{};
    uint64_t signature_ = 0;
    std::vector<Result> results_;
    sim::StatGroup stats_;
};

} // namespace gp::fault

#endif // GP_FAULT_ENGINE_H
