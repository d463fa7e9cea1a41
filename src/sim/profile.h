/**
 * @file
 * Cycle-attribution profiler (gpprof backend).
 *
 * Attributes every simulated *cluster-cycle* to one CPI-stack
 * component — issue, compute, I-fetch, D-cache miss, TLB/page walk,
 * NoC round trip, ECC, retransmission, gate crossing, capability
 * check/decode, fault trap, or empty — and aggregates the result
 * (a) per PC, (b) per protection domain (code segment), and (c) per
 * interval, plus an interned call-gate stack so gpprof.py can render
 * collapsed-stack flamegraphs of cross-domain call chains.
 *
 * The accounting identity the whole design serves (and the tests
 * assert exactly): while armed, the component totals sum to
 * clusters x cycles — every cluster-cycle lands in exactly one
 * component, with no sampling and no residue. Per-cycle attribution
 * works because the machine's issue loop already knows, each cycle,
 * whether a cluster issued, was empty, or was blocked; in the blocked
 * case the profiler walks the blocking thread's current stall
 * timeline, a per-instruction segment list the machine and memory
 * layers record as the access is timed.
 *
 * Cost discipline: identical to FaultInjector/GP_TRACE — every hook
 * sits behind the static `Profiler::armed()` bool, so a build with
 * profiling off pays one predictable branch per hook site and
 * evaluates no arguments. Simulated timing is never touched; enabling
 * the profiler is observationally invisible (asserted by perfgate and
 * tests/integration/test_profile_workloads.cc).
 *
 * Like the FaultInjector, the profiler is a process-wide singleton:
 * arm it around ONE running machine at a time.
 */

#ifndef GP_SIM_PROFILE_H
#define GP_SIM_PROFILE_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace gp::sim {

/** CPI-stack components; every armed cluster-cycle lands in one. */
enum class ProfComp : uint8_t
{
    Issue = 0,  //!< a cluster issued an instruction this cycle
    Compute,    //!< execute latency (ALU/branch/multiply/jump)
    Check,      //!< capability check/decode work that COSTS cycles:
                //!< execute cycles of pointer-manipulation ops (LEA,
                //!< RESTRICT, ...). Per-access checks are free by
                //!< construction (paper SS2.2) so this slice stays
                //!< small — that headline claim, made measurable.
    IFetch,     //!< instruction-fetch memory time (hit + miss fill)
    DCache,     //!< data-access memory time (hit + miss fill + queue)
    TlbWalk,    //!< LTLB lookup + page-table walk on the miss path
    Noc,        //!< mesh request/reply flight time (remote misses)
    Ecc,        //!< ECC codec passes on the external interface
    Retransmit, //!< link-protocol retry timeouts
    Gate,       //!< enter-pointer gate-crossing execute cycles
    FaultTrap,  //!< software fault-handler trap latency
    Empty,      //!< no runnable thread in the cluster
    OtherStall, //!< blocked on a stall no layer itemised
};

inline constexpr unsigned kProfCompCount = 13;

/** @return stable lower-case component name ("issue", "dcache", ...). */
std::string_view profCompName(ProfComp comp);

/** Profiling aggregation modes (the CPI stack itself is always on). */
struct ProfileConfig
{
    bool pc = false;       //!< per-PC instruction/cycle attribution
    bool domain = false;   //!< per-protection-domain accounting
    bool interval = false; //!< time-series snapshots
    bool stacks = false;   //!< call-gate stacks (flamegraph export)
    uint64_t intervalCycles = 4096; //!< snapshot period
};

/** The process-wide cycle-attribution profiler. */
class Profiler
{
  public:
    static Profiler &instance();

    /** Single static-load hot-path guard (FaultInjector discipline). */
    static bool armed() { return armed_; }

    /**
     * Arm around a machine with the given shape. Resets all
     * aggregation state including registered domain/symbol names, so
     * arm first, then load programs (the kernel registers names on
     * every load; unarmed registrations cost a map insert and are
     * dropped by the next arm).
     */
    void arm(unsigned clusters, unsigned thread_slots,
             const ProfileConfig &config);

    /** Stop profiling; aggregated results remain readable. */
    void disarm();

    /** Drop aggregation state AND registered names (tests). */
    void reset();

    // ---- cold registration (loader / kernel / benches) -----------

    /** Name the protection domain whose code segment starts at base. */
    void registerDomain(uint64_t base, std::string name);

    /** Register an assembler label for PC attribution. */
    void registerSymbol(std::string name, uint64_t addr);

    // ---- access-segment scratch (memory layers, armed only) ------
    //
    // The machine opens a scratch timeline before each timed port
    // call; the layers it traverses append (component, cycles)
    // segments in timeline order; the machine then normalises the
    // scratch against the access's actual latency and folds it into
    // the issuing thread's record. String-free by design: the hot
    // paths pass enum components and integer lengths only.

    /** Reset the scratch timeline and set its base component. */
    void
    accBegin(ProfComp base)
    {
        accN_ = 0;
        accBase_ = base;
    }

    /** Append a segment of the access's base component (cache time). */
    void accBase(uint64_t len) { accSeg(accBase_, len); }

    /** Append a segment of an explicit component. */
    void
    accSeg(ProfComp comp, uint64_t len)
    {
        if (len == 0)
            return;
        if (accN_ > 0 && accSegs_[accN_ - 1].comp == comp) {
            accSegs_[accN_ - 1].len += len; // merge adjacent
            return;
        }
        if (accN_ == kMaxSegs) {
            accSegs_[kMaxSegs - 1].len += len; // clip, keep totals
            return;
        }
        accSegs_[accN_++] = Seg{comp, len};
    }

    // ---- machine hooks (armed only) ------------------------------

    /**
     * An instruction issued: open the thread's stall record at the
     * issue cycle. seg_base/seg_end delimit the IP's code segment —
     * the thread's protection-domain identity.
     */
    void beginInst(unsigned slot, uint64_t cycle, uint64_t pc,
                   uint64_t seg_base, uint64_t seg_end);

    /**
     * Fold the scratch timeline into the thread's record, normalised
     * to exactly `len` cycles: a shortfall is padded with the scratch
     * base component, an excess clipped, so records tile the
     * instruction's occupancy precisely whatever a layer recorded.
     */
    void flushAccess(unsigned slot, uint64_t len);

    /**
     * The instruction's occupancy ends at `done`; any cycles not yet
     * covered by segments are the execute tail of component `tail`.
     * Also folds the record into the per-PC and stack aggregates.
     */
    void endInst(unsigned slot, uint64_t done, ProfComp tail);

    /** The thread entered a recovered fault trap of `trap` cycles. */
    void noteTrap(unsigned slot, uint64_t cycle, uint64_t trap);

    /** The thread hung forever on a lost NoC request. */
    void noteHang(unsigned slot, uint64_t cycle);

    /**
     * One elidable check event on a machine with a registered proof
     * (isa::Machine::registerElideProof): skipped under a
     * verifier proof (elided) or run in full (executed). Feeds the
     * elided-vs-executed split in the profile export.
     */
    void
    noteCheck(bool elided)
    {
        if (elided)
            checksElided_++;
        else
            checksExecuted_++;
    }

    // ---- per-cycle cluster attribution (armed only) --------------

    /** This cluster-cycle issued; attribute to the issuing thread. */
    void attrIssue(unsigned slot);

    /** No runnable thread in the cluster for @p n cycles. */
    void
    attrEmpty(uint64_t n = 1)
    {
        comp_[unsigned(ProfComp::Empty)] += n;
        clusterCycles_ += n;
    }

    /**
     * Cluster blocked for the @p n cycles from @p cycle: attribute
     * each to whatever the blocking thread (the one that will unstall
     * first) is waiting on in that cycle.
     */
    void attrStall(unsigned slot, uint64_t cycle, uint64_t n = 1);

    /**
     * Clock tick from whoever owns the simulated clock (every cycle
     * for a lone machine, every epoch barrier for a mesh): takes one
     * interval snapshot, labelled @p cycle, once @p cycle reaches or
     * passes the next multiple of the period.
     */
    void tick(uint64_t cycle);

    // ---- results -------------------------------------------------

    uint64_t comp(ProfComp c) const { return comp_[unsigned(c)]; }
    /** Total attributed cluster-cycles (== clusters x cycles). */
    uint64_t clusterCycles() const { return clusterCycles_; }
    /** Machine cycles while armed (clusterCycles / clusters). */
    uint64_t cycles() const
    {
        return clusters_ ? clusterCycles_ / clusters_ : 0;
    }
    uint64_t instructions() const { return instructions_; }
    unsigned clusters() const { return clusters_; }

    /** Non-empty cluster-cycles attributed to thread `slot`. */
    uint64_t threadCycles(unsigned slot) const
    {
        return threadCycles_[slot];
    }
    uint64_t threadInsts(unsigned slot) const
    {
        return threadInsts_[slot];
    }

    /** One protection domain's accumulated attribution. */
    struct DomainStats
    {
        uint64_t base = 0;   //!< code-segment base (0 = unknown)
        uint64_t end = 0;
        std::string name;
        uint64_t cycles = 0; //!< non-empty cluster-cycles
        uint64_t insts = 0;  //!< instructions issued
        uint64_t enters = 0; //!< times control entered this domain
    };
    const std::vector<DomainStats> &domains() const { return domains_; }

    /** Per-PC attribution (pc mode). */
    struct PcStats
    {
        uint64_t pc = 0;
        uint64_t insts = 0;
        uint64_t cycles = 0; //!< occupancy cycles of this static inst
        uint64_t comp[kProfCompCount] = {};
    };
    const std::vector<PcStats> &pcs() const { return pcs_; }

    /** One interned call-gate stack (stacks mode). */
    struct StackStats
    {
        std::vector<uint32_t> frames; //!< domain indices, outer first
        uint64_t cycles = 0;          //!< occupancy owned by the leaf
    };
    const std::vector<StackStats> &stacks() const { return stacks_; }

    /** One interval snapshot (interval mode). */
    struct Interval
    {
        uint64_t cycle = 0; //!< cycle of the tick that took it
        uint64_t insts = 0; //!< instructions in the interval
        uint64_t comp[kProfCompCount] = {}; //!< cluster-cycle deltas
    };
    const std::vector<Interval> &intervals() const { return intervals_; }

    /** Deterministic JSON export ("kind": "gpprof-profile"). */
    void exportJson(std::ostream &os) const;

    /** Human-readable CPI-stack summary (gpsim --profile). */
    void summary(std::ostream &os) const;

  private:
    Profiler() = default;
    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /// Longest itemised stall timeline per instruction; adjacent
    /// same-component segments merge, overflow clips into the last
    /// segment, so totals stay exact regardless.
    static constexpr uint32_t kMaxSegs = 16;

    struct Seg
    {
        ProfComp comp;
        uint64_t len;
    };

    /** Per-thread-slot record of the in-flight instruction. */
    struct SlotRec
    {
        bool valid = false;
        uint64_t start = 0; //!< issue cycle
        uint64_t pc = 0;
        uint32_t domain = 0;     //!< index into domains_
        uint32_t stack = 0;      //!< index into stacks_ (stacks mode)
        uint64_t domainBase = 0; //!< cached segment range for the
        uint64_t domainEnd = 0;  //!< fast same-domain path
        uint32_t nsegs = 0;
        Seg segs[kMaxSegs];
        std::vector<uint32_t> gateStack; //!< domain indices
    };

    void appendSeg(SlotRec &rec, ProfComp comp, uint64_t len);
    uint64_t recCovered(const SlotRec &rec) const;
    /** Slow path of beginInst: the IP changed code segments. */
    void resolveDomain(SlotRec &rec, uint64_t base, uint64_t end);
    uint32_t internDomain(uint64_t base, uint64_t end);
    uint32_t unknownDomain();
    uint32_t internStack(const std::vector<uint32_t> &frames);
    void snapshotInterval(uint64_t cycle);

    inline static bool armed_ = false;

    ProfileConfig config_;
    unsigned clusters_ = 0;

    uint64_t comp_[kProfCompCount] = {};
    uint64_t clusterCycles_ = 0;
    uint64_t instructions_ = 0;
    uint64_t checksElided_ = 0;
    uint64_t checksExecuted_ = 0;

    std::vector<SlotRec> recs_;
    std::vector<uint64_t> threadCycles_;
    std::vector<uint64_t> threadInsts_;

    // Access scratch (one timed port call in flight at a time).
    Seg accSegs_[kMaxSegs] = {};
    uint32_t accN_ = 0;
    ProfComp accBase_ = ProfComp::DCache;

    std::vector<DomainStats> domains_;
    std::unordered_map<uint64_t, uint32_t> domainIdx_; //!< by base
    std::map<uint64_t, std::string> domainNames_;      //!< registered

    std::vector<PcStats> pcs_;
    std::unordered_map<uint64_t, uint32_t> pcIdx_;

    std::vector<StackStats> stacks_;
    std::map<std::vector<uint32_t>, uint32_t> stackIdx_;

    std::vector<std::pair<std::string, uint64_t>> symbols_;

    std::vector<Interval> intervals_;
    uint64_t intervalComp_[kProfCompCount] = {}; //!< last snapshot
    uint64_t intervalInsts_ = 0;
};

} // namespace gp::sim

#endif // GP_SIM_PROFILE_H
