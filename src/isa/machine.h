/**
 * @file
 * The multithreaded MAP-like machine (paper §3, Fig. 5).
 *
 * The machine comprises several clusters, each with a small set of
 * hardware thread slots. Every cycle each cluster selects one ready
 * thread round-robin and issues one instruction for it — cycle-by-cycle
 * multithreading across *different protection domains*, which is the
 * scenario the paper designs for. All clusters share the banked
 * virtually-addressed cache through the MemorySystem, whose bank and
 * external-port contention model supplies the Fig. 5 behaviour.
 *
 * Simplifications vs. the real MAP (documented in DESIGN.md): each
 * cluster issues one operation per cycle rather than a 3-wide LIW
 * group, and there is no floating-point unit. Neither affects the
 * protection mechanisms under study.
 */

#ifndef GP_ISA_MACHINE_H
#define GP_ISA_MACHINE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "gp/fault.h"
#include "gp/word.h"
#include "isa/elide.h"
#include "isa/inst.h"
#include "isa/thread.h"
#include "mem/fast_port.h"
#include "mem/memory_system.h"
#include "sim/profile.h"
#include "sim/stats.h"
#include "sim/zeroed_array.h"

namespace gp::isa {

/** Machine-level configuration. */
struct MachineConfig
{
    unsigned clusters = 4;          //!< MAP has 4 clusters
    unsigned threadsPerCluster = 4; //!< 4 user thread slots each
    /**
     * Instructions a cluster may issue per cycle, each from a
     * distinct ready thread. The real MAP issues a 3-wide LIW group
     * from ONE thread; issuing from several threads instead exercises
     * the same function-unit and memory-port pressure without
     * requiring a bundling compiler, and is the documented
     * approximation (DESIGN.md). Default 1 = the simple model.
     */
    unsigned issueWidth = 1;
    mem::MemConfig mem;             //!< shared memory system
    uint64_t faultTrapCycles = 50;  //!< software fault-handler cost

    /**
     * Watchdog cycle budget: when nonzero, the machine trips after
     * this many total cycles, converting a runaway/livelocked run
     * into structured WatchdogTimeout faults on every live thread
     * (plus a flight-recorder dump). 0 = no budget watchdog.
     */
    uint64_t watchdogCycles = 0;
    /**
     * Quiescence watchdog: when nonzero, trip if threads remain
     * live but no instruction has issued for this many consecutive
     * cycles — the signature of a hang (e.g. a thread stalled
     * forever on a NoC request that was dropped). A thread stalled
     * to a *finite* future cycle (a long retransmission backoff) or
     * parked on an in-flight split transaction never trips it, no
     * matter the window: only hung-forever stalls (UINT64_MAX) count
     * as quiescent.
     * 0 = no quiescence watchdog.
     */
    uint64_t watchdogQuiescence = 0;

    /**
     * Functional-only execution (gpsim --fast): run instructions
     * against a zero-latency FastPort instead of the timed memory
     * system. Architectural results (registers, faults, memory image)
     * are identical to a timed run; simulated cycle counts are
     * meaningless and must never be compared against timing baselines
     * — the mode exists for campaigns over program *behaviour* and
     * the differential harness. Composes with every ECC mode.
     * Requires the owning constructor and an unarmed FaultInjector
     * (enforced fatally).
     */
    bool fastMode = false;
};

/** What a software fault handler tells the machine to do next. */
enum class FaultAction : uint8_t
{
    Terminate, //!< leave the thread Faulted (default behaviour)
    Retry,     //!< re-issue the faulting instruction (cause repaired)
    Resume,    //!< continue at whatever IP the handler installed
};

/**
 * Software fault handler, modelling the M-Machine's event-handling
 * code: invoked when a thread faults, it may repair state (remap a
 * page, patch a stale pointer register) and resume the thread. The
 * configured faultTrapCycles are charged to the thread either way.
 */
using FaultHandler =
    std::function<FaultAction(Thread &, const FaultRecord &)>;

/**
 * Instruction-trace hook: invoked after each instruction is decoded
 * and about to execute. For debuggers and the gpsim --trace flag;
 * adds no cost when unset.
 */
using TraceHook =
    std::function<void(const Thread &, const Inst &, uint64_t cycle)>;

/** The full processor + memory system. */
class Machine
{
  public:
    /** Construct with an internally-owned MemorySystem (config.mem). */
    explicit Machine(const MachineConfig &config = MachineConfig{});

    /**
     * Construct against an external memory port — e.g. one node of
     * the multicomputer (noc::NodeMemory). The port must outlive the
     * machine; config.mem is ignored.
     */
    Machine(const MachineConfig &config, mem::MemoryPort &port);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /**
     * Start a thread at the given instruction pointer in the first free
     * slot (least-loaded cluster first).
     * @return the thread, or nullptr if every slot is occupied.
     */
    Thread *spawn(Word entry_ip);

    /** Start a thread on a specific cluster. */
    Thread *spawnOnCluster(unsigned cluster, Word entry_ip);

    /**
     * Advance the machine by one cycle. Ticks no process-wide clock:
     * whoever owns the simulated clock ticks the FaultInjector and
     * the Profiler (run() for a lone machine, the epoch barrier for
     * a mesh).
     */
    void step();

    /**
     * Run until every thread has halted or faulted, or until max_cycles
     * elapse, ticking the FaultInjector and then the Profiler after
     * every step(). @return the number of cycles executed.
     */
    uint64_t run(uint64_t max_cycles = 1'000'000);

    /** @return true when no thread is Ready or Pending. */
    bool allDone() const;

    /**
     * Deliver the outcome of a deferred cross-shard access (sharded
     * mesh engine, epoch barrier). Finds the parked instruction by
     * @p ticket, unparks its thread, and finishes the instruction
     * through the same functions as the synchronous path: the fetch
     * tail (finishFetch), or the post-access tail (finishAccess) and
     * the retire tail (retireInst).
     */
    void completeDeferred(uint64_t ticket, const mem::MemAccess &acc);

    /** @return true while any split transaction is outstanding. */
    bool hasDeferred() const { return !deferred_.empty(); }

    /**
     * Place this machine's thread slots at @p base in the
     * process-wide profiler's slot space (default 0). The sharded
     * mesh gives every node its own range, so one armed profiler
     * keeps a separate record per node's thread.
     */
    void setProfileSlotBase(unsigned base) { profSlotBase_ = base; }

    /**
     * Some thread's state or stall changed: a Ready thread may have
     * left the Ready state, and no cluster's wake cycle can be trusted
     * any more. Every path inside the machine that changes a thread
     * calls it (spawn, halt, park and unpark, faults and the software
     * handler, the watchdog), and run() and ShardedMesh::run() call it
     * on entry. Code that changes a thread through threads() and then
     * steps the machine with step() must call it first.
     */
    void
    threadsChanged()
    {
        readyMayHaveShrunk_ = true;
        for (IdleCluster &c : idle_)
            c.wake = 0;
    }

    /** @return true once either watchdog has fired. */
    bool watchdogTripped() const { return watchdogTripped_; }

    /**
     * True when nothing can make progress without outside help: no
     * Ready thread has a finite future wake-up scheduled and no
     * split transaction is in flight. Cold path — the quiescence
     * watchdog consults it only once its window is exceeded.
     */
    bool quiescentNow() const;

    /**
     * The first cycle whose step() may do more than idle bookkeeping:
     * the earliest cluster wake, clamped so that no watchdog check
     * can trip in a cycle before it. At most cycle() once a cluster
     * issued or threadsChanged() was called.
     */
    uint64_t wakeCycle() const;

    /**
     * Advance the clock to @p cycle exactly as that many step() calls
     * would, given that none of them could issue (@p cycle <=
     * wakeCycle()): the idle counters, the round-robin cursor and the
     * profiler's stall/empty charge move in one step. No-op when the
     * machine is already there.
     */
    void idleTo(uint64_t cycle);

    uint64_t cycle() const { return cycle_; }

    /** The owned memory system; only valid for the owning ctor. */
    mem::MemorySystem &mem();

    /** The memory port instructions execute against (always valid). */
    mem::MemoryPort &port() { return *port_; }

    /** All thread slots, cluster-major. */
    std::vector<Thread> &threads() { return threads_; }
    const std::vector<Thread> &threads() const { return threads_; }

    /** Every fault any thread has taken, in order. */
    const std::vector<FaultRecord> &faultLog() const { return faultLog_; }

    /**
     * Install (or clear, with nullptr) the software fault handler.
     * Without one, faults terminate the thread.
     */
    void setFaultHandler(FaultHandler handler)
    {
        faultHandler_ = std::move(handler);
    }

    /** Install (or clear) the per-instruction trace hook. */
    void setTraceHook(TraceHook hook) { traceHook_ = std::move(hook); }

    const MachineConfig &config() const { return config_; }
    sim::StatGroup &stats() { return stats_; }

    /**
     * Drop every predecoded instruction. Rarely needed: entries are
     * validated against the fetched word's bits on every use, so
     * stores to code pages and loader changes invalidate stale
     * entries automatically. Provided for debuggers and tests that
     * want a cold decode path.
     */
    void flushPredecode();

    /**
     * Register a verifier-produced safety proof for a loaded image.
     * Consulted only at predecode-miss time (never per executed
     * instruction): the matching verdict byte is baked into the
     * predecoded entry, bound to the exact raw bits it was proven
     * for, and the machine runs the unchecked datapath for
     * instructions proven never to fault (gpsim
     * --elide-checks=verified; docs/VERIFIER.md "Check elision").
     * Fault injection and an installed software fault
     * handler re-arm full checks unconditionally. Also turns on the
     * elide_checks_* counting. Flushes the predecode cache so
     * already-decoded instructions pick up their verdicts.
     */
    void registerElideProof(const ElideProof &proof);

    /** Drop all registered proofs (and their baked verdicts) and
     * turn the elide_checks_* counting off. */
    void clearElideProofs();

  private:
    /// Retired-instruction mix classes: alu/mem/branch/control/
    /// pointer/misc (see instClass() in machine.cc).
    static constexpr unsigned kInstClassCount = 6;

    /** Create and cache the stat handles (shared by both ctors). */
    void initStats();

    /** Issue for one cluster in the current cycle. */
    void stepCluster(unsigned cluster);

    /**
     * Fetch, decode, and execute one instruction for a thread. The
     * fetch runs check-elided while the thread holds an IP proof.
     */
    void issueThread(Thread &thread);

    /**
     * Decode/execute path after the fetch returned: shared by the
     * synchronous issue path and deferred-fetch completion at the
     * epoch barrier (the fetch result is the same either way).
     */
    void finishFetch(Thread &thread, const mem::MemAccess &f);

    /**
     * Observer hooks at the issue point (profiler record, trace hook,
     * Exec trace event). Out of line: finishFetch() calls it only
     * when some observer is attached.
     */
    void observeIssue(const Thread &thread, const Inst &inst,
                      uint64_t fetch_done);

    struct PredecodedInst;

    /**
     * The dispatcher: execute a predecoded instruction whose fetch
     * completed at ready_at, through the handler table indexed by
     * its opcode. Updates registers, IP, and the thread's stall time.
     */
    void execute(Thread &thread, const PredecodedInst &slot,
                 uint64_t ready_at);

    /**
     * Load/store handler: displacement LEA, access check, and the
     * timed port access. @return false when the instruction must not
     * retire (fault taken, hang, or parked on a split transaction).
     */
    bool memoryOp(Thread &thread, const PredecodedInst &slot,
                  uint64_t ready_at, bool elide, uint64_t &done);

    /**
     * Post-access tail of a load/store, shared by memoryOp() and
     * completeDeferred(): hang or fault handling, register writeback
     * (loads, into @p rd), the proof drop of a store into a verified
     * image (stores, at @p addr), and the profiler's fold of the
     * access timeline. @return false when the instruction must not
     * retire.
     */
    bool finishAccess(Thread &thread, const mem::MemAccess &acc,
                      bool is_store, uint8_t rd, uint64_t addr,
                      unsigned size);

    /**
     * Retire tail of every instruction that completes normally,
     * shared by execute() and completeDeferred(): retire, IP advance
     * by @p branch_delta instructions (elided under @p elide), stall
     * to @p done, and close the profiler record with @p tail as the
     * execute-tail component.
     */
    void retireInst(Thread &thread, int64_t branch_delta, bool elide,
                    uint64_t done, sim::ProfComp tail);

    /**
     * Elided/executed accounting for one elidable check event
     * (pointer-op check, displacement LEA, access check, IP-advance
     * LEA). Only paid once a proof was registered, so both counters
     * read 0 in a baseline run; inline so that the test is all a
     * baseline run pays per event.
     */
    void
    noteCheck(bool elided)
    {
        if (countChecks_)
            countCheck(elided);
    }
    void countCheck(bool elided);

    /** The profiler slot of one of this machine's threads. */
    unsigned
    profSlot(const Thread &thread) const
    {
        return profSlotBase_ + unsigned(&thread - threads_.data());
    }

    /** Record a fault on the thread and the machine fault log. */
    void faultThread(Thread &thread, Fault f);

    /** Budget/quiescence check, called once per cycle when armed. */
    void checkWatchdog();

    /** Count a taken fault in its per-kind counter (lazily
     * registering kinds past WatchdogTimeout — see initStats). */
    void bumpFaultKind(Fault f);

    /**
     * Convert the hang into structured errors: fault every live
     * thread with WatchdogTimeout (bypassing the software handler —
     * the machine is presumed wedged) and dump the flight recorder.
     */
    void tripWatchdog(const char *why);

    /**
     * Advance IP sequentially / by a branch displacement.
     * @return false if the IP left its code segment (fault taken).
     * An in-segment advance keeps the thread's IP proof (see
     * Thread::stepIp) and, while the proof holds, costs one masked
     * compare instead of a pointer decode. elide skips the IP bounds
     * check (the instruction's never-faults verdict covers every
     * control-flow edge out of it) and voids the proof: the
     * verifier's code segment need not be this thread's execute
     * pointer's.
     */
    inline bool advanceIp(Thread &thread, int64_t inst_delta,
                          bool elide = false);

    /**
     * Look up the elision verdict for the instruction at vaddr with
     * the given raw bits. Cold path: called only on a predecode miss,
     * so the per-executed-instruction hot loop never touches the
     * registered proofs (tools/lint_hot_counters.sh enforces this).
     */
    uint8_t proofVerdict(uint64_t vaddr, uint64_t bits) const;

    /**
     * One slot of the predecoded-instruction cache. The simulator
     * decodes each static instruction once and memoises the result,
     * keyed by the fetch address, together with everything the
     * dispatcher would otherwise derive per execution. Correctness
     * does not depend on explicit invalidation: decode is a pure
     * function of the fetched 65-bit word, and each hit re-validates
     * the stored raw bits against the word the (always-performed,
     * timed) fetch returned — self-modifying code or a reloaded
     * program simply misses and is re-decoded. Simulated timing is
     * untouched; only host decode work is saved.
     */
    struct PredecodedInst
    {
        uint64_t key = 0;  //!< ~fetch vaddr (0, all zero bytes: empty)
        uint64_t bits = 0; //!< raw word the decode came from
        Inst inst;
        /// Elision verdict baked at decode time (kElide* bits, with
        /// kElidePrivileged reflecting the proof's privilege mode);
        /// 0 = no proof, full checks. Bound to `bits`: a raw-bits
        /// mismatch re-decodes and re-derives the verdict, so
        /// self-modifying code re-arms checks automatically.
        uint8_t verdict = 0;
        uint8_t size = 0;     //!< access bytes (loads/stores), else 0
        uint8_t mixClass = 0; //!< retired-instruction mix class
    };

    /// Direct-mapped predecode-cache size; must be a power of two.
    static constexpr size_t kPredecodeEntries = 4096;

    /// What kind of access a parked thread is waiting on.
    enum class DeferredKind : uint8_t
    {
        Fetch,
        Load,
        Store,
    };

    /**
     * One in-flight split transaction: everything the completion
     * tail needs to finish the instruction exactly as the
     * synchronous path would have (see completeDeferred()).
     */
    struct DeferredInst
    {
        uint64_t ticket = 0;      //!< exchange ticket (lookup key)
        uint32_t threadIndex = 0; //!< index into threads_
        DeferredKind kind = DeferredKind::Fetch;
        uint8_t rd = 0;           //!< destination register (loads)
        unsigned size = 0;        //!< access size
        uint64_t addr = 0;        //!< effective address
        bool elide = false;       //!< check-elision state at issue
    };

    MachineConfig config_;
    std::unique_ptr<mem::MemorySystem> ownedMem_;
    /// Zero-latency functional port over ownedMem_ (fastMode only);
    /// port_ points here instead of at the timed MemorySystem.
    std::unique_ptr<mem::FastPort> fastPort_;
    mem::MemoryPort *port_;
    std::vector<Thread> threads_; //!< [cluster][slot] flattened
    /// Round-robin cursor, shared by every cluster: step() is its
    /// only advance, so it is always cycle_ % threadsPerCluster.
    unsigned rr_ = 0;
    uint64_t cycle_ = 0;
    uint32_t nextThreadId_ = 0;
    unsigned profSlotBase_ = 0; //!< see setProfileSlotBase()
    bool watchdogTripped_ = false;
    /// Set by threadsChanged(); run() only re-scans allDone() after
    /// a cycle that set it.
    bool readyMayHaveShrunk_ = true;

    /**
     * What a cluster's last scan learned when nothing issued. Until
     * cycle `wake` no thread of the cluster can issue, because only
     * threadsChanged() can change one, and it resets `wake`; so the
     * cluster costs one compare and the idle bookkeeping instead of a
     * rescan of its slots. The modelled MAP hides this latency by
     * interleaving threads; the simulator should not pay for it
     * either.
     */
    struct IdleCluster
    {
        /// Earliest stallUntil of a Ready thread (UINT64_MAX: none
        /// will wake by itself); 0 forces a scan.
        uint64_t wake = 0;
        /// The thread the profiler charges a stalled cycle to: the
        /// Ready thread that unstalls first, lowest slot on a tie.
        unsigned blocking = 0;
        bool stalled = false; //!< some thread is Ready (else empty)
    };
    std::vector<IdleCluster> idle_; //!< per cluster
    uint64_t lastIssueCycle_ = 0; //!< for the quiescence watchdog
    std::vector<FaultRecord> faultLog_;
    FaultHandler faultHandler_;
    TraceHook traceHook_;
    sim::StatGroup stats_{"machine"};

    /// Per-cluster id of the thread that issued last, for counting
    /// zero-cost protection-domain switches (UINT32_MAX = none yet).
    std::vector<uint32_t> lastIssuedId_;

    // Cached stat handles (stable for the life of stats_) so the
    // per-instruction hot path pays plain increments, not map lookups.
    sim::Counter *instructions_ = nullptr;
    sim::Counter *cycles_ = nullptr;
    sim::Counter *idleClusterCycles_ = nullptr;
    sim::Counter *emptyClusterCycles_ = nullptr;
    sim::Counter *stalledClusterCycles_ = nullptr;
    sim::Counter *domainSwitches_ = nullptr;
    sim::Counter *gateCrossings_ = nullptr;
    sim::Counter *faults_ = nullptr;
    sim::Counter *faultsRecovered_ = nullptr;
    sim::Counter *threadsSpawned_ = nullptr;
    sim::Counter *watchdogTrips_ = nullptr;
    sim::Counter *hungAccesses_ = nullptr;
    sim::Counter *predecodeHits_ = nullptr;
    sim::Counter *predecodeMisses_ = nullptr;
    /// Elidable-check events skipped / run once a proof was
    /// registered (both stay 0 otherwise). One event per pointer-op
    /// check, displacement LEA, access check, and IP-advance LEA.
    sim::Counter *checksElided_ = nullptr;
    sim::Counter *checksExecuted_ = nullptr;
    /// Simulated cycles the elided checking datapath gave back (one
    /// per elided pointer op: its execute tail folds into the fetch
    /// shadow).
    sim::Counter *elideCyclesSaved_ = nullptr;
    sim::Counter *mix_[kInstClassCount] = {};
    sim::Counter *faultKind_[16] = {}; //!< indexed by unsigned(Fault)

    /// Registered safety proofs; consulted only on predecode misses.
    std::vector<ElideProof> elideProofs_;

    /// Count elidable-check events: set by registerElideProof(),
    /// cleared by clearElideProofs(). A store that drops the proofs
    /// leaves it set, so the rest of the run counts executed checks.
    bool countChecks_ = false;

    /// Union [lo, hi) byte cover of every registered proof's code
    /// range. An architectural store landing inside it drops ALL
    /// proofs: rewriting one instruction can invalidate verdicts at
    /// instructions whose own bits are unchanged, because safety
    /// facts flow through dataflow.
    uint64_t proofCoverLo_ = UINT64_MAX;
    uint64_t proofCoverHi_ = 0;

    /// Proofs were dropped by a store (possibly while execute() had a
    /// decoded instruction aliasing the predecode array); finishFetch
    /// flushes the baked verdicts before its next decode lookup.
    bool proofsDirty_ = false;

    /// Direct-mapped predecoded-instruction cache, indexed by
    /// (vaddr >> 3) & (kPredecodeEntries - 1). The miss fill is its
    /// only writer; see sim::ZeroedArray for why a machine holds only
    /// the pages its run decodes into.
    sim::ZeroedArray<PredecodedInst> predecode_{kPredecodeEntries};

    /// Outstanding split transactions (one per Pending thread, at
    /// most threads_.size() entries — linear lookup is fine).
    std::vector<DeferredInst> deferred_;
};

} // namespace gp::isa

#endif // GP_ISA_MACHINE_H
