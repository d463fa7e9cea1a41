#include "isa/machine.h"

#include "gp/ops.h"
#include "gp/pointer.h"
#include "sim/faultinject.h"
#include "sim/log.h"
#include "sim/profile.h"
#include "sim/trace.h"

namespace gp::isa {

namespace {

/** Retired-instruction mix classes (indices into Machine::mix_). */
enum InstClass : unsigned
{
    ClassAlu = 0,  //!< integer ALU, moves, immediates
    ClassMem,      //!< loads and stores
    ClassBranch,   //!< conditional branches
    ClassControl,  //!< JMP/GETIP/HALT/NOP
    ClassPointer,  //!< guarded-pointer operations (§2.2)
    ClassMisc,     //!< anything else
};

constexpr const char *kClassNames[] = {
    "alu", "mem", "branch", "control", "pointer", "misc",
};

/** Classify an opcode for the retired-instruction mix counters. */
unsigned
instClass(Op op)
{
    switch (op) {
      case Op::ADD:
      case Op::SUB:
      case Op::MUL:
      case Op::AND:
      case Op::OR:
      case Op::XOR:
      case Op::SHL:
      case Op::SHR:
      case Op::SRA:
      case Op::SLT:
      case Op::SLTU:
      case Op::ADDI:
      case Op::ANDI:
      case Op::ORI:
      case Op::XORI:
      case Op::SHLI:
      case Op::SHRI:
      case Op::SRAI:
      case Op::MOVI:
      case Op::LUI:
      case Op::MOV:
        return ClassAlu;
      case Op::LD:
      case Op::LDW:
      case Op::LDH:
      case Op::LDB:
      case Op::ST:
      case Op::STW:
      case Op::STH:
      case Op::STB:
        return ClassMem;
      case Op::BEQ:
      case Op::BNE:
      case Op::BLT:
      case Op::BGE:
        return ClassBranch;
      case Op::NOP:
      case Op::HALT:
      case Op::JMP:
      case Op::GETIP:
        return ClassControl;
      case Op::LEA:
      case Op::LEAI:
      case Op::LEAB:
      case Op::LEABI:
      case Op::RESTRICT:
      case Op::SUBSEG:
      case Op::SETPTR:
      case Op::ISPTR:
      case Op::PTOI:
      case Op::ITOP:
        return ClassPointer;
      default:
        return ClassMisc;
    }
}

/** @return the access size in bytes of a load/store opcode, else 0. */
unsigned
accessSize(Op op)
{
    switch (op) {
      case Op::LD:
      case Op::ST:
        return 8;
      case Op::LDW:
      case Op::STW:
        return 4;
      case Op::LDH:
      case Op::STH:
        return 2;
      case Op::LDB:
      case Op::STB:
        return 1;
      default:
        return 0;
    }
}

} // namespace

Machine::Machine(const MachineConfig &config)
    : config_(config),
      ownedMem_(std::make_unique<mem::MemorySystem>(config.mem)),
      port_(ownedMem_.get()),
      threads_(size_t(config.clusters) * config.threadsPerCluster),
      rrNext_(config.clusters, 0)
{
    if (config_.clusters == 0 || config_.threadsPerCluster == 0)
        sim::fatal("machine needs at least one cluster and thread slot");
    if (config_.fastMode) {
        // Functional-only execution: swap the timed memory system for
        // the zero-latency FastPort over the same functional memory.
        // An armed campaign's draws are cycle-ordered, so it cannot
        // run here — refuse loudly rather than diverge silently.
        if (sim::FaultInjector::armed())
            sim::fatal("fast mode cannot run under an armed fault "
                       "campaign (draw order is cycle-accurate)");
        fastPort_ = std::make_unique<mem::FastPort>(*ownedMem_);
        port_ = fastPort_.get();
    }
    initStats();
}

Machine::Machine(const MachineConfig &config, mem::MemoryPort &port)
    : config_(config),
      port_(&port),
      threads_(size_t(config.clusters) * config.threadsPerCluster),
      rrNext_(config.clusters, 0)
{
    if (config_.clusters == 0 || config_.threadsPerCluster == 0)
        sim::fatal("machine needs at least one cluster and thread slot");
    if (config_.fastMode)
        sim::fatal("fast mode requires the owning constructor (an "
                   "external memory port supplies its own timing)");
    initStats();
}

void
Machine::initStats()
{
    instructions_ = &stats_.counter("instructions");
    cycles_ = &stats_.counter("cycles");
    idleClusterCycles_ = &stats_.counter("idle_cluster_cycles");
    emptyClusterCycles_ = &stats_.counter("empty_cluster_cycles");
    stalledClusterCycles_ = &stats_.counter("stalled_cluster_cycles");
    domainSwitches_ = &stats_.counter("domain_switches");
    gateCrossings_ = &stats_.counter("gate_crossings");
    faults_ = &stats_.counter("faults");
    faultsRecovered_ = &stats_.counter("faults_recovered");
    threadsSpawned_ = &stats_.counter("threads_spawned");
    watchdogTrips_ = &stats_.counter("watchdog_trips");
    hungAccesses_ = &stats_.counter("hung_accesses");
    predecodeHits_ = &stats_.counter("predecode_hits");
    predecodeMisses_ = &stats_.counter("predecode_misses");
    elideChecksElided_ = &stats_.counter("elide_checks_elided");
    elideChecksExecuted_ = &stats_.counter("elide_checks_executed");
    elideCyclesSaved_ = &stats_.counter("elide_cycles_saved");
    predecode_.assign(kPredecodeEntries, PredecodedInst{});
    for (unsigned i = 0; i < kInstClassCount; ++i)
        mix_[i] = &stats_.counter(std::string("mix_") + kClassNames[i]);
    // Per-kind fault counters. Kinds through WatchdogTimeout are
    // registered eagerly (they predate the sharded-mesh signature
    // baselines); later kinds (NodeUnreachable) register lazily on
    // first occurrence in bumpFaultKind(), so a machine that never
    // sees one exposes exactly the counter set the blessed F6/fig5
    // signatures were pinned to.
    for (unsigned i = 1; i <= unsigned(Fault::WatchdogTimeout); ++i) {
        faultKind_[i] = &stats_.counter(
            std::string("fault_") + std::string(faultName(Fault(i))));
    }
    lastIssuedId_.assign(config_.clusters, UINT32_MAX);
}

void
Machine::flushPredecode()
{
    predecode_.assign(kPredecodeEntries, PredecodedInst{});
    proofsDirty_ = false;
}

void
Machine::registerElideProof(const ElideProof &proof)
{
    elideProofs_.push_back(proof);
    countChecks_ = true;
    const uint64_t lo = proof.base;
    const uint64_t hi = proof.base + 8 * proof.verdicts.size();
    proofCoverLo_ = lo < proofCoverLo_ ? lo : proofCoverLo_;
    proofCoverHi_ = hi > proofCoverHi_ ? hi : proofCoverHi_;
    flushPredecode();
}

void
Machine::clearElideProofs()
{
    elideProofs_.clear();
    countChecks_ = false;
    proofCoverLo_ = UINT64_MAX;
    proofCoverHi_ = 0;
    flushPredecode();
}

uint8_t
Machine::proofVerdict(uint64_t vaddr, uint64_t bits) const
{
    for (const ElideProof &p : elideProofs_) {
        if (vaddr < p.base || (vaddr - p.base) % 8 != 0)
            continue;
        const uint64_t idx = (vaddr - p.base) / 8;
        if (idx >= p.verdicts.size() || idx >= p.bits.size())
            continue;
        // The verdict is bound to the exact bits it was proven for: a
        // mismatch means the image changed after verification, so
        // decode the word afresh but trust nothing about it.
        if (p.bits[idx] != bits)
            return 0;
        uint8_t v = p.verdicts[idx];
        if (p.privileged)
            v |= kElidePrivileged;
        return v;
    }
    return 0;
}

mem::MemorySystem &
Machine::mem()
{
    if (!ownedMem_)
        sim::panic("Machine::mem(): machine runs on an external "
                   "memory port; use port() instead");
    return *ownedMem_;
}

Thread *
Machine::spawn(Word entry_ip)
{
    // Pick the cluster with the fewest live threads for balance.
    unsigned best_cluster = 0;
    unsigned best_live = UINT32_MAX;
    for (unsigned c = 0; c < config_.clusters; ++c) {
        unsigned live = 0;
        bool has_free = false;
        for (unsigned s = 0; s < config_.threadsPerCluster; ++s) {
            const Thread &t =
                threads_[c * config_.threadsPerCluster + s];
            if (t.state() == ThreadState::Ready)
                live++;
            if (t.state() == ThreadState::Idle ||
                t.state() == ThreadState::Halted ||
                t.state() == ThreadState::Faulted) {
                has_free = true;
            }
        }
        if (has_free && live < best_live) {
            best_live = live;
            best_cluster = c;
        }
    }
    if (best_live == UINT32_MAX)
        return nullptr;
    return spawnOnCluster(best_cluster, entry_ip);
}

Thread *
Machine::spawnOnCluster(unsigned cluster, Word entry_ip)
{
    if (cluster >= config_.clusters)
        return nullptr;
    for (unsigned s = 0; s < config_.threadsPerCluster; ++s) {
        Thread &t = threads_[cluster * config_.threadsPerCluster + s];
        if (t.state() == ThreadState::Idle ||
            t.state() == ThreadState::Halted ||
            t.state() == ThreadState::Faulted) {
            t.start(entry_ip, nextThreadId_++);
            (*threadsSpawned_)++;
            return &t;
        }
    }
    return nullptr;
}

bool
Machine::allDone() const
{
    for (const Thread &t : threads_) {
        // Pending threads (parked on a cross-shard split transaction)
        // are live: the epoch barrier will resume them.
        if (t.state() == ThreadState::Ready ||
            t.state() == ThreadState::Pending)
            return false;
    }
    return true;
}

void
Machine::step()
{
    // Feed the trace hub the current cycle so layers without direct
    // cycle access (gp pointer ops) can stamp events. One static-load
    // branch when tracing is fully off.
    if (sim::TraceManager::anyEnabled())
        sim::TraceManager::instance().setCycle(cycle_);
    for (unsigned c = 0; c < config_.clusters; ++c)
        stepCluster(c);
    cycle_++;
    (*cycles_)++;
    // Tick-scheduled fault sites (resident-memory flips etc.): one
    // static-bool test when no campaign is armed. The sharded mesh
    // engine suppresses the per-machine tick and ticks the injector
    // centrally at the epoch barrier instead, so draw order does not
    // depend on the host-thread count.
    if (!config_.externalInjectorTick && sim::FaultInjector::armed())
        sim::FaultInjector::instance().tick(cycle_);
    if (sim::Profiler::armed())
        sim::Profiler::instance().tick(cycle_);
    if ((config_.watchdogCycles != 0 ||
         config_.watchdogQuiescence != 0) &&
        !watchdogTripped_)
        checkWatchdog();
}

void
Machine::checkWatchdog()
{
    if (config_.watchdogCycles != 0 &&
        cycle_ >= config_.watchdogCycles) {
        tripWatchdog("cycle-budget");
        return;
    }
    // Quiescence: the window test is the cheap per-cycle gate; the
    // quiescentNow() scan runs only once the window has already been
    // exceeded, so the common case pays two compares.
    if (config_.watchdogQuiescence != 0 && !allDone() &&
        cycle_ - lastIssueCycle_ >= config_.watchdogQuiescence &&
        quiescentNow())
        tripWatchdog("quiescence");
}

bool
Machine::quiescentNow() const
{
    // Not quiescent while any thread has a scheduled future wake-up:
    // a Ready thread stalled to a *finite* cycle (long NoC backoff,
    // retransmission timeouts) will issue again without outside help.
    // stallUntil == UINT64_MAX is the hung-forever sentinel and does
    // not count as a scheduled wake. The comparison is >= because
    // this runs post-increment: a stall expiring at exactly cycle_
    // issues in the upcoming stepCluster, which has not run yet.
    for (const Thread &t : threads_) {
        if (t.state() == ThreadState::Ready &&
            t.stallUntil() != UINT64_MAX && t.stallUntil() >= cycle_)
            return false;
    }
    // Not quiescent while a split transaction is genuinely in flight:
    // the epoch barrier will complete it (possibly with a fault) and
    // that completion counts as progress. Entries the engine marked
    // orphaned will never complete — threads parked on those are
    // wedged and must not veto the trip.
    for (const DeferredInst &d : deferred_)
        if (!d.orphaned)
            return false;
    return true;
}

void
Machine::markDeferredOrphans()
{
    for (DeferredInst &d : deferred_)
        d.orphaned = true;
}

void
Machine::tripWatchdog(const char *why)
{
    watchdogTripped_ = true;
    readyMayHaveShrunk_ = true;
    (*watchdogTrips_)++;
    GP_TRACE(Fault, cycle_, 0, "watchdog", "%s cycle=%llu", why,
             static_cast<unsigned long long>(cycle_));
    sim::warn("machine: watchdog trip (%s) at cycle %llu", why,
              static_cast<unsigned long long>(cycle_));
    for (Thread &t : threads_) {
        if (t.state() != ThreadState::Ready &&
            t.state() != ThreadState::Pending)
            continue;
        // Structured conversion of the hang: fault the thread
        // directly, bypassing the software handler — a wedged
        // machine cannot be trusted to run recovery code. Pending
        // threads are killed too: their split transaction will never
        // be delivered to a tripped machine.
        GP_TRACE(Fault, cycle_, t.id(), "watchdog-kill",
                 "t%u ip=0x%llx", t.id(),
                 static_cast<unsigned long long>(t.ip().addr()));
        t.stallTo(0);
        t.takeFault(Fault::WatchdogTimeout, cycle_);
        faultLog_.push_back(t.faultRecord());
        (*faults_)++;
        bumpFaultKind(Fault::WatchdogTimeout);
    }
    // Dump the flight recorder (no-op unless one is armed).
    sim::TraceManager::instance().unhandledFault();
}

void
Machine::forceWatchdogTrip(const char *why)
{
    if (!watchdogTripped_)
        tripWatchdog(why);
}

void
Machine::bumpFaultKind(Fault f)
{
    const unsigned fi = unsigned(f);
    if (fi >= 16)
        return;
    // Lazy registration for kinds past WatchdogTimeout (see
    // initStats): the counter appears only in runs that actually took
    // the fault, keeping fault-free stat exports and signatures
    // byte-identical to the pre-NodeUnreachable baselines. Cold path.
    if (!faultKind_[fi])
        faultKind_[fi] = &stats_.counter(
            std::string("fault_") + std::string(faultName(f)));
    (*faultKind_[fi])++;
}

uint64_t
Machine::run(uint64_t max_cycles)
{
    const uint64_t start = cycle_;
    // allDone() scans every thread slot, which is wasteful once per
    // cycle: a running machine only *becomes* done in a cycle where
    // some thread leaves the Ready state (halt, fault, watchdog — or
    // anything a software fault handler did while it had control).
    // Those paths set readyMayHaveShrunk_, so the scan re-runs only
    // after such a cycle. not-Ready -> Ready transitions can only
    // keep the machine running and never need a re-check.
    bool done = allDone();
    while (!done && cycle_ - start < max_cycles) {
        readyMayHaveShrunk_ = false;
        step();
        if (readyMayHaveShrunk_)
            done = allDone();
    }
    if (!allDone())
        sim::warn("machine: run() hit the %llu-cycle limit",
                  static_cast<unsigned long long>(max_cycles));
    return cycle_ - start;
}

void
Machine::stepCluster(unsigned cluster)
{
    // Round-robin over the cluster's thread slots: issue up to
    // issueWidth instructions, each from a distinct ready thread.
    // This is the zero-cost context switch — no protection state is
    // touched between threads.
    const unsigned nslots = config_.threadsPerCluster;
    const unsigned base = cluster * nslots;
    unsigned issued = 0;
    bool any_ready = false; // for idle attribution, tracked in-scan
    for (unsigned i = 0;
         i < nslots && issued < config_.issueWidth;
         ++i) {
        // rrNext_ and i are both < nslots, so the wrap is a single
        // compare/subtract — no integer division on the per-cycle
        // scheduling path.
        unsigned slot = rrNext_[cluster] + i;
        if (slot >= nslots)
            slot -= nslots;
        Thread &t = threads_[base + slot];
        if (t.state() != ThreadState::Ready)
            continue;
        any_ready = true;
        if (t.stallUntil() <= cycle_) {
            // Consecutive issues from different threads are the paper's
            // zero-cost protection-domain switches — count them.
            if (lastIssuedId_[cluster] != UINT32_MAX &&
                lastIssuedId_[cluster] != t.id()) {
                (*domainSwitches_)++;
            }
            lastIssuedId_[cluster] = t.id();
            issueThread(t);
            // CPI-stack attribution: the cluster-cycle belongs to its
            // first issuer (deterministic with issueWidth > 1). After
            // issueThread so the new instruction's record (and its
            // protection domain) is already open.
            if (sim::Profiler::armed() && issued == 0)
                sim::Profiler::instance().attrIssue(
                    profSlot(t));
            issued++;
        }
    }
    rrNext_[cluster] = rrNext_[cluster] + 1 == nslots
                           ? 0
                           : rrNext_[cluster] + 1;
    if (issued == 0) {
        (*idleClusterCycles_)++;
        // Attribute the idle cycle: live threads all stalled on memory
        // or trap latency, vs. no runnable thread in the cluster.
        // any_ready was collected by the (complete, since nothing
        // issued) scan above — no second pass over the slots.
        if (any_ready)
            (*stalledClusterCycles_)++;
        else
            (*emptyClusterCycles_)++;
        if (sim::Profiler::armed()) {
            if (!any_ready) {
                sim::Profiler::instance().attrEmpty();
            } else {
                // Charge the stall to whatever the *blocking* thread
                // (the Ready thread that will unstall first) is
                // waiting on. Armed-only second pass over the slots.
                unsigned blocking = base;
                uint64_t soonest = UINT64_MAX;
                for (unsigned s = 0; s < nslots; ++s) {
                    const Thread &bt = threads_[base + s];
                    if (bt.state() == ThreadState::Ready &&
                        bt.stallUntil() < soonest) {
                        soonest = bt.stallUntil();
                        blocking = base + s;
                    }
                }
                sim::Profiler::instance().attrStall(
                    profSlotBase_ + blocking, cycle_);
            }
        }
    }
}

void
Machine::faultThread(Thread &thread, Fault f)
{
    // The thread leaves Ready here, and the software handler below
    // may halt/fault arbitrary threads while it has control.
    readyMayHaveShrunk_ = true;
    thread.takeFault(f, cycle_);
    faultLog_.push_back(thread.faultRecord());
    (*faults_)++;
    bumpFaultKind(f);
    GP_TRACE(Fault, cycle_, thread.id(),
             std::string(faultName(f)).c_str(), "t%u ip=0x%llx",
             thread.id(),
             static_cast<unsigned long long>(thread.ip().addr()));

    if (faultHandler_) {
        // Dispatch to the software handler (event code in M-Machine
        // terms). It may repair the cause and resume the thread; the
        // trap cost is charged to the thread either way.
        const FaultAction action =
            faultHandler_(thread, thread.faultRecord());
        switch (action) {
          case FaultAction::Terminate:
            break;
          case FaultAction::Retry:
          case FaultAction::Resume:
            // Retry re-issues at the (possibly handler-patched) IP;
            // Resume continues at whatever IP the handler installed.
            // The machine treats both the same — the distinction is
            // the handler's contract with itself.
            thread.resumeFromFault();
            thread.stallTo(cycle_ + config_.faultTrapCycles);
            (*faultsRecovered_)++;
            // The thread's next stall window is handler latency.
            if (sim::Profiler::armed())
                sim::Profiler::instance().noteTrap(
                    profSlot(thread), cycle_,
                    config_.faultTrapCycles);
            break;
        }
    }

    // The thread terminates on this fault: trigger the flight-recorder
    // dump (a no-op unless a recorder is armed and has events).
    if (thread.state() == ThreadState::Faulted)
        sim::TraceManager::instance().unhandledFault();
}

inline bool
Machine::advanceIp(Thread &thread, int64_t inst_delta, bool elide)
{
    if (elide) {
        // A never-faults verdict covers every control-flow edge out of
        // the instruction (escaping edges record a BoundsViolation at
        // its index), so the IP update is provably in-segment — for
        // the code segment the verifier assumed. This thread may hold
        // a narrower execute pointer, so the IP proof goes: the next
        // fetch re-runs the full check.
        thread.setIp(gp::leaUnchecked(thread.ip(), inst_delta * 8));
        return true;
    }
    if (thread.ipProven()) {
        // The proof carries the segment mask, so this is the masked
        // comparator gp::lea would run (§4.1), minus the decode: an
        // advance that changes no segment bit cannot fault.
        const Word next = gp::leaUnchecked(thread.ip(), inst_delta * 8);
        if (((next.addr() ^ thread.ip().addr()) &
             thread.ipSegmentMask()) == 0) {
            thread.stepIp(next);
            return true;
        }
    }
    auto next = gp::lea(thread.ip(), inst_delta * 8);
    if (!next) {
        // Running or branching off the end of the code segment is a
        // bounds violation on the IP — by construction code cannot
        // escape its segment.
        faultThread(thread, next.fault);
        return false;
    }
    thread.stepIp(next.value);
    return true;
}

void
Machine::issueThread(Thread &thread)
{
    lastIssueCycle_ = cycle_; // progress signal for the watchdog
    if (sim::Profiler::armed())
        sim::Profiler::instance().accBegin(sim::ProfComp::IFetch);
    // While the thread holds an IP proof the fetch check cannot fire
    // (Thread::ipProven), so the port skips it. The timed fetch itself
    // always runs: bank contention, cache and TLB state, translation
    // faults, and completion cycles do not depend on the proof.
    const mem::MemAccess f =
        port_->portFetch(thread.ip(), cycle_, thread.ipProven());
    if (f.deferred) {
        // Cross-shard fetch under the epoch engine: park the thread
        // until the barrier delivers the fetched word, then resume
        // through finishFetch() as if the fetch had just returned.
        readyMayHaveShrunk_ = true;
        thread.park();
        deferred_.push_back(
            {f.ticket, uint32_t(&thread - threads_.data()),
             DeferredKind::Fetch, 0, 0, 0, false});
        return;
    }
    finishFetch(thread, f);
}

void
Machine::finishFetch(Thread &thread, const mem::MemAccess &f)
{
    if (f.hang) {
        // The fetch will never complete (lost NoC request with
        // retransmission off): the thread stalls forever. Only a
        // watchdog can reclaim it.
        thread.stallTo(UINT64_MAX);
        (*hungAccesses_)++;
        if (sim::Profiler::armed())
            sim::Profiler::instance().noteHang(
                profSlot(thread), cycle_);
        return;
    }
    if (f.fault != Fault::None) {
        faultThread(thread, f.fault);
        return;
    }
    // A store into a verified image dropped the proofs: purge the
    // baked verdicts before this instruction's decode lookup.
    if (proofsDirty_)
        flushPredecode();

    // The fetch check passed (or was already proven): the IP proof
    // holds from here until the next IP write that is not an
    // in-segment sequential/branch advance. The pointer decode runs
    // once per proof, not once per instruction.
    if (!thread.ipProven()) {
        const gp::PointerView v(thread.ip());
        thread.proveIp(v.perm() == Perm::ExecutePrivileged,
                       gp::segmentMask(v.lenLog2()));
    }

    // Predecoded-instruction cache: decode is a pure function of the
    // fetched 65-bit word, so memoise it per static instruction. The
    // timed fetch above always happens (simulated timing and faults
    // are identical either way); a hit only skips host decode work.
    // Each hit re-validates the stored raw bits against the word the
    // fetch actually returned, so self-modifying code and loader
    // changes invalidate entries implicitly. Tagged words never
    // decode, hence the isPointer() guard on the hit path.
    const uint64_t ip_addr = thread.ip().addr();
    PredecodedInst &slot =
        predecode_[(ip_addr >> 3) & (kPredecodeEntries - 1)];
    if (slot.addr == ip_addr && slot.bits == f.data.bits() &&
        !f.data.isPointer()) {
        (*predecodeHits_)++;
    } else {
        const auto decoded = gp::isa::decodeInst(f.data);
        if (!decoded) {
            faultThread(thread, Fault::InvalidInstruction);
            return;
        }
        slot.addr = ip_addr;
        slot.bits = f.data.bits();
        slot.inst = *decoded;
        // Bake the elision verdict on the miss only: the hot hit path
        // never consults the proof sidecar (the hit's raw-bits check
        // also guarantees the baked verdict still matches the code).
        slot.verdict = !elideProofs_.empty()
                           ? proofVerdict(ip_addr, f.data.bits())
                           : 0;
        slot.size = uint8_t(accessSize(decoded->op));
        slot.mixClass = uint8_t(instClass(decoded->op));
        (*predecodeMisses_)++;
    }

    if (sim::Profiler::armed() || traceHook_ ||
        sim::TraceManager::anyEnabled())
        observeIssue(thread, slot.inst, f.completeCycle);
    const unsigned mix = slot.mixClass;
    execute(thread, slot, f.completeCycle);
    (*instructions_)++;
    (*mix_[mix])++;
}

void
Machine::observeIssue(const Thread &thread, const Inst &inst,
                      uint64_t fetch_done)
{
    const uint64_t ip_addr = thread.ip().addr();
    if (sim::Profiler::armed()) {
        // Open the instruction's occupancy record at the issue cycle;
        // the IP's segment is the thread's protection-domain identity.
        // The fetch's scratch timeline covers [issue, fetch-complete).
        const unsigned ti = profSlot(thread);
        const gp::PointerView ipv(thread.ip());
        auto &prof = sim::Profiler::instance();
        prof.beginInst(ti, cycle_, ip_addr, ipv.segmentBase(),
                       ipv.segmentLimit());
        prof.flushAccess(ti, fetch_done - cycle_);
    }
    if (traceHook_)
        traceHook_(thread, inst, cycle_);
    // Structured twin of the trace hook: same point in the issue path,
    // but routed through the TraceManager sinks. Format arguments
    // (including the toString) are not evaluated when Exec is off.
    GP_TRACE(Exec, cycle_, thread.id(),
             std::string(opName(inst.op)).c_str(), "t%u ip=0x%llx %s",
             thread.id(), static_cast<unsigned long long>(ip_addr),
             toString(inst).c_str());
}

void
Machine::countCheck(bool elided)
{
    if (elided)
        (*elideChecksElided_)++;
    else
        (*elideChecksExecuted_)++;
    if (sim::Profiler::armed())
        sim::Profiler::instance().noteCheck(elided);
}

bool
Machine::memoryOp(Thread &thread, const PredecodedInst &slot,
                  uint64_t ready_at, bool elide, uint64_t &done)
{
    const Inst &inst = slot.inst;
    const bool is_store = inst.op >= Op::ST;

    // Displacement-addressed operand: derive the effective pointer
    // with a bounds-checked LEA (paper §2.2, Load/Store) and run the
    // access check on the same decode. A passing check lets the port
    // skip its own; a failing one is left to the port, which raises
    // the fault with its usual accounting.
    Word ptr = thread.reg(inst.ra);
    bool checked = elide;
    if (inst.imm != 0)
        noteCheck(elide);
    if (elide) {
        if (inst.imm != 0)
            ptr = gp::leaUnchecked(ptr, inst.imm);
    } else {
        const auto eff = gp::leaForAccess(
            ptr, inst.imm, is_store ? Access::Store : Access::Load,
            slot.size, checked);
        if (!eff) {
            faultThread(thread, eff.fault);
            return false;
        }
        ptr = eff.value;
    }
    const Word value = is_store ? thread.reg(inst.rd) : Word{};
    if (sim::Profiler::armed())
        sim::Profiler::instance().accBegin(sim::ProfComp::DCache);
    noteCheck(elide);
    const mem::MemAccess acc =
        is_store
            ? port_->portStore(ptr, value, slot.size, ready_at, checked)
            : port_->portLoad(ptr, slot.size, ready_at, checked);
    if (acc.deferred) {
        // Cross-shard access: the pointer check already ran above;
        // park until the barrier delivers data and timing.
        readyMayHaveShrunk_ = true;
        thread.park();
        deferred_.push_back(
            {acc.ticket, uint32_t(&thread - threads_.data()),
             is_store ? DeferredKind::Store : DeferredKind::Load,
             inst.rd, slot.size, ptr.addr(), elide});
        return false;
    }
    done = acc.completeCycle;
    return finishAccess(thread, acc, is_store, inst.rd, ptr.addr(),
                        slot.size);
}

bool
Machine::finishAccess(Thread &thread, const mem::MemAccess &acc,
                      bool is_store, uint8_t rd, uint64_t addr,
                      unsigned size)
{
    const unsigned ti = profSlot(thread);
    if (acc.hang) {
        thread.stallTo(UINT64_MAX);
        (*hungAccesses_)++;
        if (sim::Profiler::armed())
            sim::Profiler::instance().noteHang(ti, cycle_);
        return false;
    }
    if (acc.fault != Fault::None) {
        faultThread(thread, acc.fault);
        return false;
    }
    if (!is_store) {
        thread.setReg(rd, acc.data);
    } else if (addr + size > proofCoverLo_ && addr < proofCoverHi_) {
        // A store landing inside a verified image voids every proof:
        // rewriting one instruction can invalidate verdicts at other
        // instructions whose own bits are unchanged (safety facts
        // flow through dataflow). Two compares per store; fires
        // ~never. The predecode flush waits for the next decode
        // lookup: the executing instruction may alias the array.
        elideProofs_.clear();
        proofCoverLo_ = UINT64_MAX;
        proofCoverHi_ = 0;
        proofsDirty_ = true;
    }
    if (sim::Profiler::armed())
        sim::Profiler::instance().flushAccess(
            ti, acc.completeCycle - acc.startCycle);
    return true;
}

void
Machine::execute(Thread &thread, const PredecodedInst &slot,
                 uint64_t ready_at)
{
    const Inst &inst = slot.inst;
    const Word ra = thread.reg(inst.ra);
    const Word rb = thread.reg(inst.rb);
    // Proven by the fetch that brought this instruction in.
    const bool priv = thread.ipPrivileged();

    // Verifier-driven check elision (docs/VERIFIER.md "Proof export &
    // check elision"): take the unchecked datapath only when the baked
    // proof says this instruction can never fault, the thread runs at
    // the privilege the proof was derived under, and no runtime
    // mechanism can push execution outside the verified envelope — an
    // armed fault campaign corrupts state behind the analysis's back,
    // and a software fault handler may patch registers on *another*
    // instruction's fault. With no proof registered verdict is always 0,
    // so this costs one always-false bit test.
    const bool elide = verdictElides(slot.verdict, priv) &&
                       !faultHandler_ &&
                       !sim::FaultInjector::armed();

    // Default: single-cycle execution after fetch, sequential IP.
    uint64_t done = ready_at + 1;
    int64_t branch_delta = 1;
    // Pointer-op result, finished by the shared tail after the switch.
    Result<Word> ptr;
    bool ptr_op = false;

    auto alu = [&](uint64_t value) {
        thread.setReg(inst.rd, Word::fromInt(value));
    };

    // The handler table: a dense switch over Op, which the compiler
    // lowers to one indirect jump through a table indexed by opcode.
    switch (inst.op) {
      case Op::NOP:
        break;
      case Op::HALT:
        thread.retire();
        thread.halt();
        readyMayHaveShrunk_ = true;
        if (sim::Profiler::armed())
            sim::Profiler::instance().endInst(
                profSlot(thread), ready_at + 1,
                sim::ProfComp::Compute);
        return;

      case Op::ADD:
        alu(ra.bits() + rb.bits());
        break;
      case Op::SUB:
        alu(ra.bits() - rb.bits());
        break;
      case Op::MUL:
        alu(ra.bits() * rb.bits());
        done = ready_at + config_.mulLatency;
        break;
      case Op::AND:
        alu(ra.bits() & rb.bits());
        break;
      case Op::OR:
        alu(ra.bits() | rb.bits());
        break;
      case Op::XOR:
        alu(ra.bits() ^ rb.bits());
        break;
      case Op::SHL:
        alu(ra.bits() << (rb.bits() & 63));
        break;
      case Op::SHR:
        alu(ra.bits() >> (rb.bits() & 63));
        break;
      case Op::SRA:
        alu(uint64_t(int64_t(ra.bits()) >> (rb.bits() & 63)));
        break;
      case Op::SLT:
        alu(int64_t(ra.bits()) < int64_t(rb.bits()) ? 1 : 0);
        break;
      case Op::SLTU:
        alu(ra.bits() < rb.bits() ? 1 : 0);
        break;

      case Op::ADDI:
        alu(ra.bits() + uint64_t(int64_t(inst.imm)));
        break;
      case Op::ANDI:
        alu(ra.bits() & uint64_t(int64_t(inst.imm)));
        break;
      case Op::ORI:
        alu(ra.bits() | uint64_t(int64_t(inst.imm)));
        break;
      case Op::XORI:
        alu(ra.bits() ^ uint64_t(int64_t(inst.imm)));
        break;
      case Op::SHLI:
        alu(ra.bits() << (uint32_t(inst.imm) & 63));
        break;
      case Op::SHRI:
        alu(ra.bits() >> (uint32_t(inst.imm) & 63));
        break;
      case Op::SRAI:
        alu(uint64_t(int64_t(ra.bits()) >> (uint32_t(inst.imm) & 63)));
        break;
      case Op::MOVI:
        alu(uint64_t(int64_t(inst.imm)));
        break;
      case Op::LUI:
        alu(uint64_t(uint32_t(inst.imm)) << 32);
        break;

      case Op::MOV:
        // Tag-preserving move: capabilities are freely copyable.
        thread.setReg(inst.rd, ra);
        break;

      case Op::LD:
      case Op::LDW:
      case Op::LDH:
      case Op::LDB:
      case Op::ST:
      case Op::STW:
      case Op::STH:
      case Op::STB:
        if (!memoryOp(thread, slot, ready_at, elide, done))
            return;
        break;

      // Pointer operations (§2.2): the checked datapath, or under a
      // never-faults verdict the unchecked one. Their shared tail
      // follows the switch.
      case Op::LEA:
        ptr = elide ? Result<Word>::ok(
                          gp::leaUnchecked(ra, int64_t(rb.bits())))
                    : gp::lea(ra, int64_t(rb.bits()));
        ptr_op = true;
        break;
      case Op::LEAI:
        ptr = elide ? Result<Word>::ok(
                          gp::leaUnchecked(ra, int64_t(inst.imm)))
                    : gp::lea(ra, int64_t(inst.imm));
        ptr_op = true;
        break;
      case Op::LEAB:
        ptr = elide ? Result<Word>::ok(
                          gp::leabUnchecked(ra, int64_t(rb.bits())))
                    : gp::leab(ra, int64_t(rb.bits()));
        ptr_op = true;
        break;
      case Op::LEABI:
        ptr = elide ? Result<Word>::ok(
                          gp::leabUnchecked(ra, int64_t(inst.imm)))
                    : gp::leab(ra, int64_t(inst.imm));
        ptr_op = true;
        break;
      case Op::RESTRICT: {
        const Perm target = Perm(rb.bits() & 0xf);
        ptr = elide ? Result<Word>::ok(gp::restrictUnchecked(ra, target))
                    : gp::restrictPerm(ra, target);
        ptr_op = true;
        break;
      }
      case Op::SUBSEG:
        ptr = elide ? Result<Word>::ok(
                          gp::subsegUnchecked(ra, rb.bits() & 0x3f))
                    : gp::subseg(ra, rb.bits() & 0x3f);
        ptr_op = true;
        break;
      case Op::SETPTR:
        // The single privileged operation (§2.2, Pointer Creation).
        if (!priv) {
            faultThread(thread, Fault::PrivilegeViolation);
            return;
        }
        thread.setReg(inst.rd, gp::setptr(ra.bits()));
        break;
      case Op::ISPTR:
        alu(gp::ispointer(ra));
        break;
      case Op::PTOI:
        ptr = elide ? Result<Word>::ok(gp::ptrToIntUnchecked(ra))
                    : gp::ptrToInt(ra);
        ptr_op = true;
        break;
      case Op::ITOP:
        ptr = elide ? Result<Word>::ok(
                          gp::intToPtrUnchecked(ra, rb.bits()))
                    : gp::intToPtr(ra, rb.bits());
        ptr_op = true;
        break;

      case Op::JMP: {
        auto target = gp::jumpTarget(ra, priv);
        if (!target) {
            faultThread(thread, target.fault);
            return;
        }
        // A jump through an enter pointer is a call-gate crossing into
        // another protection domain (§2.1) — count and trace it.
        bool gate_crossing = false;
        if (auto gate = gp::decode(ra);
            gate && (gate.value.perm() == Perm::EnterUser ||
                     gate.value.perm() == Perm::EnterPrivileged)) {
            gate_crossing = true;
            (*gateCrossings_)++;
            GP_TRACE(Gate, cycle_, thread.id(), "gate-crossing",
                     "t%u %s entry=0x%llx", thread.id(),
                     std::string(permName(gate.value.perm())).c_str(),
                     static_cast<unsigned long long>(gate.value.addr()));
        }
        thread.retire();
        // An arbitrary new IP (possibly another domain's, or the same
        // code through a narrower pointer): voids the IP proof.
        thread.setIp(target.value);
        thread.stallTo(ready_at + 1);
        if (sim::Profiler::armed())
            sim::Profiler::instance().endInst(
                profSlot(thread), ready_at + 1,
                gate_crossing ? sim::ProfComp::Gate
                              : sim::ProfComp::Compute);
        return;
      }
      case Op::GETIP:
        thread.setReg(inst.rd, thread.ip());
        break;

      // Branches compare their two register operands, which the
      // assembler encodes in the rd and ra fields.
      case Op::BEQ:
        if (thread.reg(inst.rd) == ra)
            branch_delta = 1 + int64_t(inst.imm);
        break;
      case Op::BNE:
        if (!(thread.reg(inst.rd) == ra))
            branch_delta = 1 + int64_t(inst.imm);
        break;
      case Op::BLT:
        if (int64_t(thread.reg(inst.rd).bits()) < int64_t(ra.bits()))
            branch_delta = 1 + int64_t(inst.imm);
        break;
      case Op::BGE:
        if (int64_t(thread.reg(inst.rd).bits()) >= int64_t(ra.bits()))
            branch_delta = 1 + int64_t(inst.imm);
        break;

      default:
        faultThread(thread, Fault::InvalidInstruction);
        return;
    }

    if (ptr_op) {
        noteCheck(elide);
        if (!ptr) {
            faultThread(thread, ptr.fault);
            return;
        }
        thread.setReg(inst.rd, ptr.value);
        if (elide) {
            // Elided pointer op: the result comes straight off the
            // address datapath in the fetch shadow — the one-cycle
            // checking tail disappears from the timing model (the
            // measurable simulated saving of elision; memory-op check
            // skips are host-speed only).
            done = ready_at;
            (*elideCyclesSaved_)++;
        }
    }

    // Execute-tail component: pointer-manipulation ops are the
    // capability check/decode work that actually costs cycles — the
    // explicit "check" CPI slice. Everything else is compute.
    retireInst(thread, branch_delta, elide, done,
               slot.mixClass == ClassPointer ? sim::ProfComp::Check
                                             : sim::ProfComp::Compute);
}

void
Machine::retireInst(Thread &thread, int64_t branch_delta, bool elide,
                    uint64_t done, sim::ProfComp tail)
{
    thread.retire();
    noteCheck(elide);
    if (!advanceIp(thread, branch_delta, elide))
        return;
    thread.stallTo(done);
    if (sim::Profiler::armed())
        sim::Profiler::instance().endInst(
            profSlot(thread), done, tail);
}

void
Machine::completeDeferred(uint64_t ticket, const mem::MemAccess &acc)
{
    size_t idx = deferred_.size();
    for (size_t i = 0; i < deferred_.size(); ++i) {
        if (deferred_[i].ticket == ticket) {
            idx = i;
            break;
        }
    }
    if (idx == deferred_.size()) {
        sim::warn("machine: completeDeferred: unknown ticket %llu",
                  static_cast<unsigned long long>(ticket));
        return;
    }
    const DeferredInst rec = deferred_[idx];
    deferred_.erase(deferred_.begin() + ptrdiff_t(idx));
    Thread &thread = threads_[rec.threadIndex];
    if (thread.state() != ThreadState::Pending) {
        // The watchdog killed the thread while its transaction was
        // in flight; drop the late result.
        return;
    }
    thread.unpark();
    lastIssueCycle_ = cycle_; // a completion is progress, too

    if (rec.kind == DeferredKind::Fetch) {
        // Resume the issue path where the fetch left off. The decoded
        // instruction may immediately park again on a remote operand
        // (resolved in the next barrier drain round).
        finishFetch(thread, acc);
        return;
    }
    // The same post-access and retire tails as the synchronous path;
    // the issue-side work (pointer check, check accounting,
    // instruction counters) already ran before the park.
    const bool is_store = rec.kind == DeferredKind::Store;
    if (finishAccess(thread, acc, is_store, rec.rd, rec.addr, rec.size))
        retireInst(thread, 1, rec.elide, acc.completeCycle,
                   sim::ProfComp::Compute);
}

} // namespace gp::isa
