#include "noc/shard.h"

#include <algorithm>
#include <ostream>

#include "sim/faultinject.h"
#include "sim/log.h"

namespace gp::noc {

ShardedMesh::ShardedMesh(const ShardConfig &config)
    : config_(config),
      mesh_(config.mesh),
      exchange_(mesh_.nodeCount())
{
    const unsigned nodes = mesh_.nodeCount();
    if (nodes == 0)
        sim::fatal("sharded mesh: empty mesh");
    if (nodes > kMaxNodes)
        sim::fatal("sharded mesh: %u nodes, but VA bits 53..48 name at "
                   "most %u home nodes",
                   nodes, kMaxNodes);

    global_.setEccMode(config_.node.ecc);

    // The engine owns injector ticking (one central tick per
    // simulated cycle at the barrier); machines must not also tick.
    isa::MachineConfig mcfg = config_.machine;
    mcfg.externalInjectorTick = true;

    nodes_.reserve(nodes);
    machines_.reserve(nodes);
    for (unsigned n = 0; n < nodes; ++n) {
        nodes_.push_back(std::make_unique<NodeMemory>(
            n, mesh_, global_, config_.node, config_.retrans));
        nodes_.back()->attachExchange(&exchange_);
        machines_.push_back(
            std::make_unique<isa::Machine>(mcfg, *nodes_.back()));
        machines_.back()->setProfileSlotBase(
            n * mcfg.clusters * mcfg.threadsPerCluster);
    }

    // Lookahead: an epoch may not exceed the minimum inter-node
    // message latency, or a message could be due before the barrier
    // that delivers it.
    const uint64_t lookahead =
        std::max<uint64_t>(1, mesh_.minMessageLatency());
    horizon_ = config_.epochHorizon == 0
                   ? lookahead
                   : std::min(config_.epochHorizon, lookahead);

    hostThreads_ = std::max(1u, std::min(config_.hostThreads, nodes));

    // Contiguous node ranges per shard, sized as evenly as possible.
    // Contiguity matters: VA bits 53..48 are the home node, so a
    // shard is also a contiguous slice of the address space.
    const unsigned base = nodes / hostThreads_;
    const unsigned rem = nodes % hostThreads_;
    unsigned first = 0;
    for (unsigned s = 0; s < hostThreads_; ++s) {
        const unsigned len = base + (s < rem ? 1 : 0);
        shardRange_.emplace_back(first, first + len);
        first += len;
    }

    live_.assign(nodes, 1);
    tallies_.resize(hostThreads_);
    for (unsigned s = 0; s < hostThreads_; ++s) {
        shardStats_.push_back(std::make_unique<sim::StatGroup>(
            "shard" + std::to_string(s)));
        sim::StatGroup &g = *shardStats_.back();
        shardCounters_.push_back({&g.counter("nodes"),
                                  &g.counter("busy_cycles"),
                                  &g.counter("instructions"),
                                  &g.counter("mesh_messages"),
                                  &g.counter("mesh_flits"),
                                  &g.counter("mesh_link_stall_cycles"),
                                  &g.counter("mesh_hops")});
    }
    // Handles for the drain-time attribution snapshots. These are
    // the mesh's OWN counters (already in the signature); the
    // per-node tallies derived from them live outside every stat
    // group and cannot move blessed signatures.
    sim::StatGroup &ms = mesh_.stats();
    meshTrafficCounters_ = {&ms.counter("messages"),
                            &ms.counter("flits"),
                            &ms.counter("link_stall_cycles"),
                            &ms.counter("hops_traversed")};
    nodeMeshTallies_.assign(nodes, {});
    exportShardStats();

    if (hostThreads_ > 1) {
        // The caller simulates shard 0 between the barriers, so the
        // pool holds hostThreads-1 workers and each barrier counts
        // hostThreads parties.
        startBarrier_ = std::make_unique<SpinBarrier>(hostThreads_);
        endBarrier_ = std::make_unique<SpinBarrier>(hostThreads_);
        workers_.reserve(hostThreads_ - 1);
        for (unsigned s = 1; s < hostThreads_; ++s)
            workers_.emplace_back(&ShardedMesh::workerLoop, this, s);
    }
}

ShardedMesh::~ShardedMesh()
{
    if (!workers_.empty()) {
        stop_.store(true, std::memory_order_release);
        startBarrier_->arriveAndWait();
        for (std::thread &w : workers_)
            w.join();
    }
}

unsigned
ShardedMesh::shardOf(unsigned n) const
{
    for (unsigned s = 0; s < shardRange_.size(); ++s)
        if (n >= shardRange_[s].first && n < shardRange_[s].second)
            return s;
    return 0;
}

bool
ShardedMesh::allDone() const
{
    // Fail-stopped nodes are frozen mid-flight — they are neither
    // running nor waited for. The run is over when every *survivor*
    // is done (vacuously true if everything died).
    for (unsigned n = 0; n < machines_.size(); ++n)
        if (!mesh_.nodeDead(n) && !machines_[n]->allDone())
            return false;
    return true;
}

bool
ShardedMesh::watchdogTripped() const
{
    for (const auto &m : machines_)
        if (m->watchdogTripped())
            return true;
    return false;
}

void
ShardedMesh::simulateShard(unsigned shard)
{
    const auto [first, last] = shardRange_[shard];
    const uint64_t from = epochFrom_;
    const uint64_t to = epochTo_;
    // Cycle-major so every machine in the mesh executes cycle c
    // before any machine executes cycle c+1 (within the epoch the
    // shards interleave freely — the lookahead guarantees nothing
    // observable crosses shards before the barrier).
    for (uint64_t c = from; c < to; ++c)
        for (unsigned n = first; n < last; ++n)
            if (live_[n])
                machines_[n]->step();
}

void
ShardedMesh::workerLoop(unsigned shard)
{
    gp::setThreadOpTallies(&tallies_[shard]);
    for (;;) {
        startBarrier_->arriveAndWait();
        if (stop_.load(std::memory_order_acquire))
            break;
        simulateShard(shard);
        endBarrier_->arriveAndWait();
    }
    gp::setThreadOpTallies(nullptr);
}

void
ShardedMesh::refreshLive()
{
    // A done machine can never wake up on its own (no pending split
    // transactions, no ready threads), so it stops being stepped; its
    // local cycle count freezes at the epoch in which it finished.
    // A fail-stopped machine freezes the same way, mid-flight. This
    // is part of the canonical schedule: identical for every
    // host-thread count.
    for (unsigned n = 0; n < live_.size(); ++n)
        live_[n] =
            (mesh_.nodeDead(n) || machines_[n]->allDone()) ? 0 : 1;
}

void
ShardedMesh::killNode(unsigned n)
{
    if (n >= machines_.size() || mesh_.nodeDead(n))
        return;
    mesh_.failNode(n);
    // Whatever split transactions the dying node still has parked
    // will never complete (its exchange ops are dropped below and
    // nothing new is posted); mark them so post-mortems can tell
    // wedged-by-death from in-flight.
    machines_[n]->markDeferredOrphans();
    sim::warn("sharded mesh: node %u fail-stopped at cycle %llu", n,
              static_cast<unsigned long long>(cycle_));
}

void
ShardedMesh::applyMeshFaults()
{
    auto &inj = sim::FaultInjector::instance();
    const unsigned nodes = unsigned(machines_.size());

    // One opportunity per site per epoch. Victim selection draws
    // come from the same per-site stream as the Bernoulli draw, and
    // the candidate lists are id-sorted, so the failure schedule is
    // a pure function of (seed, config) — never of host threads.
    if (inj.fire(sim::FaultSite::NodeFailStop)) {
        std::vector<unsigned> alive;
        alive.reserve(nodes);
        for (unsigned n = 0; n < nodes; ++n)
            if (!mesh_.nodeDead(n))
                alive.push_back(n);
        if (!alive.empty())
            killNode(alive[inj.drawBelow(sim::FaultSite::NodeFailStop,
                                         alive.size())]);
    }
    if (inj.fire(sim::FaultSite::LinkDown)) {
        std::vector<std::pair<unsigned, unsigned>> up;
        up.reserve(size_t(nodes) * 6);
        for (unsigned n = 0; n < nodes; ++n)
            for (unsigned d = 0; d < 6; ++d)
                if (mesh_.neighbor(n, d) >= 0 && !mesh_.linkDown(n, d))
                    up.emplace_back(n, d);
        if (!up.empty()) {
            const auto [vn, vd] =
                up[inj.drawBelow(sim::FaultSite::LinkDown, up.size())];
            mesh_.failLink(vn, vd);
            sim::warn("sharded mesh: link %u/dir%u down at cycle %llu",
                      vn, vd,
                      static_cast<unsigned long long>(cycle_));
        }
    }
}

void
ShardedMesh::drainEpoch()
{
    // Central injector ticks: machines stepped cycles [from, to) and
    // each step would have ticked its post-increment cycle, i.e.
    // (from, to]. One canonical pass replaces all per-machine ticks.
    if (sim::FaultInjector::armed()) {
        auto &inj = sim::FaultInjector::instance();
        for (uint64_t c = epochFrom_; c < epochTo_; ++c)
            inj.tick(c + 1);
        // Mesh-scale fail-stop sites arm here — after the ticks,
        // before the drain — so an op already in flight to a node
        // that dies at this barrier fails *this* epoch.
        applyMeshFaults();
    }

    // Canonical drain rounds: resolving a deferred fetch decodes and
    // executes its instruction, which may immediately defer a remote
    // load/store — picked up by the next round. Ops whose issue cycle
    // lies beyond the epoch (a completion chain) still resolve at
    // this barrier, in the same canonical order; the mesh charges
    // contention from their recorded cycles either way.
    std::vector<DeferredAccess> ops = exchange_.drain();
    while (!ops.empty()) {
        for (const DeferredAccess &op : ops) {
            if (mesh_.nodeDead(op.node)) {
                // The poster fail-stopped with this op in flight:
                // nobody is waiting for the completion. Dropped, not
                // resolved — a dead node must not touch the fabric.
                deadOpsDropped_++;
                continue;
            }
            // Attribute the mesh traffic this resolution causes to
            // its POSTING node, not to the barrier in bulk: snapshot
            // the mesh counters around the resolve and bank the
            // delta. The drain order is canonical, so the per-node
            // attribution is a pure function of the simulated
            // schedule — identical for every host-thread count.
            std::array<uint64_t, kTallyCount> before;
            for (unsigned k = 0; k < kTallyCount; ++k)
                before[k] = meshTrafficCounters_[k]->value();
            const mem::MemAccess acc =
                nodes_[op.node]->resolveDeferred(op);
            for (unsigned k = 0; k < kTallyCount; ++k)
                nodeMeshTallies_[op.node][k] +=
                    meshTrafficCounters_[k]->value() - before[k];
            machines_[op.node]->completeDeferred(op.ticket, acc);
        }
        ops = exchange_.drain();
    }

    // The exchange is empty: every split transaction still parked on
    // a surviving machine is an orphan (its completion can no longer
    // arrive) and must not veto that machine's quiescence watchdog.
    // In the current protocol this only happens through fail-stop
    // drops above, but the invariant is checked unconditionally —
    // a lost op is a hang either way.
    for (unsigned n = 0; n < machines_.size(); ++n)
        if (!mesh_.nodeDead(n) && machines_[n]->hasDeferred())
            machines_[n]->markDeferredOrphans();

    refreshLive();
}

uint64_t
ShardedMesh::progressCount() const
{
    // Instructions retired + faults taken across survivors: anything
    // that counts as forward progress for the distributed watchdog.
    // Only scanned while the mesh watchdog is armed.
    uint64_t p = 0;
    for (unsigned n = 0; n < machines_.size(); ++n) {
        if (mesh_.nodeDead(n))
            continue;
        const isa::Machine &m = *machines_[n];
        for (const isa::Thread &t : m.threads())
            p += t.instsRetired();
        p += m.faultLog().size();
    }
    return p;
}

void
ShardedMesh::checkMeshWatchdog()
{
    const uint64_t progress = progressCount();
    if (progress != lastProgress_) {
        lastProgress_ = progress;
        lastProgressCycle_ = cycle_;
        return;
    }
    if (cycle_ - lastProgressCycle_ < config_.meshWatchdogCycles)
        return;
    // No survivor progressed for a full window. Spurious-trip guard:
    // a survivor stalled to a finite future cycle (long backoff) or
    // holding a genuinely in-flight park will resume on its own —
    // only trip when every survivor is quiescent for good.
    for (unsigned n = 0; n < machines_.size(); ++n)
        if (!mesh_.nodeDead(n) && !machines_[n]->allDone() &&
            !machines_[n]->quiescentNow())
            return;
    meshWatchdogTripped_ = true;
    sim::warn("sharded mesh: distributed watchdog trip at cycle %llu "
              "(%u survivors, %llu dead nodes)",
              static_cast<unsigned long long>(cycle_), survivors(),
              static_cast<unsigned long long>(mesh_.deadNodeCount()));
    for (unsigned n = 0; n < machines_.size(); ++n)
        if (!mesh_.nodeDead(n) && !machines_[n]->allDone())
            machines_[n]->forceWatchdogTrip("mesh-quiescence");
}

namespace {

const char *
threadStateName(isa::ThreadState s)
{
    switch (s) {
      case isa::ThreadState::Idle:
        return "idle";
      case isa::ThreadState::Ready:
        return "ready";
      case isa::ThreadState::Halted:
        return "halted";
      case isa::ThreadState::Faulted:
        return "faulted";
      case isa::ThreadState::Pending:
        return "pending";
    }
    return "?";
}

} // namespace

void
ShardedMesh::postMortem(std::ostream &os) const
{
    os << "=== mesh post-mortem @ cycle " << cycle_ << " ===\n"
       << "nodes=" << nodeCount() << " survivors=" << survivors()
       << " hostThreads=" << hostThreads_ << " meshWatchdog="
       << (meshWatchdogTripped_ ? "TRIPPED" : "clear") << "\n";

    if (mesh_.degraded()) {
        os << "failure set: " << mesh_.deadNodeCount()
           << " dead node(s), " << mesh_.downLinkCount()
           << " down link(s)\n";
        os << "  dead nodes:";
        for (unsigned n = 0; n < nodeCount(); ++n)
            if (mesh_.nodeDead(n))
                os << " " << n;
        os << "\n  down links (node/dir):";
        for (unsigned n = 0; n < nodeCount(); ++n)
            for (unsigned d = 0; d < 6; ++d)
                if (!mesh_.nodeDead(n) && mesh_.neighbor(n, d) >= 0 &&
                    mesh_.linkDown(n, d))
                    os << " " << n << "/" << d;
        os << "\n";
        os << "degraded routing: " << mesh_.detourCount()
           << " detoured message(s), " << mesh_.unreachableCount()
           << " unreachable attempt(s), " << deadOpsDropped_
           << " dead-poster op(s) dropped\n";
    } else {
        os << "fabric healthy (no node/link failures)\n";
    }

    for (unsigned n = 0; n < machines_.size(); ++n) {
        const isa::Machine &m = *machines_[n];
        if (mesh_.nodeDead(n)) {
            os << "node " << n << ": FAIL-STOPPED at cycle "
               << m.cycle() << "\n";
            continue;
        }
        if (m.allDone() && !m.watchdogTripped())
            continue; // finished cleanly — not interesting here
        os << "node " << n << ": cycle=" << m.cycle()
           << (m.watchdogTripped() ? " watchdog=TRIPPED" : "")
           << (m.hasDeferred() ? " orphaned-parks" : "") << "\n";
        for (const isa::Thread &t : m.threads()) {
            if (t.state() == isa::ThreadState::Idle)
                continue;
            os << "  thread " << t.id() << ": "
               << threadStateName(t.state()) << " ip=0x" << std::hex
               << t.ip().bits() << std::dec
               << " retired=" << t.instsRetired();
            if (t.stallUntil() == UINT64_MAX)
                os << " stalled=forever";
            else if (t.stallUntil() > m.cycle())
                os << " stalledUntil=" << t.stallUntil();
            os << "\n";
        }
        const auto &log = m.faultLog();
        const size_t tail = log.size() > 4 ? log.size() - 4 : 0;
        for (size_t i = tail; i < log.size(); ++i)
            os << "  fault[" << i
               << "]: " << faultName(log[i].fault) << " @ cycle "
               << log[i].cycle << "\n";
    }
    os << "=== end post-mortem ===\n";
}

uint64_t
ShardedMesh::run(uint64_t max_cycles)
{
    const uint64_t start = cycle_;
    const uint64_t limit = start + max_cycles;
    refreshLive();
    bool done = allDone();
    while (!done && cycle_ < limit) {
        epochFrom_ = cycle_;
        epochTo_ = cycle_ + std::min(horizon_, limit - cycle_);
        if (workers_.empty()) {
            simulateShard(0);
        } else {
            startBarrier_->arriveAndWait(); // release workers
            simulateShard(0);
            endBarrier_->arriveAndWait(); // wait for the epoch
        }
        cycle_ = epochTo_;
        drainEpoch();
        done = allDone();
        if (!done && config_.meshWatchdogCycles != 0)
            checkMeshWatchdog();
    }
    // Deterministic merge of the worker tallies into the real "gp"
    // counters, in shard order; totals now equal a sequential run's.
    for (unsigned s = 1; s < hostThreads_; ++s) {
        gp::mergeOpTallies(tallies_[s]);
        tallies_[s] = gp::OpTallies{};
    }
    exportShardStats();
    if (!done)
        sim::warn("sharded mesh: run() hit the %llu-cycle limit",
                  static_cast<unsigned long long>(max_cycles));
    return cycle_ - start;
}

void
ShardedMesh::exportShardStats()
{
    for (unsigned s = 0; s < hostThreads_; ++s) {
        const auto [first, last] = shardRange_[s];
        uint64_t busy = 0;
        uint64_t insts = 0;
        std::array<uint64_t, kTallyCount> traffic{};
        for (unsigned n = first; n < last; ++n) {
            isa::Machine &m = *machines_[n];
            const uint64_t cluster_cycles =
                m.cycle() * m.config().clusters;
            const uint64_t idle = m.stats().get( // statgroup-get: cold path
                "idle_cluster_cycles");
            busy += cluster_cycles > idle ? cluster_cycles - idle : 0;
            insts += m.stats().get( // statgroup-get: cold path
                "instructions");
            for (unsigned k = 0; k < kTallyCount; ++k)
                traffic[k] += nodeMeshTallies_[n][k];
        }
        shardCounters_[s].nodes->set(last - first);
        shardCounters_[s].busy->set(busy);
        shardCounters_[s].insts->set(insts);
        shardCounters_[s].meshMessages->set(traffic[kTallyMessages]);
        shardCounters_[s].meshFlits->set(traffic[kTallyFlits]);
        shardCounters_[s].meshStalls->set(traffic[kTallyStallCycles]);
        shardCounters_[s].meshHops->set(traffic[kTallyHops]);
    }
}

uint64_t
ShardedMesh::signature() const
{
    uint64_t h = 1469598103934665603ull; // FNV-1a 64 offset basis
    auto mix = [&h](uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };

    mix(cycle_);
    for (const auto &mp : machines_) {
        const isa::Machine &m = *mp;
        mix(m.cycle());
        mix(m.watchdogTripped() ? 1 : 0);
        for (const isa::FaultRecord &fr : m.faultLog()) {
            mix(uint64_t(fr.fault));
            mix(fr.cycle);
            mix(fr.ip.bits());
        }
        for (const isa::Thread &t : m.threads()) {
            mix(uint64_t(t.state()));
            mix(t.ip().bits());
            mix(t.ip().isPointer() ? 1 : 0);
            mix(t.instsRetired());
            mix(t.stallUntil() == UINT64_MAX ? 1 : 0);
            for (unsigned r = 0; r < isa::kNumRegs; ++r) {
                mix(t.reg(r).bits());
                mix(t.reg(r).isPointer() ? 1 : 0);
            }
        }
    }
    // Every counter of the machine, node and mesh stat groups, in
    // each group's stable (name-sorted map) order. The retransmit
    // groups are not included.
    for (const auto &mp : machines_)
        for (const auto &[name, ctr] :
             const_cast<isa::Machine &>(*mp).stats().counters())
            mix(ctr.value());
    for (const auto &np : nodes_)
        for (const auto &[name, ctr] : np->stats().counters())
            mix(ctr.value());
    for (const auto &[name, ctr] :
         const_cast<Mesh &>(mesh_).stats().counters())
        mix(ctr.value());
    // Failure-set state is mixed only once the fabric degrades: a
    // failure-free run hashes exactly as the pre-resilience baseline
    // (the blessed F6/fig5 signatures must not move).
    if (mesh_.degraded()) {
        mix(0xdeadfab5ull); // domain separator: degraded section
        mix(mesh_.deadNodeCount());
        mix(mesh_.downLinkCount());
        mix(mesh_.detourCount());
        mix(mesh_.unreachableCount());
        for (unsigned n = 0; n < machines_.size(); ++n)
            mix(mesh_.nodeDead(n) ? 1 : 0);
        mix(deadOpsDropped_);
        mix(meshWatchdogTripped_ ? 1 : 0);
    }
    if (sim::FaultInjector::armed())
        mix(sim::FaultInjector::instance().injectedTotal());
    return h;
}

} // namespace gp::noc
