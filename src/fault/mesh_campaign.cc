#include "fault/mesh_campaign.h"

#include "gp/pointer.h"
#include "isa/loader.h"
#include "sim/log.h"

namespace gp::fault {

namespace {

using sim::FaultInjector;

/// Code segment base within a node's partition (2^17-aligned).
constexpr uint64_t kCodeOff = uint64_t(1) << 17; // 0x20000
/// Constant table the harness pre-pokes (16 words per node).
constexpr uint64_t kConstOff = uint64_t(1) << 18; // 0x40000
constexpr unsigned kConstWords = 16;
/// Result vector (32 round-robin slots + final accumulator).
constexpr uint64_t kResultOff = 33 * (uint64_t(1) << 13); // 0x42000
constexpr unsigned kResultWords = 34; // slots, pad, accumulator

/**
 * The ring-traffic workload. Every iteration loads one pre-poked
 * constant from the *ring neighbor's* partition — a remote access
 * that crosses the mesh, exercising routing, the retry protocol, and
 * (once the neighbor dies) the NodeUnreachable path — then writes an
 * accumulator slot into the node's *own* partition. Because the
 * constants are fixed by the harness before the run, each node's
 * result vector is a pure function of the node ids alone, never of
 * message timing: survivors of a degraded run must match the
 * failure-free golden run word-for-word.
 *
 * r1 = full-space RW pointer, r2 = own node id, r3 = iterations,
 * r4 = ring-neighbor node id.
 */
constexpr const char *kMeshWorkload = R"(
        movi r5, 0            ; i = 0
        movi r6, 1            ; acc = 1
        movi r11, 1
        shli r11, r11, 18     ; const-table offset (0x40000)
        movi r12, 33
        shli r12, r12, 13     ; result offset (0x42000)
loop:   andi r7, r5, 15
        shli r7, r7, 3
        add  r7, r7, r11
        shli r8, r4, 48
        add  r7, r7, r8       ; neighbor const slot address
        leab r9, r1, r7
        ld   r10, 0(r9)       ; remote load (the resilience channel)
        add  r6, r6, r10
        add  r6, r6, r5
        andi r7, r5, 31
        shli r7, r7, 3
        add  r7, r7, r12
        shli r8, r2, 48
        add  r7, r7, r8       ; own result slot address
        leab r9, r1, r7
        st   r6, 0(r9)
        addi r5, r5, 1
        blt  r5, r3, loop
        shli r8, r2, 48
        add  r8, r8, r12
        addi r8, r8, 264      ; accumulator slot (0x42108)
        leab r9, r1, r8
        st   r6, 0(r9)
        halt
)";

/** The constant the harness plants in node @p m's slot @p j: any
 * fixed function of (m, j) works — it only has to be the SAME in
 * golden and injected runs. */
Word
constantFor(unsigned m, unsigned j)
{
    return Word::fromInt(
        sim::mix64(0x6d657368ull ^ (uint64_t(m) << 8) ^ j) & 0xffffffffull);
}

} // namespace

MeshCampaignRunner::MeshCampaignRunner(const MeshCampaignConfig &config)
    : CampaignEngine("mesh_campaign", kMeshWorkload), config_(config)
{
}

MeshRunResult
MeshCampaignRunner::execute(const uint64_t *runSeed)
{
    noc::ShardConfig scfg;
    scfg.mesh.dimX = config_.dimX;
    scfg.mesh.dimY = config_.dimY;
    scfg.mesh.dimZ = config_.dimZ;
    scfg.node.cache.setsPerBank = 64; // small cache: host speed only
    scfg.machine.clusters = 1;
    scfg.hostThreads = config_.hostThreads;
    scfg.machine.watchdogQuiescence = config_.watchdogQuiescence;
    scfg.retrans = config_.retrans;
    noc::ShardedMesh shard(scfg);
    const unsigned nodes = shard.nodeCount();

    auto full = makePointer(Perm::ReadWrite, 54, 0);
    if (!full)
        sim::fatal("mesh campaign: cannot build full-space pointer");

    for (unsigned n = 0; n < nodes; ++n) {
        const uint64_t base = noc::nodeBase(n);
        const isa::LoadedProgram prog = isa::loadProgram(
            shard.node(n), base + kCodeOff, code());
        isa::Thread *t = shard.machine(n).spawn(prog.execPtr);
        if (!t)
            sim::fatal("mesh campaign: node %u has no thread slot", n);
        t->setReg(1, full.value);
        t->setReg(2, Word::fromInt(n));
        t->setReg(3, Word::fromInt(config_.iterations));
        t->setReg(4, Word::fromInt((n + 1) % nodes));
        // Plant the constant table and zero the result vector. The
        // pokes also demand-map both pages, so the post-run peek walk
        // succeeds even for a node that died before its first store.
        for (unsigned j = 0; j < kConstWords; ++j)
            shard.node(n).pokeWord(base + kConstOff + 8 * j,
                                   constantFor(n, j));
        for (unsigned j = 0; j < kResultWords; ++j)
            shard.node(n).pokeWord(base + kResultOff + 8 * j,
                                   Word::fromInt(0));
    }

    auto &inj = FaultInjector::instance();
    if (runSeed) {
        sim::FaultConfig fc = config_.faults;
        fc.seed = *runSeed;
        inj.arm(fc);
    }

    shard.run(config_.maxCycles);

    MeshRunResult r;
    r.cycles = shard.cycle();
    std::vector<uint64_t> &nodeSigs = r.nodeSignatures;
    if (runSeed) {
        r.injections = inj.injectedTotal();
        inj.disarm();
    }
    r.deadNodes = shard.mesh().deadNodeCount();
    r.downLinks = shard.mesh().downLinkCount();
    r.detours = shard.mesh().detourCount();
    r.hung = shard.watchdogTripped() || !shard.allDone();

    // Per-node result signatures: the final result vector (tags
    // included) plus a clean-completion bit. Deliberately NO cycle
    // counts — a detoured run is slower but must still compare equal.
    bool survivorFaulted = false;
    uint64_t survivorsWrong = 0;
    const std::vector<uint64_t> *golden =
        runSeed ? &goldenNodeSignatures() : nullptr;
    for (unsigned n = 0; n < nodes; ++n) {
        if (shard.nodeDead(n)) {
            nodeSigs.push_back(0xdeadull); // placeholder, not compared
            continue;
        }
        r.unreachableFaults += shard.node(n).unreachableFaults();
        const bool faulted = !shard.machine(n).faultLog().empty();
        if (faulted) {
            survivorFaulted = true;
            if (r.firstFault == Fault::None)
                r.firstFault = shard.machine(n).faultLog().front().fault;
        }
        Fnv h;
        const uint64_t base = noc::nodeBase(n);
        for (unsigned j = 0; j < kResultWords; ++j) {
            const Word w =
                shard.node(n).peekWord(base + kResultOff + 8 * j);
            h.mix(w.bits());
            h.mix(w.isPointer() ? 0x9e3779b9ull : 0x51edull);
        }
        bool halted = true;
        for (const isa::Thread &t : shard.machine(n).threads())
            if (t.state() != isa::ThreadState::Idle &&
                t.state() != isa::ThreadState::Halted)
                halted = false;
        h.mix(halted ? 1 : 0);
        nodeSigs.push_back(h.hash);
        // Only a CLEANLY completed survivor can be silently wrong: a
        // survivor that took a typed fault mid-loop legitimately left
        // a truncated result — that is the detected-fault class, not
        // corruption.
        if (golden && halted && !faulted && h.hash != (*golden)[n])
            survivorsWrong++;
    }
    r.survivorsWrong = survivorsWrong;

    if (!runSeed) {
        r.outcome = MeshOutcome::Masked;
        return r;
    }

    // Precedence: hang > detected > sdc > degraded > masked. Total
    // mesh death counts as detected — fail-stop IS detection.
    if (r.hung)
        r.outcome = MeshOutcome::Hang;
    else if (shard.survivors() == 0 || survivorFaulted)
        r.outcome = MeshOutcome::DetectedFault;
    else if (survivorsWrong > 0)
        r.outcome = MeshOutcome::Sdc;
    else if (shard.mesh().degraded())
        r.outcome = MeshOutcome::Degraded;
    else
        r.outcome = MeshOutcome::Masked;
    return r;
}

} // namespace gp::fault
