#include "fault/campaign.h"

#include <algorithm>

#include "isa/loader.h"
#include "isa/machine.h"
#include "sim/log.h"

namespace gp::fault {

namespace {

using sim::FaultInjector;
using sim::FaultSite;

/// Code segment base (2^20-aligned, far from data).
constexpr uint64_t kCodeBase = uint64_t(1) << 24;
/// Data segment base and size (one small segment, 2^12 bytes).
constexpr uint64_t kDataBase = uint64_t(1) << 30;
constexpr uint64_t kDataLenLog2 = 12;
constexpr uint64_t kDataBytes = uint64_t(1) << kDataLenLog2;

/**
 * The standard campaign workload. Deliberately keeps all the
 * security- and liveness-critical state *in memory*, reloaded every
 * iteration, so stored-bit faults have architectural consequences:
 *
 *   data[0]   the capability to the data segment itself
 *   data[8]   the loop bound
 *   data[16..271]  32 result slots, rewritten round-robin
 *   data[272] the final accumulator
 *
 * r1 = data-segment capability, r2 = iteration count (set by the
 * harness before the thread runs).
 */
constexpr const char *kWorkload = R"(
        st   r1, 0(r1)        ; plant the capability in memory
        st   r2, 8(r1)        ; plant the loop bound in memory
        movi r3, 0            ; i = 0
        movi r4, 1            ; acc = 1
loop:   ld   r5, 0(r1)        ; reload the capability (forgery channel)
        andi r6, r3, 31       ; slot = i % 32
        shli r6, r6, 3
        addi r6, r6, 16
        lea  r7, r5, r6       ; slot pointer (bounds-checked)
        add  r4, r4, r3
        st   r4, 0(r7)        ; write the slot
        ld   r8, 0(r7)        ; read it straight back
        add  r4, r4, r8
        addi r3, r3, 1
        ld   r6, 8(r1)        ; reload the bound (hang channel)
        blt  r3, r6, loop
        st   r4, 272(r1)      ; final accumulator
        halt
)";

/** Hash of the final data-segment image, tags included. */
struct Signature : Fnv
{
    bool detected = false; // uncorrectable at rest
};

Signature
signatureOf(mem::MemorySystem &ms)
{
    Signature sig;
    const auto &pt = ms.pageTable();
    const uint64_t end = kDataBase + kDataBytes;
    uint64_t va = kDataBase;
    while (va < end) {
        // One translation per page: the words of a page share it.
        const uint64_t vpn = pt.vpn(va);
        const uint64_t pageEnd =
            std::min(end, (vpn + 1) << pt.pageShift());
        const auto pfn = pt.translate(vpn);
        for (; va < pageEnd; va += 8) {
            if (!pfn) {
                // Page never touched: hash a distinct "absent" token.
                sig.mix(0x5157ull);
                continue;
            }
            const uint64_t pa = (*pfn << pt.pageShift()) |
                                (va & (pt.pageBytes() - 1));
            // Read *through the code*: with ECC on, a correctable
            // upset at rest is not a difference — the consumer would
            // see the corrected value. An uncorrectable one is
            // detected, never silent.
            const mem::CheckedWord cw = ms.phys().readWordChecked(pa);
            if (cw.status == mem::EccStatus::Detected)
                sig.detected = true;
            sig.mix(cw.word.bits());
            sig.mix(cw.word.isPointer() ? 0x9e3779b9ull : 0x51edull);
        }
    }
    return sig;
}

/** One freshly constructed machine with the workload loaded. */
struct Harness
{
    isa::Machine machine;
    isa::Thread *thread = nullptr;

    static isa::MachineConfig
    makeConfig(const CampaignConfig &cc)
    {
        isa::MachineConfig mcfg;
        mcfg.clusters = 1;
        mcfg.threadsPerCluster = 1;
        mcfg.mem.ecc = cc.ecc;
        mcfg.mem.walkRetries = cc.walkRetries;
        mcfg.watchdogCycles = cc.maxCycles;
        mcfg.watchdogQuiescence = cc.watchdogQuiescence;
        return mcfg;
    }

    Harness(const CampaignConfig &cc, const std::vector<Word> &code)
        : machine(makeConfig(cc))
    {
        const isa::LoadedProgram prog =
            isa::loadProgram(machine.mem(), kCodeBase, code);
        thread = machine.spawn(prog.execPtr);
        if (!thread)
            sim::fatal("campaign: no thread slot");
        thread->setReg(1, isa::dataSegment(kDataBase, kDataLenLog2));
        thread->setReg(2, Word::fromInt(cc.iterations));
    }
};

} // namespace

CampaignRunner::CampaignRunner(const CampaignConfig &config)
    : CampaignEngine("campaign", kWorkload), config_(config)
{
}

RunResult
CampaignRunner::execute(const uint64_t *runSeed)
{
    Harness h(config_, code());
    auto &inj = FaultInjector::instance();
    mem::MemorySystem &ms = h.machine.mem();

    if (runSeed) {
        sim::FaultConfig fc = config_.faults;
        fc.seed = *runSeed;
        inj.arm(fc);

        mem::TaggedMemory &phys = ms.phys();
        // Victim selection always walks *sorted* address lists so
        // outcomes never depend on hash-map iteration order.
        auto pickWord = [&phys](sim::Rng &rng) -> uint64_t {
            auto addrs = phys.wordAddrs();
            return addrs.empty()
                       ? UINT64_MAX
                       : addrs[rng.below(addrs.size())];
        };
        if (fc.rate[unsigned(FaultSite::MemDataBit)] > 0) {
            inj.setTickTarget(
                FaultSite::MemDataBit, [&phys, pickWord](auto &rng) {
                    const uint64_t a = pickWord(rng);
                    return a != UINT64_MAX &&
                           phys.flipStoredBit(a,
                                              unsigned(rng.below(64)));
                });
        }
        if (fc.rate[unsigned(FaultSite::MemTagBit)] > 0) {
            inj.setTickTarget(
                FaultSite::MemTagBit, [&phys, pickWord](auto &rng) {
                    const uint64_t a = pickWord(rng);
                    return a != UINT64_MAX && phys.flipStoredBit(a, 64);
                });
        }
        if (fc.rate[unsigned(FaultSite::MemPermField)] > 0) {
            inj.setTickTarget(
                FaultSite::MemPermField, [&phys](auto &rng) {
                    // Strike only stored capabilities: a random bit
                    // of the 10-bit perm/length field (bits 54..63).
                    auto caps = phys.taggedWordAddrs();
                    if (caps.empty())
                        return false;
                    const uint64_t a = caps[rng.below(caps.size())];
                    return phys.flipStoredBit(
                        a, unsigned(54 + rng.below(10)));
                });
        }
        if (fc.rate[unsigned(FaultSite::CacheLineBurst)] > 0) {
            const uint64_t maxBits =
                fc.burstMaxBits ? fc.burstMaxBits : 1;
            inj.setTickTarget(
                FaultSite::CacheLineBurst,
                [&phys, pickWord, maxBits](auto &rng) {
                    const uint64_t a = pickWord(rng);
                    if (a == UINT64_MAX)
                        return false;
                    // Multi-bit burst across one 32-byte line; a flip
                    // on a non-resident neighbour strikes nothing.
                    const uint64_t line = a & ~uint64_t(31);
                    const uint64_t n = 1 + rng.below(maxBits);
                    bool struck = false;
                    for (uint64_t i = 0; i < n; ++i)
                        struck |= phys.flipStoredBit(
                            line + 8 * rng.below(4),
                            unsigned(rng.below(65)));
                    return struck;
                });
        }
        mem::Tlb &tlb = ms.tlb();
        if (fc.rate[unsigned(FaultSite::TlbCorrupt)] > 0) {
            inj.setTickTarget(FaultSite::TlbCorrupt,
                              [&tlb](auto &rng) {
                                  return tlb.corruptRandom(rng);
                              });
        }
        if (fc.rate[unsigned(FaultSite::TlbInvalidate)] > 0) {
            inj.setTickTarget(FaultSite::TlbInvalidate,
                              [&tlb](auto &rng) {
                                  return tlb.invalidateRandom(rng);
                              });
        }
    }

    h.machine.run(config_.maxCycles + kRunSlackCycles);

    RunResult r;
    r.cycles = h.machine.cycle();
    if (runSeed) {
        r.injections = inj.injectedTotal();
        inj.disarm();
    }

    bool faulted = false;
    for (const isa::Thread &t : h.machine.threads()) {
        if (t.state() == isa::ThreadState::Faulted)
            faulted = true;
    }
    if (!h.machine.faultLog().empty())
        r.firstFault = h.machine.faultLog().front().fault;

    r.hung = h.machine.watchdogTripped() || !h.machine.allDone();

    const Signature sig = signatureOf(ms);
    r.signature = sig.hash;
    r.eccCorrected = ms.phys().eccCorrected();
    r.eccDetected = ms.phys().eccDetected();
    r.walkTransients = ms.stats().get("walk_transients");

    if (!runSeed) {
        r.outcome = Outcome::Masked;
        return r;
    }

    const uint64_t golden = goldenSignature();
    if (r.hung)
        r.outcome = Outcome::CrashHang;
    else if (faulted || sig.detected)
        r.outcome = Outcome::DetectedFault;
    else if (sig.hash != golden)
        r.outcome = Outcome::Sdc;
    else if (r.eccCorrected > 0 || r.walkTransients > 0)
        r.outcome = Outcome::Corrected;
    else
        r.outcome = Outcome::Masked;
    return r;
}

} // namespace gp::fault
