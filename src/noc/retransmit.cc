#include "noc/retransmit.h"

#include <algorithm>

#include "sim/faultinject.h"
#include "sim/profile.h"
#include "sim/trace.h"

namespace gp::noc {

using sim::FaultInjector;
using sim::FaultSite;

Retransmitter::Retransmitter(Mesh &mesh, const RetransConfig &config,
                             const std::string &statName)
    : mesh_(mesh), cfg_(config), stats_(statName)
{
    // Cache the stat handles once; transfer() runs under every NoC
    // memory reference (docs/OBSERVABILITY.md).
    statRawDrops_ = &stats_.counter("raw_drops");
    statRawCorruptions_ = &stats_.counter("raw_corruptions");
    statRawDuplicates_ = &stats_.counter("raw_duplicates");
    statRetransmissions_ = &stats_.counter("retransmissions");
    statCrcDiscards_ = &stats_.counter("crc_discards");
    statDupSuppressed_ = &stats_.counter("duplicates_suppressed");
    statAcks_ = &stats_.counter("acks");
    statAckLosses_ = &stats_.counter("ack_losses");
    statAbandoned_ = &stats_.counter("abandoned");
    statUnreachable_ = &stats_.counter("unreachable");
}

uint64_t
Retransmitter::timeoutFor(unsigned attempt) const
{
    // Exponential backoff, capped so a long campaign cannot overflow.
    const unsigned shift = std::min(attempt, 8u);
    return cfg_.timeout << shift;
}

Delivery
Retransmitter::transfer(unsigned from, unsigned to, uint64_t now,
                        unsigned flits)
{
    // Fast path: bit-identical to the unprotected baseline. A
    // degraded fabric (failed nodes/links — possible even with the
    // injector disarmed, e.g. tests failing hardware directly) must
    // take the fault-aware path so dead routes are noticed.
    if (!cfg_.enabled && !FaultInjector::armed() && !mesh_.degraded())
        return Delivery{true, false, mesh_.send(from, to, now, flits),
                        1};
    return cfg_.enabled ? reliableTransfer(from, to, now, flits)
                        : rawTransfer(from, to, now, flits);
}

Delivery
Retransmitter::rawTransfer(unsigned from, unsigned to, uint64_t now,
                           unsigned flits)
{
    auto &inj = FaultInjector::instance();

    uint64_t extra = 0;
    if (inj.fire(FaultSite::NocDelay))
        extra = inj.drawBelow(FaultSite::NocDelay,
                              inj.config().nocDelayMax) +
                1;

    if (inj.fire(FaultSite::NocDrop)) {
        // The message vanishes; no protocol exists to notice.
        (*statRawDrops_)++;
        GP_TRACE(NoC, now, from, "drop", "dst=%u flits=%u", to,
                 flits);
        return Delivery{false, false, now, 1};
    }

    Delivery d;
    d.delivered = true;
    d.corrupted = inj.fire(FaultSite::NocCorrupt);
    if (d.corrupted) {
        (*statRawCorruptions_)++;
        GP_TRACE(NoC, now, from, "corrupt", "dst=%u", to);
    }

    if (inj.fire(FaultSite::NocDuplicate)) {
        // A second copy traverses (and occupies) the same route.
        (*statRawDuplicates_)++;
        mesh_.trySend(from, to, now, flits);
    }

    const Mesh::SendOutcome out = mesh_.trySend(from, to, now, flits);
    if (!out.delivered) {
        // No surviving route and no protocol to retry: the message
        // dies at the network interface. Unlike a drop the sender's
        // NI *knows* — the failure is typed, not silent.
        (*statUnreachable_)++;
        GP_TRACE(NoC, now, from, "unreachable", "dst=%u", to);
        return Delivery{false, false, now, 1, true};
    }
    d.cycle = out.cycle + extra;
    return d;
}

Delivery
Retransmitter::reliableTransfer(unsigned from, unsigned to,
                                uint64_t now, unsigned flits)
{
    auto &inj = FaultInjector::instance();
    uint64_t t = now;
    bool sawUnreachable = false;
    for (unsigned attempt = 1; attempt <= cfg_.maxAttempts;
         ++attempt) {
        const uint64_t attemptStart = t;
        // Every lost attempt ends the same way: the sender times out
        // (exponential backoff) and resends.
        auto retry = [&](const char *why) {
            (*statRetransmissions_)++;
            GP_TRACE(NoC, attemptStart, from, why, "dst=%u attempt=%u",
                     to, attempt);
            t = attemptStart + timeoutFor(attempt - 1);
            if (sim::Profiler::armed())
                sim::Profiler::instance().accSeg(
                    sim::ProfComp::Retransmit, t - attemptStart);
        };

        uint64_t extra = 0;
        if (FaultInjector::armed() &&
            inj.fire(FaultSite::NocDelay))
            extra = inj.drawBelow(FaultSite::NocDelay,
                                  inj.config().nocDelayMax) +
                    1;

        // Data message loss: either a genuine drop or a CRC-detected
        // corruption (the receiver discards the mangled copy).
        if (FaultInjector::armed() && inj.fire(FaultSite::NocDrop)) {
            retry("retry-drop");
            continue;
        }
        if (FaultInjector::armed() &&
            inj.fire(FaultSite::NocCorrupt)) {
            (*statCrcDiscards_)++;
            retry("retry-crc");
            continue;
        }

        // No surviving route to the destination: the data message
        // dies in the fabric and no ack ever comes back, so the
        // sender burns the full timeout exactly as for a drop. The
        // end-to-end timeout/backoff/bounded-retry sequence is what
        // converts a dead home into a *typed* failure.
        const Mesh::SendOutcome data =
            mesh_.trySend(from, to, attemptStart, flits);
        if (!data.delivered) {
            sawUnreachable = true;
            retry("retry-unreachable");
            continue;
        }
        const uint64_t dataArrive = data.cycle + extra;

        // Duplicate in flight: receiver's sequence check drops it.
        if (FaultInjector::armed() &&
            inj.fire(FaultSite::NocDuplicate)) {
            (*statDupSuppressed_)++;
            mesh_.trySend(from, to, attemptStart, flits);
        }

        // Positive ack back to the sender, on the same mesh. An ack
        // with no surviving return route behaves exactly like a lost
        // ack: the sender times out and resends, and the receiver
        // suppresses the duplicate data and re-acks.
        (*statAcks_)++;
        const Mesh::SendOutcome ack =
            mesh_.trySend(to, from, dataArrive, cfg_.ackFlits);
        if (!ack.delivered) {
            sawUnreachable = true;
            (*statAckLosses_)++;
            (*statDupSuppressed_)++;
            retry("retry-ack-unreachable");
            continue;
        }
        // A lost or mangled ack: the same extra data round.
        if (FaultInjector::armed() &&
            (inj.fire(FaultSite::NocDrop) ||
             inj.fire(FaultSite::NocCorrupt))) {
            (*statAckLosses_)++;
            (*statDupSuppressed_)++;
            retry("retry-ack");
            continue;
        }

        return Delivery{true, false, dataArrive, attempt};
    }

    // Retry budget exhausted: a *detected* delivery failure — the
    // caller surfaces it as a memory-integrity fault (or, when the
    // cause was a dead route, the typed NodeUnreachable) — never
    // silent.
    (*statAbandoned_)++;
    if (sawUnreachable)
        (*statUnreachable_)++;
    GP_TRACE(NoC, now, from, "abandoned", "dst=%u attempts=%u", to,
             cfg_.maxAttempts);
    return Delivery{false, false, t, cfg_.maxAttempts, sawUnreachable};
}

} // namespace gp::noc
