/**
 * @file
 * Link-level reliable delivery for the 3-D mesh (ISSUE 4).
 *
 * The baseline mesh model assumes perfect links: every message sent
 * arrives intact, exactly once. Under the fault campaign that
 * assumption breaks — messages can be dropped, duplicated, delayed,
 * or have payload bits flipped in flight. A dropped memory request
 * hangs the issuing thread forever; a flipped bit in a cache-line
 * reply is a silent-data-corruption (and, for a tagged word, a
 * capability-forgery) channel.
 *
 * The hardening knob is a classic link-level retransmission
 * protocol, cost-modelled through the existing mesh timing:
 *
 *  - per-(src,dst) sequence numbers on every message;
 *  - a CRC per message, so in-flight payload corruption is detected
 *    and the copy discarded (equivalent to a drop);
 *  - positive acks (an ackFlits-sized message back over the mesh,
 *    occupying links like any other traffic);
 *  - sender timeout with exponential backoff, bounded attempts;
 *  - receiver duplicate suppression by sequence number.
 *
 * With the protocol disabled and no campaign armed, transfer() is
 * exactly Mesh::send() — bit-identical timing, zero extra state.
 */

#ifndef GP_NOC_RETRANSMIT_H
#define GP_NOC_RETRANSMIT_H

#include <cstdint>
#include <string>

#include "noc/mesh.h"
#include "sim/stats.h"

namespace gp::noc {

/** Link-level protocol configuration. */
struct RetransConfig
{
    /** Master enable; false = baseline unprotected links. */
    bool enabled = false;
    /** Base sender timeout before the first retransmission. */
    uint64_t timeout = 64;
    /** Total send attempts before the transfer is abandoned. */
    unsigned maxAttempts = 5;
    /** Size of an ack message in flits. */
    unsigned ackFlits = 1;
};

/** Outcome of one end-to-end transfer attempt sequence. */
struct Delivery
{
    /** Payload reached the destination (possibly after retries). */
    bool delivered = false;
    /**
     * Payload arrived with flipped bits (only possible with the
     * protocol disabled — a CRC-protected link discards instead).
     * The caller decides what a corrupted message means: a mangled
     * request header is a loss, a mangled reply is silent data
     * corruption.
     */
    bool corrupted = false;
    /** Delivery cycle (or the give-up cycle when !delivered). */
    uint64_t cycle = 0;
    /** Data-message send attempts consumed. */
    unsigned attempts = 1;
    /**
     * At least one attempt found no surviving route (dead home node,
     * or the failure set partitioned the pair). Set together with
     * !delivered once the retry budget is exhausted: the caller
     * surfaces it as the typed NodeUnreachable fault rather than the
     * generic MemoryIntegrity delivery failure.
     */
    bool unreachable = false;
};

/**
 * Sender-side protocol engine bound to one mesh. Sequence numbers are
 * modelled by their effect only (the receiver suppresses duplicates),
 * so the engine keeps no per-channel state and one engine may serve
 * any number of nodes (NodeMemory instances share the one owned by
 * their campaign wiring, or default-construct a disabled one). The
 * counter accessors read the engine's stat group.
 */
class Retransmitter
{
  public:
    explicit Retransmitter(Mesh &mesh,
                           const RetransConfig &config = {},
                           const std::string &statName = "retrans");

    /**
     * Move one message of @p flits flits from @p from to @p to
     * starting at cycle @p now, under whatever fault campaign is
     * armed. Fast path (protocol disabled, injector disarmed) is
     * exactly Mesh::send.
     */
    Delivery transfer(unsigned from, unsigned to, uint64_t now,
                      unsigned flits);

    const RetransConfig &config() const { return cfg_; }
    sim::StatGroup &stats() { return stats_; }

    uint64_t retransmissions() const { return statRetransmissions_->value(); }
    uint64_t
    duplicatesSuppressed() const
    {
        return statDupSuppressed_->value();
    }
    uint64_t crcDiscards() const { return statCrcDiscards_->value(); }
    uint64_t abandoned() const { return statAbandoned_->value(); }
    /** Transfers that failed with no surviving route (subset of the
     * raw failures / abandoned transfers). */
    uint64_t unreachableFailures() const { return statUnreachable_->value(); }

    /** Give-up cycle of a transfer whose every attempt timed out:
     * now + the full backoff sequence. Exposed so tests can pin the
     * exhaustion boundary exactly. */
    uint64_t
    exhaustionCycle(uint64_t now) const
    {
        uint64_t t = now;
        for (unsigned a = 0; a < cfg_.maxAttempts; ++a)
            t += timeoutFor(a);
        return t;
    }

  private:
    /** Protocol-off transfer: raw link, faults land on the caller. */
    Delivery rawTransfer(unsigned from, unsigned to, uint64_t now,
                         unsigned flits);

    /** Protocol-on transfer: retries until acked or exhausted. */
    Delivery reliableTransfer(unsigned from, unsigned to,
                              uint64_t now, unsigned flits);

    uint64_t timeoutFor(unsigned attempt) const;

    Mesh &mesh_;
    RetransConfig cfg_;
    sim::StatGroup stats_;

    // Cached stat handles: transfer() sits under every NoC memory
    // reference, so the protocol paths pay plain increments, never
    // string-keyed map lookups (docs/OBSERVABILITY.md).
    sim::Counter *statRawDrops_ = nullptr;
    sim::Counter *statRawCorruptions_ = nullptr;
    sim::Counter *statRawDuplicates_ = nullptr;
    sim::Counter *statRetransmissions_ = nullptr;
    sim::Counter *statCrcDiscards_ = nullptr;
    sim::Counter *statDupSuppressed_ = nullptr;
    sim::Counter *statAcks_ = nullptr;
    sim::Counter *statAckLosses_ = nullptr;
    sim::Counter *statAbandoned_ = nullptr;
    sim::Counter *statUnreachable_ = nullptr;
};

} // namespace gp::noc

#endif // GP_NOC_RETRANSMIT_H
