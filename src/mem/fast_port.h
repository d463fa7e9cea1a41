/**
 * @file
 * Functional-only memory port for gpsim --fast.
 *
 * Wraps a MemorySystem's functional substrate (page table + tagged
 * physical memory) and answers every access in zero simulated cycles:
 * no bank arbitration, no cache or TLB state, no external-port
 * occupancy. Architectural behaviour — guarded-pointer checks, fault
 * kinds, translation (including demand allocation and revocation via
 * unmapRange), load/store data semantics, tag propagation — is
 * byte-identical to the timed path; only timing disappears. This is
 * the --fast firewall: the mode exists for fault-free functional
 * campaigns and the differential harness, and must never feed a
 * timing bench or a blessed deterministic signature
 * (docs/ARCHITECTURE.md "Dispatch").
 *
 * Deliberately unsupported (the Machine fast-mode ctor enforces):
 * ECC modes (their detection behaviour is timing-path state) and an
 * armed FaultInjector (campaign draws are cycle-ordered).
 */

#ifndef GP_MEM_FAST_PORT_H
#define GP_MEM_FAST_PORT_H

#include "mem/memory_port.h"
#include "mem/memory_system.h"

namespace gp::mem {

/** Zero-latency functional MemoryPort over a MemorySystem's memory. */
class FastPort : public MemoryPort
{
  public:
    explicit FastPort(MemorySystem &mem) : mem_(mem) {}

    MemAccess portLoad(Word ptr, unsigned size, uint64_t now,
                       bool elide_check = false) override;
    MemAccess portStore(Word ptr, Word value, unsigned size,
                        uint64_t now,
                        bool elide_check = false) override;
    MemAccess portFetch(Word ip, uint64_t now,
                        bool elide_check = false) override;
    void portPoke(uint64_t vaddr, Word w) override;
    Word portPeek(uint64_t vaddr) override;

  private:
    /** Check + translate common head; returns false after recording
     * the fault on @p acc. On success *paddr is the physical byte. */
    bool resolve(Word ptr, gp::Access kind, unsigned size,
                 bool elide_check, MemAccess &acc, uint64_t *paddr);

    MemorySystem &mem_;
};

} // namespace gp::mem

#endif // GP_MEM_FAST_PORT_H
