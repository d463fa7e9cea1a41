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
 * Data goes through the same TaggedMemory::access() step as the
 * timed ports, so ECC modes behave identically (corrections are
 * counted by the TaggedMemory, a detected error faults
 * MemoryIntegrity). Deliberately unsupported (the Machine fast-mode
 * ctor enforces): an armed FaultInjector (campaign draws are
 * cycle-ordered).
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

    MemAccess
    portLoad(Word ptr, unsigned size, uint64_t now,
             bool elide_check = false) override
    {
        return access(ptr, gp::Access::Load, size, now, Word{},
                      elide_check);
    }
    MemAccess
    portStore(Word ptr, Word value, unsigned size, uint64_t now,
              bool elide_check = false) override
    {
        return access(ptr, gp::Access::Store, size, now, value,
                      elide_check);
    }
    MemAccess
    portFetch(Word ip, uint64_t now, bool elide_check = false) override
    {
        return access(ip, gp::Access::InstFetch, 8, now, Word{},
                      elide_check);
    }
    void portPoke(uint64_t vaddr, Word w) override;
    Word portPeek(uint64_t vaddr) override;

  private:
    /** Pointer check, functional translation, tagged-data step. */
    MemAccess access(Word ptr, gp::Access kind, unsigned size,
                     uint64_t now, Word value, bool elide_check);

    MemorySystem &mem_;
};

} // namespace gp::mem

#endif // GP_MEM_FAST_PORT_H
