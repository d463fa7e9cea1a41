/**
 * @file
 * Abstract memory port: the interface a processor needs from its
 * memory system.
 *
 * Implemented by the single-node MemorySystem and by the
 * multicomputer's per-node NodeMemory, so the same Machine (and the
 * same programs) run unmodified on either — which is itself the
 * paper's §3 point: the processor side of a guarded-pointer machine
 * is oblivious to where in the global space its pointers land.
 */

#ifndef GP_MEM_MEMORY_PORT_H
#define GP_MEM_MEMORY_PORT_H

#include <cstdint>

#include "gp/word.h"

namespace gp::mem {

struct MemAccess;

/** Processor-facing memory interface. */
class MemoryPort
{
  public:
    virtual ~MemoryPort() = default;

    /**
     * Timed load through a guarded pointer. elide_check skips the
     * guarded-pointer access check (rights/alignment/bounds) — legal
     * only under a verifier proof that the check cannot fire
     * (docs/VERIFIER.md "Check elision"); translation
     * and integrity checking still run.
     */
    virtual MemAccess portLoad(Word ptr, unsigned size, uint64_t now,
                               bool elide_check = false) = 0;

    /** Timed store through a guarded pointer (elide_check as above). */
    virtual MemAccess portStore(Word ptr, Word value, unsigned size,
                                uint64_t now,
                                bool elide_check = false) = 0;

    /**
     * Timed instruction fetch. elide_check skips the per-fetch
     * guarded-pointer check: legal only when the caller has already
     * proven execute rights and bounds for the fetch address (the
     * machine's per-thread IP proof; see docs/ARCHITECTURE.md
     * "Dispatch"). Timing, translation, and fault behaviour are
     * unchanged.
     */
    virtual MemAccess portFetch(Word ip, uint64_t now,
                                bool elide_check = false) = 0;

    /** Untimed functional word write (loader use). */
    virtual void portPoke(uint64_t vaddr, Word w) = 0;

    /** Untimed functional word read. */
    virtual Word portPeek(uint64_t vaddr) = 0;
};

} // namespace gp::mem

#endif // GP_MEM_MEMORY_PORT_H
