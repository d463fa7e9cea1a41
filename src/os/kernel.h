/**
 * @file
 * The minimal privileged runtime ("kernel") of the guarded-pointer
 * machine.
 *
 * The paper's thesis is that almost nothing needs to be privileged:
 * the kernel here only (a) allocates segments and mints their initial
 * pointers — the role SETPTR-bearing boot code plays on real hardware —
 * and (b) assembles/loads programs and protected subsystems. Everything
 * else (sharing, subsystem entry, permission restriction) happens in
 * unprivileged simulated code through pointer operations.
 */

#ifndef GP_OS_KERNEL_H
#define GP_OS_KERNEL_H

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "gp/fault.h"
#include "gp/word.h"
#include "isa/machine.h"
#include "os/segment_manager.h"
#include "sim/stats.h"

namespace gp::os {

/** Kernel-level configuration. */
struct KernelConfig
{
    isa::MachineConfig machine;
};

/** A loaded program's linkage pointers. */
struct ProgramImage
{
    Word execPtr;  //!< execute pointer at the code base
    Word enterPtr; //!< enter pointer at the code base
    uint64_t base = 0;
    uint64_t lenLog2 = 0;
    size_t words = 0;
};

/**
 * A protected subsystem (Fig. 3): a code segment whose leading words
 * are a capability table (pointers to the subsystem's private data),
 * followed by the code. Callers receive only the enter pointer, which
 * targets the first instruction; the subsystem reads its capability
 * table through its own instruction pointer.
 */
struct SubsystemImage
{
    Word enterPtr;   //!< the only pointer callers ever hold
    uint64_t base = 0;
    uint64_t lenLog2 = 0;
    size_t tableWords = 0; //!< capability-table size in words
};

/** The privileged runtime. */
class Kernel
{
  public:
    explicit Kernel(const KernelConfig &config = KernelConfig{});

    isa::Machine &machine() { return machine_; }
    mem::MemorySystem &mem() { return machine_.mem(); }
    SegmentManager &segments() { return segments_; }
    sim::StatGroup &stats() { return stats_; }

    /**
     * Assemble source and load it into a fresh code segment.
     * @param privileged mint execute-/enter-privileged pointers
     */
    Result<ProgramImage> loadAssembly(std::string_view source,
                                      bool privileged = false);

    /**
     * Build a protected subsystem: capability-table words are placed at
     * the segment base, code follows, and the returned enter pointer
     * targets the first instruction. Subsystem code addresses table
     * entry i as segment offset 8*i via GETIP + LEABI (see the Fig. 3
     * example).
     */
    Result<SubsystemImage>
    buildSubsystem(std::string_view source,
                   const std::vector<Word> &table,
                   bool privileged = false);

    /**
     * Start a thread at an execute pointer with initial register
     * values (the caller's protection domain).
     * @return nullptr when every hardware slot is busy.
     */
    isa::Thread *
    spawn(Word exec_ptr,
          const std::vector<std::pair<unsigned, Word>> &regs = {});

  private:
    /** Allocate a code segment, poke words, mint pointers. */
    Result<ProgramImage> loadWords(const std::vector<Word> &words,
                                   bool privileged);

    isa::Machine machine_;
    SegmentManager segments_;
    sim::StatGroup stats_{"kernel"};
};

} // namespace gp::os

#endif // GP_OS_KERNEL_H
