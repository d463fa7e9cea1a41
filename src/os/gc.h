/**
 * @file
 * Virtual-address-space garbage collector (paper §4.3, "Address
 * Garbage Collection").
 *
 * Without enforced indirection, virtual addresses are allocated "for
 * all time", so the system software periodically reclaims unreachable
 * segments. Guarded pointers make this tractable because pointers are
 * self-identifying via the tag bit: the collector recursively scans
 * reachable segments from the root set, following exactly the tagged
 * words.
 *
 * A conservative mode (treating every word whose value lands in a live
 * segment as a potential pointer, as a tagless architecture must) is
 * provided for the C4 experiment, quantifying the precision the tag
 * bit buys.
 */

#ifndef GP_OS_GC_H
#define GP_OS_GC_H

#include <cstdint>
#include <vector>

#include "gp/word.h"
#include "isa/machine.h"
#include "mem/memory_system.h"
#include "os/segment_manager.h"

namespace gp::os {

/** Outcome of one collection. */
struct GcStats
{
    uint64_t segmentsScanned = 0;
    uint64_t wordsScanned = 0;
    uint64_t pointersSeen = 0;   //!< words treated as references
    uint64_t segmentsLive = 0;
    uint64_t segmentsFreed = 0;
    uint64_t bytesFreed = 0;
};

/** Mark-and-sweep collector over the segment manager's segments. */
class AddressSpaceGc
{
  public:
    /** Pointer-identification policy. */
    enum class Mode
    {
        TagAccurate,  //!< follow only tagged words (guarded pointers)
        Conservative, //!< follow any word that decodes into a segment
    };

    AddressSpaceGc(mem::MemorySystem &mem, SegmentManager &segments,
                   Mode mode = Mode::TagAccurate)
        : mem_(mem), segments_(segments), mode_(mode)
    {
    }

    /**
     * Mark from the given roots and free every unmarked segment.
     * Typically the roots are the registers of all live threads plus
     * any pointers the embedding system pins.
     */
    GcStats collect(const std::vector<Word> &roots);

    /**
     * Convenience: roots = every register and IP of every non-idle
     * thread of the machine, plus extra_roots.
     */
    GcStats collectFromMachine(const isa::Machine &machine,
                               const std::vector<Word> &extra_roots = {});

  private:
    /**
     * If the word references a live segment under the current mode,
     * @return that segment's base.
     */
    std::optional<uint64_t> referent(Word w) const;

    mem::MemorySystem &mem_;
    SegmentManager &segments_;
    Mode mode_;
};

} // namespace gp::os

#endif // GP_OS_GC_H
