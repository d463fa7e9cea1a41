/**
 * @file
 * Structured view over a tagged word interpreted as a guarded pointer,
 * plus validated construction helpers.
 *
 * Because segments are power-of-two sized and aligned on their length
 * (paper §2), every geometric property of the segment — base, limit,
 * offset — is derivable from the pointer alone with mask operations,
 * which is exactly what makes table-free capability checking possible.
 */

#ifndef GP_GP_POINTER_H
#define GP_GP_POINTER_H

#include <string>

#include "gp/fault.h"
#include "gp/permission.h"
#include "gp/word.h"

namespace gp {

/**
 * @return the offset-field mask for a segment of length 2^len bytes:
 * ones over the variable (offset) bits, zeros over the fixed bits.
 * len is clamped to kAddrBits.
 */
constexpr uint64_t
offsetMask(uint64_t len)
{
    if (len >= kAddrBits)
        return kAddrMask;
    return (uint64_t(1) << len) - 1;
}

/** @return the fixed (segment-identifying) bit mask for length len. */
constexpr uint64_t
segmentMask(uint64_t len)
{
    return kAddrMask & ~offsetMask(len);
}

/**
 * Read-only structured view of a guarded pointer. Construct via
 * decode(); the view is only meaningful for tagged words.
 */
class PointerView
{
  public:
    /** Default view of an untagged zero; only used as the placeholder
     * value inside a faulting Result. */
    constexpr PointerView() = default;

    explicit constexpr PointerView(Word w) : word_(w) {}

    constexpr Perm perm() const { return Perm(word_.permBits()); }
    constexpr uint64_t lenLog2() const { return word_.lenLog2(); }
    constexpr uint64_t addr() const { return word_.addr(); }

    /** @return segment length in bytes (saturates at 2^54). */
    constexpr uint64_t
    segmentBytes() const
    {
        const uint64_t len = lenLog2();
        return len >= kAddrBits ? kAddressSpaceBytes
                                : uint64_t(1) << len;
    }

    /** @return the aligned base address of the segment. */
    constexpr uint64_t
    segmentBase() const
    {
        return addr() & segmentMask(lenLog2());
    }

    /** @return one past the last byte of the segment. */
    constexpr uint64_t
    segmentLimit() const
    {
        return segmentBase() + segmentBytes();
    }

    /** @return the byte offset of the address within its segment. */
    constexpr uint64_t
    offset() const
    {
        return addr() & offsetMask(lenLog2());
    }

    /** @return true if a (54-bit) address falls inside this segment. */
    constexpr bool
    contains(uint64_t a) const
    {
        return (a & segmentMask(lenLog2())) == segmentBase() &&
               a <= kAddrMask;
    }

  private:
    Word word_;
};

/**
 * Build a guarded pointer from fields, validating each. This is the
 * simulator-level constructor used by privileged code and tests; it is
 * *not* reachable from unprivileged simulated instructions.
 *
 * @param perm  permission type (must be a defined encoding)
 * @param len_log2 log2 of the segment length in bytes (0..54)
 * @param addr  54-bit virtual byte address the pointer designates
 */
Result<Word> makePointer(Perm perm, uint64_t len_log2, uint64_t addr);

/**
 * Interpret a word as a guarded pointer, checking the tag bit and the
 * permission encoding. Returns a fault for untagged words or invalid
 * permission encodings.
 *
 * Inline on purpose: this is the decode stage of every pointer
 * operation (LEA on each IP advance, the access check on each load,
 * store and fetch), so it runs several times per simulated
 * instruction and must compile down to a couple of bit tests at each
 * call site.
 */
inline Result<PointerView>
decode(Word w)
{
    if (!w.isPointer())
        return Result<PointerView>::fail(Fault::NotAPointer);
    if (!permValid(w.permBits()))
        return Result<PointerView>::fail(Fault::InvalidPermission);
    return Result<PointerView>::ok(PointerView(w));
}

/** @return a human-readable rendering, e.g. for example programs. */
std::string toString(Word w);

} // namespace gp

#endif // GP_GP_POINTER_H
