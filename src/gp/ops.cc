#include "gp/ops.h"

#include "sim/trace.h"

namespace gp {

namespace {

/**
 * Shared head of every pointer-mutating operation: decode and confirm
 * the pointer is of a mutable type (read-only, read/write, execute).
 */
Result<PointerView>
decodeMutable(Word ptr)
{
    auto dec = decode(ptr);
    if (!dec)
        return dec;
    if (!addressMutable(dec.value.perm()))
        return Result<PointerView>::fail(Fault::Immutable);
    return dec;
}

/**
 * The masked comparator of Fig. 2 / §4.1: fault iff old and new address
 * differ in any fixed (segment) bit.
 */
Fault
boundsCheck(uint64_t old_addr, uint64_t new_addr, uint64_t len)
{
    const uint64_t mask = segmentMask(len);
    return ((old_addr ^ new_addr) & mask) ? Fault::BoundsViolation
                                          : Fault::None;
}

/** Rebuild a pointer word with a new 54-bit address field. */
Word
withAddr(Word ptr, uint64_t new_addr)
{
    const uint64_t bits = (ptr.bits() & ~kAddrMask) |
                          (new_addr & kAddrMask);
    return Word::fromRawPointerBits(bits);
}

} // namespace

Result<Word>
lea(Word ptr, int64_t delta)
{
    auto dec = decodeMutable(ptr);
    if (!dec)
        return Result<Word>::fail(dec.fault);

    const uint64_t old_addr = dec.value.addr();
    const uint64_t new_addr =
        (old_addr + static_cast<uint64_t>(delta)) & kAddrMask;

    if (Fault f = boundsCheck(old_addr, new_addr, dec.value.lenLog2());
        f != Fault::None) {
        GP_TRACE(Fault, sim::TraceManager::instance().cycle(), 0,
                 "bounds-violation",
                 "lea seg=[0x%llx,+0x%llx) perm=%s addr=0x%llx "
                 "delta=%lld",
                 (unsigned long long)dec.value.segmentBase(),
                 (unsigned long long)dec.value.segmentBytes(),
                 std::string(permName(dec.value.perm())).c_str(),
                 (unsigned long long)old_addr, (long long)delta);
        return Result<Word>::fail(f);
    }
    return Result<Word>::ok(withAddr(ptr, new_addr));
}

Result<Word>
leab(Word ptr, int64_t delta)
{
    auto dec = decodeMutable(ptr);
    if (!dec)
        return Result<Word>::fail(dec.fault);

    const uint64_t base = dec.value.segmentBase();
    const uint64_t new_addr =
        (base + static_cast<uint64_t>(delta)) & kAddrMask;

    if (Fault f = boundsCheck(base, new_addr, dec.value.lenLog2());
        f != Fault::None) {
        GP_TRACE(Fault, sim::TraceManager::instance().cycle(), 0,
                 "bounds-violation",
                 "leab seg=[0x%llx,+0x%llx) perm=%s delta=%lld",
                 (unsigned long long)base,
                 (unsigned long long)dec.value.segmentBytes(),
                 std::string(permName(dec.value.perm())).c_str(),
                 (long long)delta);
        return Result<Word>::fail(f);
    }
    return Result<Word>::ok(withAddr(ptr, new_addr));
}

Result<Word>
restrictPerm(Word ptr, Perm target)
{
    auto dec = decode(ptr);
    if (!dec)
        return Result<Word>::fail(dec.fault);
    // Enter and key pointers may not be modified in any way (§2.1).
    const Perm cur = dec.value.perm();
    if (cur == Perm::Key || cur == Perm::EnterUser ||
        cur == Perm::EnterPrivileged) {
        return Result<Word>::fail(Fault::Immutable);
    }
    if (!permValid(uint64_t(target)))
        return Result<Word>::fail(
            Fault::InvalidPermission);
    if (!strictSubset(cur, target))
        return Result<Word>::fail(Fault::NotSubset);
    return Result<Word>::ok(restrictUnchecked(ptr, target));
}

Result<Word>
subseg(Word ptr, uint64_t new_len_log2)
{
    auto dec = decode(ptr);
    if (!dec)
        return Result<Word>::fail(dec.fault);
    const Perm cur = dec.value.perm();
    if (cur == Perm::Key || cur == Perm::EnterUser ||
        cur == Perm::EnterPrivileged) {
        return Result<Word>::fail(Fault::Immutable);
    }
    if (new_len_log2 >= dec.value.lenLog2())
        return Result<Word>::fail(Fault::NotSmaller);
    return Result<Word>::ok(subsegUnchecked(ptr, new_len_log2));
}

Word
setptr(uint64_t bits)
{
    return Word::fromRawPointerBits(bits);
}

uint64_t
ispointer(Word w)
{
    return w.isPointer() ? 1 : 0;
}

Result<Word>
ptrToInt(Word ptr)
{
    auto dec = decodeMutable(ptr);
    if (!dec)
        return Result<Word>::fail(dec.fault);
    return Result<Word>::ok(Word::fromInt(dec.value.offset()));
}

Result<Word>
intToPtr(Word seg_ptr, uint64_t offset)
{
    // LEAB with the integer as the offset; the masked comparator
    // faults when the offset does not fit the segment.
    return leab(seg_ptr, static_cast<int64_t>(offset));
}

Word
leaUnchecked(Word ptr, int64_t delta)
{
    const uint64_t new_addr =
        (PointerView(ptr).addr() + static_cast<uint64_t>(delta)) &
        kAddrMask;
    return withAddr(ptr, new_addr);
}

Word
leabUnchecked(Word ptr, int64_t delta)
{
    const uint64_t new_addr =
        (PointerView(ptr).segmentBase() +
         static_cast<uint64_t>(delta)) &
        kAddrMask;
    return withAddr(ptr, new_addr);
}

Word
restrictUnchecked(Word ptr, Perm target)
{
    const uint64_t bits =
        (ptr.bits() & ~(kPermFieldMask << kPermShift)) |
        (uint64_t(target) << kPermShift);
    return Word::fromRawPointerBits(bits);
}

Word
subsegUnchecked(Word ptr, uint64_t new_len_log2)
{
    const uint64_t bits =
        (ptr.bits() & ~(kLenFieldMask << kLenShift)) |
        (new_len_log2 << kLenShift);
    return Word::fromRawPointerBits(bits);
}

Word
ptrToIntUnchecked(Word ptr)
{
    return Word::fromInt(PointerView(ptr).offset());
}

Word
intToPtrUnchecked(Word seg_ptr, uint64_t offset)
{
    return leabUnchecked(seg_ptr, static_cast<int64_t>(offset));
}

namespace {

/** Access-kind mnemonic for trace events. */
const char *
accessName(Access kind)
{
    switch (kind) {
      case Access::Load:
        return "load";
      case Access::Store:
        return "store";
      case Access::InstFetch:
        return "fetch";
    }
    return "?";
}

/**
 * Record an access-check violation, with the faulting pointer's full
 * geometry, for the flight recorder (the capability-violation
 * debugging record).
 */
Fault
accessFault(Fault f, Access kind, const PointerView &v)
{
    GP_TRACE(Fault, sim::TraceManager::instance().cycle(), 0,
             std::string(faultName(f)).c_str(),
             "%s seg=[0x%llx,+0x%llx) perm=%s addr=0x%llx",
             accessName(kind),
             (unsigned long long)v.segmentBase(),
             (unsigned long long)v.segmentBytes(),
             std::string(permName(v.perm())).c_str(),
             (unsigned long long)v.addr());
    return f;
}

/**
 * The access check's decision on an already-decoded pointer: rights
 * for the access kind, natural alignment, and the access fitting in
 * the segment. Traces nothing (see accessFault()).
 */
Fault
accessFaultOf(const PointerView &v, Access kind, unsigned size_bytes)
{
    const uint32_t rights = rightsOf(v.perm());
    uint32_t needed = 0;
    switch (kind) {
      case Access::Load:
        needed = RightRead;
        break;
      case Access::Store:
        needed = RightWrite;
        break;
      case Access::InstFetch:
        needed = RightExecute;
        break;
    }
    if ((rights & needed) != needed)
        return Fault::PermissionDenied;

    if (size_bytes == 0 || (size_bytes & (size_bytes - 1)) != 0 ||
        size_bytes > 8)
        return Fault::Misaligned;
    if (v.addr() & (size_bytes - 1))
        return Fault::Misaligned;

    // Natural alignment plus power-of-two segments means an in-segment
    // start address implies the whole range is in-segment, unless the
    // segment itself is smaller than the access.
    if (v.segmentBytes() < size_bytes)
        return Fault::BoundsViolation;
    return Fault::None;
}

} // namespace

Fault
checkAccess(Word ptr, Access kind, unsigned size_bytes)
{
    auto dec = decode(ptr);
    if (!dec)
        return dec.fault;
    if (Fault f = accessFaultOf(dec.value, kind, size_bytes);
        f != Fault::None)
        return accessFault(f, kind, dec.value);
    return Fault::None;
}

Result<Word>
leaForAccess(Word ptr, int64_t delta, Access kind, unsigned size_bytes,
             bool &checked)
{
    checked = false;
    Word eff = ptr;
    if (delta == 0) {
        // No LEA runs for a zero displacement: only the access check.
        if (!decode(ptr))
            return Result<Word>::ok(ptr); // the caller's check faults
    } else {
        const Result<Word> moved = lea(ptr, delta);
        if (!moved)
            return moved;
        eff = moved.value;
    }

    // The access check. For a nonzero delta lea() already decoded the
    // pointer, and it changes only address bits, so perm/len (and
    // hence rights and segment size) are those already validated.
    checked = accessFaultOf(PointerView(eff), kind, size_bytes) ==
              Fault::None;
    return Result<Word>::ok(eff);
}

Result<Word>
leaCheckAccess(Word ptr, int64_t delta, Access kind,
               unsigned size_bytes)
{
    bool checked = false;
    const Result<Word> r =
        leaForAccess(ptr, delta, kind, size_bytes, checked);
    if (!r || checked)
        return r;
    // The check fails: run it for real, tracing the fault.
    return Result<Word>::fail(checkAccess(r.value, kind, size_bytes));
}

Result<Word>
enterToExecute(Word ptr)
{
    auto dec = decode(ptr);
    if (!dec)
        return Result<Word>::fail(dec.fault);

    Perm target;
    switch (dec.value.perm()) {
      case Perm::EnterUser:
        target = Perm::ExecuteUser;
        break;
      case Perm::EnterPrivileged:
        target = Perm::ExecutePrivileged;
        break;
      default:
        return Result<Word>::fail(Fault::NotEnterPointer);
    }
    return Result<Word>::ok(restrictUnchecked(ptr, target));
}

Result<Word>
jumpTarget(Word dest, bool privileged)
{
    auto dec = decode(dest);
    if (!dec)
        return Result<Word>::fail(dec.fault);

    switch (dec.value.perm()) {
      case Perm::ExecuteUser:
        return Result<Word>::ok(dest);
      case Perm::ExecutePrivileged:
        // Privileged mode is only *entered* through an enter-privileged
        // gateway; a user thread holding a raw execute-privileged
        // pointer may not jump to an arbitrary address inside it.
        if (!privileged)
            return Result<Word>::fail(
                Fault::PrivilegeViolation);
        return Result<Word>::ok(dest);
      case Perm::EnterUser:
      case Perm::EnterPrivileged:
        return enterToExecute(dest);
      default:
        return Result<Word>::fail(Fault::PermissionDenied);
    }
}

bool
ipPrivileged(Word ip)
{
    auto dec = decode(ip);
    return dec && dec.value.perm() == Perm::ExecutePrivileged;
}

} // namespace gp
