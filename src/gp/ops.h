/**
 * @file
 * The guarded-pointer operation set (paper §2.2).
 *
 * These functions model the checking hardware exactly: one permission
 * decoder, one masked comparator for bounds (Fig. 2), and a small
 * amount of random logic. Each returns a Result whose fault, when
 * non-None, the ISA layer delivers as an architectural exception.
 *
 * Privilege is not checked here: SETPTR is privileged at the ISA level
 * (only reachable with an execute-privileged instruction pointer), and
 * everything else is unprivileged by design.
 */

#ifndef GP_GP_OPS_H
#define GP_GP_OPS_H

#include "gp/fault.h"
#include "gp/pointer.h"
#include "gp/word.h"

namespace gp {

/** Kinds of memory access subject to permission checking. */
enum class Access : uint8_t
{
    Load,
    Store,
    InstFetch,
};

/**
 * LEA: derive ptr + delta, faulting if the result leaves the segment.
 *
 * The bounds check is the masked comparator of §4.1: fault iff any bit
 * of the fixed (segment) portion of the address changed. Enter and key
 * pointers are immutable and fault immediately.
 */
Result<Word> lea(Word ptr, int64_t delta);

/**
 * LEAB: derive segment_base + delta. Equivalent to rewinding the
 * pointer to its base before the add; same checks as lea().
 */
Result<Word> leab(Word ptr, int64_t delta);

/**
 * RESTRICT: replace the permission field with target, allowed only when
 * target's rights are a strict subset of the pointer's rights. Enter
 * and key pointers may not be modified at all.
 */
Result<Word> restrictPerm(Word ptr, Perm target);

/**
 * SUBSEG: replace the length field with new_len_log2, allowed only when
 * it is strictly smaller than the current length. The new segment is
 * the aligned 2^new_len_log2 region containing the current address.
 */
Result<Word> subseg(Word ptr, uint64_t new_len_log2);

/**
 * SETPTR: turn raw integer bits into a tagged pointer. This is the one
 * privileged operation; callers (the ISA layer) must verify privilege
 * before invoking it. No validation is performed — privileged code may
 * create any pointer, as in the paper.
 */
Word setptr(uint64_t bits);

/** ISPOINTER: @return 1 if the word's tag bit is set, else 0. */
uint64_t ispointer(Word w);

/**
 * Pointer-to-integer cast (§2.2): @return the offset of the pointer
 * within its segment as an untagged integer. Implemented in real code
 * as LEAB + SUB; provided here as the fused sequence.
 */
Result<Word> ptrToInt(Word ptr);

/**
 * Integer-to-pointer cast (§2.2): rebase an integer offset into the
 * segment of an existing pointer (LEAB with a dynamic offset). Faults
 * if the offset does not fit in the segment.
 */
Result<Word> intToPtr(Word seg_ptr, uint64_t offset);

/**
 * Check that a memory access of size_bytes at the pointer's address is
 * permitted: tag set, defined permission, rights allow the access kind,
 * naturally aligned, and the full range inside the segment.
 *
 * This is the entire pre-issue check of §2.2 — note it never consults
 * any table.
 */
Fault checkAccess(Word ptr, Access kind, unsigned size_bytes);

/**
 * Fused LEA + access check: derive ptr + delta and verify the
 * access in one pass over a single permission decode. Fault order,
 * fault kinds, and trace events are identical to the split
 * sequence `lea(ptr, delta)` followed by
 * `checkAccess(result, kind, size_bytes)` — a passing access skips
 * the redundant second decode, which is legal because withAddr()
 * preserves every non-address field. delta == 0 degenerates to checkAccess alone
 * (matching the interpreter, which never runs LEA for a zero
 * displacement).
 */
Result<Word> leaCheckAccess(Word ptr, int64_t delta, Access kind,
                            unsigned size_bytes);

/**
 * leaCheckAccess() for a caller whose memory port runs the access
 * check's fault path: the LEA half traces and faults exactly like
 * lea(). Then @p checked tells whether the access check passes. If
 * it does, the port may skip it. If it does not, nothing is traced
 * for it: the caller runs the access with the port's check, which
 * raises and traces the fault as the split sequence would.
 */
Result<Word> leaForAccess(Word ptr, int64_t delta, Access kind,
                          unsigned size_bytes, bool &checked);

/**
 * Unchecked fast paths for statically-proven pointer operations
 * (gpsim --elide-checks=verified; see docs/VERIFIER.md "Check
 * elision"). Each produces a result bit-identical to the
 * corresponding checked operation on its non-faulting path; calling
 * one where the checked operation would fault is a soundness bug —
 * the verifier's kElideNeverFaults verdict is the proof obligation
 * that makes the call legal. The machine's elide counters account
 * for the skipped work.
 */
Word leaUnchecked(Word ptr, int64_t delta);
Word leabUnchecked(Word ptr, int64_t delta);
Word restrictUnchecked(Word ptr, Perm target);
Word subsegUnchecked(Word ptr, uint64_t new_len_log2);
Word ptrToIntUnchecked(Word ptr);
Word intToPtrUnchecked(Word seg_ptr, uint64_t offset);

/**
 * Convert an enter pointer to the corresponding execute pointer, as
 * performed by the jump datapath on protected entry (§2.1).
 */
Result<Word> enterToExecute(Word ptr);

/**
 * Full jump-target evaluation: given the destination word and whether
 * the thread is currently privileged, @return the new instruction
 * pointer. Enter pointers convert to execute pointers; jumping directly
 * to an execute-privileged pointer from user mode is a privilege
 * violation (privilege is only entered via enter-privileged gateways,
 * §2.2 "Pointer Creation").
 */
Result<Word> jumpTarget(Word dest, bool privileged);

/** @return true when the given IP word confers privileged mode. */
bool ipPrivileged(Word ip);

} // namespace gp

#endif // GP_GP_OPS_H
