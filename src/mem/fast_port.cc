#include "mem/fast_port.h"

namespace gp::mem {

MemAccess
FastPort::access(Word ptr, gp::Access kind, unsigned size, uint64_t now,
                 Word value, bool elide_check)
{
    MemAccess acc;
    acc.startCycle = now;
    acc.completeCycle = now;
    // Same pre-issue pointer check as the timed path's timedAccess(),
    // with the same elision contract (verifier and IP proofs).
    if (!elide_check) {
        acc.fault = gp::checkAccess(ptr, kind, size);
        if (acc.fault != Fault::None)
            return acc;
    }
    // Functional translation with demand allocation — identical
    // mapping behaviour to the timed miss path, including the
    // UnmappedAddress fault for revoked (unmapped + blocked) pages.
    auto pa = mem_.translateAddr(ptr.addr());
    if (!pa) {
        acc.fault = Fault::UnmappedAddress;
        return acc;
    }
    // The same tagged-data step as every timed port, ECC included.
    const CheckedWord cw =
        mem_.phys().access(kind == gp::Access::Store, *pa, size, value);
    acc.data = cw.word;
    if (cw.status == EccStatus::Detected)
        acc.fault = Fault::MemoryIntegrity;
    return acc;
}

void
FastPort::portPoke(uint64_t vaddr, Word w)
{
    mem_.pokeWord(vaddr, w);
}

Word
FastPort::portPeek(uint64_t vaddr)
{
    return mem_.peekWord(vaddr);
}

} // namespace gp::mem
