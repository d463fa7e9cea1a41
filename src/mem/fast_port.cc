#include "mem/fast_port.h"

namespace gp::mem {

bool
FastPort::resolve(Word ptr, gp::Access kind, unsigned size,
                  bool elide_check, MemAccess &acc, uint64_t *paddr)
{
    // Same pre-issue pointer check as the timed path's timedAccess(),
    // with the same elision contract (verifier and IP proofs).
    if (!elide_check) {
        acc.fault = gp::checkAccess(ptr, kind, size);
        if (acc.fault != Fault::None)
            return false;
    }
    // Functional translation with demand allocation — identical
    // mapping behaviour to the timed miss path, including the
    // UnmappedAddress fault for revoked (unmapped + blocked) pages.
    auto pa = mem_.pageTable().translateAddr(ptr.addr());
    if (!pa) {
        acc.fault = Fault::UnmappedAddress;
        return false;
    }
    *paddr = *pa;
    return true;
}

MemAccess
FastPort::portLoad(Word ptr, unsigned size, uint64_t now,
                   bool elide_check)
{
    MemAccess acc;
    acc.startCycle = now;
    acc.completeCycle = now;
    uint64_t paddr = 0;
    if (!resolve(ptr, gp::Access::Load, size, elide_check, acc,
                 &paddr))
        return acc;
    if (size == 8) {
        acc.data = mem_.phys().readWord(paddr);
    } else {
        // Sub-word extraction mirrors MemorySystem::load exactly:
        // read the containing word, shift, mask, and drop the tag.
        const Word w = mem_.phys().readWord(paddr & ~uint64_t(7));
        const unsigned shift = unsigned(paddr & 7) * 8;
        const uint64_t mask = (uint64_t(1) << (size * 8)) - 1;
        acc.data = Word::fromInt((w.bits() >> shift) & mask);
    }
    return acc;
}

MemAccess
FastPort::portStore(Word ptr, Word value, unsigned size, uint64_t now,
                    bool elide_check)
{
    MemAccess acc;
    acc.startCycle = now;
    acc.completeCycle = now;
    uint64_t paddr = 0;
    if (!resolve(ptr, gp::Access::Store, size, elide_check, acc,
                 &paddr))
        return acc;
    if (size == 8)
        mem_.phys().writeWord(paddr, value);
    else
        mem_.phys().writeBytes(paddr, size, value.bits());
    return acc;
}

MemAccess
FastPort::portFetch(Word ip, uint64_t now, bool elide_check)
{
    MemAccess acc;
    acc.startCycle = now;
    acc.completeCycle = now;
    uint64_t paddr = 0;
    if (!resolve(ip, gp::Access::InstFetch, 8, elide_check, acc,
                 &paddr))
        return acc;
    acc.data = mem_.phys().readWord(paddr);
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
