#include "mem/tagged_memory.h"

#include <algorithm>

#include "sim/log.h"

namespace gp::mem {

namespace {

Word
makeWord(uint64_t bits, bool tag)
{
    return tag ? Word::fromRawPointerBits(bits) : Word::fromInt(bits);
}

} // namespace

void
TaggedMemory::setEccMode(EccMode mode)
{
    ecc_ = mode;
    for (auto &[idx, cell] : store_) {
        cell.check = eccEncode(ecc_, cell.w.bits(), cell.w.isPointer());
        cell.upset = false;
    }
}

CheckedWord
TaggedMemory::decodeUpset(Cell &cell)
{
    uint64_t bits = cell.w.bits();
    bool tag = cell.w.isPointer();
    uint8_t check = cell.check;
    const EccStatus status = eccDecode(ecc_, bits, tag, check);
    if (status == EccStatus::Corrected) {
        // Persistent scrub: repair the stored copy so the same upset
        // is not re-corrected (and cannot combine with a later one
        // into an uncorrectable pair).
        cell.w = makeWord(bits, tag);
        cell.check = check;
        eccCorrected_++;
    } else if (status == EccStatus::Detected) {
        eccDetected_++;
    }
    // A repaired or Ok word is a codeword again. A Detected one stays
    // upset, so every later read re-detects and re-counts it.
    cell.upset = status == EccStatus::Detected;
    return CheckedWord{cell.w, status};
}

CheckedWord
TaggedMemory::loadSubWord(uint64_t addr, unsigned size)
{
    CheckedWord cw = readWordChecked(addr);
    // Zero-extended sub-word; the tag never leaves the word.
    const unsigned shift = (addr & 7) * 8;
    const uint64_t mask = (uint64_t(1) << (size * 8)) - 1;
    cw.word = Word::fromInt((cw.word.bits() >> shift) & mask);
    return cw;
}

void
TaggedMemory::writeSubWord(uint64_t addr, unsigned size, uint64_t value)
{
    const Word old = readWord(addr);
    const unsigned shift = (addr & 7) * 8;
    const uint64_t mask = ((uint64_t(1) << (size * 8)) - 1) << shift;
    const uint64_t bits =
        (old.bits() & ~mask) | ((value << shift) & mask);
    // Sub-word writes always clear the tag: a partially overwritten
    // pointer must not remain a valid capability.
    writeWord(addr, Word::fromInt(bits));
}

bool
TaggedMemory::flipStoredBit(uint64_t addr, unsigned bit)
{
    auto it = store_.find(addr >> 3);
    if (it == store_.end() || bit >= 64 + 1 + kEccCheckBits)
        return false;
    Cell &cell = it->second;
    if (bit < 64) {
        cell.w = makeWord(cell.w.bits() ^ (uint64_t(1) << bit),
                          cell.w.isPointer());
    } else if (bit == 64) {
        cell.w = makeWord(cell.w.bits(), !cell.w.isPointer());
    } else {
        cell.check ^= uint8_t(1u << (bit - 65));
    }
    cell.upset = true;
    return true;
}

std::vector<uint64_t>
TaggedMemory::wordAddrs() const
{
    std::vector<uint64_t> addrs;
    addrs.reserve(store_.size());
    for (const auto &[idx, cell] : store_)
        addrs.push_back(idx << 3);
    std::sort(addrs.begin(), addrs.end());
    return addrs;
}

std::vector<uint64_t>
TaggedMemory::taggedWordAddrs() const
{
    std::vector<uint64_t> addrs;
    for (const auto &[idx, cell] : store_)
        if (cell.w.isPointer())
            addrs.push_back(idx << 3);
    std::sort(addrs.begin(), addrs.end());
    return addrs;
}

} // namespace gp::mem
