/**
 * @file
 * Truth tables for the 65-bit word protection codes (ISSUE 4).
 *
 * The code protects the full tagged word — 64 payload bits *and* the
 * tag — because a tag flip is the worst fault the machine can
 * suffer: it silently mints or destroys a capability. SECDED must
 * therefore correct any single strike anywhere in the 73-bit coded
 * word (65 data + 8 check) and detect any double strike; parity
 * must detect every single strike.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>

#include "gp/pointer.h"
#include "mem/ecc.h"
#include "mem/tagged_memory.h"

namespace gp::mem {
namespace {

/** A payload with irregular bit structure plus the tag set. */
struct Sample
{
    uint64_t bits;
    bool tag;
};

const Sample kSamples[] = {
    {0x0, false},
    {0x0, true},
    {~uint64_t(0), false},
    {0xdeadbeefcafe1234ull, true},
    {0x8000000000000001ull, false},
    {0x00000000000003ffull, true},
};

TEST(Ecc, NoneModeIsTransparent)
{
    for (const Sample &s : kSamples) {
        const uint8_t check =
            eccEncode(EccMode::None, s.bits, s.tag);
        EXPECT_EQ(check, 0u);
        uint64_t bits = s.bits;
        bool tag = s.tag;
        uint8_t c = check;
        EXPECT_EQ(eccDecode(EccMode::None, bits, tag, c),
                  EccStatus::Ok);
        EXPECT_EQ(bits, s.bits);
        EXPECT_EQ(tag, s.tag);
    }
}

TEST(Ecc, CleanWordDecodesOk)
{
    for (const EccMode mode : {EccMode::Parity, EccMode::Secded}) {
        for (const Sample &s : kSamples) {
            uint64_t bits = s.bits;
            bool tag = s.tag;
            uint8_t check = eccEncode(mode, s.bits, s.tag);
            EXPECT_EQ(eccDecode(mode, bits, tag, check),
                      EccStatus::Ok);
            EXPECT_EQ(bits, s.bits);
            EXPECT_EQ(tag, s.tag);
        }
    }
}

TEST(Ecc, ParityDetectsEverySingleDataOrTagFlip)
{
    for (const Sample &s : kSamples) {
        const uint8_t check =
            eccEncode(EccMode::Parity, s.bits, s.tag);
        for (unsigned bit = 0; bit < kEccDataBits; ++bit) {
            uint64_t bits = s.bits;
            bool tag = s.tag;
            if (bit < 64)
                bits ^= uint64_t(1) << bit;
            else
                tag = !tag;
            uint8_t c = check;
            EXPECT_EQ(eccDecode(EccMode::Parity, bits, tag, c),
                      EccStatus::Detected)
                << "bit " << bit;
        }
    }
}

TEST(Ecc, SecdedCorrectsEverySingleFlip)
{
    for (const Sample &s : kSamples) {
        const uint8_t check =
            eccEncode(EccMode::Secded, s.bits, s.tag);
        // All 65 data/tag positions plus all 8 check-bit positions.
        for (unsigned bit = 0; bit < kEccDataBits + kEccCheckBits;
             ++bit) {
            uint64_t bits = s.bits;
            bool tag = s.tag;
            uint8_t c = check;
            if (bit < 64)
                bits ^= uint64_t(1) << bit;
            else if (bit == 64)
                tag = !tag;
            else
                c ^= uint8_t(1u << (bit - kEccDataBits));
            EXPECT_EQ(eccDecode(EccMode::Secded, bits, tag, c),
                      EccStatus::Corrected)
                << "bit " << bit;
            EXPECT_EQ(bits, s.bits) << "bit " << bit;
            EXPECT_EQ(tag, s.tag) << "bit " << bit;
        }
    }
}

TEST(Ecc, SecdedDetectsEveryDoubleFlip)
{
    // Exhaustive over one sample: all C(73,2) double strikes must be
    // detected, never miscorrected into a third word.
    const Sample s = {0xdeadbeefcafe1234ull, true};
    const uint8_t check = eccEncode(EccMode::Secded, s.bits, s.tag);
    const unsigned total = kEccDataBits + kEccCheckBits;
    auto flip = [](uint64_t &bits, bool &tag, uint8_t &c,
                   unsigned bit) {
        if (bit < 64)
            bits ^= uint64_t(1) << bit;
        else if (bit == 64)
            tag = !tag;
        else
            c ^= uint8_t(1u << (bit - kEccDataBits));
    };
    for (unsigned a = 0; a < total; ++a) {
        for (unsigned b = a + 1; b < total; ++b) {
            uint64_t bits = s.bits;
            bool tag = s.tag;
            uint8_t c = check;
            flip(bits, tag, c, a);
            flip(bits, tag, c, b);
            EXPECT_EQ(eccDecode(EccMode::Secded, bits, tag, c),
                      EccStatus::Detected)
                << "bits " << a << "," << b;
        }
    }
}

TEST(Ecc, TaggedMemorySecdedScrubsOnCorrection)
{
    TaggedMemory m;
    m.setEccMode(EccMode::Secded);
    auto p = makePointer(Perm::ReadWrite, 12, 0x4000);
    ASSERT_TRUE(p);
    m.writeWord(0x40, p.value);

    ASSERT_TRUE(m.flipStoredBit(0x40, 64)); // strike the tag
    CheckedWord cw = m.readWordChecked(0x40);
    EXPECT_EQ(cw.status, EccStatus::Corrected);
    EXPECT_TRUE(cw.word.isPointer());
    EXPECT_EQ(cw.word.bits(), p.value.bits());
    EXPECT_EQ(m.eccCorrected(), 1u);

    // The correction is persistent: a second read is clean.
    cw = m.readWordChecked(0x40);
    EXPECT_EQ(cw.status, EccStatus::Ok);
    EXPECT_EQ(m.eccCorrected(), 1u);
}

TEST(Ecc, TaggedMemoryWithoutEccForgesSilently)
{
    TaggedMemory m; // ecc off: the raw threat model
    m.writeWord(0x40, Word::fromInt(7));
    ASSERT_TRUE(m.flipStoredBit(0x40, 64));
    const CheckedWord cw = m.readWordChecked(0x40);
    EXPECT_EQ(cw.status, EccStatus::Ok); // nobody noticed...
    EXPECT_TRUE(cw.word.isPointer());    // ...a forged capability
}

TEST(Ecc, TaggedMemorySecdedDetectsDoubleStrike)
{
    TaggedMemory m;
    m.setEccMode(EccMode::Secded);
    m.writeWord(0x40, Word::fromInt(0x1234));
    ASSERT_TRUE(m.flipStoredBit(0x40, 3));
    ASSERT_TRUE(m.flipStoredBit(0x40, 64));
    const CheckedWord cw = m.readWordChecked(0x40);
    EXPECT_EQ(cw.status, EccStatus::Detected);
    EXPECT_EQ(m.eccDetected(), 1u);
}

TEST(Ecc, ReencodingOnModeSwitchCoversExistingWords)
{
    TaggedMemory m; // write with ecc off...
    m.writeWord(0x0, Word::fromInt(42));
    m.setEccMode(EccMode::Secded); // ...then switch on
    ASSERT_TRUE(m.flipStoredBit(0x0, 17));
    const CheckedWord cw = m.readWordChecked(0x0);
    EXPECT_EQ(cw.status, EccStatus::Corrected);
    EXPECT_EQ(cw.word.bits(), 42u);
}

/**
 * TaggedMemory's stored-word semantics with no shortcut: every read
 * decodes. The real memory decodes only words an upset touched, and
 * must be indistinguishable from this model.
 */
class DecodeEveryReadMemory
{
  public:
    void
    setEccMode(EccMode mode)
    {
        mode_ = mode;
        for (auto &[idx, c] : cells_)
            c.check = eccEncode(mode_, c.bits, c.tag);
    }

    void
    writeWord(uint64_t addr, Word w)
    {
        Cell &c = cells_[addr >> 3];
        c.bits = w.bits();
        c.tag = w.isPointer();
        if (mode_ != EccMode::None)
            c.check = eccEncode(mode_, c.bits, c.tag);
    }

    void
    writeSubWord(uint64_t addr, unsigned size, uint64_t value)
    {
        auto it = cells_.find(addr >> 3);
        const uint64_t old = it == cells_.end() ? 0 : it->second.bits;
        const unsigned shift = (addr & 7) * 8;
        const uint64_t mask = ((uint64_t(1) << (size * 8)) - 1) << shift;
        writeWord(addr, Word::fromInt((old & ~mask) |
                                      ((value << shift) & mask)));
    }

    bool
    flipStoredBit(uint64_t addr, unsigned bit)
    {
        auto it = cells_.find(addr >> 3);
        if (it == cells_.end() || bit >= 64 + 1 + kEccCheckBits)
            return false;
        Cell &c = it->second;
        if (bit < 64)
            c.bits ^= uint64_t(1) << bit;
        else if (bit == 64)
            c.tag = !c.tag;
        else
            c.check ^= uint8_t(1u << (bit - 65));
        return true;
    }

    CheckedWord
    load(uint64_t addr, unsigned size)
    {
        CheckedWord cw;
        auto it = cells_.find(addr >> 3);
        if (it != cells_.end()) {
            Cell &c = it->second;
            cw.status = eccDecode(mode_, c.bits, c.tag, c.check);
            if (cw.status == EccStatus::Corrected)
                corrected_++;
            else if (cw.status == EccStatus::Detected)
                detected_++;
            cw.word = c.tag ? Word::fromRawPointerBits(c.bits)
                            : Word::fromInt(c.bits);
        }
        if (size < 8) {
            const unsigned shift = (addr & 7) * 8;
            const uint64_t mask = (uint64_t(1) << (size * 8)) - 1;
            cw.word = Word::fromInt((cw.word.bits() >> shift) & mask);
        }
        return cw;
    }

    uint64_t corrected() const { return corrected_; }
    uint64_t detected() const { return detected_; }

  private:
    struct Cell
    {
        uint64_t bits = 0;
        bool tag = false;
        uint8_t check = 0;
    };

    EccMode mode_ = EccMode::None;
    std::map<uint64_t, Cell> cells_;
    uint64_t corrected_ = 0;
    uint64_t detected_ = 0;
};

TEST(Ecc, DecodingOnlyUpsetWordsMatchesDecodingEveryRead)
{
    constexpr uint64_t kBase = 0x1000;
    constexpr unsigned kWords = 16;
    for (const EccMode mode :
         {EccMode::None, EccMode::Parity, EccMode::Secded}) {
        for (const uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(std::string(eccModeName(mode)) + " seed " +
                         std::to_string(seed));
            std::mt19937_64 rng(seed);
            auto below = [&rng](uint64_t n) { return rng() % n; };
            TaggedMemory real;
            DecodeEveryReadMemory model;
            real.setEccMode(mode);
            model.setEccMode(mode);
            for (unsigned step = 0; step < 20000; ++step) {
                // Mostly resident words; 1 in 17 never written.
                const uint64_t word =
                    below(17) == 0 ? 0x9000 + 8 * below(4)
                                   : kBase + 8 * below(kWords);
                const unsigned size = 1u << below(4);
                const uint64_t addr = word + size * below(8 / size);
                const uint64_t op = below(100);
                if (op < 20) {
                    const uint64_t bits = rng();
                    const Word w = below(2) ? Word::fromRawPointerBits(bits)
                                            : Word::fromInt(bits);
                    real.writeWord(word, w);
                    model.writeWord(word, w);
                } else if (op < 30) {
                    // A sub-word store (an 8-byte one writes whole).
                    const uint64_t value = rng();
                    real.access(true, addr, size, Word::fromInt(value));
                    if (size == 8)
                        model.writeWord(addr, Word::fromInt(value));
                    else
                        model.writeSubWord(addr, size, value);
                } else if (op < 55) {
                    // Payload, tag and check bits, and a few bit
                    // indices past the check byte.
                    const uint64_t kind = below(10);
                    const unsigned bit =
                        kind < 2   ? 64
                        : kind < 4 ? unsigned(65 + below(kEccCheckBits))
                        : kind < 5 ? unsigned(73 + below(8))
                                   : unsigned(below(64));
                    ASSERT_EQ(real.flipStoredBit(word, bit),
                              model.flipStoredBit(word, bit))
                        << "step " << step;
                } else if (op < 99) {
                    const bool whole = below(2) == 0;
                    const CheckedWord got =
                        whole ? real.readWordChecked(addr)
                              : real.access(false, addr, size);
                    const CheckedWord want =
                        model.load(addr, whole ? 8 : size);
                    ASSERT_EQ(got.status, want.status) << "step " << step;
                    ASSERT_EQ(got.word.bits(), want.word.bits())
                        << "step " << step;
                    ASSERT_EQ(got.word.isPointer(), want.word.isPointer())
                        << "step " << step;
                } else {
                    real.setEccMode(mode);
                    model.setEccMode(mode);
                }
                ASSERT_EQ(real.eccCorrected(), model.corrected())
                    << "step " << step;
                ASSERT_EQ(real.eccDetected(), model.detected())
                    << "step " << step;
            }
        }
    }
}

} // namespace
} // namespace gp::mem
