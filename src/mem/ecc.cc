#include "mem/ecc.h"

namespace gp::mem {

namespace {

/// Highest codeword position: 65 data bits + 7 Hamming bits.
constexpr unsigned kCodeBits = kEccDataBits + kEccHammingBits; // 72

constexpr bool
isPow2(unsigned x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** Codeword position (1-based) of data bit d, skipping parity slots. */
struct PositionMap
{
    uint8_t posOfData[kEccDataBits] = {};
    uint8_t dataOfPos[kCodeBits + 1] = {}; // 0xff = parity/invalid

    constexpr PositionMap()
    {
        for (unsigned p = 0; p <= kCodeBits; ++p)
            dataOfPos[p] = 0xff;
        unsigned d = 0;
        for (unsigned p = 1; p <= kCodeBits && d < kEccDataBits; ++p) {
            if (isPow2(p))
                continue;
            posOfData[d] = uint8_t(p);
            dataOfPos[p] = uint8_t(d);
            d++;
        }
    }
};

constexpr PositionMap kMap{};

inline void
flipDataBit(uint64_t &bits, bool &tag, unsigned d)
{
    if (d < 64)
        bits ^= uint64_t(1) << d;
    else
        tag = !tag;
}

inline unsigned
parity64(uint64_t v)
{
    return unsigned(__builtin_parityll(v));
}

/** XOR of the positions of all set data bits = the 7 Hamming bits. */
inline unsigned
hammingOf(uint64_t bits, bool tag)
{
    unsigned acc = 0;
    uint64_t rest = bits;
    while (rest) {
        const unsigned d = unsigned(__builtin_ctzll(rest));
        rest &= rest - 1;
        acc ^= kMap.posOfData[d];
    }
    if (tag)
        acc ^= kMap.posOfData[64];
    return acc;
}

} // namespace

uint8_t
eccEncode(EccMode mode, uint64_t bits, bool tag)
{
    switch (mode) {
      case EccMode::None:
        return 0;
      case EccMode::Parity:
        return uint8_t(parity64(bits) ^ (tag ? 1u : 0u));
      case EccMode::Secded: {
        const unsigned ham = hammingOf(bits, tag);
        // Overall parity covers all 72 codeword bits (data + check).
        const unsigned overall = parity64(bits) ^ (tag ? 1u : 0u) ^
                                 parity64(ham);
        return uint8_t(ham | (overall << 7));
      }
    }
    return 0;
}

EccStatus
eccDecode(EccMode mode, uint64_t &bits, bool &tag, uint8_t &check)
{
    switch (mode) {
      case EccMode::None:
        return EccStatus::Ok;

      case EccMode::Parity: {
        const unsigned p = parity64(bits) ^ (tag ? 1u : 0u);
        return p == (check & 1u) ? EccStatus::Ok
                                 : EccStatus::Detected;
      }

      case EccMode::Secded: {
        const unsigned storedHam = check & 0x7f;
        const unsigned storedOverall = (check >> 7) & 1;
        const unsigned syndrome = hammingOf(bits, tag) ^ storedHam;
        // Total parity over the received word including all check
        // bits: 0 for no error or any even number of flips.
        const unsigned totalParity = parity64(bits) ^
                                     (tag ? 1u : 0u) ^
                                     parity64(storedHam) ^
                                     storedOverall;

        if (syndrome == 0 && totalParity == 0)
            return EccStatus::Ok;

        if (totalParity == 1) {
            // Odd flip count: with the SECDED guarantee, one bit.
            if (syndrome == 0) {
                // The overall parity bit itself flipped.
                check ^= uint8_t(1u << 7);
                return EccStatus::Corrected;
            }
            if (syndrome <= kCodeBits && isPow2(syndrome)) {
                // A Hamming check bit flipped; repair the check byte.
                check ^= uint8_t(syndrome);
                return EccStatus::Corrected;
            }
            if (syndrome <= kCodeBits &&
                kMap.dataOfPos[syndrome] != 0xff) {
                flipDataBit(bits, tag, kMap.dataOfPos[syndrome]);
                return EccStatus::Corrected;
            }
            // Syndrome names no valid position: ≥3 flips.
            return EccStatus::Detected;
        }

        // Even flip count with a nonzero syndrome: double error.
        return EccStatus::Detected;
      }
    }
    return EccStatus::Ok;
}

} // namespace gp::mem
