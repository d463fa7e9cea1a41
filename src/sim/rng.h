/**
 * @file
 * Deterministic pseudo-random number generator used throughout the
 * simulator and the workload generators.
 *
 * Every stochastic component takes an explicitly seeded Rng so that runs
 * are reproducible; there is no global RNG state and no wall-clock
 * seeding anywhere in the code base (see DESIGN.md §4).
 *
 * The generator is xoshiro256** by Blackman & Vigna: small, fast, and of
 * far higher quality than the minimum this simulator needs.
 */

#ifndef GP_SIM_RNG_H
#define GP_SIM_RNG_H

#include <cstdint>

namespace gp::sim {

/** splitmix64 finalizer: decorrelates nearby seeds. */
constexpr uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Seed of the @p index-th stream under master seed @p seed: one
 * injector stream per fault site, one campaign run per index.
 */
constexpr uint64_t
deriveSeed(uint64_t seed, uint64_t index)
{
    return mix64(seed ^ (0x9e3779b97f4a7c15ull * (index + 1)));
}

/** Deterministic 64-bit PRNG (xoshiro256**). */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via splitmix64. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        uint64_t x = seed;
        for (auto &word : state_) {
            // splitmix64 step: decorrelates consecutive seeds.
            x += 0x9e3779b97f4a7c15ull;
            word = mix64(x);
        }
    }

    /** @return the next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** @return a value uniform in [0, bound). bound must be nonzero. */
    uint64_t
    below(uint64_t bound)
    {
        // Lemire's multiply-shift rejection method (debiased).
        uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        auto lo = static_cast<uint64_t>(m);
        if (lo < bound) {
            const uint64_t threshold = (0 - bound) % bound;
            while (lo < threshold) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                lo = static_cast<uint64_t>(m);
            }
        }
        return static_cast<uint64_t>(m >> 64);
    }

    /** @return a value uniform in [lo, hi] inclusive. */
    uint64_t
    range(uint64_t lo, uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** @return a double uniform in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return true with probability p (clamped to [0,1]). */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * Sample a geometric-ish "locality" step: returns small values with
     * high probability, used by workload generators for spatial locality.
     * @param mean approximate mean of the distribution (must be >= 1).
     */
    uint64_t
    geometric(double mean)
    {
        // Inverse-CDF sampling of a geometric distribution with the
        // requested mean; degenerate means collapse to a constant 1.
        if (mean <= 1.0)
            return 1;
        const double p = 1.0 / mean;
        double u = uniform();
        if (u <= 0.0)
            u = 0x1.0p-53;
        double val = 1.0;
        double acc = p;
        while (u > acc && val < 1e6) {
            u -= acc;
            acc *= (1.0 - p);
            val += 1.0;
        }
        return static_cast<uint64_t>(val);
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
};

} // namespace gp::sim

#endif // GP_SIM_RNG_H
