#ifndef OVERGEN_COMMON_RNG_H
#define OVERGEN_COMMON_RNG_H

/**
 * @file
 * Deterministic pseudo-random number generator (xoshiro256**) used by the
 * DSE, the spatial scheduler, and synthetic data generation. All
 * randomized components take an explicit Rng so experiments are exactly
 * reproducible from a seed. Also the fixed hashes that seeds and
 * fingerprints derive from: the splitmix64 finalizer and stream, and
 * FNV-1a over bytes or over 64-bit words.
 */

#include <cmath>
#include <cstdint>
#include <string_view>

#include "common/logging.h"

namespace overgen {

/** splitmix64 finalizer: full-avalanche mixing of one 64-bit word. */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** One splitmix64 step: advance @p state and return its next word. */
inline uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = mix64(state);
    state += 0x9e3779b97f4a7c15ull;
    return z;
}

/** Offset basis: the initial state of fnv1a and fnvWord. It is one
 * digit short of the standard FNV-1a basis (14695981039346656037), so
 * these hashes differ from published FNV-1a vectors; pinned design
 * fingerprints and library bytes depend on this value. */
inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;

/** One word-wise FNV-1a step: fold @p word into @p h (state fingerprints
 * hash whole counters rather than their bytes). */
inline void
fnvWord(uint64_t &h, uint64_t word)
{
    h ^= word;
    h *= 1099511628211ull;
}

/** 64-bit FNV-1a of @p s. */
inline uint64_t
fnv1a(std::string_view s)
{
    uint64_t h = kFnvOffset;
    for (char c : s)
        fnvWord(h, static_cast<unsigned char>(c));
    return h;
}

/** Deterministic xoshiro256** generator. */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of @p seed. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        uint64_t x = seed;
        for (auto &word : state)
            word = splitmix64(x);
    }

    /** @return the next raw 64-bit value. */
    uint64_t
    next()
    {
        uint64_t result = rotl(state[1] * 5, 7) * 9;
        uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /**
     * @return a uniform integer in [0, bound). @p bound must be > 0.
     * Lemire's multiply-shift with rejection of the biased low
     * slice, so every value is exactly equiprobable (a plain modulo
     * overweights small values whenever 2^64 % bound != 0).
     */
    uint64_t
    nextBelow(uint64_t bound)
    {
        OG_ASSERT(bound > 0, "nextBelow(0)");
        using u128 = unsigned __int128;
        u128 m = static_cast<u128>(next()) * bound;
        auto low = static_cast<uint64_t>(m);
        if (low < bound) {
            uint64_t threshold = -bound % bound;  // 2^64 mod bound
            while (low < threshold) {
                m = static_cast<u128>(next()) * bound;
                low = static_cast<uint64_t>(m);
            }
        }
        return static_cast<uint64_t>(m >> 64);
    }

    /** @return a uniform integer in [lo, hi] inclusive. */
    int64_t
    nextRange(int64_t lo, int64_t hi)
    {
        OG_ASSERT(lo <= hi, "bad range [", lo, ", ", hi, "]");
        return lo + static_cast<int64_t>(
            nextBelow(static_cast<uint64_t>(hi - lo + 1)));
    }

    /** @return a uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1p-53;
    }

    /** @return true with probability @p p. */
    bool
    nextBool(double p = 0.5)
    {
        return nextDouble() < p;
    }

    /** @return a standard normal sample (Box-Muller, one value). */
    double
    nextGaussian()
    {
        double u1 = nextDouble();
        double u2 = nextDouble();
        if (u1 < 1e-300)
            u1 = 1e-300;
        return std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * 3.14159265358979323846 * u2);
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state[4];
};

} // namespace overgen

#endif // OVERGEN_COMMON_RNG_H
