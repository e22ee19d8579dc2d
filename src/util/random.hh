/**
 * @file
 * Deterministic pseudo-random number generation for simulations.
 *
 * A xoshiro256** generator seeded by SplitMix64.  Every stochastic piece
 * of the repository (error injection, workload generation) draws from an
 * explicitly-seeded Rng so results are reproducible run to run.
 *
 * Integer draws go through UniformInt, which takes the range's span and
 * its rejection limit (two 64-bit divisions) once at construction; a
 * draw is then the rejection loop plus one `%`.  The functional legs
 * draw thousands of operands on one range per run, so they build one
 * UniformInt per leg; Rng::uniformInt builds one per call.  Both give
 * the same values from the same Rng state.
 */

#ifndef USFQ_UTIL_RANDOM_HH
#define USFQ_UTIL_RANDOM_HH

#include <array>
#include <bit>
#include <cstdint>

namespace usfq
{

/**
 * xoshiro256** pseudo-random generator (Blackman & Vigna).
 *
 * Satisfies UniformRandomBitGenerator so it can also be used with
 * <random> distributions.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Reseed the generator. */
    void seed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;

        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = std::rotl(state[3], 45);

        return result;
    }

    std::uint64_t operator()() { return next(); }

    static constexpr std::uint64_t min() { return 0; }
    static constexpr std::uint64_t max() { return ~0ULL; }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive: UniformInt(lo, hi)(*this). */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Bernoulli draw with probability p of returning true. */
    bool bernoulli(double p);

    /** Standard normal via Box-Muller. */
    double gaussian();

    /** Normal with the given mean and standard deviation. */
    double gaussian(double mean, double sigma);

  private:
    std::array<std::uint64_t, 4> state;
    bool haveSpareGaussian = false;
    double spareGaussian = 0.0;
};

/**
 * Unbiased uniform integers on one inclusive range [lo, hi], any range
 * of int64 included.  Rejection sampling: raw draws at or above the
 * largest multiple of the span that fits in 64 bits are redrawn.  The
 * arithmetic is unsigned, so ranges wider than INT64_MAX are defined.
 */
class UniformInt
{
  public:
    /** Panics when @p lo > @p hi. */
    UniformInt(std::int64_t lo, std::int64_t hi);

    /** One draw from @p rng. */
    std::int64_t
    operator()(Rng &rng) const
    {
        if (span == 0) // the full 64-bit range
            return static_cast<std::int64_t>(rng.next());
        std::uint64_t v;
        do {
            v = rng.next();
        } while (v >= limit);
        return static_cast<std::int64_t>(lo + v % span);
    }

  private:
    std::uint64_t lo;    ///< the low end, as two's complement
    std::uint64_t span;  ///< hi - lo + 1 mod 2^64 (0: all of 2^64)
    std::uint64_t limit; ///< (2^64 - 1) / span * span
};

inline std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    return UniformInt(lo, hi)(*this);
}

} // namespace usfq

#endif // USFQ_UTIL_RANDOM_HH
