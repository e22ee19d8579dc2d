#include "util/random.hh"

#include <cmath>

#include "util/logging.hh"

namespace usfq
{

namespace
{

inline std::uint64_t
splitmix64(std::uint64_t &x)
{
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Rng::seed(std::uint64_t seed_value)
{
    std::uint64_t sm = seed_value;
    for (auto &s : state)
        s = splitmix64(sm);
    haveSpareGaussian = false;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

UniformInt::UniformInt(std::int64_t lo_value, std::int64_t hi_value)
    : lo(static_cast<std::uint64_t>(lo_value)),
      span(static_cast<std::uint64_t>(hi_value) - lo + 1), limit(0)
{
    if (lo_value > hi_value)
        panic("UniformInt: empty range [%lld, %lld]",
              static_cast<long long>(lo_value),
              static_cast<long long>(hi_value));
    if (span != 0)
        limit = (~0ULL / span) * span;
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

double
Rng::gaussian()
{
    if (haveSpareGaussian) {
        haveSpareGaussian = false;
        return spareGaussian;
    }
    double u1 = 0.0;
    while (u1 == 0.0)
        u1 = uniform();
    const double u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    spareGaussian = mag * std::sin(2.0 * M_PI * u2);
    haveSpareGaussian = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::gaussian(double mean, double sigma)
{
    return mean + sigma * gaussian();
}

} // namespace usfq
