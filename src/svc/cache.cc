#include "svc/cache.hh"

#include "api/facade.hh"

namespace usfq::svc
{

namespace
{

/** SplitMix64 finalizer: full-avalanche mix of one 64-bit word. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

std::size_t
CacheKeyHash::operator()(const CacheKey &key) const
{
    std::uint64_t h = mix64(key.structural);
    h = mix64(h ^ key.spec);
    h = mix64(h ^ key.params);
    h = mix64(h ^ static_cast<std::uint64_t>(key.backend));
    h = mix64(h ^ key.seed);
    return static_cast<std::size_t>(h);
}

CacheKey
cacheKeyFor(const api::NetlistSpec &spec, Netlist &nl,
            const api::RunParams &params)
{
    api::DesignFacts facts;
    facts.structural = api::structuralHash(nl);
    return cacheKeyFor(spec, facts, params);
}

CacheKey
cacheKeyFor(const api::NetlistSpec &spec, const api::DesignFacts &facts,
            const api::RunParams &params)
{
    CacheKey key;
    key.structural = facts.structural;
    key.spec = api::specHash(spec);
    key.params = api::runParamsKeyHash(params);
    key.backend = params.backend;
    key.seed = params.seed;
    return key;
}

ResultCache::ResultCache(std::size_t capacity) : entries(capacity) {}

std::optional<std::string>
ResultCache::lookup(const CacheKey &key)
{
    std::lock_guard<std::mutex> lock(mu);
    const std::string *json = entries.find(key);
    if (json == nullptr) {
        ++counters.misses;
        return std::nullopt;
    }
    ++counters.hits;
    return *json;
}

void
ResultCache::insert(const CacheKey &key, std::string result_json)
{
    std::lock_guard<std::mutex> lock(mu);
    if (entries.insert(key, std::move(result_json)))
        ++counters.insertions;
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    CacheStats out = counters;
    out.evictions = entries.evictions();
    return out;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return entries.size();
}

void
ResultCache::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    entries.clear();
    counters = CacheStats{};
}

} // namespace usfq::svc
