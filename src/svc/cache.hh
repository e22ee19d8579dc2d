/**
 * @file
 * Content-addressed result cache of the simulation service
 * (docs/service.md).
 *
 * The key is (structural hash of the elaborated netlist, spec hash,
 * backend, seed, result-affecting run params).  The structural hash
 * (api/facade.hh) fingerprints the graph itself -- component records
 * combined order-independently -- so two sessions that BUILD the same
 * design through different registration orders address the same cache
 * line, while any parameter or topology change moves to a new one.
 *
 * The value is the finished result in the artifact wire format (the
 * BENCH_*.json schema serialized by obs::ArtifactPayload with empty
 * host state): a hit hands back the exact bytes a recomputation would
 * produce, which svc_test verifies bit-for-bit -- including across
 * sweep thread counts and batch widths, which are deliberately NOT in
 * the key (the engine's bit-identity contracts make them
 * cache-transparent).
 *
 * Concurrency: one mutex around the service LRU (svc/lru.hh).
 * Lookups and inserts are O(1); the broker's workers share one cache.
 */

#ifndef USFQ_SVC_CACHE_HH
#define USFQ_SVC_CACHE_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "api/spec.hh"
#include "sim/backend.hh"
#include "svc/lru.hh"

namespace usfq
{
class Netlist;
}

namespace usfq::api
{
struct DesignFacts;
}

namespace usfq::svc
{

/** Content address of one run result. */
struct CacheKey
{
    /** api::structuralHash of the elaborated netlist. */
    std::uint64_t structural = 0;

    /**
     * api::specHash of the request spec.  Not redundant with the
     * structural hash: the paper's resolution independence means e.g.
     * a DPU's graph is identical across `bits`, yet `bits` scales the
     * operand range and therefore the result.
     */
    std::uint64_t spec = 0;

    /** api::runParamsKeyHash (epochs; batch/threads excluded). */
    std::uint64_t params = 0;

    Backend backend = Backend::Functional;
    std::uint64_t seed = 0;

    bool operator==(const CacheKey &other) const = default;
};

/** Hash functor for unordered_map<CacheKey, ...>. */
struct CacheKeyHash
{
    std::size_t operator()(const CacheKey &key) const;
};

/**
 * The full key of (spec, netlist, params): elaborates @p nl if needed
 * (so fatal on unwaived lint -- gate with Session::elaborate first
 * when the netlist is untrusted).
 */
CacheKey cacheKeyFor(const api::NetlistSpec &spec, Netlist &nl,
                     const api::RunParams &params);

/** The same key from a spec's memoised design facts: no netlist. */
CacheKey cacheKeyFor(const api::NetlistSpec &spec,
                     const api::DesignFacts &facts,
                     const api::RunParams &params);

/** Hit/miss accounting of one cache instance. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;

    double
    hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

/** Bounded, thread-safe LRU store of wire-format result documents. */
class ResultCache
{
  public:
    explicit ResultCache(std::size_t capacity = 256);

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /**
     * Look up a result; a hit refreshes recency and returns a copy of
     * the stored document.
     */
    std::optional<std::string> lookup(const CacheKey &key);

    /**
     * Store a result (no-op if the key is already present -- the
     * deterministic wire format makes duplicate inserts identical
     * anyway).  Evicts the least recently used entry beyond capacity.
     */
    void insert(const CacheKey &key, std::string result_json);

    CacheStats stats() const;
    std::size_t size() const;
    std::size_t capacity() const { return entries.capacity(); }
    void clear();

  private:
    mutable std::mutex mu;
    Lru<CacheKey, std::string, CacheKeyHash> entries;
    CacheStats counters; ///< evictions live in `entries`
};

} // namespace usfq::svc

#endif // USFQ_SVC_CACHE_HH
