/**
 * @file
 * Service-layer entry points of the C ABI (usfq.h): the shared result
 * cache.  Lives in usfq_svc rather than usfq_api because the cache is
 * a service concern -- the api library stays free of the svc layer it
 * underpins -- yet the declarations sit in usfq.h so one header covers
 * the whole ABI.  Same armor discipline as api/usfq.cc: fatal-throw
 * mode plus catch-all, status codes out, malloc'd strings the caller
 * frees with usfq_string_free.
 */

#include <cstddef>
#include <optional>
#include <string>
#include <utility>

#include "api/usfq.h"
#include "api/usfq_internal.hh"
#include "svc/cache.hh"
#include "util/json.hh"

namespace api = usfq::api;
namespace svc = usfq::svc;
using usfq::JsonWriter;
using usfq::api::abi::dupString;
using usfq::api::abi::guarded;

/** The opaque cache handle: just the service-layer LRU store. */
struct usfq_cache
{
    explicit usfq_cache(std::size_t capacity) : cache(capacity) {}

    svc::ResultCache cache;
};

extern "C" {

int32_t
usfq_cache_create(uint64_t capacity, usfq_cache **out)
{
    if (capacity == 0 || out == nullptr)
        return USFQ_ERR_INVALID_ARG;
    try {
        *out = new usfq_cache(static_cast<std::size_t>(capacity));
        return USFQ_OK;
    } catch (...) {
        return USFQ_ERR_INTERNAL;
    }
}

void
usfq_cache_destroy(usfq_cache *cache)
{
    delete cache;
}

int32_t
usfq_cache_stats(const usfq_cache *cache, char **out_json)
{
    if (cache == nullptr || out_json == nullptr)
        return USFQ_ERR_INVALID_ARG;
    try {
        const svc::CacheStats stats = cache->cache.stats();
        std::string json;
        JsonWriter w(json);
        w.beginObject();
        w.kv("capacity",
             static_cast<std::uint64_t>(cache->cache.capacity()));
        w.kv("size", static_cast<std::uint64_t>(cache->cache.size()));
        w.kv("hits", stats.hits);
        w.kv("misses", stats.misses);
        w.kv("insertions", stats.insertions);
        w.kv("evictions", stats.evictions);
        w.kv("hit_rate", stats.hitRate());
        w.endObject();
        char *copy = dupString(json);
        if (copy == nullptr)
            return USFQ_ERR_INTERNAL;
        *out_json = copy;
        return USFQ_OK;
    } catch (...) {
        return USFQ_ERR_INTERNAL;
    }
}

int32_t
usfq_engine_run_cached(usfq_engine *engine, usfq_cache *cache,
                       const char *params_json, int32_t *out_hit,
                       char **out_json)
{
    if (cache == nullptr || params_json == nullptr ||
        out_json == nullptr)
        return USFQ_ERR_INVALID_ARG;
    return guarded(engine, [&] {
        api::RunParams params;
        std::string err;
        if (!api::runParamsFromJson(params_json, params, &err)) {
            engine->lastError = err;
            return err.rfind("run: epochs", 0) == 0 ||
                           err.rfind("run: batch", 0) == 0 ||
                           err.rfind("run: threads", 0) == 0
                       ? api::Status::InvalidArg
                       : api::Status::ParseError;
        }

        // Derive through the session so lint failures come back as a
        // status; a miss then runs from the same facts.
        api::DesignFacts facts;
        if (const api::Status s = engine->session.designFacts(facts);
            s != api::Status::Ok)
            return s;
        const svc::CacheKey key =
            svc::cacheKeyFor(engine->session.spec(), facts, params);

        if (std::optional<std::string> hit =
                cache->cache.lookup(key);
            hit.has_value()) {
            char *copy = dupString(*hit);
            if (copy == nullptr) {
                engine->lastError = "out of memory";
                return api::Status::Internal;
            }
            if (out_hit != nullptr)
                *out_hit = 1;
            *out_json = copy;
            return api::Status::Ok;
        }

        api::RunResult result;
        if (const api::Status s =
                engine->session.run(params, result, &facts);
            s != api::Status::Ok)
            return s;
        std::string json = api::resultToJson(engine->session.spec(),
                                             params, result);
        char *copy = dupString(json);
        if (copy == nullptr) {
            engine->lastError = "out of memory";
            return api::Status::Internal;
        }
        cache->cache.insert(key, std::move(json));
        engine->metrics.mergeFrom(result.stats);
        if (out_hit != nullptr)
            *out_hit = 0;
        *out_json = copy;
        return api::Status::Ok;
    });
}

} // extern "C"
