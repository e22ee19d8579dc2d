/**
 * @file
 * Service-layer entry points of the C ABI (usfq.h): the request
 * broker.  Same placement rationale as usfq_cache.cc -- the broker is
 * a service concern, so the entry points live in usfq_svc while the
 * declarations sit in usfq.h -- and the same armor discipline: no
 * exception or fatal() crosses the boundary, statuses out, malloc'd
 * strings freed with usfq_string_free.
 *
 * usfq_broker_run is intentionally synchronous: FFI callers get the
 * broker's admission control, worker pool, backend auto-selection and
 * result cache without having to marshal futures across the C
 * boundary.  Backpressure is absorbed internally (brief sleep and
 * resubmit), so the call blocks rather than failing on a full queue.
 */

#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "api/usfq.h"
#include "api/usfq_internal.hh"
#include "obs/artifact.hh"
#include "svc/broker.hh"
#include "util/json.hh"

namespace api = usfq::api;
namespace svc = usfq::svc;
using usfq::JsonWriter;
using usfq::api::abi::dupString;
using usfq::api::abi::toStatus;

/**
 * The opaque broker handle: the service broker plus the last error of
 * each calling thread, so concurrent callers never overwrite (or read
 * half of) each other's message.
 */
struct usfq_broker
{
    explicit usfq_broker(svc::BrokerOptions options) : broker(options)
    {
    }

    /** The calling thread's error slot (std::map nodes never move). */
    std::string &
    lastError()
    {
        std::lock_guard<std::mutex> lock(errorsMu);
        return errors[std::this_thread::get_id()];
    }

    const char *
    lastErrorOfThisThread() const
    {
        std::lock_guard<std::mutex> lock(errorsMu);
        const auto it = errors.find(std::this_thread::get_id());
        return it != errors.end() ? it->second.c_str() : "";
    }

    svc::Broker broker;
    mutable std::mutex errorsMu;
    std::map<std::thread::id, std::string> errors;
};

namespace
{

/** Parse the wire intent string ("default"/"throughput"/"audit"). */
bool
parseIntent(const char *intent, svc::RequestIntent &out)
{
    const std::string s = intent == nullptr ? "default" : intent;
    if (s.empty() || s == "default")
        out = svc::RequestIntent::Default;
    else if (s == "throughput")
        out = svc::RequestIntent::Throughput;
    else if (s == "audit")
        out = svc::RequestIntent::Audit;
    else
        return false;
    return true;
}

/** Store @p message in @p slot when there is one; never throws (a
 *  message that cannot be stored leaves the slot empty). */
void
recordError(std::string *slot, const char *message) noexcept
{
    if (slot == nullptr)
        return;
    try {
        *slot = message;
    } catch (...) {
        slot->clear();
    }
}

} // namespace

extern "C" {

int32_t
usfq_broker_create(int32_t workers, uint64_t queue_capacity,
                   uint64_t cache_capacity, usfq_broker **out)
{
    if (out == nullptr)
        return USFQ_ERR_INVALID_ARG;
    try {
        svc::BrokerOptions options;
        if (workers > 0)
            options.workers = workers;
        if (queue_capacity > 0)
            options.queueCapacity =
                static_cast<std::size_t>(queue_capacity);
        if (cache_capacity > 0)
            options.cacheCapacity =
                static_cast<std::size_t>(cache_capacity);
        *out = new usfq_broker(options);
        return USFQ_OK;
    } catch (...) {
        return USFQ_ERR_INTERNAL;
    }
}

void
usfq_broker_destroy(usfq_broker *broker)
{
    delete broker;
}

const char *
usfq_broker_last_error(const usfq_broker *broker)
{
    return broker == nullptr ? "" : broker->lastErrorOfThisThread();
}

int32_t
usfq_broker_run(usfq_broker *broker, const char *spec_json,
                const char *params_json, const char *intent,
                int32_t *out_cache_hit, char **out_json)
{
    if (broker == nullptr || spec_json == nullptr ||
        out_json == nullptr)
        return USFQ_ERR_INVALID_ARG;
    // Acquiring the slot allocates (first call on this thread), so it
    // happens inside the armor; without a slot there is nowhere to put
    // a message.
    std::string *lastError = nullptr;
    try {
        lastError = &broker->lastError();
        lastError->clear();
        svc::Request request;
        std::string err;
        if (!api::specFromJson(spec_json, request.spec, &err)) {
            *lastError = err;
            return USFQ_ERR_PARSE;
        }
        if (params_json != nullptr &&
            !api::runParamsFromJson(params_json, request.params,
                                    &err)) {
            *lastError = err;
            return USFQ_ERR_PARSE;
        }
        if (!parseIntent(intent, request.intent)) {
            *lastError =
                "broker: intent must be default, throughput or audit";
            return USFQ_ERR_INVALID_ARG;
        }

        std::optional<std::future<svc::Response>> future;
        for (;;) {
            future = broker->broker.submit(request);
            if (future.has_value())
                break;
            // Full queue: absorb the backpressure here so the flat
            // ABI stays blocking-simple.
            std::this_thread::sleep_for(
                std::chrono::microseconds(50));
        }
        const svc::Response response = future->get();
        if (response.status != api::Status::Ok) {
            *lastError = response.error;
            return toStatus(response.status);
        }
        char *copy = dupString(response.json);
        if (copy == nullptr) {
            *lastError = "out of memory";
            return USFQ_ERR_INTERNAL;
        }
        if (out_cache_hit != nullptr)
            *out_cache_hit = response.cacheHit ? 1 : 0;
        *out_json = copy;
        return USFQ_OK;
    } catch (const std::exception &e) {
        recordError(lastError, e.what());
        return USFQ_ERR_INTERNAL;
    } catch (...) {
        recordError(lastError, "unknown exception");
        return USFQ_ERR_INTERNAL;
    }
}

int32_t
usfq_broker_metrics(const usfq_broker *broker, char **out_json)
{
    if (broker == nullptr || out_json == nullptr)
        return USFQ_ERR_INVALID_ARG;
    try {
        const svc::BrokerStats stats = broker->broker.stats();
        const svc::CacheStats cache = broker->broker.cacheStats();
        std::string json;
        JsonWriter w(json);
        w.beginObject();

        w.key("broker").beginObject();
        w.kv("submitted", stats.submitted);
        w.kv("rejected", stats.rejected);
        w.kv("completed", stats.completed);
        w.kv("failed", stats.failed);
        w.kv("queue_depth_high_water", stats.queueDepthHighWater);
        w.key("workers").beginArray();
        for (const svc::WorkerUtil &u : stats.workerUtil) {
            w.beginObject();
            w.kv("busy_us", u.busyUs);
            w.kv("idle_us", u.idleUs);
            w.kv("utilization", u.utilization());
            w.endObject();
        }
        w.endArray();
        w.endObject();

        w.key("cache").beginObject();
        w.kv("hits", cache.hits);
        w.kv("misses", cache.misses);
        w.kv("insertions", cache.insertions);
        w.kv("evictions", cache.evictions);
        w.kv("hit_rate", cache.hitRate());
        w.endObject();

        w.key("stats").beginObject();
        usfq::obs::writeStatsSections(w,
                                      broker->broker.mergedStats());
        w.endObject();

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

} // extern "C"
