/**
 * @file
 * Request broker of the simulation service (docs/service.md): a
 * bounded request queue feeding a worker pool, with admission control
 * (reject-with-backpressure instead of unbounded queueing), backend
 * auto-selection (functional for throughput requests, pulse-level for
 * audit requests) and a shared content-addressed result cache
 * (svc/cache.hh) behind a design-facts table (svc/facts.hh): a request
 * whose spec was seen before builds its cache key with no netlist.
 *
 * Each derivation and each run uses its own api::Session, so
 * lint/STA/run failures come back as a Status in the Response -- a
 * poisoned request can never take the broker (or the host) down.
 * Each run's deterministic stats registry is folded into one broker
 * registry as the run completes; the fold commutes
 * (StatsRegistry::mergeFrom), so the roll-up is independent of worker
 * scheduling and nothing is kept per request.
 *
 * When tracing is on (obs/trace.hh), every admitted request opens a
 * trace at submit() and its context crosses the queue to the worker
 * that runs it: a root "request" span plus child spans for the queue
 * wait, design-facts lookup ("elaborate", which derives the facts on a
 * table miss), cache probe (hit/miss), run, and response
 * serialization -- the whole serving story of one request as one span
 * chain in the Perfetto export (docs/observability.md).
 */

#ifndef USFQ_SVC_BROKER_HH
#define USFQ_SVC_BROKER_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/facade.hh"
#include "api/spec.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "svc/cache.hh"
#include "svc/facts.hh"

namespace usfq::svc
{

/** Broker sizing knobs. */
struct BrokerOptions
{
    /** Worker threads executing requests. */
    int workers = 4;

    /**
     * Bound of the pending-request queue.  submit() on a full queue
     * rejects immediately (backpressure) instead of blocking or
     * growing without limit.
     */
    std::size_t queueCapacity = 64;

    /**
     * Result-cache capacity in entries.  The design-facts table holds
     * max(cacheCapacity, 1024) specs: facts are small (about 3.6 KB
     * for the largest gen spec, whose 64-lane padding plan dominates),
     * and a result cache sized for payload memory must not make a
     * stream of more distinct specs than it holds re-derive -- rebuild
     * and rebalance -- its designs on every request.
     */
    std::size_t cacheCapacity = 256;
};

/** What the caller wants optimized; drives backend auto-selection. */
enum class RequestIntent
{
    /** Run on whatever RunParams::backend says. */
    Default,
    /** Throughput: force the functional engine. */
    Throughput,
    /** Audit: force the pulse-level engine (event-accurate). */
    Audit,
};

/** One simulation request. */
struct Request
{
    api::NetlistSpec spec;
    api::RunParams params;
    RequestIntent intent = RequestIntent::Default;
};

/** One finished (or failed) request. */
struct Response
{
    std::uint64_t requestId = 0;
    api::Status status = api::Status::Ok;

    /** Human-readable failure message (empty on Ok). */
    std::string error;

    /** Result document in the artifact wire format (empty on error). */
    std::string json;

    /** Engine the request actually ran on (after auto-selection). */
    Backend backend = Backend::Functional;

    /** True when the result came out of the cache. */
    bool cacheHit = false;

    /** Structural hash of the request's netlist (0 on early failure). */
    std::uint64_t structural = 0;
};

/** Wall-clock busy/idle split of one broker worker thread. */
struct WorkerUtil
{
    std::uint64_t busyUs = 0; ///< time spent inside process()
    std::uint64_t idleUs = 0; ///< time spent waiting for work

    /** Busy fraction of the observed lifetime (0 when unobserved). */
    double
    utilization() const
    {
        const std::uint64_t total = busyUs + idleUs;
        return total > 0
                   ? static_cast<double>(busyUs) /
                         static_cast<double>(total)
                   : 0.0;
    }
};

/** Broker-level accounting (monotonic over the broker's lifetime). */
struct BrokerStats
{
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0; ///< backpressure refusals
    std::uint64_t completed = 0;
    std::uint64_t failed = 0; ///< completed with status != Ok

    /**
     * Design-facts derivations (Session build, lint, elaborate, hash
     * and gen balancing): one per facts-table miss, failures included.
     */
    std::uint64_t keyDerivations = 0;

    /** Deepest the pending queue ever got (admission high-water). */
    std::uint64_t queueDepthHighWater = 0;

    /** Busy/idle gauge per worker thread, worker order. */
    std::vector<WorkerUtil> workerUtil;
};

/** The request broker. */
class Broker
{
  public:
    explicit Broker(BrokerOptions options = {});

    /** Drains nothing: pending requests are failed, workers joined. */
    ~Broker();

    Broker(const Broker &) = delete;
    Broker &operator=(const Broker &) = delete;

    /**
     * Admit one request.  Returns a future for its response, or
     * std::nullopt when the queue is full (backpressure: the caller
     * should back off and resubmit).
     */
    std::optional<std::future<Response>> submit(Request request);

    /** Block until every admitted request has completed. */
    void drain();

    /** Stop accepting, finish nothing more, join the workers. */
    void shutdown();

    BrokerStats stats() const;
    CacheStats cacheStats() const { return cache.stats(); }

    /** Specs currently memoised in the design-facts table. */
    std::size_t factsSize() const { return factsTable.size(); }

    /**
     * Copy of the stats of every completed run, folded as each
     * finished -- the same values in any completion order.  Cache hits
     * contribute nothing (the run they reused already did).
     */
    obs::StatsRegistry mergedStats() const;

    /** The backend a request's intent resolves to. */
    static Backend resolveBackend(const Request &request);

  private:
    struct Pending
    {
        std::uint64_t id;
        Request request;
        std::promise<Response> promise;

        /** Wall-clock admission time (queue-wait span start). */
        std::uint64_t enqueueUs = 0;

        /** Request trace (invalid when tracing is off). */
        obs::TraceContext trace;
    };

    void workerLoop(int workerIndex);
    Response process(std::uint64_t id, const Request &request,
                     const obs::TraceContext &trace);

    BrokerOptions opts;
    ResultCache cache;
    FactsTable factsTable;

    mutable std::mutex mu;
    std::condition_variable cvQueue; ///< workers wait for work
    std::condition_variable cvDrain; ///< drain() waits for quiescence
    std::deque<Pending> queue;
    std::uint64_t nextId = 1;
    std::size_t inFlight = 0;
    bool stopping = false;
    BrokerStats counters;

    /** Folded run stats; its own lock, so the queue never waits on it. */
    mutable std::mutex statsMu;
    obs::StatsRegistry runStats;

    std::vector<std::thread> workers;
};

} // namespace usfq::svc

#endif // USFQ_SVC_BROKER_HH
