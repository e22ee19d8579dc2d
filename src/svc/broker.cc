#include "svc/broker.hh"

#include <algorithm>

#include "obs/phase.hh"
#include "util/logging.hh"

namespace usfq::svc
{

namespace
{

/** Floor of the design-facts table's capacity (BrokerOptions). */
constexpr std::size_t kMinFactsCapacity = 1024;

/** A request that failed outside the engines (no document). */
Response
internalFailure(std::uint64_t id, const char *what)
{
    Response r;
    r.requestId = id;
    r.status = api::Status::Internal;
    r.error = what;
    return r;
}

} // namespace

Broker::Broker(BrokerOptions options)
    : opts(options), cache(options.cacheCapacity),
      factsTable(std::max(options.cacheCapacity, kMinFactsCapacity))
{
    if (opts.workers < 1)
        opts.workers = 1;
    if (opts.queueCapacity < 1)
        opts.queueCapacity = 1;
    counters.workerUtil.resize(
        static_cast<std::size_t>(opts.workers));
    workers.reserve(static_cast<std::size_t>(opts.workers));
    for (int i = 0; i < opts.workers; ++i)
        workers.emplace_back([this, i] { workerLoop(i); });
}

Broker::~Broker() { shutdown(); }

Backend
Broker::resolveBackend(const Request &request)
{
    switch (request.intent) {
    case RequestIntent::Throughput:
        return Backend::Functional;
    case RequestIntent::Audit:
        return Backend::PulseLevel;
    case RequestIntent::Default:
        break;
    }
    return request.params.backend;
}

std::optional<std::future<Response>>
Broker::submit(Request request)
{
    std::promise<Response> promise;
    std::future<Response> future = promise.get_future();
    {
        std::lock_guard<std::mutex> lock(mu);
        if (stopping)
            return std::nullopt;
        if (queue.size() >= opts.queueCapacity) {
            ++counters.rejected;
            return std::nullopt;
        }
        ++counters.submitted;
        queue.push_back(Pending{nextId++, std::move(request),
                                std::move(promise), obs::wallClockUs(),
                                obs::TraceContext::begin()});
        counters.queueDepthHighWater = std::max(
            counters.queueDepthHighWater,
            static_cast<std::uint64_t>(queue.size()));
    }
    cvQueue.notify_one();
    return future;
}

void
Broker::drain()
{
    std::unique_lock<std::mutex> lock(mu);
    cvDrain.wait(lock,
                 [this] { return queue.empty() && inFlight == 0; });
}

void
Broker::shutdown()
{
    std::vector<Pending> orphaned;
    {
        std::lock_guard<std::mutex> lock(mu);
        if (stopping && workers.empty())
            return;
        stopping = true;
        while (!queue.empty()) {
            orphaned.push_back(std::move(queue.front()));
            queue.pop_front();
        }
    }
    cvQueue.notify_all();
    for (Pending &p : orphaned)
        p.promise.set_value(internalFailure(
            p.id, "broker shut down before the request ran"));
    for (std::thread &t : workers)
        if (t.joinable())
            t.join();
    workers.clear();
    cvDrain.notify_all();
}

BrokerStats
Broker::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters;
}

obs::StatsRegistry
Broker::mergedStats() const
{
    std::lock_guard<std::mutex> lock(statsMu);
    return runStats;
}

void
Broker::workerLoop(int workerIndex)
{
    obs::setCurrentThreadName("worker-" +
                              std::to_string(workerIndex));
    const std::size_t wi = static_cast<std::size_t>(workerIndex);
    for (;;) {
        Pending job;
        {
            const std::uint64_t idleFrom = obs::wallClockUs();
            std::unique_lock<std::mutex> lock(mu);
            cvQueue.wait(lock, [this] {
                return stopping || !queue.empty();
            });
            counters.workerUtil[wi].idleUs +=
                obs::wallClockUs() - idleFrom;
            if (queue.empty())
                return; // stopping and drained
            job = std::move(queue.front());
            queue.pop_front();
            ++inFlight;
        }
        const std::uint64_t busyFrom = obs::wallClockUs();

        // Root span covers the request's whole broker residency: it
        // opens at admission time, so the queue wait is inside it.
        obs::ScopedSpan root(job.trace, "request");
        root.startAt(job.enqueueUs);
        root.arg("id", std::to_string(job.id));
        {
            obs::ScopedSpan wait(root.context(), "queue_wait");
            wait.startAt(job.enqueueUs);
        }
        // The armor Session::run puts around the engines, over the
        // whole request: an exception from a facts or cache lookup,
        // from serializing the result (a bad_alloc on a 2^20-epoch
        // document) or from caching it fails this request with
        // Status::Internal and leaves the worker serving.
        Response response;
        try {
            ScopedFatalThrow guard;
            response = process(job.id, job.request, root.context());
        } catch (const std::exception &e) {
            response = internalFailure(job.id, e.what());
        } catch (...) {
            response = internalFailure(job.id, "unknown exception");
        }
        root.finish();

        {
            std::lock_guard<std::mutex> lock(mu);
            --inFlight;
            ++counters.completed;
            if (response.status != api::Status::Ok)
                ++counters.failed;
            counters.workerUtil[wi].busyUs +=
                obs::wallClockUs() - busyFrom;
        }
        job.promise.set_value(std::move(response));
        cvDrain.notify_all();
    }
}

Response
Broker::process(std::uint64_t id, const Request &request,
                const obs::TraceContext &trace)
{
    Response response;
    response.requestId = id;

    api::RunParams params = request.params;
    params.backend = resolveBackend(request);
    response.backend = params.backend;

    // Level one: spec -> design facts.  A table hit skips the Session
    // (build, lint, elaborate, hash, gen balancing) entirely.
    CacheKey key;
    std::shared_ptr<const api::DesignFacts> facts;
    {
        obs::ScopedSpan span(trace, "elaborate");
        facts = factsTable.lookup(request.spec);
        if (facts == nullptr) {
            {
                std::lock_guard<std::mutex> lock(mu);
                ++counters.keyDerivations;
            }
            // Derive through a Session: a spec that does not lint
            // never reaches the cache or an engine, and the
            // finding-derived message survives in the response.
            api::Session session(request.spec);
            api::DesignFacts derived;
            if (const api::Status s = session.designFacts(derived);
                s != api::Status::Ok) {
                response.status = s;
                response.error = session.lastError();
                return response;
            }
            facts = std::make_shared<const api::DesignFacts>(
                std::move(derived));
            factsTable.insert(request.spec, facts);
        }
        response.structural = facts->structural;
        key = cacheKeyFor(request.spec, *facts, params);
    }

    // Level two: result key -> result document.
    {
        obs::ScopedSpan span(trace, "cache_probe");
        std::optional<std::string> hit = cache.lookup(key);
        span.arg("hit", hit.has_value() ? "1" : "0");
        if (hit.has_value()) {
            response.cacheHit = true;
            response.json = std::move(*hit);
            return response;
        }
    }

    api::RunResult result;
    {
        obs::ScopedSpan span(trace, "run");
        api::Session session(request.spec);
        if (const api::Status s = session.run(params, result, facts.get());
            s != api::Status::Ok) {
            response.status = s;
            response.error = session.lastError();
            return response;
        }
    }
    {
        obs::ScopedSpan span(trace, "serialize");
        response.json =
            api::resultToJson(request.spec, params, result);
        cache.insert(key, response.json);
    }
    {
        std::lock_guard<std::mutex> lock(statsMu);
        runStats.mergeFrom(result.stats);
    }
    return response;
}

} // namespace usfq::svc
