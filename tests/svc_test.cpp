/**
 * @file
 * Simulation-service tests (src/svc/, docs/service.md): the
 * content-addressed cache key (structural hash determinism and
 * sensitivity), the LRU result store, hit-vs-recompute bit identity
 * across batch widths and sweep thread counts, the request broker
 * (completion, backend auto-selection, backpressure, deterministic
 * stats merging, error isolation) and its design-facts table (hits
 * byte-identical to direct runs, no memoised failures, bounded size,
 * one derivation per spec), plus the C ABI under concurrent callers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/facade.hh"
#include "api/spec.hh"
#include "api/usfq.h"
#include "obs/artifact.hh"
#include "sfq/cells.hh"
#include "sfq/sources.hh"
#include "sim/netlist.hh"
#include "svc/broker.hh"
#include "svc/cache.hh"
#include "util/json.hh"

namespace usfq
{
namespace
{

api::NetlistSpec
dpuSpec(int taps = 8, int bits = 5)
{
    api::NetlistSpec spec;
    spec.kind = api::WorkloadKind::Dpu;
    spec.name = "dpu";
    spec.taps = taps;
    spec.bits = bits;
    spec.mode = DpuMode::Bipolar;
    return spec;
}

api::RunParams
functionalParams(int epochs = 10)
{
    api::RunParams params;
    params.backend = Backend::Functional;
    params.epochs = epochs;
    params.seed = 0x5eedULL;
    return params;
}

/**
 * The facade's inverter-probe netlist, with the two cells registered
 * in either order: the structural hash must not care.
 */
void
buildProbe(Netlist &nl, bool clockFirst)
{
    ClockSource *clk = nullptr;
    Inverter *inv = nullptr;
    if (clockFirst) {
        clk = &nl.create<ClockSource>("clk");
        inv = &nl.create<Inverter>("inv");
    } else {
        inv = &nl.create<Inverter>("inv");
        clk = &nl.create<ClockSource>("clk");
    }
    clk->out.connect(inv->clk);
    inv->d.markOptional("probe: clock-only drive");
    inv->q.markOpen("probe: rate study output");
    clk->program(1200, 1200, 16);
}

// --- structural hash -----------------------------------------------------

TEST(SvcHash, IdenticalSpecsHashIdentically)
{
    Netlist a("a");
    Netlist b("b");
    std::string err;
    ASSERT_TRUE(api::buildNetlist(dpuSpec(), a, &err)) << err;
    ASSERT_TRUE(api::buildNetlist(dpuSpec(), b, &err)) << err;
    EXPECT_EQ(api::structuralHash(a), api::structuralHash(b));
}

TEST(SvcHash, RegistrationOrderDoesNotMatter)
{
    Netlist a("a");
    Netlist b("b");
    buildProbe(a, /*clockFirst=*/true);
    buildProbe(b, /*clockFirst=*/false);
    EXPECT_EQ(api::structuralHash(a), api::structuralHash(b));
}

TEST(SvcHash, HashIsStableAcrossRepeatedCalls)
{
    Netlist nl("n");
    std::string err;
    ASSERT_TRUE(api::buildNetlist(dpuSpec(), nl, &err)) << err;
    const std::uint64_t first = api::structuralHash(nl);
    EXPECT_EQ(api::structuralHash(nl), first);
}

TEST(SvcHash, ParameterChangesMoveTheHash)
{
    Netlist base("base");
    Netlist wider("wider");
    Netlist deeper("deeper");
    Netlist unipolar("unipolar");
    std::string err;
    ASSERT_TRUE(api::buildNetlist(dpuSpec(8, 5), base, &err)) << err;
    ASSERT_TRUE(api::buildNetlist(dpuSpec(9, 5), wider, &err)) << err;
    ASSERT_TRUE(api::buildNetlist(dpuSpec(8, 6), deeper, &err)) << err;
    api::NetlistSpec uni = dpuSpec(8, 5);
    uni.mode = DpuMode::Unipolar;
    ASSERT_TRUE(api::buildNetlist(uni, unipolar, &err)) << err;

    const std::uint64_t h = api::structuralHash(base);
    EXPECT_NE(api::structuralHash(wider), h);
    EXPECT_NE(api::structuralHash(unipolar), h);

    // Resolution independence (the paper's headline property): more
    // bits lengthen the epoch, not the netlist, so the structural
    // hash must NOT move -- the spec hash carries the distinction
    // into the cache key instead.
    EXPECT_EQ(api::structuralHash(deeper), h);
    EXPECT_NE(api::specHash(dpuSpec(8, 6)), api::specHash(dpuSpec(8, 5)));
}

TEST(SvcHash, TopologyChangesMoveTheHash)
{
    // Same component set, different wiring/anchoring: probe vs an
    // unclocked pair.
    Netlist wired("wired");
    Netlist unwired("unwired");
    buildProbe(wired, true);
    {
        auto &clk = unwired.create<ClockSource>("clk");
        auto &inv = unwired.create<Inverter>("inv");
        (void)clk;
        inv.d.markOptional("probe variant");
        inv.clk.markOptional("probe variant");
        inv.q.markOpen("probe variant");
        unwired.waive(LintRule::OpenOutput, "probe variant");
    }
    EXPECT_NE(api::structuralHash(wired),
              api::structuralHash(unwired));
}

TEST(SvcHash, CacheKeySeparatesBackendSeedAndEpochs)
{
    const api::NetlistSpec spec = dpuSpec();
    Netlist nl("n");
    std::string err;
    ASSERT_TRUE(api::buildNetlist(spec, nl, &err)) << err;

    const api::RunParams base = functionalParams();
    const svc::CacheKey k0 = svc::cacheKeyFor(spec, nl, base);

    api::RunParams other = base;
    other.backend = Backend::PulseLevel;
    EXPECT_FALSE(svc::cacheKeyFor(spec, nl, other) == k0);

    other = base;
    other.seed = base.seed + 1;
    EXPECT_FALSE(svc::cacheKeyFor(spec, nl, other) == k0);

    other = base;
    other.epochs = base.epochs + 1;
    EXPECT_FALSE(svc::cacheKeyFor(spec, nl, other) == k0);

    // batch/threads are cache-transparent: same key.
    other = base;
    other.batch = 8;
    other.threads = 4;
    EXPECT_TRUE(svc::cacheKeyFor(spec, nl, other) == k0);

    // A bits bump leaves the (resolution-independent) netlist alone
    // but must still address a different cache line via the spec hash.
    const api::NetlistSpec deeper = dpuSpec(8, 6);
    Netlist nl6("n6");
    ASSERT_TRUE(api::buildNetlist(deeper, nl6, &err)) << err;
    EXPECT_FALSE(svc::cacheKeyFor(deeper, nl6, base) == k0);
}

// --- result cache --------------------------------------------------------

TEST(SvcCache, LookupInsertAndStats)
{
    svc::ResultCache cache(4);
    svc::CacheKey key;
    key.structural = 1;

    EXPECT_FALSE(cache.lookup(key).has_value());
    cache.insert(key, "doc");
    const std::optional<std::string> hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "doc");

    // Duplicate insert is a no-op (documents are deterministic).
    cache.insert(key, "other");
    EXPECT_EQ(*cache.lookup(key), "doc");

    const svc::CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 2.0 / 3.0);
}

TEST(SvcCache, EvictsLeastRecentlyUsed)
{
    svc::ResultCache cache(2);
    svc::CacheKey a, b, c;
    a.structural = 1;
    b.structural = 2;
    c.structural = 3;
    cache.insert(a, "a");
    cache.insert(b, "b");
    ASSERT_TRUE(cache.lookup(a).has_value()); // refresh a; b is LRU
    cache.insert(c, "c");                     // evicts b
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.lookup(a).has_value());
    EXPECT_FALSE(cache.lookup(b).has_value());
    EXPECT_TRUE(cache.lookup(c).has_value());
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SvcCache, HitIsBitIdenticalToRecomputation)
{
    const api::NetlistSpec spec = dpuSpec();
    const api::RunParams params = functionalParams();

    Netlist nl("n");
    std::string err;
    ASSERT_TRUE(api::buildNetlist(spec, nl, &err)) << err;
    const svc::CacheKey key = svc::cacheKeyFor(spec, nl, params);

    svc::ResultCache cache;
    cache.insert(key,
                 api::resultToJson(spec, params,
                                   api::runWorkload(spec, params)));

    // Recompute at a different batch width and thread count: the hit
    // stored above must be the exact bytes this run produces too.
    api::RunParams batched = params;
    batched.batch = 8;
    batched.threads = 4;
    const std::string recomputed = api::resultToJson(
        spec, batched, api::runWorkload(spec, batched));
    const std::optional<std::string> hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, recomputed);
}

// --- broker --------------------------------------------------------------

TEST(SvcBroker, IntentSelectsTheBackend)
{
    svc::Request request;
    request.params.backend = Backend::PulseLevel;
    EXPECT_EQ(svc::Broker::resolveBackend(request),
              Backend::PulseLevel);
    request.intent = svc::RequestIntent::Throughput;
    EXPECT_EQ(svc::Broker::resolveBackend(request),
              Backend::Functional);
    request.intent = svc::RequestIntent::Audit;
    EXPECT_EQ(svc::Broker::resolveBackend(request),
              Backend::PulseLevel);
}

TEST(SvcBroker, CompletesRequestsAndHitsTheCache)
{
    svc::BrokerOptions opts;
    opts.workers = 2;
    opts.queueCapacity = 64;
    svc::Broker broker(opts);

    const api::NetlistSpec spec = dpuSpec();
    const api::RunParams params = functionalParams();
    const std::string expected = api::resultToJson(
        spec, params, api::runWorkload(spec, params));

    std::vector<std::future<svc::Response>> futures;
    for (int i = 0; i < 16; ++i) {
        auto f = broker.submit(svc::Request{spec, params,
                                            svc::RequestIntent::Default});
        ASSERT_TRUE(f.has_value());
        futures.push_back(std::move(*f));
    }
    broker.drain();

    std::uint64_t hits = 0;
    for (auto &f : futures) {
        svc::Response r = f.get();
        ASSERT_EQ(r.status, api::Status::Ok) << r.error;
        EXPECT_EQ(r.backend, Backend::Functional);
        EXPECT_NE(r.structural, 0u);
        EXPECT_EQ(r.json, expected);
        if (r.cacheHit)
            ++hits;
    }
    EXPECT_GT(hits, 0u);
    const svc::BrokerStats stats = broker.stats();
    EXPECT_EQ(stats.submitted, 16u);
    EXPECT_EQ(stats.completed, 16u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_GT(broker.cacheStats().hits, 0u);
}

TEST(SvcBroker, AuditIntentRunsPulseLevelWithIdenticalCounts)
{
    svc::Broker broker;
    api::NetlistSpec spec = dpuSpec(4, 4);
    api::RunParams params = functionalParams(4);

    auto audit = broker.submit(
        svc::Request{spec, params, svc::RequestIntent::Audit});
    auto fast = broker.submit(
        svc::Request{spec, params, svc::RequestIntent::Throughput});
    ASSERT_TRUE(audit.has_value());
    ASSERT_TRUE(fast.has_value());
    svc::Response ra = audit->get();
    svc::Response rf = fast->get();
    ASSERT_EQ(ra.status, api::Status::Ok) << ra.error;
    ASSERT_EQ(rf.status, api::Status::Ok) << rf.error;
    EXPECT_EQ(ra.backend, Backend::PulseLevel);
    EXPECT_EQ(rf.backend, Backend::Functional);
    EXPECT_FALSE(ra.json == rf.json); // backend is in the document
    EXPECT_EQ(ra.structural, rf.structural);
}

TEST(SvcBroker, FullQueueRejectsWithBackpressure)
{
    svc::BrokerOptions opts;
    opts.workers = 1;
    opts.queueCapacity = 1;
    svc::Broker broker(opts);

    const api::NetlistSpec spec = dpuSpec();
    const api::RunParams params = functionalParams(64);

    // One request occupies the worker, one the queue; keep submitting
    // until admission control pushes back.  Each run takes far longer
    // than a submit, so this terminates almost immediately.
    std::vector<std::future<svc::Response>> futures;
    bool rejected = false;
    for (int i = 0; i < 100000 && !rejected; ++i) {
        auto f = broker.submit(svc::Request{spec, params,
                                            svc::RequestIntent::Default});
        if (f.has_value())
            futures.push_back(std::move(*f));
        else
            rejected = true;
    }
    EXPECT_TRUE(rejected);
    broker.drain();
    for (auto &f : futures)
        EXPECT_EQ(f.get().status, api::Status::Ok);
    EXPECT_GT(broker.stats().rejected, 0u);
    EXPECT_EQ(broker.stats().completed, futures.size());
}

TEST(SvcBroker, BadRequestsFailWithoutPoisoningTheBroker)
{
    svc::Broker broker;

    api::NetlistSpec bad = dpuSpec();
    bad.waiveUnwired = false; // unwaived lint findings
    auto fbad = broker.submit(
        svc::Request{bad, functionalParams(),
                     svc::RequestIntent::Default});
    ASSERT_TRUE(fbad.has_value());
    svc::Response rbad = fbad->get();
    EXPECT_EQ(rbad.status, api::Status::LintError);
    EXPECT_FALSE(rbad.error.empty());
    EXPECT_TRUE(rbad.json.empty());

    // The broker keeps serving good requests afterwards.
    auto fok = broker.submit(
        svc::Request{dpuSpec(), functionalParams(),
                     svc::RequestIntent::Default});
    ASSERT_TRUE(fok.has_value());
    EXPECT_EQ(fok->get().status, api::Status::Ok);
    EXPECT_EQ(broker.stats().failed, 1u);
}

api::NetlistSpec
nocSpec(int rows = 3, int cols = 3)
{
    api::NetlistSpec spec;
    spec.kind = api::WorkloadKind::NocMesh;
    spec.name = "mesh";
    spec.gridRows = rows;
    spec.gridCols = cols;
    spec.taps = 2;
    spec.bits = 4;
    return spec;
}

TEST(SvcBroker, MergedStatsAreSchedulingIndependent)
{
    // Distinct requests (no cache hits) -- functional DPUs, pulse
    // audits, NoC meshes on both engines, whose fabric utilization is
    // a high-water gauge -- run through brokers with different worker
    // counts.  The broker folds each run as it completes, so the fold
    // order is the completion order; the documents must still be
    // identical, and equal to a request-order fold of direct runs.
    std::vector<svc::Request> requests;
    for (int taps = 2; taps <= 9; ++taps)
        requests.push_back(svc::Request{dpuSpec(taps),
                                        functionalParams(6),
                                        svc::RequestIntent::Default});
    for (int taps = 2; taps <= 4; ++taps)
        requests.push_back(svc::Request{dpuSpec(taps), functionalParams(3),
                                        svc::RequestIntent::Audit});
    requests.push_back(svc::Request{nocSpec(2, 2), functionalParams(3),
                                    svc::RequestIntent::Audit});
    requests.push_back(svc::Request{nocSpec(2, 2), functionalParams(12),
                                    svc::RequestIntent::Default});
    requests.push_back(svc::Request{nocSpec(3, 3), functionalParams(8),
                                    svc::RequestIntent::Throughput});

    const auto runThrough = [&requests](int workerCount) {
        svc::BrokerOptions opts;
        opts.workers = workerCount;
        opts.queueCapacity = 64;
        svc::Broker broker(opts);
        std::vector<std::future<svc::Response>> futures;
        for (const svc::Request &r : requests) {
            auto f = broker.submit(r);
            EXPECT_TRUE(f.has_value());
            if (f.has_value())
                futures.push_back(std::move(*f));
        }
        broker.drain();
        for (auto &f : futures)
            EXPECT_EQ(f.get().status, api::Status::Ok);
        return obs::statsToJson(broker.mergedStats());
    };

    obs::StatsRegistry direct;
    for (const svc::Request &r : requests) {
        api::RunParams params = r.params;
        params.backend = svc::Broker::resolveBackend(r);
        direct.mergeFrom(api::runWorkload(r.spec, params).stats);
    }
    ASSERT_NE(direct.findGauge("noc/fabric/window_utilization"), nullptr);

    const std::string one = runThrough(1);
    EXPECT_EQ(one, runThrough(4));
    EXPECT_EQ(one, obs::statsToJson(direct));
}

TEST(SvcBroker, NocRequestBackpressuresAndDrainsInOrder)
{
    svc::BrokerOptions opts;
    opts.workers = 1;
    opts.queueCapacity = 2;
    svc::Broker broker(opts);

    // A pulse-level NoC fabric run occupies the single worker for far
    // longer than a submit takes, so admission control must start
    // rejecting once the queue fills behind it.
    api::RunParams slow = functionalParams(4);
    slow.backend = Backend::PulseLevel;
    auto first = broker.submit(
        svc::Request{nocSpec(), slow, svc::RequestIntent::Audit});
    ASSERT_TRUE(first.has_value());

    std::vector<std::future<svc::Response>> queued;
    bool rejected = false;
    for (int i = 0; i < 100000 && !rejected; ++i) {
        api::RunParams fast = functionalParams(2);
        fast.seed = 0x9000u + static_cast<std::uint64_t>(i);
        auto f = broker.submit(svc::Request{
            nocSpec(), fast, svc::RequestIntent::Throughput});
        if (f.has_value())
            queued.push_back(std::move(f.value()));
        else
            rejected = true;
    }
    EXPECT_TRUE(rejected);
    EXPECT_GT(broker.stats().rejected, 0u);

    broker.drain();
    svc::Response r0 = first->get();
    EXPECT_EQ(r0.status, api::Status::Ok);
    EXPECT_EQ(r0.backend, Backend::PulseLevel);
    EXPECT_NE(r0.json.find("\"grid_rows\""), std::string::npos);

    // FIFO drain: responses carry the monotonically assigned request
    // ids, and the single worker serves the deque in admission order.
    std::uint64_t lastId = r0.requestId;
    for (auto &f : queued) {
        svc::Response r = f.get();
        EXPECT_EQ(r.status, api::Status::Ok);
        EXPECT_GT(r.requestId, lastId);
        lastId = r.requestId;
    }
    EXPECT_EQ(broker.stats().completed, queued.size() + 1);
}

TEST(SvcBroker, QueueHighWaterAndWorkerUtilization)
{
    svc::BrokerOptions opts;
    opts.workers = 3;
    opts.queueCapacity = 32;
    svc::Broker broker(opts);

    std::vector<std::future<svc::Response>> futures;
    for (int i = 0; i < 24; ++i) {
        api::RunParams params = functionalParams(8);
        params.seed = 0xa000u + static_cast<std::uint64_t>(i);
        auto f = broker.submit(svc::Request{
            dpuSpec(), params, svc::RequestIntent::Default});
        ASSERT_TRUE(f.has_value());
        futures.push_back(std::move(*f));
    }
    broker.drain();
    for (auto &f : futures)
        EXPECT_EQ(f.get().status, api::Status::Ok);

    const svc::BrokerStats stats = broker.stats();
    // The queue held at least one pending request at some point, and
    // the high-water mark can never exceed the configured capacity.
    EXPECT_GE(stats.queueDepthHighWater, 1u);
    EXPECT_LE(stats.queueDepthHighWater, opts.queueCapacity);
    // One utilization slot per worker, each internally consistent.
    ASSERT_EQ(stats.workerUtil.size(),
              static_cast<std::size_t>(opts.workers));
    std::uint64_t busyTotal = 0;
    for (const svc::WorkerUtil &util : stats.workerUtil) {
        const double u = util.utilization();
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
        busyTotal += util.busyUs;
    }
    // 24 functional runs cannot all complete in zero microseconds.
    EXPECT_GT(busyTotal, 0u);
}

// --- design-facts table ---------------------------------------------------

/** What a standalone tool computes for @p r: the byte reference. */
std::string
directJson(const svc::Request &r)
{
    api::RunParams p = r.params;
    p.backend = svc::Broker::resolveBackend(r);
    return api::resultToJson(r.spec, p, api::runWorkload(r.spec, p));
}

/** Submit and wait: one request at a time keeps derivations exact. */
svc::Response
runOne(svc::Broker &broker, const svc::Request &r)
{
    auto f = broker.submit(r);
    EXPECT_TRUE(f.has_value());
    return f.has_value() ? f->get() : svc::Response{};
}

api::NetlistSpec
genSpec(int lanes = 4, int bits = 4, double periodPs = 24)
{
    api::NetlistSpec spec;
    spec.kind = api::WorkloadKind::Gen;
    spec.name = "gen";
    spec.gen.lanes = lanes;
    spec.gen.bits = bits;
    spec.gen.clockPeriodPs = periodPs;
    spec.gen.tree = gen::TreeKind::Balancer;
    spec.gen.shape = gen::LaneShape::Skewed;
    return spec;
}

/** One small spec of every workload kind. */
std::vector<api::NetlistSpec>
everyKind()
{
    api::NetlistSpec pe = dpuSpec(4, 4);
    pe.kind = api::WorkloadKind::Pe;
    pe.name = "pe";
    api::NetlistSpec fir = dpuSpec(3, 4);
    fir.kind = api::WorkloadKind::Fir;
    fir.name = "fir";
    fir.mode = DpuMode::Unipolar;
    api::NetlistSpec inv;
    inv.kind = api::WorkloadKind::Inverter;
    inv.name = "inv";
    inv.clockPeriodPs = 12.0;
    inv.clockCount = 16;
    return {dpuSpec(4, 4), pe, fir, inv, nocSpec(2, 2), genSpec()};
}

TEST(SvcFacts, HitsAreByteIdenticalToDirectRunsForEveryKind)
{
    svc::BrokerOptions opts;
    opts.workers = 2;
    svc::Broker broker(opts);

    const std::vector<api::NetlistSpec> specs = everyKind();
    for (const api::NetlistSpec &spec : specs) {
        const std::string kind = api::workloadKindName(spec.kind);
        // The first request derives the facts; every later one -- new
        // seeds, the other engine -- runs from the table, and the
        // final repeat hits both levels.
        std::uint64_t structural = 0;
        for (const auto intent : {svc::RequestIntent::Throughput,
                                  svc::RequestIntent::Audit}) {
            for (const std::uint64_t seed : {0x11ULL, 0x22ULL}) {
                api::RunParams params = functionalParams(3);
                params.seed = seed;
                const svc::Request req{spec, params, intent};
                const svc::Response r = runOne(broker, req);
                ASSERT_EQ(r.status, api::Status::Ok) << kind << r.error;
                EXPECT_FALSE(r.cacheHit) << kind;
                EXPECT_EQ(r.json, directJson(req)) << kind;
                if (structural == 0)
                    structural = r.structural;
                EXPECT_EQ(r.structural, structural) << kind;
            }
        }
        const svc::Request again{spec, functionalParams(3),
                                 svc::RequestIntent::Audit};
        const svc::Response hit = runOne(broker, again);
        ASSERT_EQ(hit.status, api::Status::Ok) << kind << hit.error;
        EXPECT_EQ(hit.json, directJson(again)) << kind;

        // The structural hash the table memoised is the session's.
        api::Session session(spec);
        std::uint64_t fresh = 0;
        ASSERT_EQ(session.contentHash(fresh), api::Status::Ok) << kind;
        EXPECT_EQ(structural, fresh) << kind;
    }
    EXPECT_EQ(broker.stats().keyDerivations, specs.size());
    EXPECT_EQ(broker.factsSize(), specs.size());
}

TEST(SvcFacts, NameOnlyDifferenceSeparatesTheKeys)
{
    svc::Broker broker;
    api::NetlistSpec alpha = dpuSpec();
    alpha.name = "alpha";
    api::NetlistSpec beta = alpha;
    beta.name = "beta";

    const svc::Request ra{alpha, functionalParams(),
                          svc::RequestIntent::Default};
    const svc::Request rb{beta, functionalParams(),
                          svc::RequestIntent::Default};
    for (int round = 0; round < 2; ++round) {
        const svc::Response a = runOne(broker, ra);
        const svc::Response b = runOne(broker, rb);
        ASSERT_EQ(a.status, api::Status::Ok) << a.error;
        ASSERT_EQ(b.status, api::Status::Ok) << b.error;
        EXPECT_NE(a.structural, b.structural);
        EXPECT_NE(a.json, b.json);
        EXPECT_EQ(a.json, directJson(ra));
        EXPECT_EQ(b.json, directJson(rb));
    }
    EXPECT_EQ(broker.stats().keyDerivations, 2u);
}

TEST(SvcFacts, FailuresRepeatExactlyAndAreNeverMemoised)
{
    svc::Broker broker;
    api::NetlistSpec unlinted = dpuSpec();
    unlinted.waiveUnwired = false;
    api::NetlistSpec infeasible = genSpec();
    infeasible.gen.clockPeriodPs = 10; // below the balancer dead time

    constexpr int kRounds = 3;
    for (const api::NetlistSpec &spec : {unlinted, infeasible}) {
        // The reference: what a session reports for the spec.
        api::Session session(spec);
        api::DesignFacts facts;
        const api::Status expected = session.designFacts(facts);
        ASSERT_NE(expected, api::Status::Ok);
        for (int round = 0; round < kRounds; ++round) {
            const svc::Response r = runOne(
                broker, svc::Request{spec, functionalParams(),
                                     svc::RequestIntent::Default});
            EXPECT_EQ(r.status, expected) << round;
            EXPECT_EQ(r.error, session.lastError()) << round;
            EXPECT_TRUE(r.json.empty());
        }
    }
    EXPECT_EQ(broker.factsSize(), 0u);
    EXPECT_EQ(broker.stats().keyDerivations, 2u * kRounds);
    EXPECT_EQ(broker.stats().failed, 2u * kRounds);
}

TEST(SvcFacts, TableIsBoundedAtTheLargerOfCacheCapacityAnd1024)
{
    // The facts table holds max(cacheCapacity, 1024) specs: a 3-entry
    // result cache keeps the facts of its first 1024 specs, and the
    // table stops growing there.
    svc::BrokerOptions opts;
    opts.workers = 2;
    opts.cacheCapacity = 3;
    svc::Broker broker(opts);
    constexpr std::size_t kBound = 1024;
    constexpr std::size_t kSpecs = kBound + 6;
    for (std::size_t i = 0; i < kSpecs; ++i) {
        api::NetlistSpec spec = dpuSpec(2, 3);
        spec.name = indexedName("d", i);
        const svc::Response r = runOne(
            broker, svc::Request{spec, functionalParams(1),
                                 svc::RequestIntent::Default});
        ASSERT_EQ(r.status, api::Status::Ok) << r.error;
        ASSERT_EQ(broker.factsSize(), std::min(i + 1, kBound));
    }
    EXPECT_EQ(broker.stats().keyDerivations, kSpecs);
}

TEST(SvcFacts, SmallResultCacheDoesNotForceRederivation)
{
    // Twelve distinct specs round-robin through a 2-entry result
    // cache: every request misses and evicts, yet each spec's facts
    // are derived once.  (A table bounded by the cache derives 120.)
    svc::BrokerOptions opts;
    opts.workers = 2;
    opts.cacheCapacity = 2;
    svc::Broker broker(opts);
    constexpr int kSpecs = 12;
    constexpr int kRounds = 10;
    for (int round = 0; round < kRounds; ++round) {
        for (int taps = 2; taps < 2 + kSpecs; ++taps) {
            const svc::Response r = runOne(
                broker, svc::Request{dpuSpec(taps), functionalParams(2),
                                     svc::RequestIntent::Default});
            ASSERT_EQ(r.status, api::Status::Ok) << r.error;
            EXPECT_FALSE(r.cacheHit);
        }
    }
    EXPECT_EQ(broker.stats().keyDerivations,
              static_cast<std::uint64_t>(kSpecs));
    EXPECT_EQ(broker.factsSize(), static_cast<std::size_t>(kSpecs));
}

TEST(SvcFacts, EachDistinctSpecIsDerivedOnce)
{
    svc::BrokerOptions opts;
    opts.workers = 3;
    opts.cacheCapacity = 16;
    svc::Broker broker(opts);
    const std::vector<api::NetlistSpec> specs = everyKind();

    constexpr int kRounds = 20;
    for (int round = 0; round < kRounds; ++round) {
        // A round's specs are distinct, so no two of its requests can
        // race to derive the same facts.
        std::vector<std::future<svc::Response>> futures;
        for (const api::NetlistSpec &spec : specs) {
            auto f = broker.submit(svc::Request{
                spec, functionalParams(2), svc::RequestIntent::Default});
            ASSERT_TRUE(f.has_value());
            futures.push_back(std::move(*f));
        }
        broker.drain();
        for (auto &f : futures)
            EXPECT_EQ(f.get().status, api::Status::Ok);
    }
    EXPECT_EQ(broker.stats().keyDerivations, specs.size());
    EXPECT_EQ(broker.stats().completed, kRounds * specs.size());
}

TEST(SvcEngineAbi, EngineMetricsAccumulateAcrossRuns)
{
    usfq_engine *eng = nullptr;
    ASSERT_EQ(usfq_engine_create(
                  "{\"kind\": \"dpu\", \"taps\": 4, \"bits\": 4}",
                  &eng),
              USFQ_OK);

    // A fresh engine reports an empty (but well-formed) registry.
    char *before = nullptr;
    ASSERT_EQ(usfq_engine_metrics(eng, &before), USFQ_OK);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(before, doc, &error)) << error;
    usfq_string_free(before);
    ASSERT_TRUE(doc.isObject());
    ASSERT_NE(doc.find("counters"), nullptr);
    EXPECT_TRUE(doc.find("counters")->object.empty());

    char *json = nullptr;
    ASSERT_EQ(usfq_engine_run(eng, "{\"epochs\": 3}", &json),
              USFQ_OK);
    usfq_string_free(json);

    char *after = nullptr;
    ASSERT_EQ(usfq_engine_metrics(eng, &after), USFQ_OK);
    const std::string metrics(after);
    usfq_string_free(after);
    ASSERT_TRUE(parseJson(metrics, doc, &error)) << error;
    EXPECT_FALSE(doc.find("counters")->object.empty()) << metrics;

    // Identical reads back to back: the export itself is pure.
    char *again = nullptr;
    ASSERT_EQ(usfq_engine_metrics(eng, &again), USFQ_OK);
    EXPECT_EQ(metrics, std::string(again));
    usfq_string_free(again);

    EXPECT_EQ(usfq_engine_metrics(nullptr, &json),
              USFQ_ERR_INVALID_ARG);
    EXPECT_EQ(usfq_engine_metrics(eng, nullptr),
              USFQ_ERR_INVALID_ARG);
    usfq_engine_destroy(eng);
}

TEST(SvcBrokerAbi, RunAndMetricsThroughTheCAbi)
{
    usfq_broker *broker = nullptr;
    ASSERT_EQ(usfq_broker_create(2, 16, 8, &broker), USFQ_OK);

    const char *spec = "{\"kind\": \"dpu\", \"taps\": 4, \"bits\": 4}";
    int32_t hit = -1;
    char *first = nullptr;
    ASSERT_EQ(usfq_broker_run(broker, spec, "{\"epochs\": 3}",
                              "throughput", &hit, &first),
              USFQ_OK);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(hit, 0);

    // The identical request again: a cache hit with the same bytes.
    char *second = nullptr;
    ASSERT_EQ(usfq_broker_run(broker, spec, "{\"epochs\": 3}",
                              "throughput", &hit, &second),
              USFQ_OK);
    EXPECT_EQ(hit, 1);
    EXPECT_STREQ(first, second);
    usfq_string_free(first);
    usfq_string_free(second);

    // Malformed spec: a parse status, a message, no broker poisoning.
    char *bad = nullptr;
    EXPECT_EQ(usfq_broker_run(broker, "{not json", nullptr, nullptr,
                              &hit, &bad),
              USFQ_ERR_PARSE);
    EXPECT_NE(std::string(usfq_broker_last_error(broker)), "");
    EXPECT_EQ(usfq_broker_run(broker, spec, "{\"epochs\": 3}",
                              "no-such-intent", &hit, &bad),
              USFQ_ERR_INVALID_ARG);

    char *metrics = nullptr;
    ASSERT_EQ(usfq_broker_metrics(broker, &metrics), USFQ_OK);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(metrics, doc, &error)) << error;
    usfq_string_free(metrics);
    const JsonValue *bs = doc.find("broker");
    ASSERT_NE(bs, nullptr);
    EXPECT_EQ(bs->find("submitted")->number, 2.0);
    EXPECT_EQ(bs->find("completed")->number, 2.0);
    EXPECT_GE(bs->find("queue_depth_high_water")->number, 1.0);
    ASSERT_NE(bs->find("workers"), nullptr);
    EXPECT_EQ(bs->find("workers")->array.size(), 2u);
    const JsonValue *cache = doc.find("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->find("hits")->number, 1.0);
    EXPECT_EQ(cache->find("misses")->number, 1.0);
    ASSERT_NE(doc.find("stats"), nullptr);
    EXPECT_FALSE(doc.find("stats")->find("counters")->object.empty());

    usfq_broker_destroy(broker);

    // NULL armor.
    EXPECT_EQ(usfq_broker_create(1, 1, 1, nullptr),
              USFQ_ERR_INVALID_ARG);
    EXPECT_EQ(usfq_broker_metrics(nullptr, &metrics),
              USFQ_ERR_INVALID_ARG);
}

TEST(SvcBrokerAbi, ConcurrentCallersMixPoisonedAndLongRequests)
{
    // Four threads share one broker handle with four workers: each
    // interleaves lint-poisoned specs, pulse-level NoC audits and plain
    // DPU requests.  The process survives, every call gets its own
    // status, and each thread reads back its own last error.
    constexpr int kThreads = 4;
    constexpr int kCallsPerThread = 6;
    usfq_broker *broker = nullptr;
    ASSERT_EQ(usfq_broker_create(kThreads, 8, 16, &broker), USFQ_OK);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, broker, &mismatches] {
            const std::string dpu = "{\"kind\": \"dpu\", \"taps\": " +
                                    std::to_string(2 + t) +
                                    ", \"bits\": 4}";
            const std::string poisoned =
                "{\"kind\": \"dpu\", \"taps\": 4, \"bits\": 4, "
                "\"waive_unwired\": false}";
            const std::string mesh = "{\"kind\": \"noc\", \"taps\": 2, "
                                     "\"bits\": 4, \"grid_rows\": 2, "
                                     "\"grid_cols\": 2}";
            for (int i = 0; i < kCallsPerThread; ++i) {
                const int pick = (t + i) % 3;
                const std::string &spec =
                    pick == 0 ? poisoned : pick == 1 ? mesh : dpu;
                char *json = nullptr;
                const int32_t st = usfq_broker_run(
                    broker, spec.c_str(), "{\"epochs\": 2}",
                    pick == 1 ? "audit" : "throughput", nullptr, &json);
                const std::string err = usfq_broker_last_error(broker);
                if (pick == 0) {
                    if (st != USFQ_ERR_LINT ||
                        err.find("lint") == std::string::npos)
                        ++mismatches;
                } else {
                    if (st != USFQ_OK || json == nullptr || !err.empty())
                        ++mismatches;
                    usfq_string_free(json);
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);

    char *metrics = nullptr;
    ASSERT_EQ(usfq_broker_metrics(broker, &metrics), USFQ_OK);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(metrics, doc, &error)) << error;
    usfq_string_free(metrics);
    EXPECT_EQ(doc.find("broker")->find("completed")->number,
              kThreads * kCallsPerThread);
    EXPECT_EQ(doc.find("broker")->find("failed")->number,
              kThreads * kCallsPerThread / 3);
    usfq_broker_destroy(broker);
}

TEST(SvcCacheAbi, ConcurrentRunCachedConservesCounters)
{
    // >= 4 threads hammering one shared cache through the C ABI (the
    // tsan stage of scripts/check.sh runs this too): the counters must
    // conserve exactly -- every call is a hit or a miss, every
    // insertion came from a miss, and the store never exceeds its
    // capacity.  Engines are single-threaded (usfq.h), so every thread
    // brings its own; only the cache is shared.
    constexpr int kThreads = 4;
    constexpr int kCallsPerThread = 64;
    constexpr int kDistinctSpecs = 6;

    usfq_cache *cache = nullptr;
    ASSERT_EQ(usfq_cache_create(4, &cache), USFQ_OK);

    std::vector<std::vector<usfq_engine *>> engines(kThreads);
    for (std::vector<usfq_engine *> &own : engines) {
        for (int i = 0; i < kDistinctSpecs; ++i) {
            usfq_engine *eng = nullptr;
            const std::string spec = "{\"kind\": \"dpu\", \"taps\": " +
                                     std::to_string(2 + i) +
                                     ", \"bits\": 4}";
            ASSERT_EQ(usfq_engine_create(spec.c_str(), &eng), USFQ_OK);
            own.push_back(eng);
        }
    }

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &engines, cache, &failures] {
            const std::vector<usfq_engine *> &own =
                engines[static_cast<std::size_t>(t)];
            for (int i = 0; i < kCallsPerThread; ++i) {
                usfq_engine *eng =
                    own[static_cast<std::size_t>(t + i) % own.size()];
                int32_t hit = -1;
                char *json = nullptr;
                if (usfq_engine_run_cached(eng, cache,
                                           "{\"epochs\": 3}", &hit,
                                           &json) != USFQ_OK ||
                    json == nullptr || hit < 0 || hit > 1) {
                    ++failures;
                    continue;
                }
                usfq_string_free(json);
                // Concurrent stats reads must stay well-formed too.
                char *stats = nullptr;
                if (usfq_cache_stats(cache, &stats) != USFQ_OK)
                    ++failures;
                else
                    usfq_string_free(stats);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);

    char *statsJson = nullptr;
    ASSERT_EQ(usfq_cache_stats(cache, &statsJson), USFQ_OK);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(statsJson, doc, &error)) << error;
    usfq_string_free(statsJson);
    const auto number = [&doc](const char *key) {
        const JsonValue *v = doc.find(key);
        EXPECT_NE(v, nullptr) << key;
        return v != nullptr ? static_cast<std::uint64_t>(v->number)
                            : 0u;
    };
    const std::uint64_t hits = number("hits");
    const std::uint64_t misses = number("misses");
    const std::uint64_t insertions = number("insertions");
    const std::uint64_t evictions = number("evictions");
    const std::uint64_t size = number("size");
    EXPECT_EQ(hits + misses,
              static_cast<std::uint64_t>(kThreads) * kCallsPerThread);
    // Two threads can miss the same key concurrently; the second
    // insert of a key is a no-op, so insertions can trail misses but
    // never exceed them.
    EXPECT_LE(insertions, misses);
    EXPECT_GT(insertions, 0u);
    EXPECT_EQ(size, insertions - evictions);
    EXPECT_LE(size, 4u);
    EXPECT_GT(hits, 0u);

    for (const std::vector<usfq_engine *> &own : engines)
        for (usfq_engine *eng : own)
            usfq_engine_destroy(eng);
    usfq_cache_destroy(cache);
}

TEST(SvcCacheAbi, StatsAndEvictionOrderThroughTheCAbi)
{
    usfq_cache *cache = nullptr;
    ASSERT_EQ(usfq_cache_create(2, &cache), USFQ_OK);

    const auto makeEngine = [](int taps) {
        usfq_engine *eng = nullptr;
        const std::string spec = "{\"kind\": \"dpu\", \"taps\": " +
                                 std::to_string(taps) +
                                 ", \"bits\": 4}";
        EXPECT_EQ(usfq_engine_create(spec.c_str(), &eng), USFQ_OK);
        return eng;
    };
    const auto runCached = [&cache](usfq_engine *eng) {
        int32_t hit = -1;
        char *json = nullptr;
        EXPECT_EQ(usfq_engine_run_cached(eng, cache,
                                         "{\"epochs\": 2}", &hit,
                                         &json),
                  USFQ_OK);
        EXPECT_NE(json, nullptr);
        usfq_string_free(json);
        return hit;
    };

    usfq_engine *a = makeEngine(2);
    usfq_engine *b = makeEngine(3);
    usfq_engine *c = makeEngine(4);

    EXPECT_EQ(runCached(a), 0); // miss: cache = [a]
    EXPECT_EQ(runCached(b), 0); // miss: cache = [b, a]
    EXPECT_EQ(runCached(a), 1); // hit refreshes: cache = [a, b]
    EXPECT_EQ(runCached(c), 0); // miss evicts LRU b: cache = [c, a]
    EXPECT_EQ(runCached(a), 1); // a survived the eviction
    EXPECT_EQ(runCached(b), 0); // b did not: the refresh reordered

    char *stats = nullptr;
    ASSERT_EQ(usfq_cache_stats(cache, &stats), USFQ_OK);
    const std::string json(stats);
    usfq_string_free(stats);
    EXPECT_NE(json.find("\"capacity\": 2"), std::string::npos) << json;
    EXPECT_NE(json.find("\"size\": 2"), std::string::npos) << json;
    EXPECT_NE(json.find("\"hits\": 2"), std::string::npos) << json;
    EXPECT_NE(json.find("\"misses\": 4"), std::string::npos) << json;
    EXPECT_NE(json.find("\"evictions\": 2"), std::string::npos)
        << json;

    // Byte identity of a hit against the recomputation it replaced.
    char *fresh = nullptr;
    char *cached = nullptr;
    EXPECT_EQ(usfq_engine_run(b, "{\"epochs\": 2}", &fresh), USFQ_OK);
    int32_t hit = -1;
    EXPECT_EQ(usfq_engine_run_cached(b, cache, "{\"epochs\": 2}",
                                     &hit, &cached),
              USFQ_OK);
    EXPECT_EQ(hit, 1);
    EXPECT_STREQ(fresh, cached);
    usfq_string_free(fresh);
    usfq_string_free(cached);

    usfq_engine_destroy(a);
    usfq_engine_destroy(b);
    usfq_engine_destroy(c);
    usfq_cache_destroy(cache);

    // NULL / zero-capacity argument armor.
    EXPECT_EQ(usfq_cache_create(0, &cache), USFQ_ERR_INVALID_ARG);
    char *out = nullptr;
    EXPECT_EQ(usfq_cache_stats(nullptr, &out), USFQ_ERR_INVALID_ARG);
}

} // namespace
} // namespace usfq
