/**
 * @file
 * The broker workloads (perfbench/README.md): serve_repeat and
 * serve_fresh.
 *
 * One generator thread (the caller) keeps kInFlight requests in flight
 * through a svc::Broker with kWorkers workers -- a closed loop: a slot
 * submits its next request as soon as its previous response arrives.
 * Requests cycle through the 15 usfq_serve templates (all six workload
 * kinds, Throughput and Audit intents), every one with sweep threads =
 * 1, so the process never runs more than kWorkers + 1 busy threads.
 *
 *  - serve_repeat: per-template seeds from the workload seed, a cache
 *    that holds every distinct key, warmed before timing: every timed
 *    request is a cache hit.  Every response is compared byte for byte
 *    against a direct api::runWorkload + api::resultToJson run.
 *  - serve_fresh: a new seed per request and epochs scaled up so the
 *    engines dominate; a cache smaller than the key set, so every
 *    request misses, inserts and evicts.  A fixed seeded sample of
 *    responses is audited against direct runs after the timed window.
 */

#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "api/facade.hh"
#include "api/spec.hh"
#include "bench.hh"
#include "gen/balance.hh"
#include "obs/trace.hh"
#include "sim/netlist.hh"
#include "sim/sweep.hh"
#include "sta/sta.hh"
#include "svc/broker.hh"

namespace perfbench
{
namespace
{

using namespace usfq;

constexpr int kWorkers = 3;
constexpr int kInFlight = 6;
constexpr int kSetups = 5;
constexpr std::size_t kWarmRounds = 16;
constexpr std::size_t kRepeatCache = 64;
constexpr std::size_t kFreshCache = 8;
constexpr std::size_t kMaxSamples = 32;

// Peak RSS is read after a fixed number of responses, not at the end:
// the process keeps per-request logs, and a faster build must not be
// charged for growing them further in the same window.
constexpr std::uint64_t kRepeatRssOps = 20000;
constexpr std::uint64_t kFreshRssOps = 4000;

constexpr std::uint64_t kFreshSalt = 0xf7e5'0000'0000'0001ULL;
constexpr std::uint64_t kWarmSalt = 0x3a7d'0000'0000'0002ULL;
constexpr std::uint64_t kSampleSalt = 0x5a3b'0000'0000'0003ULL;

struct Template
{
    api::NetlistSpec spec;
    api::RunParams params;
    svc::RequestIntent intent = svc::RequestIntent::Throughput;

    /** Epochs on serve_fresh (enough that `run` dominates the key). */
    int freshEpochs = 1;
};

Template
component(api::WorkloadKind kind, const char *name, int taps, int bits,
          DpuMode mode, int epochs, int batch, svc::RequestIntent intent,
          int fresh_epochs)
{
    Template t;
    t.spec.kind = kind;
    t.spec.name = name;
    t.spec.taps = taps;
    t.spec.bits = bits;
    t.spec.mode = mode;
    t.params.epochs = epochs;
    t.params.batch = batch;
    t.params.threads = 1;
    t.intent = intent;
    t.freshEpochs = fresh_epochs;
    return t;
}

Template
generated(const char *name, int lanes, int bits, int period,
          gen::TreeKind tree, int epochs, int batch,
          svc::RequestIntent intent, int fresh_epochs)
{
    Template t = component(api::WorkloadKind::Gen, name, 16, 8,
                           DpuMode::Bipolar, epochs, batch, intent,
                           fresh_epochs);
    t.spec.gen.lanes = lanes;
    t.spec.gen.bits = bits;
    t.spec.gen.clockPeriodPs = period;
    t.spec.gen.tree = tree;
    t.spec.gen.shape = gen::LaneShape::Skewed;
    return t;
}

Template
mesh(const char *name, int side, int epochs, int batch,
     svc::RequestIntent intent, int fresh_epochs)
{
    Template t = component(api::WorkloadKind::NocMesh, name, 2, 4,
                           DpuMode::Bipolar, epochs, batch, intent,
                           fresh_epochs);
    t.spec.gridRows = side;
    t.spec.gridCols = side;
    return t;
}

Template
inverter(svc::RequestIntent intent)
{
    Template t = component(api::WorkloadKind::Inverter, "inv111", 16, 8,
                           DpuMode::Bipolar, 16, 1, intent, 16);
    t.spec.clockPeriodPs = 12.0;
    t.spec.clockCount = 64;
    return t;
}

/**
 * The usfq_serve request mix at its sizes: functional throughput
 * requests (one pair differing only in batch width, which must share a
 * cache line) plus small pulse-level audits of every kind.
 */
std::vector<Template>
makeTemplates()
{
    using K = api::WorkloadKind;
    const auto T = svc::RequestIntent::Throughput;
    const auto A = svc::RequestIntent::Audit;
    const auto Bi = DpuMode::Bipolar;
    const auto Uni = DpuMode::Unipolar;
    return {
        component(K::Dpu, "dpu16", 16, 6, Bi, 32, 1, T, 3072),
        component(K::Dpu, "dpu16", 16, 6, Bi, 32, 8, T, 3072),
        component(K::Dpu, "dpu16", 16, 6, Bi, 32, 1, T, 3072),
        component(K::Dpu, "dpu8u", 8, 5, Uni, 24, 1, T, 6144),
        component(K::Pe, "pe5", 16, 5, Bi, 24, 1, T, 3072),
        component(K::Fir, "fir4", 4, 6, Uni, 24, 4, T, 12288),
        inverter(T),
        mesh("mesh4x4", 4, 8, 4, T, 192),
        generated("gen8x5", 8, 5, 20, gen::TreeKind::Merger, 16, 4, T,
                  3072),
        component(K::Dpu, "dpu4a", 4, 4, Bi, 4, 1, A, 36),
        component(K::Pe, "pe4a", 16, 4, Bi, 3, 1, A, 18),
        component(K::Fir, "fir3a", 3, 5, Uni, 6, 1, A, 72),
        inverter(A),
        generated("gen4x4a", 4, 4, 24, gen::TreeKind::Balancer, 4, 1, A,
                  72),
        mesh("mesh2x2a", 2, 2, 1, A, 18),
    };
}

/** Template 1 is template 0 at another batch width: same cache line. */
std::size_t
seedSlot(std::size_t t)
{
    return t == 1 ? 0 : t;
}

svc::Request
requestOf(const Template &t, std::uint64_t seed)
{
    svc::Request r{t.spec, t.params, t.intent};
    r.params.seed = seed;
    return r;
}

/** The direct reference: what a standalone tool computes. */
std::string
directJson(const Template &t, std::uint64_t seed)
{
    const svc::Request r = requestOf(t, seed);
    api::RunParams p = r.params;
    p.backend = svc::Broker::resolveBackend(r);
    return api::resultToJson(t.spec, p, api::runWorkload(t.spec, p));
}

/** Everything set up before the timed window. */
struct Rig
{
    std::vector<Template> tpl;
    std::vector<std::uint64_t> seeds;      ///< serve_repeat, per template
    std::vector<std::string> expected;     ///< serve_repeat references
    std::vector<std::uint64_t> structural; ///< per template (warm pass)
    std::unique_ptr<svc::Broker> broker;
    std::uint64_t inputsDigest = kFnvBasis;
    std::uint64_t outputsDigest = kFnvBasis;
    std::uint64_t setupFailures = 0;
};

Rig
setUp(const Options &opt, bool fresh)
{
    Rig rig;
    rig.tpl = makeTemplates();
    for (std::size_t t = 0; t < rig.tpl.size(); ++t) {
        Template &tp = rig.tpl[t];
        if (fresh && !opt.tiny) {
            tp.params.epochs = tp.freshEpochs;
            if (tp.spec.kind == api::WorkloadKind::Inverter)
                tp.spec.clockCount *= tp.freshEpochs;
        }
        rig.seeds.push_back(shardSeed(opt.seed, seedSlot(t)));
        rig.inputsDigest = foldStr(rig.inputsDigest,
                                   api::specToJson(tp.spec) +
                                       api::runParamsToJson(tp.params));
        if (!fresh)
            rig.inputsDigest = fold(rig.inputsDigest, rig.seeds[t]);
    }
    if (fresh)
        for (std::uint64_t i = 0; i < 64; ++i)
            rig.inputsDigest =
                fold(rig.inputsDigest, shardSeed(opt.seed ^ kFreshSalt, i));
    if (!fresh)
        for (std::size_t t = 0; t < rig.tpl.size(); ++t)
            rig.expected.push_back(directJson(rig.tpl[t], rig.seeds[t]));

    svc::BrokerOptions bo;
    bo.workers = kWorkers;
    bo.queueCapacity = 2 * kInFlight;
    bo.cacheCapacity = fresh ? kFreshCache : kRepeatCache;
    rig.broker = std::make_unique<svc::Broker>(bo);

    // Warm-up: kWarmRounds passes over the templates.  On serve_repeat
    // the first fills the cache with every distinct key.
    const std::size_t n = rig.tpl.size();
    std::vector<std::future<svc::Response>> warm;
    for (std::size_t i = 0; i < kWarmRounds * n; ++i) {
        const std::size_t t = i % n;
        const std::uint64_t seed =
            fresh ? shardSeed(opt.seed ^ kWarmSalt, i) : rig.seeds[t];
        for (;;) {
            std::optional<std::future<svc::Response>> f =
                rig.broker->submit(requestOf(rig.tpl[t], seed));
            if (f.has_value()) {
                warm.push_back(std::move(*f));
                break;
            }
            rig.broker->drain(); // queue full: let it empty
        }
    }
    for (std::size_t i = 0; i < warm.size(); ++i) {
        const std::size_t t = i % n;
        const svc::Response r = warm[i].get();
        if (i < n)
            rig.structural.push_back(r.structural);
        rig.outputsDigest = foldStr(rig.outputsDigest, r.json);
        if (r.status != api::Status::Ok ||
            (!fresh && r.json != rig.expected[t])) {
            ++rig.setupFailures;
            std::fprintf(stderr,
                         "perfbench: warm-up request of template %zu "
                         "failed: %s %s\n",
                         t, api::statusName(r.status), r.error.c_str());
        }
    }
    return rig;
}

/** One response the closed loop saw. */
struct Sample
{
    std::size_t tmpl;
    std::uint64_t seed;
    std::string json;
};

/** What one timed window produced. */
struct Window
{
    double seconds = 0.0;
    std::uint64_t completed = 0; ///< responses inside the window
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<OpSample> ops;
    double peakRssMb = 0.0; ///< high-water mark at kRssOps responses
    std::map<std::uint64_t, std::size_t> templateOf; ///< request id
    std::vector<Sample> samples; ///< serve_fresh audit sample
};

/**
 * The closed loop: kInFlight slots, each resubmitting as soon as its
 * response is in, for @p seconds.  The generator polls the slots'
 * futures (it is the one busy non-worker thread), so a response's
 * latency is read within a poll of its arrival.  Responses that land
 * after the deadline are checked but not timed.
 */
Window
closedLoop(Rig &rig, const Options &opt, bool fresh, double seconds,
           std::uint64_t &stream)
{
    struct Slot
    {
        bool busy = false;
        std::future<svc::Response> future;
        std::size_t tmpl = 0;
        std::uint64_t seed = 0;
        std::uint64_t index = 0;
        std::int64_t t0 = 0;
    };
    Window w;
    w.seconds = seconds;
    const std::uint64_t rssOps = opt.tiny ? 100 : fresh ? kFreshRssOps
                                                        : kRepeatRssOps;
    std::vector<Slot> slots(kInFlight);
    const std::size_t n = rig.tpl.size();

    const auto submit = [&](Slot &s) {
        const std::uint64_t i = stream;
        s.tmpl = static_cast<std::size_t>(i % n);
        s.seed = fresh ? shardSeed(opt.seed ^ kFreshSalt, i)
                       : rig.seeds[s.tmpl];
        s.index = i;
        for (;;) {
            ++w.attempted;
            s.t0 = nowNs();
            std::optional<std::future<svc::Response>> f =
                rig.broker->submit(requestOf(rig.tpl[s.tmpl], s.seed));
            if (f.has_value()) {
                s.future = std::move(*f);
                s.busy = true;
                ++stream;
                return;
            }
            ++w.failed; // admission refusal
            std::this_thread::yield();
        }
    };

    const std::int64_t start = nowNs();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(seconds * 1e9);
    for (Slot &s : slots)
        submit(s);
    for (bool any = true; any;) {
        any = false;
        bool progress = false;
        for (Slot &s : slots) {
            if (!s.busy)
                continue;
            any = true;
            if (s.future.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready)
                continue;
            const std::int64_t t1 = nowNs();
            const svc::Response r = s.future.get();
            s.busy = false;
            progress = true;
            if (t1 <= deadline) {
                w.ops.push_back({t1 - start,
                                 static_cast<double>(t1 - s.t0) / 1e6});
                if (++w.completed == rssOps)
                    w.peakRssMb = peakRssMb();
            }
            if (obs::tracingEnabled())
                w.templateOf[r.requestId] = s.tmpl;
            bool ok = r.status == api::Status::Ok;
            if (ok && !fresh)
                ok = r.json == rig.expected[s.tmpl];
            if (ok && fresh && w.samples.size() < kMaxSamples &&
                shardSeed(opt.seed ^ kSampleSalt, s.index) % 32 == 0)
                w.samples.push_back(Sample{s.tmpl, s.seed, r.json});
            if (!ok) {
                ++w.failed;
                std::fprintf(stderr,
                             "perfbench: request %llu (template %zu) "
                             "failed: %s %s\n",
                             static_cast<unsigned long long>(r.requestId),
                             s.tmpl, api::statusName(r.status),
                             r.error.c_str());
            }
            if (t1 < deadline)
                submit(s);
        }
        if (!progress)
            std::this_thread::yield();
    }
    if (w.completed < rssOps)
        w.peakRssMb = peakRssMb();
    return w;
}

/** Audit the serve_fresh sample against direct runs (untimed). */
std::uint64_t
auditSamples(const Rig &rig, const Window &w)
{
    std::uint64_t bad = 0;
    for (const Sample &s : w.samples) {
        if (directJson(rig.tpl[s.tmpl], s.seed) != s.json) {
            ++bad;
            std::fprintf(stderr,
                         "perfbench: sampled response (template %zu, "
                         "seed %016llx) diverged from the direct run\n",
                         s.tmpl, static_cast<unsigned long long>(s.seed));
        }
    }
    return bad;
}

/** One request's broker span chain, durations in microseconds. */
struct Chain
{
    std::uint64_t requestId = 0;
    double queue = 0, key = 0, probe = 0, run = 0, serialize = 0;
    bool ran = false;
    bool serialized = false;
};

const std::map<std::string, std::string> kBrokerSpanNames{
    {"request", "svc.request"},     {"queue_wait", "svc.queue_wait"},
    {"cache_probe", "svc.cache_probe"}, {"serialize", "svc.serialize"},
    {"elaborate", "api.key"},       {"run", "api.run"},
};

/** Group the broker's spans by their `request` root. */
std::vector<Chain>
chainsOf(const std::vector<obs::TraceSpan> &spans, std::vector<Span> &out)
{
    std::map<std::uint64_t, Chain> byTrace;
    std::map<std::uint64_t, std::uint64_t> localId;
    for (const obs::TraceSpan &s : spans) {
        const std::uint64_t next = localId.size() + 1;
        localId.emplace(s.spanId, next);
    }
    for (const obs::TraceSpan &s : spans) {
        const auto name = kBrokerSpanNames.find(s.name);
        Span b;
        b.name = name != kBrokerSpanNames.end() ? name->second : s.name;
        b.id = localId[s.spanId];
        b.parent = s.parentSpanId != 0 ? localId[s.parentSpanId] : 0;
        b.startNs = static_cast<std::int64_t>(s.startUs) * 1000;
        b.durNs = static_cast<std::int64_t>(s.durUs) * 1000;
        out.push_back(b);

        Chain &c = byTrace[s.traceId];
        const double us = static_cast<double>(s.durUs);
        if (s.name == "request") {
            for (const auto &[k, v] : s.args)
                if (k == "id")
                    c.requestId = std::stoull(v);
        } else if (s.name == "queue_wait") {
            c.queue = us;
        } else if (s.name == "elaborate") {
            c.key = us;
        } else if (s.name == "cache_probe") {
            c.probe = us;
        } else if (s.name == "run") {
            c.run = us;
            c.ran = true;
        } else if (s.name == "serialize") {
            c.serialize = us;
            c.serialized = true;
        }
    }
    std::vector<Chain> chains;
    for (const auto &[trace, c] : byTrace)
        if (c.requestId != 0)
            chains.push_back(c);
    return chains;
}

/** Outcomes of the balancing passes a probe ran. */
struct BalanceTally
{
    double attempted = 0, converged = 0, iterations = 0;
};

/**
 * Direct layer probe (traced run only, after the window): the steps a
 * broker request's key derivation takes -- balance (gen), build,
 * elaborate, structural hash, STA (gen) -- plus an event-kernel run of
 * every self-driving netlist, each in its own benchmark span.
 */
std::uint64_t
probeLayers(const Rig &rig, int rounds, SpanLog &log, BalanceTally &balance)
{
    std::uint64_t bad = 0;
    for (int round = 0; round < rounds; ++round) {
        for (std::size_t t = 0; t < rig.tpl.size(); ++t) {
            const api::NetlistSpec &spec = rig.tpl[t].spec;
            const bool isGen = spec.kind == api::WorkloadKind::Gen;
            Scoped root(log, "probe");
            if (isGen) {
                Scoped s(log, "gen.balance", root.id());
                const gen::BalanceOutcome bo =
                    gen::balanceDesign(spec.gen);
                ++balance.attempted;
                balance.converged += bo.converged() ? 1 : 0;
                balance.iterations += bo.iterations;
            }
            Netlist nl;
            std::uint64_t buildId = 0;
            {
                Scoped s(log, "sim.build", root.id());
                buildId = s.id();
                if (!api::buildNetlist(spec, nl))
                    ++bad;
            }
            const double components =
                static_cast<double>(nl.graphComponents().size());
            // Gen builds balance inside buildNetlist: not a pure build.
            if (!isGen)
                log.setWork(buildId, components);
            {
                Scoped s(log, "sim.elaborate", root.id());
                nl.elaborate();
                log.setWork(s.id(), components);
            }
            {
                Scoped s(log, "api.hash", root.id());
                if (api::structuralHash(nl) != rig.structural[t]) {
                    ++bad;
                    std::fprintf(stderr,
                                 "perfbench: template %zu: structural "
                                 "hash differs from the broker's\n",
                                 t);
                }
            }
            if (isGen) {
                Scoped s(log, "sta.run", root.id());
                const StaReport rep =
                    runSta(nl, gen::genStaOptions(spec.gen));
                log.setWork(s.id(), static_cast<double>(rep.numEdges));
            }
            if (isGen || spec.kind == api::WorkloadKind::Inverter ||
                spec.kind == api::WorkloadKind::NocMesh) {
                Scoped s(log, "sim.run", root.id());
                log.setWork(s.id(), static_cast<double>(nl.run()));
            }
        }
    }
    return bad;
}

/** Per-layer metrics of a traced window plus its layer probe. */
void
layerMetrics(const Rig &rig, const Window &w, const std::vector<Chain> &chains,
             const std::vector<Span> &spans, const svc::BrokerStats &b0,
             const svc::BrokerStats &b1, const svc::CacheStats &c0,
             const svc::CacheStats &c1, double untracedOps, Outcome &out)
{
    std::vector<double> queue, probe, serialize, key, run;
    std::map<std::string, std::vector<double>> keyByKind;
    std::vector<double> scalar, batched, pulse, nocFunc, nocPulse;
    for (const Chain &c : chains) {
        const auto it = w.templateOf.find(c.requestId);
        if (it == w.templateOf.end())
            continue;
        const Template &t = rig.tpl[it->second];
        queue.push_back(c.queue);
        probe.push_back(c.probe);
        key.push_back(c.key);
        run.push_back(c.run);
        keyByKind[api::workloadKindName(t.spec.kind)].push_back(c.key);
        if (c.serialized)
            serialize.push_back(c.serialize);
        if (!c.ran)
            continue;
        const double epochs = t.params.epochs;
        const bool audit = t.intent == svc::RequestIntent::Audit;
        switch (t.spec.kind) {
        case api::WorkloadKind::Dpu:
        case api::WorkloadKind::Pe:
        case api::WorkloadKind::Fir:
            if (audit)
                pulse.push_back(c.run / epochs);
            else
                (t.params.batch > 1 ? batched : scalar)
                    .push_back(c.run * 1e3 / epochs);
            break;
        case api::WorkloadKind::Gen:
            if (audit)
                pulse.push_back(c.run / epochs);
            break;
        case api::WorkloadKind::NocMesh:
            (audit ? nocPulse : nocFunc).push_back(c.run / epochs);
            break;
        case api::WorkloadKind::Inverter:
            break;
        }
    }

    double busy = 0, total = 0;
    for (std::size_t i = 0; i < b1.workerUtil.size(); ++i) {
        const double db = static_cast<double>(b1.workerUtil[i].busyUs -
                                              b0.workerUtil[i].busyUs);
        busy += db;
        total += db + static_cast<double>(b1.workerUtil[i].idleUs -
                                          b0.workerUtil[i].idleUs);
    }
    const double hits = static_cast<double>(c1.hits - c0.hits);
    const double lookups = hits + static_cast<double>(c1.misses - c0.misses);

    const std::map<std::string, double> self = selfByName(spans);
    const auto selfOf = [&](const char *name) {
        const auto it = self.find(name);
        return it != self.end() ? it->second : 0.0;
    };
    // Shares are of worker time: request residency minus queue wait
    // (svc.queue_wait_us reports the wait itself).
    double workerNs = 0.0;
    for (const Span &s : spans) {
        if (s.name == "svc.request")
            workerNs += static_cast<double>(s.durNs);
        else if (s.name == "svc.queue_wait")
            workerNs -= static_cast<double>(s.durNs);
    }
    const double svcNs = selfOf("svc.request") + selfOf("svc.cache_probe") +
                         selfOf("svc.serialize");

    std::vector<Metric> &m = out.perLayer;
    m.push_back({"svc.queue_wait_us.p50", percentile(queue, 50)});
    m.push_back({"svc.cache_probe_us.p50", percentile(probe, 50)});
    m.push_back({"svc.cache_hit_ratio", ratio(hits, lookups)});
    m.push_back({"svc.cache_evictions",
                 static_cast<double>(c1.evictions - c0.evictions)});
    m.push_back({"svc.serialize_us.p50", percentile(serialize, 50)});
    m.push_back({"svc.worker_busy_frac", ratio(busy, total)});
    m.push_back({"svc.self_share", ratio(svcNs, workerNs)});
    m.push_back({"api.key_us.p50", percentile(key, 50)});
    m.push_back({"api.key_us.p99", percentile(key, 99)});
    for (const char *kind : {"dpu", "pe", "fir", "inverter", "noc", "gen"})
        m.push_back({std::string("api.key_us.") + kind,
                     percentile(keyByKind[kind], 50)});
    m.push_back({"api.key_share", ratio(selfOf("api.key"), workerNs)});
    m.push_back({"api.run_us.p50", percentile(run, 50)});
    m.push_back({"api.run_share", ratio(selfOf("api.run"), workerNs)});
    m.push_back({"sim.build_us_per_component",
                 nsPerUnit(spans, "sim.build") / 1e3});
    m.push_back({"sim.elaborate_us_per_component",
                 nsPerUnit(spans, "sim.elaborate") / 1e3});
    m.push_back({"sim.events_per_s",
                 ratio(1e9, nsPerUnit(spans, "sim.run"))});
    m.push_back({"sim.pulse_us_per_epoch", percentile(pulse, 50)});
    m.push_back({"sta.ns_per_edge", nsPerUnit(spans, "sta.run")});
    m.push_back({"gen.balance_us_per_spec.p50",
                 percentile(durationsUs(spans, "gen.balance"), 50)});
    m.push_back({"func.scalar_ns_per_epoch", percentile(scalar, 50)});
    m.push_back({"func.batched_ns_per_epoch", percentile(batched, 50)});
    m.push_back({"noc.us_per_epoch.functional", percentile(nocFunc, 50)});
    m.push_back({"noc.us_per_epoch.pulse", percentile(nocPulse, 50)});
    m.push_back({"trace.ops_per_s_ratio",
                 ratio(static_cast<double>(w.completed) / w.seconds,
                       untracedOps)});

    // Per-template key / run split, for reading the mix.
    std::map<std::size_t, std::pair<std::vector<double>, std::vector<double>>>
        perTemplate;
    for (const Chain &c : chains) {
        const auto it = w.templateOf.find(c.requestId);
        if (it != w.templateOf.end()) {
            perTemplate[it->second].first.push_back(c.key);
            perTemplate[it->second].second.push_back(c.run);
        }
    }
    for (auto &[t, kr] : perTemplate) {
        const Template &tp = rig.tpl[t];
        std::printf("# template %2zu %-8s %-6s %-10s epochs %5d: key p50 "
                    "%9.1f us, run p50 %9.1f us\n",
                    t, tp.spec.name.c_str(),
                    api::workloadKindName(tp.spec.kind),
                    tp.intent == svc::RequestIntent::Audit ? "audit"
                                                           : "throughput",
                    tp.params.epochs, percentile(kr.first, 50),
                    percentile(kr.second, 50));
    }
}

} // namespace

Outcome
runServe(const Options &opt, bool fresh)
{
    Outcome out;

    // Set up kSetups times (each from scratch: references, broker,
    // warm pass) and report the median; keep the last rig.
    Rig rig;
    std::vector<double> setupS;
    for (int i = 0; i < kSetups; ++i) {
        rig = Rig{};
        const std::int64_t t0 = nowNs();
        rig = setUp(opt, fresh);
        setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        out.failed += rig.setupFailures;
    }

    std::uint64_t stream = 0;
    Window w;
    double untracedOps = 0.0;
    if (!opt.trace) {
        w = closedLoop(rig, opt, fresh, opt.seconds, stream);
    } else {
        // Untraced reference window, then the traced one.
        const Window plain =
            closedLoop(rig, opt, fresh, opt.seconds / 2, stream);
        untracedOps = static_cast<double>(plain.completed) / plain.seconds;
        out.attempted += plain.attempted;
        out.failed += plain.failed;
        if (fresh)
            out.failed += auditSamples(rig, plain);
    }

    svc::BrokerStats b0 = rig.broker->stats();
    svc::CacheStats c0 = rig.broker->cacheStats();
    if (opt.trace) {
        obs::TraceLog::global().clear();
        obs::setTracingEnabled(true);
        w = closedLoop(rig, opt, fresh, opt.seconds / 2, stream);
        obs::setTracingEnabled(false);
    }
    const svc::BrokerStats b1 = rig.broker->stats();
    const svc::CacheStats c1 = rig.broker->cacheStats();
    out.attempted += w.attempted;
    out.failed += w.failed;
    if (fresh)
        out.failed += auditSamples(rig, w);

    if (opt.trace) {
        std::vector<Span> spans;
        const std::vector<Chain> chains =
            chainsOf(obs::TraceLog::global().snapshot(), spans);
        SpanLog probe;
        probe.enabled = true;
        BalanceTally balance;
        out.failed += probeLayers(rig, opt.tiny ? 1 : 10, probe, balance);
        SpanLog all;
        all.spans = std::move(spans);
        all.append(probe);
        layerMetrics(rig, w, chains, all.spans, b0, b1, c0, c1,
                     untracedOps, out);
        out.perLayer.push_back({"gen.converged_ratio",
                                ratio(balance.converged, balance.attempted)});
        out.perLayer.push_back(
            {"gen.balance_iterations_mean",
             ratio(balance.iterations, balance.attempted)});
        if (!opt.traceOut.empty() && !writeSpans(opt.traceOut, all.spans))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opt.traceOut.c_str());
    }

    const Summary sum = summarize(w.ops, w.seconds);
    out.endToEnd = {
        {"ops_per_s", sum.opsPerS},
        {"op_p50_ms", sum.p50Ms},
        {"op_p99_ms", sum.p99Ms},
        {"setup_s", percentile(setupS, 50)},
        {"peak_rss_mb", w.peakRssMb},
    };
    out.meta = {
        {"workers", std::to_string(kWorkers)},
        {"generator_threads", "1"},
        {"sweep_threads", "1"},
        {"in_flight", std::to_string(kInFlight)},
        {"loop", "closed"},
        {"cache_capacity",
         std::to_string(fresh ? kFreshCache : kRepeatCache)},
        {"ops", std::to_string(w.completed)},
        {"latency_samples", std::to_string(w.ops.size())},
        {"fewest_per_slice", std::to_string(sum.fewestPerSlice)},
        {"audited", fresh ? std::to_string(w.samples.size()) + "_sampled"
                          : "every_response"},
        {"inputs_digest", hex(rig.inputsDigest)},
        {"outputs_digest", hex(rig.outputsDigest)},
    };
    return out;
}

} // namespace perfbench
