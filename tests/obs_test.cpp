/**
 * @file
 * Observability layer tests (docs/observability.md): stats registry
 * arithmetic and rollups, histogram bucket edges, order-free merges,
 * sweep-merge determinism, kernel instrumentation toggling, phase
 * timing, the Perfetto exporter (validated by parsing its output
 * back), the JSON writer/parser, PulseTrace's binary-search queries
 * and ring cap, and the log counters.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/artifact.hh"
#include "obs/perfetto.hh"
#include "obs/phase.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "sfq/cells.hh"
#include "sfq/sources.hh"
#include "sim/netlist.hh"
#include "sim/sweep.hh"
#include "sim/trace.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace usfq
{
namespace
{

// --- histogram buckets -----------------------------------------------------

TEST(Histogram, BucketEdges)
{
    EXPECT_EQ(obs::Histogram::bucketOf(0), 0u);
    EXPECT_EQ(obs::Histogram::bucketOf(-7), 0u); // negatives clamp
    EXPECT_EQ(obs::Histogram::bucketOf(1), 1u);
    EXPECT_EQ(obs::Histogram::bucketOf(2), 2u);
    EXPECT_EQ(obs::Histogram::bucketOf(3), 2u);
    EXPECT_EQ(obs::Histogram::bucketOf(4), 3u);
    EXPECT_EQ(obs::Histogram::bucketOf(7), 3u);
    EXPECT_EQ(obs::Histogram::bucketOf(8), 4u);
    EXPECT_EQ(obs::Histogram::bucketOf((std::int64_t(1) << 62)), 63u);

    EXPECT_EQ(obs::Histogram::bucketLo(0), 0);
    EXPECT_EQ(obs::Histogram::bucketLo(1), 1);
    EXPECT_EQ(obs::Histogram::bucketLo(2), 2);
    EXPECT_EQ(obs::Histogram::bucketLo(3), 4);
    EXPECT_EQ(obs::Histogram::bucketLo(63), std::int64_t(1) << 62);

    // Every bucket's lower bound maps back into that bucket.
    for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i)
        EXPECT_EQ(obs::Histogram::bucketOf(obs::Histogram::bucketLo(i)),
                  i)
            << "bucket " << i;
}

TEST(Histogram, RecordAndSummaryStats)
{
    obs::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.max(), 0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);

    for (std::int64_t s : {0, 1, 3, 1000})
        h.record(s);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 1004u);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.max(), 1000);
    EXPECT_DOUBLE_EQ(h.mean(), 251.0);
    EXPECT_EQ(h.bucket(0), 1u); // the 0
    EXPECT_EQ(h.bucket(1), 1u); // the 1
    EXPECT_EQ(h.bucket(2), 1u); // the 3
    EXPECT_EQ(h.bucket(10), 1u); // 1000 in [512, 1024)
}

TEST(Histogram, MergeIsBucketWise)
{
    obs::Histogram a, b;
    a.record(1);
    a.record(100);
    b.record(5);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.sum(), 106u);
    EXPECT_EQ(a.min(), 1);
    EXPECT_EQ(a.max(), 100);

    // Merging an empty histogram changes nothing.
    obs::Histogram empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 3u);

    // Merging into an empty histogram copies the source.
    obs::Histogram c;
    c.merge(a);
    EXPECT_EQ(c.count(), 3u);
    EXPECT_EQ(c.min(), 1);
    EXPECT_EQ(c.max(), 100);
}

// --- registry --------------------------------------------------------------

TEST(StatsRegistry, CounterGaugeHistogramRoundTrip)
{
    obs::StatsRegistry reg;
    obs::Counter &c = reg.counter("a/count");
    ++c;
    c += 4;
    EXPECT_EQ(reg.findCounter("a/count")->value(), 5u);

    reg.gauge("a/depth").high(3.0);
    reg.gauge("a/depth").high(2.0);
    EXPECT_DOUBLE_EQ(reg.findGauge("a/depth")->value(), 3.0);

    reg.histogram("a/lat").record(12);
    EXPECT_EQ(reg.findHistogram("a/lat")->count(), 1u);

    // Wrong-kind lookups return null.
    EXPECT_EQ(reg.findGauge("a/count"), nullptr);
    EXPECT_EQ(reg.findCounter("a/lat"), nullptr);
    EXPECT_EQ(reg.size(), 3u);
}

TEST(StatsRegistry, SumCountersPrefixSemantics)
{
    obs::StatsRegistry reg;
    reg.counter("top/a/jj").set(10);
    reg.counter("top/a/sub/jj").set(5);
    reg.counter("top/b/jj").set(7);
    reg.counter("topx/jj").set(1000); // shares the prefix bytes only
    reg.counter("top/a/in_pulses").set(3);

    EXPECT_EQ(reg.sumCounters("top"), 25u);
    EXPECT_EQ(reg.sumCounters("top/a"), 18u);
    EXPECT_EQ(reg.sumCounters("top", "jj"), 22u);
    EXPECT_EQ(reg.sumCounters("top/a", "jj"), 15u);
    EXPECT_EQ(reg.sumCounters("top", "in_pulses"), 3u);
    EXPECT_EQ(reg.sumCounters("nothere"), 0u);
}

TEST(StatsRegistry, MergeFollowsPolicies)
{
    obs::StatsRegistry a, b;
    a.counter("n").set(2);
    b.counter("n").set(3);
    a.gauge("hi").set(5.0);
    b.gauge("hi").set(9.0);
    b.gauge("only_b").set(4.0);
    a.histogram("h").record(1);
    b.histogram("h").record(2);

    a.mergeFrom(b);
    EXPECT_EQ(a.findCounter("n")->value(), 5u);
    EXPECT_DOUBLE_EQ(a.findGauge("hi")->value(), 9.0);
    EXPECT_DOUBLE_EQ(a.findGauge("only_b")->value(), 4.0);
    EXPECT_EQ(a.findHistogram("h")->count(), 2u);
}

TEST(StatsRegistry, MergeIsOrderFree)
{
    // Five registries folded in all 120 orders give one document.  The
    // gauges are values whose floating-point sum depends on the order
    // it is taken in; a high-water merge does not.
    const std::array<double, 5> levels = {0.1, 0.2, 0.3, 1.0 / 3.0,
                                          1e-7};
    std::array<obs::StatsRegistry, 5> regs;
    for (std::size_t i = 0; i < regs.size(); ++i) {
        obs::StatsRegistry &r = regs[i];
        r.counter("top/pulses").set(1000 + 17 * i);
        r.counter("top/member_" + std::to_string(i)).set(i + 1);
        r.gauge("top/utilization").set(levels[i]);
        for (std::int64_t s = 0; s < 5; ++s)
            r.histogram("top/latency_fs")
                .record(static_cast<std::int64_t>(i) * 1000 + s * s);
        r.histogram("top/depth").record(static_cast<std::int64_t>(i));
    }

    std::array<std::size_t, 5> order = {0, 1, 2, 3, 4};
    std::string first;
    int orders = 0;
    do {
        obs::StatsRegistry merged;
        for (std::size_t i : order)
            merged.mergeFrom(regs[i]);
        const std::string doc = obs::statsToJson(merged);
        if (orders++ == 0)
            first = doc;
        ASSERT_EQ(doc, first) << "order " << orders;
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_EQ(orders, 120);

    obs::StatsRegistry merged;
    for (const obs::StatsRegistry &r : regs)
        merged.mergeFrom(r);
    EXPECT_EQ(merged.findCounter("top/pulses")->value(), 5170u);
    EXPECT_EQ(merged.findCounter("top/member_3")->value(), 4u);
    EXPECT_EQ(merged.findGauge("top/utilization")->value(), 1.0 / 3.0);
    EXPECT_EQ(merged.findHistogram("top/latency_fs")->count(), 25u);
    EXPECT_EQ(merged.findHistogram("top/latency_fs")->min(), 0);
    EXPECT_EQ(merged.findHistogram("top/latency_fs")->max(), 4016);
}

TEST(StatsRegistry, ScopedRegistryOverridesCurrent)
{
    obs::StatsRegistry mine;
    EXPECT_NE(&obs::currentStats(), &mine);
    {
        obs::ScopedStatsRegistry guard(mine);
        EXPECT_EQ(&obs::currentStats(), &mine);
        {
            obs::StatsRegistry inner;
            obs::ScopedStatsRegistry nested(inner);
            EXPECT_EQ(&obs::currentStats(), &inner);
        }
        EXPECT_EQ(&obs::currentStats(), &mine);
    }
    EXPECT_NE(&obs::currentStats(), &mine);
}

// --- netlist export rollups ------------------------------------------------

TEST(NetlistStats, RegistryRollupMatchesReport)
{
    Netlist nl("nl");
    auto &src = nl.create<PulseSource>("src");
    auto &j1 = nl.create<Jtl>("j1");
    auto &j2 = nl.create<Jtl>("j2");
    PulseTrace out("out");
    src.out.connect(j1.in);
    j1.out.connect(j2.in);
    j2.out.connect(out.input());
    src.pulsesAt({100, 200, 300});
    nl.run();

    obs::StatsRegistry reg;
    nl.exportStats(reg);

    EXPECT_EQ(reg.sumCounters("nl", "jj"),
              static_cast<std::uint64_t>(nl.totalJJs()));
    EXPECT_EQ(reg.sumCounters("nl", "switches"), nl.totalSwitches());

    const HierReport rpt = nl.report();
    EXPECT_EQ(reg.sumCounters("nl", "in_pulses"),
              static_cast<std::uint64_t>(rpt.root.inPulses));
    EXPECT_EQ(reg.sumCounters("nl", "out_pulses"),
              static_cast<std::uint64_t>(rpt.root.outPulses));
    EXPECT_EQ(reg.sumCounters("nl", "lost_pulses"),
              static_cast<std::uint64_t>(rpt.root.lost));

    // Per-component entries are keyed by hierarchy path.
    EXPECT_EQ(reg.findCounter("nl/j1/jj")->value(),
              static_cast<std::uint64_t>(j1.jjCount()));

    // Kernel stats ride under <name>/kernel.
    EXPECT_EQ(reg.findCounter("nl/kernel/executed")->value(),
              nl.queue().executed());

    // Counters overwrite on re-export into the same registry.
    nl.exportStats(reg);
    EXPECT_EQ(reg.sumCounters("nl", "jj"),
              static_cast<std::uint64_t>(nl.totalJJs()));
}

TEST(NetlistStats, PhaseTimesCoverBuildElaborateRun)
{
    // With tracing on, each phase of a netlist lands in the one span
    // log as a root span of its own, named "netlist/<phase>"; the
    // process totals gain exactly the phases that ran.
    obs::setTracingEnabled(true);
    obs::TraceLog::global().clear();
    Netlist nl("pnl");
    auto &src = nl.create<PulseSource>("src");
    auto &j = nl.create<Jtl>("j");
    PulseTrace out("out");
    src.out.connect(j.in);
    j.out.connect(out.input());
    src.pulseAt(50);
    nl.run();
    obs::setTracingEnabled(false);

    std::vector<std::string> names;
    for (const obs::TraceSpan &s : obs::TraceLog::global().snapshot()) {
        EXPECT_EQ(s.parentSpanId, 0u) << s.name;
        EXPECT_NE(s.traceId, 0u) << s.name;
        names.push_back(s.name);
    }
    EXPECT_EQ(names, (std::vector<std::string>{
                         "netlist/build", "netlist/elaborate",
                         "netlist/run"}));
    obs::TraceLog::global().clear();

    const auto totals = obs::phaseTotalsUs();
    EXPECT_TRUE(totals.count("build"));
    EXPECT_TRUE(totals.count("elaborate"));
    EXPECT_TRUE(totals.count("run"));
    for (const auto &[name, us] : totals)
        EXPECT_TRUE(name == "build" || name == "elaborate" ||
                    name == "sta" || name == "run")
            << name;

    // Untraced, a phase adds to its total and logs nothing.
    nl.run();
    EXPECT_EQ(obs::TraceLog::global().size(), 0u);
}

// --- kernel instrumentation toggle -----------------------------------------

TEST(KernelStats, DisabledCollectsNothing)
{
    obs::setKernelStatsEnabled(false);
    EventQueue eq;
    EXPECT_EQ(eq.kernelStats(), nullptr);
    eq.schedule(10, [] {});
    eq.run();
    obs::StatsRegistry reg;
    eq.exportStats(reg, "k");
    EXPECT_EQ(reg.findCounter("k/executed")->value(), 1u);
    EXPECT_EQ(reg.findCounter("k/scheduled"), nullptr);
    EXPECT_EQ(reg.findHistogram("k/schedule_to_fire_fs"), nullptr);
}

TEST(KernelStats, EnabledCountsSchedulesAndLatencies)
{
    obs::setKernelStatsEnabled(true);
    {
        EventQueue eq;
        ASSERT_NE(eq.kernelStats(), nullptr);
        for (Tick t = 0; t < 100; ++t)
            eq.schedule(t, [] {});
        // A TFF2 delay out (20 ps) still lands in the bucket ring ...
        eq.schedule(cell::kTff2Delay, [] {});
        EXPECT_EQ(eq.kernelStats()->overflowPushes, 0u);
        // ... and one event past the window exercises the overflow heap.
        eq.schedule(EventQueue::kWindowTicks + 50, [] {});
        eq.run();
        const auto *ks = eq.kernelStats();
        EXPECT_EQ(ks->scheduled, 102u);
        EXPECT_EQ(ks->overflowPushes, 1u);
        EXPECT_EQ(ks->scheduleLatency.count(), 102u);
        EXPECT_GE(ks->maxPending, 101u);
        EXPECT_EQ(ks->runCalls, 1u);

        obs::StatsRegistry reg;
        eq.exportStats(reg, "k");
        EXPECT_EQ(reg.findCounter("k/scheduled")->value(), 102u);
        EXPECT_EQ(reg.findHistogram("k/schedule_to_fire_fs")->count(),
                  102u);
        // Wall-clock never enters the registry.
        EXPECT_EQ(reg.findGauge("k/run_wall_us"), nullptr);

        eq.reset();
        EXPECT_EQ(eq.kernelStats()->scheduled, 0u);
    }
    obs::setKernelStatsEnabled(false);
}

TEST(KernelStats, InstrumentationDoesNotPerturbExecution)
{
    // The same schedule executes identically with stats on and off.
    auto runOnce = [] {
        EventQueue eq;
        std::vector<Tick> fired;
        for (Tick t : {5, 1, 9000, 3, 1})
            eq.schedule(t, [&fired, &eq] { fired.push_back(eq.now()); });
        eq.run();
        return fired;
    };
    obs::setKernelStatsEnabled(false);
    const auto off = runOnce();
    obs::setKernelStatsEnabled(true);
    const auto on = runOnce();
    obs::setKernelStatsEnabled(false);
    EXPECT_EQ(off, on);
}

// --- sweep merge determinism -----------------------------------------------

TEST(SweepStats, MergedRegistryIsThreadCountInvariant)
{
    auto sweepInto = [](int threads) {
        obs::StatsRegistry reg;
        obs::ScopedStatsRegistry guard(reg);
        SweepOptions opt;
        opt.threads = threads;
        runSweep(
            16,
            [](const ShardContext &ctx) {
                obs::StatsRegistry &cur = obs::currentStats();
                cur.counter("sweep/shards") += 1;
                cur.counter("sweep/seed_mod") += ctx.seed % 97;
                cur.gauge("sweep/max_seed_mod")
                    .high(static_cast<double>(ctx.seed % 1001));
                cur.histogram("sweep/lat").record(
                    static_cast<std::int64_t>(ctx.seed % 4096));
                return 0;
            },
            opt);
        return reg;
    };

    const obs::StatsRegistry one = sweepInto(1);
    const obs::StatsRegistry four = sweepInto(4);

    EXPECT_EQ(one.findCounter("sweep/shards")->value(), 16u);
    ASSERT_EQ(one.size(), four.size());
    // Bit-identical: every entry agrees exactly.
    one.forEach([&](const std::string &name,
                    const obs::StatsRegistry::Entry &e) {
        switch (e.kind) {
          case obs::StatsRegistry::Entry::Kind::Counter:
            EXPECT_EQ(e.counter.value(),
                      four.findCounter(name)->value())
                << name;
            break;
          case obs::StatsRegistry::Entry::Kind::Gauge:
            EXPECT_EQ(e.gauge.value(), four.findGauge(name)->value())
                << name;
            break;
          case obs::StatsRegistry::Entry::Kind::Histogram: {
            const obs::Histogram *h = four.findHistogram(name);
            EXPECT_EQ(e.histogram.count(), h->count()) << name;
            EXPECT_EQ(e.histogram.sum(), h->sum()) << name;
            for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i)
                EXPECT_EQ(e.histogram.bucket(i), h->bucket(i))
                    << name << " bucket " << i;
            break;
          }
        }
    });

    // Shard stats stayed out of the global registry.
    EXPECT_EQ(obs::globalStats().findCounter("sweep/shards"), nullptr);
}

TEST(SweepStats, NetlistStatsMergeAcrossShards)
{
    // Each shard simulates its own netlist and exports into the shard
    // registry; the merged totals must equal shard count x per-shard.
    auto sweepInto = [](int threads) {
        obs::StatsRegistry reg;
        obs::ScopedStatsRegistry guard(reg);
        SweepOptions opt;
        opt.threads = threads;
        runSweep(
            4,
            [](const ShardContext &) {
                Netlist nl("shard");
                auto &src = nl.create<PulseSource>("src");
                auto &j = nl.create<Jtl>("j");
                PulseTrace out("out");
                src.out.connect(j.in);
                j.out.connect(out.input());
                src.pulsesAt({10, 20});
                nl.run();
                nl.exportStats();
                return out.count();
            },
            opt);
        return reg;
    };
    const obs::StatsRegistry one = sweepInto(1);
    const obs::StatsRegistry four = sweepInto(4);
    EXPECT_EQ(one.sumCounters("shard", "in_pulses"),
              four.sumCounters("shard", "in_pulses"));
    EXPECT_EQ(one.findCounter("shard/kernel/executed")->value(),
              four.findCounter("shard/kernel/executed")->value());
    // 4 shards x one Jtl each.
    EXPECT_EQ(one.sumCounters("shard", "jj"),
              4u * static_cast<std::uint64_t>(cell::kJtlJJs));
}

TEST(SweepStats, ShardsSettingOneCounterSum)
{
    // exportStats() set()s its counters, so every shard needs a
    // registry of its own even though workers keep one running
    // registry each: 32 set(7)s must sum to 32 x 7.
    constexpr std::size_t kShards = 32;
    constexpr std::uint64_t kValue = 7;
    for (const int threads : {1, 4}) {
        SweepOptions opt;
        opt.threads = threads;
        obs::StatsRegistry plain;
        {
            obs::ScopedStatsRegistry guard(plain);
            runSweep(
                kShards,
                [](const ShardContext &) {
                    obs::currentStats().counter("shard/set").set(kValue);
                    return 0;
                },
                opt);
        }
        ASSERT_NE(plain.findCounter("shard/set"), nullptr);
        EXPECT_EQ(plain.findCounter("shard/set")->value(), kShards * kValue)
            << "runSweep, threads=" << threads;
    }
}

// --- phase timing + Perfetto export ---------------------------------------

TEST(ScopedPhase, RecordsSpansAndAccumulates)
{
    obs::setTracingEnabled(true);
    obs::TraceLog::global().clear();
    const double before = obs::phaseTotalsUs()["sta"];
    obs::recordPhase(obs::Phase::Sta, 7, 1000);
    {
        obs::ScopedPhase p(obs::Phase::Sta);
    }
    obs::setTracingEnabled(false);
    const auto spans = obs::TraceLog::global().snapshot();
    obs::TraceLog::global().clear();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "netlist/sta");
    EXPECT_EQ(spans[0].startUs, 7u);
    EXPECT_EQ(spans[0].durUs, 1000u);
    EXPECT_EQ(spans[1].name, "netlist/sta");
    EXPECT_NE(spans[0].traceId, spans[1].traceId);
    EXPECT_DOUBLE_EQ(obs::phaseTotalsUs().at("sta"),
                     before + 1000.0 + static_cast<double>(spans[1].durUs));
}

TEST(Perfetto, TraceParsesBackAndCarriesEvents)
{
    std::vector<obs::TraceSpan> spans(2);
    spans[0].name = "netlist/elaborate";
    spans[0].traceId = 1;
    spans[0].spanId = 1;
    spans[0].startUs = 100;
    spans[0].durUs = 50;
    spans[1].name = "run";
    spans[1].traceId = 2;
    spans[1].spanId = 2;
    spans[1].startUs = 150;
    spans[1].durUs = 2000;
    std::vector<obs::PulseTrack> tracks{
        {"fir.out", {1000000, 2000000, 3500000}},
    };
    std::ostringstream os;
    obs::writeChromeTrace(os, spans, tracks);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(os.str(), doc, &error)) << error;
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    std::size_t durations = 0, instants = 0, metadata = 0;
    bool sawRun = false;
    for (const JsonValue &ev : events->array) {
        const JsonValue *ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->str == "X") {
            ++durations;
            if (ev.find("name")->str == "run") {
                sawRun = true;
                EXPECT_DOUBLE_EQ(ev.find("ts")->number, 150.0);
                EXPECT_DOUBLE_EQ(ev.find("dur")->number, 2000.0);
            }
        } else if (ph->str == "i") {
            ++instants;
        } else if (ph->str == "M") {
            ++metadata;
        }
    }
    EXPECT_EQ(durations, 2u);
    EXPECT_EQ(instants, 3u);
    EXPECT_GE(metadata, 3u); // 2 process names + 1 track thread name
    EXPECT_TRUE(sawRun);
}

// --- JSON writer/parser ----------------------------------------------------

TEST(Json, WriterProducesParseableNestedDocument)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    w.kv("name", "bench \"x\"\n");
    w.kv("count", std::uint64_t(42));
    w.kv("ratio", 1.5);
    w.kv("bad", std::numeric_limits<double>::infinity());
    w.kv("neg", std::int64_t(-7));
    w.kv("flag", true);
    w.key("list").beginArray();
    w.value(1).value(2).value(3);
    w.endArray();
    w.key("nested").beginObject().kv("k", "v").endObject();
    w.endObject();

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(out, doc, &error)) << error;
    EXPECT_EQ(doc.find("name")->str, "bench \"x\"\n");
    EXPECT_DOUBLE_EQ(doc.find("count")->number, 42.0);
    EXPECT_DOUBLE_EQ(doc.find("ratio")->number, 1.5);
    EXPECT_EQ(doc.find("bad")->type, JsonValue::Type::Null);
    EXPECT_DOUBLE_EQ(doc.find("neg")->number, -7.0);
    EXPECT_TRUE(doc.find("flag")->boolean);
    ASSERT_EQ(doc.find("list")->array.size(), 3u);
    EXPECT_EQ(doc.find("nested")->find("k")->str, "v");
}

TEST(Json, ParserRejectsMalformedInput)
{
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parseJson("{", v, &error));
    EXPECT_FALSE(parseJson("", v, &error));
    EXPECT_FALSE(parseJson("{\"a\": 1} trailing", v, &error));
    EXPECT_FALSE(parseJson("{'single': 1}", v, &error));
    EXPECT_FALSE(parseJson("[1, 2,]", v, &error));
    EXPECT_TRUE(parseJson("  {\"u\": \"\\u0041\"} ", v, &error));
    EXPECT_EQ(v.find("u")->str, "A");
}

// --- PulseTrace ------------------------------------------------------------

TEST(PulseTraceObs, WindowQueriesUseOrderAndMatchBruteForce)
{
    PulseTrace tr("t");
    for (Tick t : {10, 20, 20, 35, 90})
        tr.input().receive(t);
    EXPECT_EQ(tr.count(), 5u);
    EXPECT_EQ(tr.totalCount(), 5u);
    EXPECT_EQ(tr.countInWindow(10, 36), 4u);
    EXPECT_EQ(tr.countInWindow(20, 21), 2u);
    EXPECT_EQ(tr.countInWindow(0, 10), 0u);
    EXPECT_EQ(tr.countInWindow(90, 90), 0u); // empty window
    EXPECT_EQ(tr.countInWindow(91, 10), 0u); // inverted window
    EXPECT_EQ(tr.minSpacing(), 0);           // the duplicate 20s
    EXPECT_EQ(tr.first(), 10);
    EXPECT_EQ(tr.last(), 90);
}

TEST(PulseTraceObs, CapacityBoundsMemoryButKeepsSummary)
{
    PulseTrace tr("t");
    tr.setCapacity(4);
    for (Tick t = 0; t < 100; ++t)
        tr.input().receive(t * 10);
    EXPECT_EQ(tr.totalCount(), 100u);
    EXPECT_LE(tr.count(), 8u); // trimmed in blocks, bounded by 2x cap
    EXPECT_EQ(tr.first(), 0);  // summary covers evicted pulses
    EXPECT_EQ(tr.last(), 990);
    EXPECT_EQ(tr.minSpacing(), 10);
    // The retained window is the most recent one.
    EXPECT_GE(tr.times().front(), 920);

    tr.setCapacity(2); // shrinking trims immediately
    EXPECT_LE(tr.count(), 2u);

    tr.clear();
    EXPECT_EQ(tr.totalCount(), 0u);
    EXPECT_EQ(tr.minSpacing(), kTickInvalid);
    EXPECT_EQ(tr.first(), kTickInvalid);
}

// --- log counters ----------------------------------------------------------

TEST(LogCounters, CountEvenWhileQuiet)
{
    resetLogCounts();
    setQuiet(true);
    warn("obs_test: counted but silent %d", 1);
    warn("obs_test: counted but silent %d", 2);
    inform("obs_test: counted but silent");
    setQuiet(false);
    EXPECT_EQ(warnCount(), 2u);
    EXPECT_EQ(informCount(), 1u);
    resetLogCounts();
    EXPECT_EQ(warnCount(), 0u);
}

} // namespace
} // namespace usfq
