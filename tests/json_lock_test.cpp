/**
 * @file
 * JSON bit-identity lock (ctest labels `svc` and `obs`): digests of the
 * bytes every JsonWriter producer emits, apart from resultToJson, which
 * run_lock_test pins.  Covered here:
 *  - specToJson and runParamsToJson for every usfq_serve template;
 *  - findingsToJson and staReportToJson over the golden netlists and
 *    the STA corner fixtures;
 *  - writeStatsJson of a registry holding counters, non-integral Sum
 *    and Max gauges and histograms;
 *  - an ArtifactPayload whose metrics and series hold the number
 *    formatter's boundary values (-0.0, 1e17, 2^53 + 2, subnormals,
 *    DBL_MAX, NaN, +-inf), through both toJson and writeJson;
 *  - writeChromeTrace (indent 1) of a fixed span list;
 *  - the usfq_engine_metrics and usfq_broker_metrics documents.
 *
 * A formatting differential checks the writer's number and string
 * output against printf: every finite double must print as "%.17g"
 * (non-finite as null), 64-bit integers as "%lld" / "%llu", and every
 * byte value must escape as the pinned escape table says.
 *
 * The pinned values lock the wire format; a deliberate format change
 * re-pins them (the failure message prints the new value).
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "api/facade.hh"
#include "api/spec.hh"
#include "api/usfq.h"
#include "core/adder.hh"
#include "core/encoding.hh"
#include "core/multiplier.hh"
#include "core/pnm.hh"
#include "gen/balance.hh"
#include "gen/datapath.hh"
#include "gen/spec.hh"
#include "obs/artifact.hh"
#include "obs/perfetto.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "sfq/cells.hh"
#include "sfq/sources.hh"
#include "sim/netlist.hh"
#include "sim/trace.hh"
#include "sta/sta.hh"
#include "util/json.hh"
#include "util/random.hh"

namespace usfq
{
namespace
{

/** Order-sensitive FNV-1a over whole documents. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    str(const std::string &s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
        // Document separator, so ("ab", "c") != ("a", "bc").
        h ^= 0xffU;
        h *= 0x100000001b3ULL;
    }
};

void
expectDigest(const Digest &d, std::uint64_t pinned, const char *what)
{
    char hex[19];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(d.h));
    EXPECT_EQ(d.h, pinned) << what << ": digest is now " << hex;
}

// --- specs and run params ----------------------------------------------------

api::NetlistSpec
component(api::WorkloadKind kind, const char *name, int taps, int bits,
          DpuMode mode)
{
    api::NetlistSpec s;
    s.kind = kind;
    s.name = name;
    s.taps = taps;
    s.bits = bits;
    s.mode = mode;
    return s;
}

api::NetlistSpec
generated(const char *name, int lanes, int bits, int period,
          gen::TreeKind tree)
{
    api::NetlistSpec s = component(api::WorkloadKind::Gen, name, 16, 8,
                                   DpuMode::Bipolar);
    s.gen.lanes = lanes;
    s.gen.bits = bits;
    s.gen.clockPeriodPs = period;
    s.gen.tree = tree;
    s.gen.shape = gen::LaneShape::Skewed;
    return s;
}

api::NetlistSpec
mesh(const char *name, int side)
{
    api::NetlistSpec s = component(api::WorkloadKind::NocMesh, name, 2,
                                   4, DpuMode::Bipolar);
    s.gridRows = side;
    s.gridCols = side;
    return s;
}

/** The usfq_serve request templates (run_lock_test.cpp's list). */
std::vector<api::NetlistSpec>
serveSpecs()
{
    using K = api::WorkloadKind;
    const auto Bi = DpuMode::Bipolar;
    const auto Uni = DpuMode::Unipolar;
    api::NetlistSpec inv = component(K::Inverter, "inv111", 16, 8, Bi);
    inv.clockPeriodPs = 12.0;
    inv.clockCount = 64;
    return {
        component(K::Dpu, "dpu16", 16, 6, Bi),
        component(K::Dpu, "dpu8u", 8, 5, Uni),
        component(K::Pe, "pe5", 16, 5, Bi),
        component(K::Fir, "fir4", 4, 6, Uni),
        inv,
        mesh("mesh4x4", 4),
        generated("gen8x5", 8, 5, 20, gen::TreeKind::Merger),
        component(K::Dpu, "dpu4a", 4, 4, Bi),
        component(K::Pe, "pe4a", 16, 4, Bi),
        component(K::Fir, "fir3a", 3, 5, Uni),
        generated("gen4x4a", 4, 4, 24, gen::TreeKind::Balancer),
        mesh("mesh2x2a", 2),
    };
}

TEST(JsonLock, SpecsAndRunParams)
{
    Digest d;
    for (const api::NetlistSpec &spec : serveSpecs())
        d.str(api::specToJson(spec));

    // Non-default fields: coefficients, a fractional clock period, a
    // name that needs escaping, a fully specified generator spec.
    api::NetlistSpec fir =
        component(api::WorkloadKind::Fir, "fir \"q\"\t\\x", 5, 7,
                  DpuMode::Bipolar);
    fir.coefficients = {0.1, -0.25, 1.0 / 3.0, 0.5, -0.0};
    fir.clockPeriodPs = 17.25;
    fir.clockCount = 3;
    fir.waiveUnwired = true;
    d.str(api::specToJson(fir));
    api::NetlistSpec g =
        generated("gen64", 64, 8, 10, gen::TreeKind::Tff2);
    g.gen.encoding = gen::StreamEncoding::Bipolar;
    g.gen.shape = gen::LaneShape::Random;
    g.gen.balance = gen::BalanceStyle::Register;
    g.gen.maxDividers = 3;
    g.gen.skewStep = 5;
    g.gen.shapeSeed = 0xfedcba9876543210ULL;
    g.gen.balanceBudgetJJ = 1 << 20;
    d.str(api::specToJson(g));

    for (const Backend backend :
         {Backend::Functional, Backend::PulseLevel}) {
        for (const std::uint64_t seed :
             {std::uint64_t{0}, std::uint64_t{0x5eed},
              std::numeric_limits<std::uint64_t>::max()}) {
            api::RunParams p;
            p.backend = backend;
            p.epochs = 1 << 20;
            p.seed = seed;
            p.batch = backend == Backend::Functional ? 4096 : 1;
            p.threads = 3;
            d.str(api::runParamsToJson(p));
        }
    }
    expectDigest(d, 0x32e25588746fbac6ULL, "specs and run params");
}

// --- findings and STA reports over the golden netlists ----------------------

void
foldSta(Digest &d, Netlist &nl, const StaOptions &opts = {})
{
    d.str(api::findingsToJson(nl.lint()));
    const StaReport report = runSta(nl, opts);
    d.str(api::findingsToJson(report.findings));
    d.str(api::staReportToJson(report));
}

void
foldMultiplierEpoch(Digest &d, int bits, int stream_count, int rl_id)
{
    const EpochConfig cfg(bits);
    Netlist nl;
    auto &mult = nl.create<UnipolarMultiplier>("m");
    auto &e = nl.create<PulseSource>("e");
    auto &a = nl.create<PulseSource>("a");
    auto &b = nl.create<PulseSource>("b");
    PulseTrace out;
    e.out.connect(mult.epoch());
    a.out.connect(mult.streamIn());
    b.out.connect(mult.rlIn());
    mult.out().connect(out.input());
    e.pulseAt(0);
    a.pulsesAt(cfg.streamTimes(stream_count));
    b.pulseAt(cfg.rlArrival(rl_id));
    foldSta(d, nl);
}

void
foldCountingNetwork(Digest &d, const std::vector<int> &counts)
{
    const EpochConfig cfg(6, 40 * kPicosecond);
    Netlist nl;
    auto &net = nl.create<TreeCountingNetwork>(
        "net", static_cast<int>(counts.size()));
    PulseTrace out;
    net.out().connect(out.input());
    for (std::size_t i = 0; i < counts.size(); ++i) {
        auto &src = nl.create<PulseSource>("s" + std::to_string(i));
        src.out.connect(net.in(static_cast<int>(i)));
        src.pulsesAt(cfg.streamTimes(counts[i]));
    }
    foldSta(d, nl);
}

template <typename Pnm>
void
foldPnm(Digest &d, int bits, int value)
{
    constexpr Tick kTclk = 200 * kPicosecond;
    Netlist nl;
    auto &pnm = nl.create<Pnm>("pnm", bits);
    auto &clk = nl.create<ClockSource>("clk");
    PulseTrace stream, epochs;
    clk.out.connect(pnm.clkIn());
    pnm.out().connect(stream.input());
    pnm.epochOut().connect(epochs.input());
    pnm.program(value);
    clk.program(kTclk, kTclk, std::uint64_t{1} << bits);
    foldSta(d, nl);
}

/** A generated datapath, unbalanced and balanced. */
void
foldGen(Digest &d, const gen::DesignSpec &spec)
{
    const gen::BalanceOutcome bo = gen::balanceDesign(spec);
    ASSERT_TRUE(bo.converged()) << bo.detail;
    for (const gen::PaddingPlan &plan : {gen::PaddingPlan{}, bo.plan}) {
        Netlist nl("gen");
        auto &dp = nl.create<gen::StreamDatapath>("dp", spec, plan);
        PulseTrace out("trace");
        out.input().markObserver();
        dp.out().connect(out.input());
        gen::EpochInputs in;
        in.n = spec.nmax();
        for (int l = 0; l < spec.lanes; ++l)
            in.gates.push_back(l % 4 != 3);
        dp.programEpoch(in);
        foldSta(d, nl, gen::genStaOptions(spec));
    }
}

/** Feedback through @p Cell back into a merger: a cut loop finding. */
template <typename Cell>
void
foldLoop(Digest &d)
{
    Netlist nl;
    auto &src = nl.create<PulseSource>("s");
    auto &m = nl.create<Merger>("m");
    auto &c = nl.create<Cell>("c");
    src.out.connect(m.inA);
    m.out.connect(c.in);
    c.out.connect(m.inB);
    src.pulsesAt({0, 30 * kPicosecond});
    foldSta(d, nl);
}

/** DFF capture with a skewed clock; waivers by @p level. */
void
foldDffCapture(Digest &d, Tick skew, int level)
{
    Netlist nl;
    auto &src = nl.create<PulseSource>("s");
    auto &sp = nl.create<Splitter>("sp");
    auto &ff = nl.create<Dff>("ff");
    src.out.connect(sp.in);
    sp.out1.connect(ff.d);
    sp.out2.connect(ff.clk, skew);
    ff.q.markOpen("json lock endpoint");
    src.pulsesAt({0, 40 * kPicosecond, 80 * kPicosecond});
    StaOptions opts;
    if (level >= 1)
        opts.waivers[LintRule::SetupHoldViolation] = "options waiver";
    if (level >= 2)
        nl.waive(LintRule::SetupHoldViolation, "netlist \"waiver\"");
    foldSta(d, nl, opts);
}

/** Nothing wired: every port is a lint finding. */
void
foldUnwired(Digest &d)
{
    Netlist nl;
    nl.create<Dff>("ff");
    nl.create<Merger>("m");
    d.str(api::findingsToJson(nl.lint()));
}

TEST(JsonLock, FindingsAndStaReports)
{
    Digest d;
    foldMultiplierEpoch(d, 6, 32, 32);
    foldMultiplierEpoch(d, 6, 17, 45);
    foldCountingNetwork(d, {4, 10, 16, 22, 28, 34, 40, 46});
    foldPnm<UniformPnm>(d, 6, 23);
    foldPnm<ClassicPnm>(d, 6, 11);

    gen::DesignSpec skewed;
    skewed.tree = gen::TreeKind::Balancer;
    skewed.shape = gen::LaneShape::Skewed;
    skewed.maxDividers = 2;
    skewed.clockPeriodPs = 16;
    skewed.bits = 4;
    foldGen(d, skewed);
    gen::DesignSpec random;
    random.tree = gen::TreeKind::Merger;
    random.shape = gen::LaneShape::Random;
    random.shapeSeed = 99;
    random.skewStep = 3;
    random.maxDividers = 2;
    random.clockPeriodPs = 10;
    random.bits = 4;
    foldGen(d, random);
    gen::DesignSpec bipolar;
    bipolar.tree = gen::TreeKind::Tff2;
    bipolar.encoding = gen::StreamEncoding::Bipolar;
    bipolar.shape = gen::LaneShape::Skewed;
    bipolar.skewStep = 1;
    bipolar.clockPeriodPs = 24;
    bipolar.bits = 3;
    foldGen(d, bipolar);

    foldLoop<Tff>(d);
    foldLoop<Jtl>(d);
    for (int level = 0; level <= 2; ++level) {
        foldDffCapture(d, 1 * kPicosecond, level);
        foldDffCapture(d, 12 * kPicosecond, level);
    }
    foldUnwired(d);
    expectDigest(d, 0x94e687c31f4f6b6dULL, "findings and STA reports");
}

// --- stats, artifacts, traces -----------------------------------------------

/** A registry with every entry kind and awkward gauge values. */
obs::StatsRegistry
sampleRegistry()
{
    obs::StatsRegistry reg;
    reg.counter("top/events").inc(123456789);
    reg.counter("top/zero");
    reg.counter("top/max").set(std::numeric_limits<std::uint64_t>::max());
    reg.gauge("top/util").set(0.1 + 0.2);
    reg.gauge("top/third").set(1.0 / 3.0);
    reg.gauge("top/neg_zero").set(-0.0);
    reg.gauge("top/big").set(1e17);
    reg.gauge("top/integral").set(4096.0);
    reg.gauge("top/hw", obs::Gauge::Merge::Max).high(2.5e-7);
    reg.gauge("top/hw_int", obs::Gauge::Merge::Max).high(7.0);
    reg.gauge("top/unset");
    obs::Histogram &h = reg.histogram("top/latency");
    for (const std::int64_t s :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{2},
          std::int64_t{3}, std::int64_t{7}, std::int64_t{1000},
          std::int64_t{123456789},
          std::numeric_limits<std::int64_t>::max()})
        h.record(s);
    obs::Histogram &odd = reg.histogram("top/odd");
    for (const std::int64_t s : {5, 6, 9})
        odd.record(s);
    reg.histogram("top/empty");
    return reg;
}

TEST(JsonLock, StatsJson)
{
    std::ostringstream os;
    obs::writeStatsJson(os, sampleRegistry());
    Digest d;
    d.str(os.str());
    expectDigest(d, 0x6f61c9ed6b26b585ULL, "stats json");
}

/** The number formatter's boundary values. */
std::vector<double>
boundaryDoubles()
{
    const double inf = std::numeric_limits<double>::infinity();
    return {0.0,
            -0.0,
            0.1,
            1.0 / 3.0,
            -2.0 / 3.0,
            0.5,
            1.0,
            -1.0,
            1e15,
            1e16,
            1e17,
            -1e17,
            1e17 - 16.0,
            9007199254740992.0 + 2.0,
            9007199254740993.0,
            -9007199254740994.0,
            99999999999999984.0,
            123456789012345678.0,
            1e21,
            1e22,
            1e-5,
            1e-4,
            1.5e-7,
            5e-324,
            -5e-324,
            DBL_MIN,
            DBL_MIN / 2,
            DBL_MAX,
            -DBL_MAX,
            std::nextafter(1.0, 2.0),
            std::nextafter(1.0, 0.0),
            std::ldexp(1.0, 63),
            -std::ldexp(1.0, 63),
            std::ldexp(1.0, 64),
            std::numeric_limits<double>::quiet_NaN(),
            -std::numeric_limits<double>::quiet_NaN(),
            inf,
            -inf};
}

obs::ArtifactPayload
specialPayload()
{
    obs::ArtifactPayload p("json_lock \"special\"");
    const std::vector<double> values = boundaryDoubles();
    for (std::size_t i = 0; i < values.size(); ++i)
        p.metric("m" + std::to_string(i), values[i],
                 i % 2 == 0 ? "unit" : "");
    p.note("ctrl", std::string("a\x01\x1f\x7f\xc3\xa9", 6));
    p.note("empty", "");
    p.series("boundary", values);
    p.series("counts", {0.0, 1.0, 2.0, 4096.0, 12.0});
    p.series("empty", {});
    return p;
}

TEST(JsonLock, ArtifactWithBoundaryValues)
{
    const obs::ArtifactPayload p = specialPayload();
    obs::ArtifactHostState host;
    host.phasesUs = {{"build", 1.25}, {"run", 1e6}, {"sta", 0.0}};
    host.warnings = 3;
    host.informs = std::numeric_limits<std::uint64_t>::max();

    Digest d;
    d.str(p.toJson(sampleRegistry()));
    d.str(p.toJson(obs::StatsRegistry{}, host));
    std::ostringstream os;
    p.writeJson(os, sampleRegistry(), host);
    d.str(os.str());
    expectDigest(d, 0x2331c10f283b5e31ULL, "artifact");
}

TEST(JsonLock, ChromeTrace)
{
    // Thread-name metadata rows come from a process-global registry;
    // ctest runs each test in its own process, where nothing has named
    // a thread yet.
    ASSERT_TRUE(obs::threadNames().empty());
    std::vector<obs::PhaseSpan> spans = {
        {"build", 10, 5, 0},
        {"elaborate", 15, 0, 1},
        {"run \"x\"", std::numeric_limits<std::uint64_t>::max(), 7, 3}};
    std::vector<obs::TraceSpan> requests(3);
    requests[0].name = "request";
    requests[0].traceId = 1;
    requests[0].spanId = 1;
    requests[0].startUs = 100;
    requests[0].durUs = 50;
    requests[0].tid = 2;
    requests[0].args = {{"id", "7"}, {"hit", "0"}};
    requests[1] = requests[0];
    requests[1].name = "run";
    requests[1].spanId = 2;
    requests[1].parentSpanId = 1;
    requests[1].args.clear();
    requests[2] = requests[1];
    requests[2].name = "serialize";
    requests[2].spanId = std::numeric_limits<std::uint64_t>::max();
    std::vector<obs::PulseTrack> tracks = {
        {"out", {0, 1, 1500, 123456789, 999999999999}},
        {"empty", {}},
        {"q\n", {42}}};

    Digest d;
    std::ostringstream full;
    obs::writeChromeTrace(full, spans, requests, tracks);
    d.str(full.str());
    std::ostringstream phasesOnly;
    obs::writeChromeTrace(phasesOnly, spans);
    d.str(phasesOnly.str());
    expectDigest(d, 0xf0d1a4c3b0ce109cULL, "chrome trace");
}

// --- metrics C ABI ----------------------------------------------------------

std::string
takeString(char *s)
{
    std::string out = s != nullptr ? s : "";
    usfq_string_free(s);
    return out;
}

TEST(JsonLock, EngineAndCacheMetricsAbi)
{
    Digest d;
    for (const char *spec :
         {"{\"kind\": \"dpu\", \"taps\": 8, \"bits\": 5}",
          "{\"kind\": \"noc\", \"taps\": 2, \"bits\": 4, "
          "\"grid_rows\": 2, \"grid_cols\": 2}"}) {
        usfq_engine *engine = nullptr;
        ASSERT_EQ(usfq_engine_create(spec, &engine), USFQ_OK);
        for (const char *params :
             {"{\"epochs\": 16, \"seed\": \"0x5eed\"}",
              "{\"epochs\": 4, \"backend\": \"pulse\"}"}) {
            char *out = nullptr;
            ASSERT_EQ(usfq_engine_run(engine, params, &out), USFQ_OK);
            d.str(takeString(out));
        }
        char *metrics = nullptr;
        ASSERT_EQ(usfq_engine_metrics(engine, &metrics), USFQ_OK);
        d.str(takeString(metrics));
        usfq_engine_destroy(engine);
    }

    usfq_engine *engine = nullptr;
    ASSERT_EQ(usfq_engine_create("{\"kind\": \"pe\", \"bits\": 5}",
                                 &engine),
              USFQ_OK);
    usfq_cache *cache = nullptr;
    ASSERT_EQ(usfq_cache_create(2, &cache), USFQ_OK);
    for (const char *params :
         {"{\"epochs\": 8}", "{\"epochs\": 8}", "{\"epochs\": 9}"}) {
        char *out = nullptr;
        int32_t hit = -1;
        ASSERT_EQ(
            usfq_engine_run_cached(engine, cache, params, &hit, &out),
            USFQ_OK);
        d.str(takeString(out));
    }
    char *stats = nullptr;
    ASSERT_EQ(usfq_cache_stats(cache, &stats), USFQ_OK);
    d.str(takeString(stats));
    usfq_cache_destroy(cache);
    usfq_engine_destroy(engine);
    expectDigest(d, 0xfa281cfae2c0aceeULL, "engine and cache metrics");
}

/** Blank the values of wall-clock keys, which no lock can pin. */
std::string
withoutTimings(std::string doc)
{
    for (const char *key : {"\"busy_us\": ", "\"idle_us\": ",
                            "\"utilization\": "}) {
        const std::size_t klen = std::strlen(key);
        for (std::size_t at = doc.find(key); at != std::string::npos;
             at = doc.find(key, at + klen)) {
            const std::size_t from = at + klen;
            const std::size_t to = doc.find_first_of(",\n", from);
            doc.replace(from, to - from, "#");
        }
    }
    return doc;
}

TEST(JsonLock, BrokerMetricsAbi)
{
    usfq_broker *broker = nullptr;
    ASSERT_EQ(usfq_broker_create(1, 4, 4, &broker), USFQ_OK);
    const char *dpu = "{\"kind\": \"dpu\", \"taps\": 4, \"bits\": 4}";
    const char *gen =
        "{\"kind\": \"gen\", \"gen\": {\"lanes\": 4, \"bits\": 4, "
        "\"clock_period_ps\": 24, \"tree\": \"merger\"}}";
    Digest d;
    for (const char *spec : {dpu, gen, dpu}) {
        char *out = nullptr;
        int32_t hit = -1;
        ASSERT_EQ(usfq_broker_run(broker, spec, "{\"epochs\": 12}",
                                  nullptr, &hit, &out),
                  USFQ_OK)
            << usfq_broker_last_error(broker);
        d.str(takeString(out));
    }
    char *metrics = nullptr;
    ASSERT_EQ(usfq_broker_metrics(broker, &metrics), USFQ_OK);
    d.str(withoutTimings(takeString(metrics)));
    usfq_broker_destroy(broker);
    expectDigest(d, 0x325849bca35e26c9ULL, "broker metrics");
}

// --- formatting differential ------------------------------------------------

/** What the writer prints for @p v as a bare top-level value. */
template <typename T>
std::string
written(T v)
{
    std::string out;
    JsonWriter w(out);
    w.value(v);
    return out;
}

std::string
printfDouble(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

TEST(JsonFormat, DoublesMatchPrintf)
{
    for (double v : boundaryDoubles())
        ASSERT_EQ(written(v), printfDouble(v)) << "boundary value";

    Rng rng(0x15e7);
    std::size_t checked = 0;
    const auto check = [&](double v) {
        const std::string got = written(v);
        const std::string want = printfDouble(v);
        ++checked;
        if (got != want)
            FAIL() << "wrote '" << got << "', printf says '" << want
                   << "'";
    };
    // Uniform bit patterns: every exponent, NaN payloads, subnormals.
    for (int i = 0; i < 1'000'000 && !HasFatalFailure(); ++i) {
        const std::uint64_t bits = rng.next();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        check(v);
    }
    // Integral values around the fast path's 1e17 bound, and the short
    // decimals serve results carry.
    for (int i = 0; i < 250'000 && !HasFatalFailure(); ++i) {
        const int shift = static_cast<int>(rng.next() % 60);
        const auto mag = static_cast<std::int64_t>(rng.next() >> 4) >>
                         shift;
        check(static_cast<double>(rng.next() & 1 ? mag : -mag));
        check(static_cast<double>(rng.next() % 100000) /
              std::pow(10.0, static_cast<double>(rng.next() % 12)));
    }
    EXPECT_GE(checked, 1'500'000u);
}

TEST(JsonFormat, IntegerExtremesMatchPrintf)
{
    char buf[32];
    for (const std::int64_t v :
         {std::numeric_limits<std::int64_t>::min(),
          std::numeric_limits<std::int64_t>::min() + 1,
          std::int64_t{-1}, std::int64_t{0}, std::int64_t{1},
          std::int64_t{1} << 53, std::numeric_limits<std::int64_t>::max()}) {
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
        EXPECT_EQ(written(v), buf);
    }
    for (const std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{1},
          std::uint64_t{std::numeric_limits<std::int64_t>::max()} + 1,
          std::numeric_limits<std::uint64_t>::max()}) {
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(v));
        EXPECT_EQ(written(v), buf);
    }
    for (const int v : {std::numeric_limits<int>::min(), -7, 0,
                        std::numeric_limits<int>::max()}) {
        std::snprintf(buf, sizeof buf, "%d", v);
        EXPECT_EQ(written(v), buf);
    }
}

TEST(JsonFormat, EscapeTableIsPinned)
{
    // Every byte on its own, then all 256 in one string, as a value and
    // as a key.
    Digest d;
    std::string all;
    for (int c = 0; c < 256; ++c) {
        const std::string one(1, static_cast<char>(c));
        d.str(JsonWriter::escape(one));
        all += one;
    }
    d.str(JsonWriter::escape(all));
    std::string doc;
    JsonWriter w(doc);
    w.beginObject().kv(all, all).endObject();
    d.str(doc);
    expectDigest(d, 0x537ec62a326159a3ULL, "escape table");
}

} // namespace
} // namespace usfq
