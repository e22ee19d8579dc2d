/**
 * @file
 * Request-tracing tests (src/obs/trace.*, docs/observability.md):
 * monotonic trace/span ids, parent linkage through TraceContext /
 * ScopedSpan nesting, inertness when tracing is disabled, the broker
 * round trip (every request yields one complete span chain, and
 * tracing changes no response byte), and the Perfetto export parsed
 * back as Trace Event JSON.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/facade.hh"
#include "api/spec.hh"
#include "obs/perfetto.hh"
#include "obs/trace.hh"
#include "svc/broker.hh"
#include "util/json.hh"

namespace usfq
{
namespace
{

/** Force the tracing toggle for one test, restoring "off" after. */
struct TracingGuard
{
    explicit TracingGuard(bool on) { obs::setTracingEnabled(on); }
    ~TracingGuard() { obs::setTracingEnabled(false); }
};

api::NetlistSpec
smallDpuSpec()
{
    api::NetlistSpec spec;
    spec.kind = api::WorkloadKind::Dpu;
    spec.name = "dpu";
    spec.taps = 4;
    spec.bits = 4;
    spec.mode = DpuMode::Bipolar;
    return spec;
}

api::RunParams
smallParams()
{
    api::RunParams params;
    params.backend = Backend::Functional;
    params.epochs = 6;
    params.seed = 0x7aceULL;
    return params;
}

// --- ids and contexts ----------------------------------------------------

TEST(Trace, IdsAreMonotonic)
{
    std::uint64_t lastTrace = obs::newTraceId();
    std::uint64_t lastSpan = obs::newSpanId();
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t t = obs::newTraceId();
        const std::uint64_t s = obs::newSpanId();
        EXPECT_GT(t, lastTrace);
        EXPECT_GT(s, lastSpan);
        lastTrace = t;
        lastSpan = s;
    }
}

TEST(Trace, BeginIsInvalidWhenDisabled)
{
    TracingGuard guard(false);
    const obs::TraceContext ctx = obs::TraceContext::begin();
    EXPECT_FALSE(ctx.valid());
    EXPECT_EQ(ctx.traceId, 0u);
}

TEST(Trace, InertSpansRecordNothing)
{
    TracingGuard guard(false);
    obs::TraceLog log;
    const obs::TraceContext ctx = obs::TraceContext::begin();
    {
        obs::ScopedSpan span(ctx, "should_not_appear", &log);
        EXPECT_FALSE(span.active());
        span.arg("key", "value"); // must be a no-op, not a crash
        span.startAt(123);
    }
    EXPECT_EQ(log.size(), 0u);
}

TEST(Trace, NestedSpansLinkParentChain)
{
    TracingGuard guard(true);
    obs::TraceLog log;
    const obs::TraceContext ctx = obs::TraceContext::begin();
    ASSERT_TRUE(ctx.valid());
    {
        obs::ScopedSpan root(ctx, "request", &log);
        ASSERT_TRUE(root.active());
        root.arg("id", "1");
        {
            obs::ScopedSpan child(root.context(), "cache_probe",
                                  &log);
            obs::ScopedSpan grandchild(child.context(), "run", &log);
        }
    }
    const std::vector<obs::TraceSpan> spans = log.snapshot();
    ASSERT_EQ(spans.size(), 3u);
    // Inner scopes finish (and record) first.
    const obs::TraceSpan &run = spans[0];
    const obs::TraceSpan &probe = spans[1];
    const obs::TraceSpan &root = spans[2];
    EXPECT_EQ(root.name, "request");
    EXPECT_EQ(probe.name, "cache_probe");
    EXPECT_EQ(run.name, "run");
    EXPECT_EQ(root.traceId, ctx.traceId);
    EXPECT_EQ(probe.traceId, ctx.traceId);
    EXPECT_EQ(run.traceId, ctx.traceId);
    EXPECT_EQ(root.parentSpanId, 0u);
    EXPECT_EQ(probe.parentSpanId, root.spanId);
    EXPECT_EQ(run.parentSpanId, probe.spanId);
    ASSERT_EQ(root.args.size(), 1u);
    EXPECT_EQ(root.args[0].first, "id");
    EXPECT_EQ(root.args[0].second, "1");
}

TEST(Trace, StartAtOverridesTheRecordedStart)
{
    TracingGuard guard(true);
    obs::TraceLog log;
    const obs::TraceContext ctx = obs::TraceContext::begin();
    {
        obs::ScopedSpan span(ctx, "queue_wait", &log);
        span.startAt(42);
    }
    const std::vector<obs::TraceSpan> spans = log.snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].startUs, 42u);
}

TEST(Trace, ThreadNamesRegister)
{
    obs::setCurrentThreadName("trace-test-main");
    bool found = false;
    for (const auto &[tid, name] : obs::threadNames())
        if (name == "trace-test-main")
            found = true;
    EXPECT_TRUE(found);
}

// --- broker round trip ---------------------------------------------------

/** Run @p n identical requests through a fresh broker; return jsons. */
std::vector<std::string>
serveRequests(int n)
{
    svc::BrokerOptions opts;
    opts.workers = 2;
    opts.queueCapacity = 64;
    svc::Broker broker(opts);
    std::vector<std::future<svc::Response>> futures;
    for (int i = 0; i < n; ++i) {
        auto f = broker.submit(svc::Request{
            smallDpuSpec(), smallParams(),
            svc::RequestIntent::Default});
        EXPECT_TRUE(f.has_value());
        futures.push_back(std::move(*f));
    }
    broker.drain();
    std::vector<std::string> jsons;
    for (auto &f : futures) {
        svc::Response r = f.get();
        EXPECT_EQ(r.status, api::Status::Ok) << r.error;
        jsons.push_back(std::move(r.json));
    }
    return jsons;
}

TEST(Trace, BrokerRoundTripYieldsCompleteSpanChains)
{
    TracingGuard guard(true);
    obs::TraceLog::global().clear();
    const int n = 8;
    serveRequests(n);

    struct Chain
    {
        std::uint64_t rootSpan = 0;
        bool queueWait = false;
        bool cacheProbe = false;
    };
    std::map<std::uint64_t, Chain> chains;
    const std::vector<obs::TraceSpan> spans =
        obs::TraceLog::global().snapshot();
    for (const obs::TraceSpan &s : spans)
        if (s.parentSpanId == 0 && s.name == "request")
            chains[s.traceId].rootSpan = s.spanId;
    for (const obs::TraceSpan &s : spans) {
        if (s.parentSpanId == 0)
            continue;
        const auto it = chains.find(s.traceId);
        ASSERT_NE(it, chains.end()) << s.name;
        EXPECT_EQ(s.parentSpanId, it->second.rootSpan) << s.name;
        if (s.name == "queue_wait")
            it->second.queueWait = true;
        else if (s.name == "cache_probe")
            it->second.cacheProbe = true;
    }
    EXPECT_EQ(chains.size(), static_cast<std::size_t>(n));
    for (const auto &[traceId, chain] : chains) {
        EXPECT_TRUE(chain.queueWait) << "trace " << traceId;
        EXPECT_TRUE(chain.cacheProbe) << "trace " << traceId;
    }
    obs::TraceLog::global().clear();
}

TEST(Trace, TracingDoesNotChangeResponseBytes)
{
    std::vector<std::string> off;
    std::vector<std::string> on;
    {
        TracingGuard guard(false);
        off = serveRequests(6);
    }
    {
        TracingGuard guard(true);
        obs::TraceLog::global().clear();
        on = serveRequests(6);
        obs::TraceLog::global().clear();
    }
    ASSERT_EQ(off.size(), on.size());
    for (std::size_t i = 0; i < off.size(); ++i)
        EXPECT_EQ(off[i], on[i]) << "request " << i;
}

// --- Perfetto export -----------------------------------------------------

TEST(Trace, ExportParsesBackAsTraceEventJson)
{
    TracingGuard guard(true);
    obs::TraceLog log;
    const obs::TraceContext ctx = obs::TraceContext::begin();
    {
        obs::ScopedSpan root(ctx, "request", &log);
        root.arg("id", "7");
        obs::ScopedSpan child(root.context(), "run", &log);
    }

    std::ostringstream os;
    obs::writeChromeTrace(os, log.snapshot());

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(os.str(), doc, &error)) << error;
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->type, JsonValue::Type::Array);

    // Both spans must be there as duration events carrying their ids.
    int requestEvents = 0;
    int runEvents = 0;
    for (const JsonValue &event : events->array) {
        const JsonValue *name = event.find("name");
        if (name == nullptr ||
            name->type != JsonValue::Type::String)
            continue;
        const JsonValue *args = event.find("args");
        if (name->str == "request" && args != nullptr &&
            args->find("trace") != nullptr)
            ++requestEvents;
        if (name->str == "run" && args != nullptr &&
            args->find("parent") != nullptr)
            ++runEvents;
    }
    EXPECT_EQ(requestEvents, 1);
    EXPECT_EQ(runEvents, 1);
}

} // namespace
} // namespace usfq
