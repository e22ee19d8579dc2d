/**
 * @file
 * Request tracing (docs/observability.md, "Request tracing"): trace /
 * span ids threaded through the service tier so one serving run can be
 * read as a set of per-request span chains in the Perfetto exporter.
 *
 * Spans carry wall-clock time and therefore live OUTSIDE the stats
 * registry: the registry stays a container of deterministic simulation
 * facts, the trace log holds the nondeterministic host-side story.
 * The two never mix.  This is the process's one span log: netlist
 * phases (obs/phase.hh) append their "netlist/<phase>" root spans here
 * too, and only while tracing is on, so an untraced process keeps no
 * spans at all.
 *
 * Ids are process-monotonic: every trace (one request) and every span
 * (one step of a request) draws from its own atomic counter, so span
 * chains are well-formed however broker worker threads interleave.
 * Tracing is off unless USFQ_TRACE_OUT is set (or a test forces it via
 * setTracingEnabled); when off, TraceContext::begin() returns the
 * invalid context and every ScopedSpan on it is inert -- one branch,
 * no clock read, no allocation, no lock.
 */

#ifndef USFQ_OBS_TRACE_HH
#define USFQ_OBS_TRACE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/phase.hh"

namespace usfq::obs
{

/** One completed span of one request's trace. */
struct TraceSpan
{
    std::string name;

    std::uint64_t traceId = 0;      ///< request-level id (1-based)
    std::uint64_t spanId = 0;       ///< process-unique span id
    std::uint64_t parentSpanId = 0; ///< 0 = root span of its trace

    std::uint64_t startUs = 0; ///< wall-clock start (obs::wallClockUs)
    std::uint64_t durUs = 0;
    std::uint32_t tid = 0; ///< dense host-thread id (obs::threadId)

    /** Small string annotations (e.g. {"hit", "1"}). */
    std::vector<std::pair<std::string, std::string>> args;
};

/**
 * Append-only, thread-safe log of completed spans.  One global
 * instance feeds the Perfetto exporter; tests may use private logs.
 */
class TraceLog
{
  public:
    void add(TraceSpan span);

    /** Copy out every span recorded so far. */
    std::vector<TraceSpan> snapshot() const;

    std::size_t size() const;
    void clear();

    /** The process-wide log. */
    static TraceLog &global();

  private:
    mutable std::mutex lock;
    std::vector<TraceSpan> spans;
};

/**
 * True when request tracing is on: USFQ_TRACE_OUT was set at first
 * query, or a test forced it via setTracingEnabled().
 */
bool tracingEnabled();

/** Force the toggle (tests); overrides the environment. */
void setTracingEnabled(bool enabled);

/** Next trace id (monotonic, starts at 1). */
std::uint64_t newTraceId();

/** Next span id (monotonic, starts at 1). */
std::uint64_t newSpanId();

/**
 * The value threaded across thread boundaries: which trace a piece of
 * work belongs to and which span is its parent.  Copyable and cheap --
 * the broker stores one per pending request.
 */
struct TraceContext
{
    std::uint64_t traceId = 0;      ///< 0 = tracing disabled
    std::uint64_t parentSpanId = 0; ///< 0 = spans become roots

    bool valid() const { return traceId != 0; }

    /**
     * Open a new trace (a fresh monotonic trace id, no parent), or the
     * invalid context when tracing is disabled.
     */
    static TraceContext begin();
};

/**
 * RAII span: assigns a span id, times its scope, and records into a
 * TraceLog (the global one by default) when finished.  Inert when the
 * context is invalid.  context() yields the child context, so nested
 * scopes build a parent chain.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const TraceContext &ctx, std::string name,
                        TraceLog *log = &TraceLog::global());

    ~ScopedSpan() { finish(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** True when the span will be recorded (context valid, not done). */
    bool active() const { return span.traceId != 0 && !done; }

    /** Attach one string annotation (no-op when inert). */
    void arg(std::string key, std::string value);

    /** Override the recorded start (e.g. a queue-entry timestamp). */
    void startAt(std::uint64_t us);

    /** Context for child spans of this one. */
    TraceContext context() const
    {
        return TraceContext{span.traceId, span.spanId};
    }

    /** End and record the span now (idempotent). */
    void finish();

  private:
    TraceSpan span; ///< traceId 0 = inert
    TraceLog *sink;
    bool done = false;
};

/**
 * Name the calling thread for the Perfetto export ("worker-3" beats
 * "thread 7" in the viewer).  Last writer per thread id wins.
 */
void setCurrentThreadName(const std::string &name);

/** Snapshot of every (thread id, name) registered so far. */
std::vector<std::pair<std::uint32_t, std::string>> threadNames();

} // namespace usfq::obs

#endif // USFQ_OBS_TRACE_HH
