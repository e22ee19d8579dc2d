/**
 * @file
 * Shared vocabulary of the repository benchmark (perfbench/README.md):
 * run options, the result a workload hands back, wall-clock helpers,
 * and the benchmark's own span log.
 *
 * Spans here are the benchmark's, not the program's: each wraps one
 * direct call into a layer (gen::balanceDesign, Netlist::elaborate,
 * runSta, ...) with a steady-clock interval, a layer-qualified name and
 * a parent, kept in memory and written out when the run ends.  The
 * broker's own request spans (obs/trace.hh) are read as they are.
 */

#ifndef USFQ_PERFBENCH_BENCH_HH
#define USFQ_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Smoke size: tiny inputs, for perfbench/smoke.py. */
    bool tiny = false;

    /** Where the traced run writes its spans ("" = nowhere). */
    std::string traceOut;
};

/** One named metric (units live in main.cc's metric tables). */
struct Metric
{
    std::string name;
    double value = 0.0;
};

/** What one workload run reports. */
struct Outcome
{
    std::uint64_t attempted = 0;

    /** Ops whose output differed from its reference, or that failed. */
    std::uint64_t failed = 0;

    /** End-to-end metrics (the untraced run's result line). */
    std::vector<Metric> endToEnd;

    /** Per-layer metrics (the traced run's result line). */
    std::vector<Metric> perLayer;

    /** key=value metadata printed beside the result. */
    std::vector<std::pair<std::string, std::string>> meta;
};

/** Monotonic nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One benchmark span: a timed direct call into one layer. */
struct Span
{
    std::string name;  ///< "<layer>.<step>", e.g. "sta.run"
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = a root (one op)
    std::int64_t startNs = 0;
    std::int64_t durNs = 0;

    /** Units of work the call did (components, edges, events, epochs);
     *  0 = not a per-unit measurement. */
    double work = 0.0;
};

/**
 * Append-only span recorder owned by one thread (sweep shards each
 * fill their own and the results are concatenated afterwards).  Ids
 * are local; append() re-bases them when logs are concatenated.
 */
class SpanLog
{
  public:
    /** Open a span; returns its id.  Inert (returns 0) when off. */
    std::uint64_t open(const std::string &name, std::uint64_t parent);
    void close(std::uint64_t id);

    /** Record the units of work span @p id did (no-op when inert). */
    void setWork(std::uint64_t id, double work);

    bool enabled = false;
    std::vector<Span> spans;

    /** Shift every id of @p other by this log's size and append. */
    void append(const SpanLog &other);
};

/** RAII wrapper over SpanLog::open/close. */
class Scoped
{
  public:
    Scoped(SpanLog &log, const std::string &name, std::uint64_t parent = 0)
        : sink(log), spanId(log.open(name, parent))
    {
    }
    ~Scoped() { sink.close(spanId); }

    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    std::uint64_t id() const { return spanId; }

  private:
    SpanLog &sink;
    std::uint64_t spanId;
};

/**
 * Sum of self times per span name, ns.  A span's self time is its
 * duration minus the part of its interval its children cover (children
 * clipped to the parent, overlaps merged).
 */
std::map<std::string, double> selfByName(const std::vector<Span> &spans);

/** Sum of durations over sum of work of the spans named @p name with
 *  work > 0: ns per unit of work (0 when none). */
double nsPerUnit(const std::vector<Span> &spans, const std::string &name);

/** Durations, in microseconds, of every span named @p name. */
std::vector<double> durationsUs(const std::vector<Span> &spans,
                                const std::string &name);

/** @p num / @p den, or 0 when @p den is not positive. */
double ratio(double num, double den);

/** Nearest-rank percentile of @p v (0 when empty); sorts a copy. */
double percentile(std::vector<double> v, double p);

/** One completed op of a timed window. */
struct OpSample
{
    std::int64_t endNs = 0; ///< completion, ns after the window opened
    double latencyMs = 0.0;
};

/** The window's end-to-end timing figures. */
struct Summary
{
    double opsPerS = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    std::size_t fewestPerSlice = 0; ///< smallest slice's sample count
};

/** Slices the end-to-end figures are medians over. */
constexpr int kSlices = 5;

/**
 * Cut a window of @p seconds into kSlices equal slices by completion
 * time, and report the median over slices of the op rate, the p50 and
 * the p99 -- so a burst of outside load skews one slice, not the run.
 */
Summary summarize(const std::vector<OpSample> &ops, double seconds);

/** FNV-1a fold of one 64-bit value. */
std::uint64_t fold(std::uint64_t h, std::uint64_t v);

/** FNV-1a fold of a string's bytes. */
std::uint64_t foldStr(std::uint64_t h, const std::string &s);

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/** 16-digit lower-case hex of @p v. */
std::string hex(std::uint64_t v);

/** Peak resident set of this process so far, MiB. */
double peakRssMb();

/** Write @p spans as Trace Event JSON to @p path; false on failure. */
bool writeSpans(const std::string &path, const std::vector<Span> &spans);

/** The workloads. */
Outcome runServe(const Options &opt, bool fresh);
Outcome runExplore(const Options &opt);

} // namespace perfbench

#endif // USFQ_PERFBENCH_BENCH_HH
