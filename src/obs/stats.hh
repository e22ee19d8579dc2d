/**
 * @file
 * Hierarchical simulation statistics registry (docs/observability.md).
 *
 * The registry owns named counters, gauges and log2 histograms.  Hot
 * paths hold a reference to their stat and increment it inline (one
 * add, no lookup, no lock); registration -- the only map access --
 * happens once, outside the hot path.  Stat names are '/'-separated
 * hierarchy paths ("top/dpu.m3/in_pulses"); Netlist::exportStats()
 * derives them from the same elaboration hier-node tree that
 * Netlist::report() aggregates over, so registry rollups (sumCounters
 * over a path prefix) reproduce the report() arithmetic exactly.
 *
 * Determinism contract: the registry holds only simulation facts
 * (pulse counts, event counts, occupancies) -- never wall-clock time,
 * which lives in obs/phase.hh and obs/trace.hh.  mergeFrom() is
 * order-free (counter adds, high-water gauges, bucket-wise histogram
 * adds), so sweep shards' private registries and the broker's per-run
 * registries fold into bit-identical totals at 1 and N threads, in
 * whatever order the runs complete.
 */

#ifndef USFQ_OBS_STATS_HH
#define USFQ_OBS_STATS_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace usfq::obs
{

/** Monotonic event count. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { val += n; }
    Counter &operator+=(std::uint64_t n)
    {
        val += n;
        return *this;
    }
    Counter &operator++()
    {
        ++val;
        return *this;
    }
    void set(std::uint64_t v) { val = v; }
    std::uint64_t value() const { return val; }
    void reset() { val = 0; }

  private:
    std::uint64_t val = 0;
};

/**
 * A high-water mark (peak occupancy, peak utilization): mergeFrom()
 * keeps the larger value, so merges commute whatever the fold order.
 */
class Gauge
{
  public:
    void set(double v)
    {
        val = v;
        written = true;
    }
    /** Keep the larger of the current and @p v. */
    void high(double v)
    {
        if (!written || v > val)
            set(v);
    }
    double value() const { return val; }
    bool valid() const { return written; }

  private:
    double val = 0.0;
    bool written = false;
};

/**
 * Power-of-two-bucketed histogram of non-negative integer samples.
 * Bucket 0 holds exact zeros; bucket i >= 1 holds [2^(i-1), 2^i).
 * Covers the full 63-bit sample range, so a femtosecond
 * schedule-to-fire latency and a queue occupancy both fit.
 */
class Histogram
{
  public:
    static constexpr std::size_t kBuckets = 64;

    void
    record(std::int64_t sample)
    {
        buckets[bucketOf(sample)] += 1;
        ++samples;
        total += sample < 0 ? 0 : static_cast<std::uint64_t>(sample);
        if (samples == 1 || sample < lo)
            lo = sample;
        if (samples == 1 || sample > hi)
            hi = sample;
    }

    /** Bucket a sample lands in (negatives clamp to bucket 0). */
    static std::size_t bucketOf(std::int64_t sample);

    /** Inclusive lower bound of bucket @p i. */
    static std::int64_t bucketLo(std::size_t i);

    std::uint64_t count() const { return samples; }
    std::uint64_t sum() const { return total; }
    std::int64_t min() const { return samples ? lo : 0; }
    std::int64_t max() const { return samples ? hi : 0; }
    double mean() const
    {
        return samples ? static_cast<double>(total) /
                             static_cast<double>(samples)
                       : 0.0;
    }
    std::uint64_t bucket(std::size_t i) const { return buckets[i]; }

    void merge(const Histogram &other);
    void reset() { *this = Histogram{}; }

  private:
    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t samples = 0;
    std::uint64_t total = 0;
    std::int64_t lo = 0;
    std::int64_t hi = 0;
};

/**
 * A named collection of stats.  Entries live for the registry's
 * lifetime at stable addresses, so references handed out by
 * counter()/gauge()/histogram() may be cached and bumped inline.
 */
class StatsRegistry
{
  public:
    /** Find or create; re-registration with a different kind is a
     *  hard error. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Lookup without creating (null when absent / wrong kind). */
    const Counter *findCounter(const std::string &name) const;
    const Gauge *findGauge(const std::string &name) const;
    const Histogram *findHistogram(const std::string &name) const;

    /**
     * Sum of every counter at or under @p path: the counter named
     * @p path exactly plus all counters named "@p path/...".  This is
     * the registry-side twin of the Netlist::report() subtree rollup.
     */
    std::uint64_t sumCounters(std::string_view path) const;

    /**
     * Subtree rollup of ONE stat: sum of every counter under @p path
     * whose final path segment equals @p leaf.  sumCounters("top",
     * "jj") over a Netlist export is totalJJs().
     */
    std::uint64_t sumCounters(std::string_view path,
                              std::string_view leaf) const;

    /**
     * Fold @p other into this registry entry-by-entry: counters add,
     * gauges keep the larger value, histograms add bucket-wise (and
     * keep the extreme min/max).  Every one of those commutes and
     * associates, so folding any set of registries in any order gives
     * the same values -- and the same statsToJson bytes.
     */
    void mergeFrom(const StatsRegistry &other);

    std::size_t size() const { return entries.size(); }
    bool empty() const { return entries.empty(); }
    void clear() { entries.clear(); }

    /** Visit every entry in sorted name order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &[name, e] : entries)
            fn(name, e);
    }

    struct Entry
    {
        enum class Kind
        {
            Counter,
            Gauge,
            Histogram,
        };
        Kind kind;
        Counter counter;
        Gauge gauge;
        Histogram histogram;
    };

    /** Plain-text dump (name = value), for debugging and examples. */
    void print(std::ostream &os) const;

  private:
    Entry &fetch(const std::string &name, Entry::Kind kind);

    // Ordered map: deterministic iteration/merge order, stable
    // addresses across inserts.
    std::map<std::string, Entry, std::less<>> entries;
};

/**
 * The process-wide default registry.  Single-threaded code can simply
 * record here; sweep shards get a private registry via
 * ScopedStatsRegistry (installed by runSweep) instead.
 */
StatsRegistry &globalStats();

/** The calling thread's current registry (defaults to globalStats()). */
StatsRegistry &currentStats();

/** RAII override of the calling thread's current registry. */
class ScopedStatsRegistry
{
  public:
    explicit ScopedStatsRegistry(StatsRegistry &reg);
    ~ScopedStatsRegistry();
    ScopedStatsRegistry(const ScopedStatsRegistry &) = delete;
    ScopedStatsRegistry &operator=(const ScopedStatsRegistry &) = delete;

  private:
    StatsRegistry *saved;
};

/**
 * True when kernel instrumentation is on: the USFQ_OBS environment
 * variable was set to a non-zero value at first query, or a test
 * forced it via setKernelStatsEnabled().  EventQueue checks this once
 * per construction; with it off the hot paths pay one null-pointer
 * test per schedule and nothing else.
 */
bool kernelStatsEnabled();

/** Force the toggle (tests); overrides the environment. */
void setKernelStatsEnabled(bool enabled);

} // namespace usfq::obs

#endif // USFQ_OBS_STATS_HH
