#include "obs/stats.hh"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <ostream>

#include "util/logging.hh"

namespace usfq::obs
{

// --- Histogram -------------------------------------------------------------

std::size_t
Histogram::bucketOf(std::int64_t sample)
{
    if (sample <= 0)
        return 0;
    const auto u = static_cast<std::uint64_t>(sample);
    // 1 lands in bucket 1, [2,4) in 2, [4,8) in 3, ...
    return static_cast<std::size_t>(64 - std::countl_zero(u));
}

std::int64_t
Histogram::bucketLo(std::size_t i)
{
    if (i == 0)
        return 0; // bucket 0 = {0}
    return std::int64_t(1) << (i - 1); // bucket 1 = {1}, 2 = [2,4), ...
}

void
Histogram::merge(const Histogram &other)
{
    if (other.samples == 0)
        return;
    for (std::size_t i = 0; i < kBuckets; ++i)
        buckets[i] += other.buckets[i];
    if (samples == 0 || other.lo < lo)
        lo = other.lo;
    if (samples == 0 || other.hi > hi)
        hi = other.hi;
    samples += other.samples;
    total += other.total;
}

// --- StatsRegistry ---------------------------------------------------------

StatsRegistry::Entry &
StatsRegistry::fetch(const std::string &name, Entry::Kind kind, int node)
{
    auto [it, inserted] = entries.try_emplace(name);
    Entry &e = it->second;
    if (inserted) {
        e.kind = kind;
        e.node = node;
    } else if (e.kind != kind) {
        panic("StatsRegistry: stat '%s' re-registered as a different "
              "kind",
              name.c_str());
    }
    if (node >= 0)
        e.node = node;
    return e;
}

Counter &
StatsRegistry::counter(const std::string &name, int node)
{
    return fetch(name, Entry::Kind::Counter, node).counter;
}

Gauge &
StatsRegistry::gauge(const std::string &name, Gauge::Merge policy,
                     int node)
{
    Gauge &g = fetch(name, Entry::Kind::Gauge, node).gauge;
    g.policy = policy;
    return g;
}

Histogram &
StatsRegistry::histogram(const std::string &name, int node)
{
    return fetch(name, Entry::Kind::Histogram, node).histogram;
}

const Counter *
StatsRegistry::findCounter(const std::string &name) const
{
    const auto it = entries.find(name);
    if (it == entries.end() || it->second.kind != Entry::Kind::Counter)
        return nullptr;
    return &it->second.counter;
}

const Gauge *
StatsRegistry::findGauge(const std::string &name) const
{
    const auto it = entries.find(name);
    if (it == entries.end() || it->second.kind != Entry::Kind::Gauge)
        return nullptr;
    return &it->second.gauge;
}

const Histogram *
StatsRegistry::findHistogram(const std::string &name) const
{
    const auto it = entries.find(name);
    if (it == entries.end() ||
        it->second.kind != Entry::Kind::Histogram)
        return nullptr;
    return &it->second.histogram;
}

int
StatsRegistry::nodeOf(const std::string &name) const
{
    const auto it = entries.find(name);
    return it == entries.end() ? -1 : it->second.node;
}

std::uint64_t
StatsRegistry::sumCounters(std::string_view path) const
{
    std::uint64_t total = 0;
    // Entries are name-sorted: everything at or under `path` sits in
    // the contiguous range [path, path + '0') since '/' < '0'.
    for (auto it = entries.lower_bound(path); it != entries.end();
         ++it) {
        const std::string &name = it->first;
        if (name.compare(0, path.size(), path) != 0)
            break;
        if (name.size() > path.size() && name[path.size()] != '/')
            continue;
        if (it->second.kind == Entry::Kind::Counter)
            total += it->second.counter.value();
    }
    return total;
}

std::uint64_t
StatsRegistry::sumCounters(std::string_view path,
                           std::string_view leaf) const
{
    std::uint64_t total = 0;
    for (auto it = entries.lower_bound(path); it != entries.end();
         ++it) {
        const std::string &name = it->first;
        if (name.compare(0, path.size(), path) != 0)
            break;
        if (name.size() > path.size() && name[path.size()] != '/')
            continue;
        if (it->second.kind != Entry::Kind::Counter)
            continue;
        // Final segment must equal `leaf` exactly.
        if (name.size() < leaf.size() + 1)
            continue;
        const std::size_t cut = name.size() - leaf.size();
        if (name[cut - 1] == '/' &&
            name.compare(cut, leaf.size(), leaf) == 0)
            total += it->second.counter.value();
    }
    return total;
}

void
StatsRegistry::mergeFrom(const StatsRegistry &other)
{
    for (const auto &[name, e] : other.entries) {
        switch (e.kind) {
          case Entry::Kind::Counter:
            counter(name, e.node) += e.counter.value();
            break;
          case Entry::Kind::Gauge: {
            Gauge &g = gauge(name, e.gauge.mergePolicy(), e.node);
            if (!e.gauge.valid())
                break;
            if (!g.valid()) {
                g.set(e.gauge.value());
                break;
            }
            switch (e.gauge.mergePolicy()) {
              case Gauge::Merge::Sum:
                g.set(g.value() + e.gauge.value());
                break;
              case Gauge::Merge::Max:
                if (e.gauge.value() > g.value())
                    g.set(e.gauge.value());
                break;
              case Gauge::Merge::Min:
                if (e.gauge.value() < g.value())
                    g.set(e.gauge.value());
                break;
            }
            break;
          }
          case Entry::Kind::Histogram:
            histogram(name, e.node).merge(e.histogram);
            break;
        }
    }
}

void
StatsRegistry::print(std::ostream &os) const
{
    for (const auto &[name, e] : entries) {
        switch (e.kind) {
          case Entry::Kind::Counter:
            os << name << " = " << e.counter.value() << "\n";
            break;
          case Entry::Kind::Gauge:
            os << name << " = " << e.gauge.value() << "\n";
            break;
          case Entry::Kind::Histogram:
            os << name << " = { n " << e.histogram.count() << ", sum "
               << e.histogram.sum() << ", min " << e.histogram.min()
               << ", max " << e.histogram.max() << " }\n";
            break;
        }
    }
}

// --- registry plumbing -----------------------------------------------------

StatsRegistry &
globalStats()
{
    static StatsRegistry reg;
    return reg;
}

namespace
{

thread_local StatsRegistry *threadRegistry = nullptr;

} // namespace

StatsRegistry &
currentStats()
{
    return threadRegistry ? *threadRegistry : globalStats();
}

ScopedStatsRegistry::ScopedStatsRegistry(StatsRegistry &reg)
    : saved(threadRegistry)
{
    threadRegistry = &reg;
}

ScopedStatsRegistry::~ScopedStatsRegistry()
{
    threadRegistry = saved;
}

// --- kernel instrumentation toggle -----------------------------------------

namespace
{

/**
 * -1 = not yet resolved from the environment.  Atomic: broker workers
 * and sweep threads resolve it concurrently (relaxed -- every thread
 * resolves to the same value).
 */
std::atomic<int> kernelStatsState{-1};

} // namespace

bool
kernelStatsEnabled()
{
    int state = kernelStatsState.load(std::memory_order_relaxed);
    if (state < 0) {
        const char *env = std::getenv("USFQ_OBS");
        state = (env != nullptr && env[0] != '\0' && env[0] != '0') ? 1 : 0;
        kernelStatsState.store(state, std::memory_order_relaxed);
    }
    return state == 1;
}

void
setKernelStatsEnabled(bool enabled)
{
    kernelStatsState.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void
captureLogStats(StatsRegistry &reg)
{
    reg.counter("log/warnings").set(warnCount());
    reg.counter("log/informs").set(informCount());
}

} // namespace usfq::obs
