#include "obs/phase.hh"

#include <array>
#include <atomic>
#include <chrono>

#include "obs/trace.hh"

namespace usfq::obs
{

namespace
{

constexpr std::array<const char *, 4> kPhaseNames = {"build", "elaborate",
                                                     "sta", "run"};

/** Per-phase running totals; relaxed -- each is read on its own. */
struct PhaseTotal
{
    std::atomic<std::uint64_t> us{0};
    std::atomic<std::uint64_t> runs{0};
};

std::array<PhaseTotal, kPhaseNames.size()> totals;

} // namespace

std::uint64_t
wallClockUs()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point anchor = clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            clock::now() - anchor)
            .count());
}

std::uint32_t
threadId()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

void
recordPhase(Phase phase, std::uint64_t startUs, std::uint64_t durUs)
{
    const auto i = static_cast<std::size_t>(phase);
    totals[i].us.fetch_add(durUs, std::memory_order_relaxed);
    totals[i].runs.fetch_add(1, std::memory_order_relaxed);
    if (!tracingEnabled())
        return;
    // A root span of its own trace: the broker's request chains hold
    // only their own steps, and a netlist phase has no request context.
    TraceSpan span;
    span.name = std::string("netlist/") + kPhaseNames[i];
    span.traceId = newTraceId();
    span.spanId = newSpanId();
    span.startUs = startUs;
    span.durUs = durUs;
    span.tid = threadId();
    TraceLog::global().add(std::move(span));
}

std::map<std::string, double>
phaseTotalsUs()
{
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < totals.size(); ++i)
        if (totals[i].runs.load(std::memory_order_relaxed) > 0)
            out[kPhaseNames[i]] = static_cast<double>(
                totals[i].us.load(std::memory_order_relaxed));
    return out;
}

} // namespace usfq::obs
