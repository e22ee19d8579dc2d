/**
 * @file
 * Deterministic discrete-event queue: the heart of the pulse-level SFQ
 * simulator.
 *
 * Events are closures scheduled at integer femtosecond ticks.  Events at
 * equal ticks execute in scheduling order (a monotonically increasing
 * sequence number breaks ties), so simulations are bit-exact across runs
 * and platforms.
 *
 * Internally this is a calendar queue specialized to SFQ workloads (see
 * docs/simkernel.md): a ring of per-tick buckets covering a sliding
 * window of kNumBuckets femtoseconds, an occupancy bitmap to skip empty
 * ticks, and a min-heap for events beyond the window.  Near-term events
 * — the overwhelming majority, since cell and wire delays are a few
 * picoseconds — cost O(1) to schedule and pop, with no allocation for
 * small callbacks (InlineFunction) and no comparator churn: FIFO order
 * within a one-tick bucket *is* sequence order.
 */

#ifndef USFQ_SIM_EVENT_QUEUE_HH
#define USFQ_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/stats.hh"
#include "sim/inline_function.hh"
#include "util/types.hh"

namespace usfq
{

/**
 * A time-ordered queue of callback events.
 *
 * The queue is single-threaded by design; parallelism comes from
 * sharding whole simulations (see sim/sweep.hh), each with a private
 * EventQueue, which preserves determinism.
 */
class EventQueue
{
  public:
    using Callback = InlineFunction<void()>;

    /** Ticks covered by the bucket ring (window width, power of two). */
    static constexpr std::size_t kNumBuckets = 8192;

    EventQueue();
    ~EventQueue();

    EventQueue(EventQueue &&) = default;
    EventQueue &operator=(EventQueue &&) = delete;

    /**
     * The bucket ring's backing arrays (opaque).  Pooled per thread:
     * building and tearing down a Netlist per simulation (the standard
     * sweep pattern) must not pay a fresh multi-hundred-KB allocation
     * each time.
     */
    struct RingBuffers;

    /** Current simulation time. */
    Tick now() const { return currentTick; }

    /** Schedule @p cb at absolute time @p when (>= now). */
    void schedule(Tick when, Callback cb);

    /** Schedule @p cb @p delay ticks from now. */
    void scheduleAfter(Tick delay, Callback cb) {
        schedule(currentTick + delay, std::move(cb));
    }

    /** Number of pending events. */
    std::size_t pending() const { return liveRing + overflow.size(); }

    /** True if no events remain. */
    bool empty() const { return pending() == 0; }

    /**
     * Run until the queue drains or @p until is reached (inclusive).
     * Returns the number of events executed.
     */
    std::uint64_t run(Tick until = INT64_MAX);

    /** Execute exactly one event if any is pending; returns true if so. */
    bool step();

    /** Drop all pending events and reset time to zero. */
    void reset();

    /** Total events executed since construction/reset. */
    std::uint64_t executed() const { return executedCount; }

    // --- instrumentation (docs/observability.md) ------------------------

    /**
     * Kernel telemetry, collected only when obs::kernelStatsEnabled()
     * (the USFQ_OBS=1 toggle) was true at construction.  Everything
     * here except runWallUs is a pure function of the schedule
     * sequence, so enabling it never perturbs simulation results and
     * the exported stats stay deterministic.
     */
    struct KernelStats
    {
        std::uint64_t scheduled = 0;      ///< schedule() calls
        std::uint64_t ringInserts = 0;    ///< bucket-ring appends
        std::uint64_t overflowPushes = 0; ///< beyond-window heap pushes
        std::uint64_t rebases = 0;        ///< window re-anchors
        std::uint64_t rebaseSpills = 0;   ///< live events spilled by rebase
        std::uint64_t maxPending = 0;     ///< high-water mark of pending()
        std::uint64_t maxOverflow = 0;    ///< high-water mark of the heap
        std::uint64_t runCalls = 0;       ///< run() invocations
        double runWallUs = 0.0;           ///< wall-clock time inside run()
        /** Schedule-to-fire latency (when - now at schedule), fs. */
        obs::Histogram scheduleLatency;

        /** Executed events per wall-clock second inside run(). */
        double eventsPerSecond(std::uint64_t executed) const
        {
            return runWallUs > 0.0
                       ? static_cast<double>(executed) /
                             (runWallUs * 1e-6)
                       : 0.0;
        }
    };

    /** Collected telemetry, or null when instrumentation is off. */
    const KernelStats *kernelStats() const { return stats.get(); }

    /**
     * Write the deterministic kernel stats under "<prefix>/..." into
     * @p reg: executed/pending always, the KernelStats extras when
     * instrumentation is on.  Wall-clock numbers are excluded (they
     * belong to the host-side phase totals, not the registry).
     */
    void exportStats(obs::StatsRegistry &reg,
                     const std::string &prefix) const;

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    static constexpr std::size_t kBucketMask = kNumBuckets - 1;
    static constexpr std::size_t kBitmapWords = kNumBuckets / 64;

    /** Append to the ring bucket of @p when (must lie in the window). */
    void insertRing(Tick when, std::uint64_t seq, Callback cb);

    /** Push onto the beyond-window min-heap. */
    void overflowPush(Tick when, std::uint64_t seq, Callback cb);

    /** Pop the overflow minimum (heap must be non-empty). */
    Event overflowPop();

    /**
     * Re-anchor the window at @p new_base: spill the ring into the
     * overflow heap, then pull every event below new_base + kNumBuckets
     * back into buckets in (when, seq) order.  Rare: runs only when the
     * ring is drained past or an event lands behind the window.
     */
    void rebase(Tick new_base);

    /**
     * Lowest tick with a pending ring event, rebasing from overflow as
     * needed.  Returns kTickInvalid when the queue is empty.  Updates
     * cursor to the returned tick.
     */
    Tick findNextTick();

    void setBit(std::size_t idx) {
        bitmap[idx >> 6] |= std::uint64_t(1) << (idx & 63);
    }
    void clearBit(std::size_t idx) {
        bitmap[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
    }

    /** Record one schedule() in the telemetry (stats must be live). */
    void noteSchedule(Tick when);

    std::unique_ptr<RingBuffers> ring; ///< pooled per-tick buckets
    std::unique_ptr<KernelStats> stats; ///< null = instrumentation off
    std::array<std::uint64_t, kBitmapWords> bitmap{};
    std::vector<Event> overflow;       ///< min-heap by (when, seq)

    Tick windowBase = 0;  ///< ring covers [windowBase, +kNumBuckets)
    Tick cursor = 0;      ///< no pending ring event is below this tick
    std::size_t liveRing = 0; ///< events currently stored in buckets

    Tick currentTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t executedCount = 0;
};

} // namespace usfq

#endif // USFQ_SIM_EVENT_QUEUE_HH
