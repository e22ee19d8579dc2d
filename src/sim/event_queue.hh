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
 * docs/simkernel.md): a ring of kNumBuckets buckets, each 1024 fs (about
 * a picosecond) wide, covering a sliding window of kWindowTicks (about
 * 1.05 ns); an occupancy bitmap to skip empty buckets; and a min-heap
 * for events beyond the window.  Cell and wire delays (a few to a few
 * tens of picoseconds) all land in the ring, so only stimulus trains
 * and far events pay heap traffic.  A bucket is appended in scheduling
 * order and sorted by (when, seq) once, when the drain reaches it;
 * events scheduled into the bucket being drained wait in a small heap
 * that the drain merges with it.  Small callbacks never allocate
 * (InlineFunction).
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

    /** Buckets in the ring (power of two). */
    static constexpr std::size_t kNumBuckets = 1024;
    /** log2 of a bucket's width in ticks: 1024 fs, about 1 ps. */
    static constexpr int kBucketShift = 10;
    /** Ticks covered by the ring: the window width, 2^20 fs. */
    static constexpr Tick kWindowTicks = static_cast<Tick>(kNumBuckets)
                                         << kBucketShift;

    EventQueue();
    ~EventQueue();

    EventQueue(EventQueue &&) = default;
    EventQueue &operator=(EventQueue &&) = delete;

    /**
     * The bucket ring's backing arrays (opaque).  Pooled per thread:
     * building and tearing down a Netlist per simulation (the standard
     * sweep pattern) must not pay a fresh allocation of kNumBuckets
     * vector headers each time.
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
        std::uint64_t ringInserts = 0;    ///< bucket and late-heap inserts
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

    static constexpr Tick kBucketTicks = Tick(1) << kBucketShift;
    static constexpr std::size_t kBucketMask = kNumBuckets - 1;
    static constexpr std::size_t kBitmapWords = kNumBuckets / 64;
    /** openIdx value while no bucket is open. */
    static constexpr std::size_t kNoBucket = kNumBuckets;

    /** Ring index of the bucket holding @p when. */
    static std::size_t bucketOf(Tick when) {
        return static_cast<std::size_t>(when >> kBucketShift) &
               kBucketMask;
    }
    /** First tick of the bucket holding @p when. */
    static Tick bucketStart(Tick when) {
        return when & ~(kBucketTicks - 1);
    }

    /**
     * Put an event into the ring (@p when must lie in the window): into
     * the late heap if its bucket is open, else appended to its bucket.
     */
    void insertRing(Tick when, std::uint64_t seq, Callback cb);

    /** Push onto the beyond-window min-heap. */
    void overflowPush(Tick when, std::uint64_t seq, Callback cb);

    /** Pop the overflow minimum (heap must be non-empty). */
    Event overflowPop();

    /**
     * Re-anchor the window at the bucket holding @p new_base: spill the
     * ring into the overflow heap, then pull every event below the new
     * window end back into buckets.  Rare: runs only when the ring is
     * drained or an event lands behind the window.
     */
    void rebase(Tick new_base);

    /**
     * The earliest pending event, or null when the queue is empty.
     * Closes an exhausted open bucket and opens the next one (see
     * openNextBucket), so the event lies in the open bucket's vector
     * or at the top of the late heap.
     */
    Event *nextEvent();

    /**
     * Open the earliest occupied bucket, rebasing from the overflow
     * heap if the ring is empty: move the cursor to it and sort it by
     * (when, seq).  No bucket may be open.  Returns false when the
     * queue is empty.
     */
    bool openNextBucket();

    /** Retire the open bucket, which must be exhausted. */
    void closeBucket();

    /**
     * Turn the open bucket back into a plain one: drop its drained
     * prefix and append the late heap to it.  It is sorted again when
     * next opened.  Runs only when an event is scheduled below the
     * open bucket, or on rebase.
     */
    void shelveOpenBucket();

    /** Execute the earliest event if it is at or before @p until. */
    bool fireNext(Tick until);

    void setBit(std::size_t idx) {
        bitmap[idx >> 6] |= std::uint64_t(1) << (idx & 63);
    }
    void clearBit(std::size_t idx) {
        bitmap[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
    }

    /** Record one schedule() in the telemetry (stats must be live). */
    void noteSchedule(Tick when);

    std::unique_ptr<RingBuffers> ring; ///< pooled bucket vectors
    std::unique_ptr<KernelStats> stats; ///< null = instrumentation off
    std::array<std::uint64_t, kBitmapWords> bitmap{};
    std::vector<Event> overflow;       ///< min-heap by (when, seq)
    /** Min-heap by (when, seq): events scheduled into the open bucket
     *  after it was sorted. */
    std::vector<Event> late;

    Tick windowBase = 0;  ///< ring covers [windowBase, +kWindowTicks)
    /** Bucket-aligned; no pending ring event is below it.  Equals the
     *  open bucket's first tick while a bucket is open. */
    Tick cursor = 0;
    std::size_t liveRing = 0; ///< pending events in buckets and late
    std::size_t openIdx = kNoBucket; ///< bucket being drained, sorted
    std::size_t openHead = 0; ///< next undrained slot of the open bucket

    Tick currentTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t executedCount = 0;
};

} // namespace usfq

#endif // USFQ_SIM_EVENT_QUEUE_HH
