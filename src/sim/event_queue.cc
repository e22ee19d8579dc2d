#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "obs/phase.hh"
#include "util/logging.hh"

namespace usfq
{

/**
 * The ring's bucket vectors.  Their headers are all the state a bucket
 * has (about 24 KB for the ring), and each vector keeps its capacity
 * across pooled reuse, so a warm ring schedules without allocating.
 */
struct EventQueue::RingBuffers
{
    std::vector<std::vector<Event>> buckets;

    RingBuffers() : buckets(kNumBuckets) {}
};

namespace
{

/** Min-heap order over (when, seq) for the overflow and late heaps. */
struct EventLater
{
    template <typename Ev>
    bool
    operator()(const Ev &a, const Ev &b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }
};

/**
 * Per-thread free list of drained ring buffers.  Every entry is clean
 * (all buckets empty), so acquisition costs a pointer pop instead of
 * constructing kNumBuckets vector headers.
 */
thread_local std::vector<std::unique_ptr<EventQueue::RingBuffers>>
    ringPool;

constexpr std::size_t kMaxPooledRings = 8;

} // namespace

EventQueue::EventQueue()
{
    if (!ringPool.empty()) {
        ring = std::move(ringPool.back());
        ringPool.pop_back();
    } else {
        ring = std::make_unique<RingBuffers>();
    }
    if (obs::kernelStatsEnabled())
        stats = std::make_unique<KernelStats>();
}

EventQueue::~EventQueue()
{
    if (!ring)
        return; // moved from
    // Return a clean ring to the pool: only occupied buckets (tracked by
    // the bitmap, the open one included) need clearing.
    for (std::size_t w = 0; w < kBitmapWords; ++w) {
        std::uint64_t bits = bitmap[w];
        while (bits) {
            const std::size_t idx =
                (w << 6) +
                static_cast<std::size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            ring->buckets[idx].clear();
        }
    }
    if (ringPool.size() < kMaxPooledRings)
        ringPool.push_back(std::move(ring));
}

void
EventQueue::insertRing(Tick when, std::uint64_t seq, Callback cb)
{
    const std::size_t idx = bucketOf(when);
    if (idx == openIdx) {
        // The open bucket is sorted and part-drained: the event waits
        // in the late heap, which the drain merges by (when, seq).
        late.push_back(Event{when, seq, std::move(cb)});
        std::push_heap(late.begin(), late.end(), EventLater{});
    } else {
        const Tick start = bucketStart(when);
        if (start < cursor) {
            // Below the cursor: only possible between run() calls
            // (callbacks schedule at or after now()).  An open bucket
            // is no longer the earliest one.
            if (openIdx != kNoBucket)
                shelveOpenBucket();
            cursor = start;
        }
        ring->buckets[idx].push_back(Event{when, seq, std::move(cb)});
        setBit(idx);
    }
    ++liveRing;
    if (stats)
        ++stats->ringInserts;
}

void
EventQueue::overflowPush(Tick when, std::uint64_t seq, Callback cb)
{
    overflow.push_back(Event{when, seq, std::move(cb)});
    std::push_heap(overflow.begin(), overflow.end(), EventLater{});
    if (stats) {
        ++stats->overflowPushes;
        if (overflow.size() > stats->maxOverflow)
            stats->maxOverflow = overflow.size();
    }
}

EventQueue::Event
EventQueue::overflowPop()
{
    std::pop_heap(overflow.begin(), overflow.end(), EventLater{});
    Event ev = std::move(overflow.back());
    overflow.pop_back();
    return ev;
}

void
EventQueue::schedule(Tick when, Callback cb)
{
    if (when < currentTick)
        panic("EventQueue: scheduling in the past (%lld < %lld)",
              static_cast<long long>(when),
              static_cast<long long>(currentTick));
    if (stats)
        noteSchedule(when);
    const std::uint64_t seq = nextSeq++;
    if (when >= windowBase && when < windowBase + kWindowTicks) {
        insertRing(when, seq, std::move(cb));
    } else if (when < windowBase) {
        // Behind the window: only possible from outside run() after the
        // ring drained far ahead.  Re-anchor the window at the new
        // event; rebase() spills and refills the ring consistently.
        rebase(when);
        insertRing(when, seq, std::move(cb));
    } else {
        overflowPush(when, seq, std::move(cb));
    }
}

void
EventQueue::noteSchedule(Tick when)
{
    ++stats->scheduled;
    stats->scheduleLatency.record(when - currentTick);
    // +1: the event being scheduled is about to be inserted.
    const std::uint64_t depth = pending() + 1;
    if (depth > stats->maxPending)
        stats->maxPending = depth;
}

void
EventQueue::rebase(Tick new_base)
{
    if (stats) {
        ++stats->rebases;
        stats->rebaseSpills += liveRing;
    }
    if (openIdx != kNoBucket)
        shelveOpenBucket();
    if (liveRing > 0) {
        for (std::size_t w = 0; w < kBitmapWords; ++w) {
            std::uint64_t bits = bitmap[w];
            while (bits) {
                const std::size_t idx =
                    (w << 6) +
                    static_cast<std::size_t>(std::countr_zero(bits));
                bits &= bits - 1;
                auto &vec = ring->buckets[idx];
                for (Event &ev : vec)
                    overflow.push_back(std::move(ev));
                vec.clear();
            }
            bitmap[w] = 0;
        }
        liveRing = 0;
        std::make_heap(overflow.begin(), overflow.end(), EventLater{});
    }
    windowBase = bucketStart(new_base);
    cursor = windowBase;
    const Tick window_end = windowBase + kWindowTicks;
    while (!overflow.empty() && overflow.front().when < window_end) {
        Event ev = overflowPop();
        insertRing(ev.when, ev.seq, std::move(ev.cb));
    }
}

bool
EventQueue::openNextBucket()
{
    while (liveRing == 0) {
        if (overflow.empty())
            return false;
        rebase(overflow.front().when);
    }
    // Scan the occupancy bitmap in ring order from the cursor's bucket;
    // every set bit lies at or after the cursor, so the first one found
    // is the earliest bucket.
    const std::size_t start = bucketOf(cursor);
    std::size_t w = start >> 6;
    std::uint64_t bits = bitmap[w] & (~std::uint64_t(0) << (start & 63));
    for (std::size_t scanned = 0; !bits;) {
        if (++scanned > kBitmapWords)
            panic("EventQueue: bitmap out of sync");
        w = (w + 1) & (kBitmapWords - 1);
        bits = bitmap[w];
    }
    const std::size_t idx =
        (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
    cursor += static_cast<Tick>((idx - start) & kBucketMask)
              << kBucketShift;
    openIdx = idx;
    // Appended in seq order, the bucket is ordered only within each
    // tick; seq is unique, so an unstable sort gives (when, seq).
    auto &vec = ring->buckets[idx];
    std::sort(vec.begin(), vec.end(), [](const Event &a, const Event &b) {
        return EventLater{}(b, a);
    });
    return true;
}

void
EventQueue::closeBucket()
{
    ring->buckets[openIdx].clear();
    clearBit(openIdx);
    openIdx = kNoBucket;
    openHead = 0;
    cursor += kBucketTicks;
}

void
EventQueue::shelveOpenBucket()
{
    auto &vec = ring->buckets[openIdx];
    vec.erase(vec.begin(),
              vec.begin() + static_cast<std::ptrdiff_t>(openHead));
    for (Event &ev : late)
        vec.push_back(std::move(ev));
    late.clear();
    if (vec.empty())
        clearBit(openIdx);
    openIdx = kNoBucket;
    openHead = 0;
}

EventQueue::Event *
EventQueue::nextEvent()
{
    for (;;) {
        if (openIdx != kNoBucket) {
            auto &vec = ring->buckets[openIdx];
            const bool more = openHead < vec.size();
            if (late.empty()) {
                if (more)
                    return &vec[openHead];
            } else if (!more || EventLater{}(vec[openHead], late.front())) {
                return &late.front();
            } else {
                return &vec[openHead];
            }
            closeBucket();
        }
        if (!openNextBucket())
            return nullptr;
    }
}

bool
EventQueue::fireNext(Tick until)
{
    Event *ev = nextEvent();
    if (ev == nullptr || ev->when > until)
        return false;
    currentTick = ev->when;
    // Move the callback out before running it: it may schedule into
    // the open bucket, which grows (and may reallocate) the late heap.
    Callback cb = std::move(ev->cb);
    if (!late.empty() && ev == &late.front()) {
        std::pop_heap(late.begin(), late.end(), EventLater{});
        late.pop_back();
    } else {
        ++openHead;
    }
    --liveRing;
    cb();
    ++executedCount;
    return true;
}

std::uint64_t
EventQueue::run(Tick until)
{
    const std::uint64_t t0 = stats ? obs::wallClockUs() : 0;
    std::uint64_t n = 0;
    while (fireNext(until))
        ++n;
    if (empty() && until != INT64_MAX && currentTick < until)
        currentTick = until;
    if (stats) {
        ++stats->runCalls;
        stats->runWallUs +=
            static_cast<double>(obs::wallClockUs() - t0);
    }
    return n;
}

bool
EventQueue::step()
{
    return fireNext(INT64_MAX);
}

void
EventQueue::reset()
{
    for (std::size_t w = 0; w < kBitmapWords; ++w) {
        std::uint64_t bits = bitmap[w];
        while (bits) {
            const std::size_t idx =
                (w << 6) +
                static_cast<std::size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            ring->buckets[idx].clear();
        }
        bitmap[w] = 0;
    }
    overflow.clear();
    late.clear();
    liveRing = 0;
    openIdx = kNoBucket;
    openHead = 0;
    windowBase = 0;
    cursor = 0;
    currentTick = 0;
    nextSeq = 0;
    executedCount = 0;
    if (stats)
        *stats = KernelStats{};
}

void
EventQueue::exportStats(obs::StatsRegistry &reg,
                        const std::string &prefix) const
{
    reg.counter(prefix + "/executed").set(executedCount);
    reg.counter(prefix + "/pending").set(pending());
    if (!stats)
        return;
    reg.counter(prefix + "/scheduled").set(stats->scheduled);
    reg.counter(prefix + "/ring_inserts").set(stats->ringInserts);
    reg.counter(prefix + "/overflow_pushes")
        .set(stats->overflowPushes);
    reg.counter(prefix + "/rebases").set(stats->rebases);
    reg.counter(prefix + "/rebase_spills").set(stats->rebaseSpills);
    reg.gauge(prefix + "/max_pending")
        .set(static_cast<double>(stats->maxPending));
    reg.gauge(prefix + "/max_overflow")
        .set(static_cast<double>(stats->maxOverflow));
    reg.histogram(prefix + "/schedule_to_fire_fs")
        .merge(stats->scheduleLatency);
}

} // namespace usfq
