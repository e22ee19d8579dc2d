#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "obs/phase.hh"
#include "util/logging.hh"

namespace usfq
{

struct EventQueue::RingBuffers
{
    std::vector<std::vector<Event>> buckets;
    std::vector<std::uint32_t> heads;

    RingBuffers() : buckets(kNumBuckets), heads(kNumBuckets, 0) {}
};

namespace
{

/** Min-heap order over (when, seq) for the overflow heap. */
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
 * (all buckets empty, heads zero), so acquisition costs a pointer pop
 * instead of zeroing kNumBuckets vector headers.
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
    // the bitmap) need clearing.
    for (std::size_t w = 0; w < kBitmapWords; ++w) {
        std::uint64_t bits = bitmap[w];
        while (bits) {
            const std::size_t idx =
                (w << 6) +
                static_cast<std::size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            ring->buckets[idx].clear();
            ring->heads[idx] = 0;
        }
    }
    if (ringPool.size() < kMaxPooledRings)
        ringPool.push_back(std::move(ring));
}

void
EventQueue::insertRing(Tick when, std::uint64_t seq, Callback cb)
{
    const std::size_t idx = static_cast<std::size_t>(when) & kBucketMask;
    ring->buckets[idx].push_back(Event{when, seq, std::move(cb)});
    setBit(idx);
    ++liveRing;
    if (when < cursor)
        cursor = when;
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
    if (when >= windowBase &&
        when < windowBase + static_cast<Tick>(kNumBuckets)) {
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
    if (liveRing > 0) {
        for (std::size_t w = 0; w < kBitmapWords; ++w) {
            std::uint64_t bits = bitmap[w];
            while (bits) {
                const std::size_t idx =
                    (w << 6) +
                    static_cast<std::size_t>(std::countr_zero(bits));
                bits &= bits - 1;
                auto &vec = ring->buckets[idx];
                for (std::size_t i = ring->heads[idx]; i < vec.size();
                     ++i)
                    overflow.push_back(std::move(vec[i]));
                vec.clear();
                ring->heads[idx] = 0;
            }
            bitmap[w] = 0;
        }
        liveRing = 0;
        std::make_heap(overflow.begin(), overflow.end(), EventLater{});
    }
    windowBase = new_base;
    cursor = new_base;
    const Tick window_end = new_base + static_cast<Tick>(kNumBuckets);
    // Heap pops come out in (when, seq) order, so per-tick FIFO order in
    // the refilled buckets is sequence order, as required.
    while (!overflow.empty() && overflow.front().when < window_end) {
        Event ev = overflowPop();
        insertRing(ev.when, ev.seq, std::move(ev.cb));
    }
}

Tick
EventQueue::findNextTick()
{
    for (;;) {
        if (liveRing > 0) {
            // Scan the occupancy bitmap in ring order starting at the
            // cursor; every set bit lies at a tick >= cursor, so the
            // first one found is the minimum.
            const std::size_t start =
                static_cast<std::size_t>(cursor) & kBucketMask;
            std::size_t w = start >> 6;
            std::uint64_t bits =
                bitmap[w] & (~std::uint64_t(0) << (start & 63));
            for (std::size_t scanned = 0;;) {
                if (bits) {
                    const std::size_t idx =
                        (w << 6) + static_cast<std::size_t>(
                                       std::countr_zero(bits));
                    const std::size_t delta =
                        (idx - start) & kBucketMask;
                    cursor = cursor + static_cast<Tick>(delta);
                    return cursor;
                }
                if (++scanned > kBitmapWords)
                    panic("EventQueue: bitmap out of sync");
                w = (w + 1) & (kBitmapWords - 1);
                bits = bitmap[w];
            }
        }
        if (overflow.empty())
            return kTickInvalid;
        rebase(overflow.front().when);
    }
}

std::uint64_t
EventQueue::run(Tick until)
{
    const std::uint64_t t0 = stats ? obs::wallClockUs() : 0;
    std::uint64_t n = 0;
    for (;;) {
        const Tick next = findNextTick();
        if (next == kTickInvalid || next > until)
            break;
        const std::size_t idx =
            static_cast<std::size_t>(next) & kBucketMask;
        auto &vec = ring->buckets[idx];
        auto &head = ring->heads[idx];
        currentTick = next;
        // Drain the whole bucket: every event here shares tick `next`,
        // and callbacks may append more (same tick, higher seq) while
        // we iterate.  Move the callback out first: an append may
        // reallocate the bucket's storage mid-execution.
        while (head < vec.size()) {
            Callback cb = std::move(vec[head].cb);
            ++head;
            --liveRing;
            cb();
            ++n;
            ++executedCount;
        }
        vec.clear();
        head = 0;
        clearBit(idx);
        cursor = next + 1;
    }
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
    const Tick next = findNextTick();
    if (next == kTickInvalid)
        return false;
    const std::size_t idx = static_cast<std::size_t>(next) & kBucketMask;
    auto &vec = ring->buckets[idx];
    auto &head = ring->heads[idx];
    Callback cb = std::move(vec[head].cb);
    ++head;
    --liveRing;
    if (head == vec.size()) {
        vec.clear();
        head = 0;
        clearBit(idx);
    }
    currentTick = next;
    cb();
    ++executedCount;
    return true;
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
            ring->heads[idx] = 0;
        }
        bitmap[w] = 0;
    }
    overflow.clear();
    liveRing = 0;
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
