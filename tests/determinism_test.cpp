/**
 * @file
 * Determinism tests: the properties that make simulations bit-exact.
 *
 *  (a) Re-running the same netlist (including its stochastic fault
 *      injectors) reproduces the pulse trace tick for tick.
 *  (b) A sweep gives bit-identical results at 1 thread and at many
 *      threads: parallelism changes wall-clock time, nothing else.
 *  (c) Same-tick events execute in scheduling order, including events
 *      scheduled from within callbacks and across run(until) windows.
 *  (d) The bucketed EventQueue executes seeded random schedules in the
 *      same order as a reference (when, seq) binary heap, event by
 *      event (KernelDifferential).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "core/encoding.hh"
#include "sim/event_queue.hh"
#include "sim/netlist.hh"
#include "sim/sweep.hh"
#include "sim/trace.hh"
#include "sfq/faults.hh"
#include "sfq/params.hh"
#include "sfq/sources.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace usfq
{
namespace
{

/**
 * A small stochastic netlist: a dense stream through a lossy, jittery
 * wire.  Returns the exact output pulse times.
 */
std::vector<Tick>
runFaultyWire(std::uint64_t seed)
{
    const EpochConfig cfg(8);
    Netlist nl;
    auto &src = nl.create<PulseSource>("src");
    auto &fi = nl.create<FaultInjector>(
        "fi", FaultConfig{.dropProbability = 0.2,
                          .jitterSigmaPs = 1.5,
                          .seed = seed});
    PulseTrace out;
    src.out.connect(fi.in);
    fi.out.connect(out.input());
    src.pulsesAt(cfg.streamTimes(200));
    nl.queue().run();
    return out.times();
}

TEST(Determinism, SameNetlistSameTrace)
{
    const auto first = runFaultyWire(1234);
    const auto second = runFaultyWire(1234);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(Determinism, DifferentSeedsDiffer)
{
    // Sanity: the injector really is stochastic, so (a) is not passing
    // vacuously.
    EXPECT_NE(runFaultyWire(1), runFaultyWire(2));
}

TEST(Determinism, SweepIdenticalAcrossThreadCounts)
{
    const std::size_t shards = 16;
    auto shard = [](const ShardContext &ctx) {
        return runFaultyWire(ctx.seed);
    };
    const auto serial =
        runSweep(shards, shard, SweepOptions{.threads = 1});
    const auto parallel =
        runSweep(shards, shard, SweepOptions{.threads = 8});
    ASSERT_EQ(serial.size(), shards);
    EXPECT_EQ(serial, parallel);
}

TEST(Determinism, SweepPoolThreadsRunInTheCallersFatalMode)
{
    // fatal() modes are per thread: a shard body on a pool thread must
    // throw back into runSweep's rethrow when the caller asked for
    // throw mode, not exit the process.
    SweepOptions opt;
    opt.threads = 4;
    ScopedFatalThrow guard;
    EXPECT_THROW(runSweep(
                     8,
                     [](const ShardContext &ctx) -> int {
                         if (ctx.index == 5)
                             fatal("shard %zu failed", ctx.index);
                         return 0;
                     },
                     opt),
                 FatalError);
}

TEST(Determinism, WorkerLocalStateIsPerWorkerAndReplayable)
{
    // Shards see a dense worker index, each worker builds its slot at
    // most once and reuses it, and a shard that resets the state it
    // reads computes the same result on any worker at any thread
    // count -- the per-worker half of the determinism contract.
    struct Rig
    {
        int served = 0;
        std::vector<std::uint64_t> scratch;
    };
    const std::size_t shards = 64;
    for (const int threads : {1, 3, 8}) {
        SweepOptions opt;
        opt.threads = threads;
        WorkerLocal<Rig> rigs(opt);
        const auto results = runSweep(
            shards,
            [&](const ShardContext &ctx) {
                EXPECT_GE(ctx.worker, 0);
                EXPECT_LT(ctx.worker, threads);
                Rig &rig = rigs.at(ctx.worker);
                ++rig.served;
                rig.scratch.assign(4, ctx.seed); // reset before reading
                std::uint64_t sum = 0;
                for (std::uint64_t v : rig.scratch)
                    sum += v ^ ctx.index;
                return sum;
            },
            opt);
        int slots = 0, total = 0;
        rigs.forEach([&](const Rig &rig) {
            ++slots;
            total += rig.served;
        });
        EXPECT_GE(slots, 1);
        EXPECT_LE(slots, threads);
        EXPECT_EQ(total, static_cast<int>(shards));
        for (std::size_t i = 0; i < shards; ++i)
            EXPECT_EQ(results[i], 4 * (shardSeed(opt.baseSeed, i) ^ i));
    }
}

TEST(Determinism, ShardSeedsAreStableAndDistinct)
{
    const auto s0 = shardSeed(42, 0);
    EXPECT_EQ(s0, shardSeed(42, 0)) << "seed must be a pure function";
    EXPECT_NE(s0, shardSeed(42, 1));
    EXPECT_NE(s0, shardSeed(43, 0));
}

TEST(Determinism, SameTickFifoAcrossManyTicks)
{
    EventQueue eq;
    std::vector<int> order;
    // Interleave scheduling across two ticks; within each tick the
    // execution order must equal the scheduling order.
    for (int i = 0; i < 50; ++i) {
        eq.schedule(100, [&order, i] { order.push_back(i); });
        eq.schedule(200, [&order, i] { order.push_back(100 + i); });
    }
    eq.run();
    ASSERT_EQ(order.size(), 100u);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
        EXPECT_EQ(order[static_cast<std::size_t>(50 + i)], 100 + i);
    }
}

TEST(Determinism, CallbackScheduledSameTickRunsAfterPending)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] {
        order.push_back(0);
        // Lands at the current tick, after the already-pending 1.
        eq.schedule(10, [&] { order.push_back(2); });
    });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Determinism, OrderingSurvivesRunUntilWindows)
{
    // Exercises scheduling "behind" a far-future pending event after a
    // partial run — the rebase path of a bucketed queue.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(1'000'000, [&] { order.push_back(4); });
    eq.run(500'000);
    EXPECT_EQ(order, (std::vector<int>{1}));
    eq.schedule(600'000, [&] { order.push_back(3); });
    eq.schedule(500'000, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), 1'000'000);
}

TEST(Determinism, StepMatchesRunOrdering)
{
    auto record = [](bool use_step) {
        EventQueue eq;
        std::vector<int> order;
        for (int i = 0; i < 10; ++i)
            eq.schedule(i % 3, [&order, i] { order.push_back(i); });
        if (use_step) {
            while (eq.step()) {
            }
        } else {
            eq.run();
        }
        return order;
    };
    EXPECT_EQ(record(true), record(false));
}

// --- kernel order differential ---------------------------------------------

/**
 * The reference kernel: one binary heap over (when, seq), the order the
 * original std::priority_queue kernel defined.  Same interface and
 * run(until) time rule as EventQueue.
 */
class RefQueue
{
  public:
    Tick now() const { return current; }

    void
    schedule(Tick when, std::function<void()> cb)
    {
        heap.push_back(Item{when, seq++, std::move(cb)});
        std::push_heap(heap.begin(), heap.end(), Later{});
    }

    bool
    step()
    {
        if (heap.empty())
            return false;
        std::pop_heap(heap.begin(), heap.end(), Later{});
        Item it = std::move(heap.back());
        heap.pop_back();
        current = it.when;
        it.cb();
        return true;
    }

    std::uint64_t
    run(Tick until = INT64_MAX)
    {
        std::uint64_t n = 0;
        while (!heap.empty() && heap.front().when <= until) {
            step();
            ++n;
        }
        if (heap.empty() && until != INT64_MAX && current < until)
            current = until;
        return n;
    }

  private:
    struct Item
    {
        Tick when;
        std::uint64_t seq;
        std::function<void()> cb;
    };
    struct Later
    {
        bool
        operator()(const Item &a, const Item &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };
    std::vector<Item> heap;
    Tick current = 0;
    std::uint64_t seq = 0;
};

/** One log line: an event (id, fire tick) or a run()/step() marker. */
using LogLine = std::pair<std::uint64_t, Tick>;

/** Marker ids, far above any event id. */
constexpr std::uint64_t kRunMark = 1ull << 60;
constexpr std::uint64_t kStepMark = 1ull << 61;

constexpr Tick kBucket = Tick(1) << EventQueue::kBucketShift;
constexpr Tick kWindow = EventQueue::kWindowTicks;

/**
 * A seeded random schedule replayable on any queue with EventQueue's
 * interface.  Event i logs (i, now()) when it fires and schedules up to
 * two children whose delays are a pure function of (seed, i): zero,
 * sub-bucket (often into the bucket being drained), SFQ cell delays,
 * across the window edge, or many windows out.  Two queues that agree
 * on the order produce the same log; the first disagreement shows as
 * the first differing line.
 */
template <typename Queue>
class Replay
{
  public:
    Replay(Queue &queue, std::uint64_t seed, std::uint64_t max_events)
        : q(queue), seed(seed), maxEvents(max_events)
    {
    }

    Tick now() const { return q.now(); }

    /** Schedule a fresh event at @p when (>= now()). */
    void
    add(Tick when)
    {
        const std::uint64_t id = nextId++;
        q.schedule(when, [this, id] { fire(id); });
    }

    void
    run(Tick until = INT64_MAX)
    {
        const std::uint64_t n = q.run(until);
        log.emplace_back(kRunMark + n, q.now());
    }

    void
    step()
    {
        const bool fired = q.step();
        log.emplace_back(kStepMark + (fired ? 1 : 0), q.now());
    }

    std::vector<LogLine> log;
    std::uint64_t sameBucketChildren = 0;

  private:
    void
    fire(std::uint64_t id)
    {
        const Tick now = q.now();
        log.emplace_back(id, now);
        Rng rng(shardSeed(seed, id));
        const int kids = static_cast<int>(rng.uniformInt(0, 4)) / 2;
        for (int k = 0; k < kids && nextId < maxEvents; ++k) {
            const Tick when = now + drawDelay(rng);
            if (when >> EventQueue::kBucketShift ==
                now >> EventQueue::kBucketShift)
                ++sameBucketChildren;
            add(when);
        }
    }

    static Tick
    drawDelay(Rng &rng)
    {
        static constexpr std::array<Tick, 8> kCellDelays = {
            cell::kJtlDelay,      cell::kSplitterDelay, cell::kMergerDelay,
            cell::kDffDelay,      cell::kInverterDelay, cell::kBffDelay,
            cell::kTff2Delay,     40 * kPicosecond};
        switch (rng.uniformInt(0, 9)) {
          case 0:
            return 0;
          case 1:
          case 2:
            return rng.uniformInt(1, kBucket - 1);
          case 3:
            return kWindow + rng.uniformInt(-2 * kBucket, 2 * kBucket);
          case 4:
            return rng.uniformInt(2, 40) * kWindow + rng.uniformInt(0, 999);
          default:
            return kCellDelays[static_cast<std::size_t>(
                       rng.uniformInt(0, 7))] +
                   rng.uniformInt(0, 2);
        }
    }

    Queue &q;
    std::uint64_t seed;
    std::uint64_t maxEvents;
    std::uint64_t nextId = 0;
};

/** Index of the first differing line, or the shorter size. */
std::size_t
firstDivergence(const std::vector<LogLine> &a,
                const std::vector<LogLine> &b)
{
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i)
        if (a[i] != b[i])
            return i;
    return n;
}

/**
 * Root events of a random schedule: repeated ticks (same-tick FIFO),
 * one bucket filled in descending tick order (appended out of tick
 * order), and ticks spread over several windows.
 */
template <typename Queue>
void
addRoots(Replay<Queue> &r, Rng &rng, Tick base)
{
    for (int i = 0; i < 60; ++i)
        r.add(base + rng.uniformInt(0, 7) * 300);
    const Tick bucket = base + 5 * kBucket;
    for (Tick t = kBucket - 1; t >= 0; t -= rng.uniformInt(1, 40))
        r.add(bucket + t);
    for (int i = 0; i < 60; ++i)
        r.add(base + rng.uniformInt(0, 3 * kWindow));
}

/** Scenario: the random roots, run to completion. */
constexpr auto kRunToEnd = [](auto &r, Rng &rng) {
    addRoots(r, rng, 0);
    r.run();
};

/**
 * Run @p scenario(replay, rng) on @p eq and on the reference and
 * expect identical logs.  Returns the EventQueue replay's same-bucket
 * child count (schedule coverage, not queue behaviour).
 */
template <typename Scenario>
std::uint64_t
expectSameOrder(EventQueue &eq, std::uint64_t seed, Scenario &&scenario)
{
    constexpr std::uint64_t kMaxEvents = 6000;
    Replay<EventQueue> got(eq, seed, kMaxEvents);
    Rng rng_got(seed);
    scenario(got, rng_got);
    RefQueue ref;
    Replay<RefQueue> want(ref, seed, kMaxEvents);
    Rng rng_want(seed);
    scenario(want, rng_want);
    EXPECT_GT(want.log.size(), 100u) << "seed " << seed;
    const std::size_t at = firstDivergence(got.log, want.log);
    if (at < got.log.size() || at < want.log.size()) {
        ADD_FAILURE() << "seed " << seed << ": logs diverge at line " << at
                      << " of " << want.log.size() << ": got (id "
                      << (at < got.log.size() ? got.log[at].first : 0)
                      << ", tick "
                      << (at < got.log.size() ? got.log[at].second : -1)
                      << "), want (id "
                      << (at < want.log.size() ? want.log[at].first : 0)
                      << ", tick "
                      << (at < want.log.size() ? want.log[at].second : -1)
                      << ")";
    }
    return got.sameBucketChildren;
}

TEST(KernelDifferential, RandomSchedulesMatchReference)
{
    // Layout counters only read here: the schedules must really cross
    // the window and spill into the overflow heap.
    obs::setKernelStatsEnabled(true);
    std::uint64_t same_bucket = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        EventQueue eq;
        same_bucket += expectSameOrder(eq, seed, kRunToEnd);
        EXPECT_GT(eq.kernelStats()->overflowPushes, 0u);
        EXPECT_GT(eq.kernelStats()->rebases, 0u);
    }
    obs::setKernelStatsEnabled(false);
    EXPECT_GT(same_bucket, 1000u);
}

TEST(KernelDifferential, RunUntilStopsMidBucketThenSchedules)
{
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        EventQueue eq;
        expectSameOrder(eq, seed, [](auto &r, Rng &rng) {
            kRunToEnd(r, rng);
            // A busy bucket 50 windows out.  run(until) short of it
            // rebases the window onto it and stops with now() below
            // the window's base.
            const Tick far =
                (r.now() / kBucket + 50 * Tick(EventQueue::kNumBuckets) +
                 3) *
                kBucket;
            for (int i = 0; i < 40; ++i)
                r.add(far + rng.uniformInt(0, kBucket - 1));
            r.run(far - 10 * kWindow);
            // Behind the window.
            for (int i = 0; i < 20; ++i)
                r.add(r.now() + rng.uniformInt(0, 3 * kBucket));
            // Stop mid-bucket inside the far bucket ...
            r.run(far + kBucket / 2);
            // ... then schedule into that bucket, below and above the
            // events still pending there.
            const Tick now = r.now();
            for (int i = 0; i < 20; ++i)
                r.add(now + rng.uniformInt(0, far + kBucket - 1 - now));
            r.run(now + 3);
            r.add(r.now());
            r.run();
        });
    }
}

TEST(KernelDifferential, StepInterleavedWithRun)
{
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        EventQueue eq;
        expectSameOrder(eq, seed, [](auto &r, Rng &rng) {
            addRoots(r, rng, 0);
            for (int round = 0; round < 400; ++round) {
                const int steps = static_cast<int>(rng.uniformInt(0, 6));
                for (int i = 0; i < steps; ++i)
                    r.step();
                r.run(r.now() + rng.uniformInt(0, kWindow / 64));
                // run(until) left the next bucket open: this often lands
                // below it, or in it below its pending events.
                if (rng.bernoulli(0.5))
                    r.add(r.now() + rng.uniformInt(0, 2 * kBucket));
            }
            r.run();
            r.step(); // empty queue: no event, time unchanged
        });
    }
}

/**
 * Fill @p eq with a random schedule and stop mid-bucket, leaving an
 * open part-drained bucket, its late heap and the overflow heap all
 * non-empty.  The replay must outlive every pending callback.
 */
void
leaveMidRun(EventQueue &eq, Replay<EventQueue> &r, std::uint64_t seed)
{
    Rng rng(seed);
    addRoots(r, rng, 0);
    r.run(5 * kBucket + kBucket / 2);
    r.add(eq.now());
    r.add(eq.now() + 1);
    ASSERT_FALSE(eq.empty());
}

TEST(KernelDifferential, ResetAndPooledRingReuse)
{
    // A queue torn down mid-run returns its ring to this thread's pool;
    // the next queue built here reuses it.
    {
        std::optional<EventQueue> torn;
        torn.emplace();
        Replay<EventQueue> left(*torn, 99, 6000);
        leaveMidRun(*torn, left, 99);
        torn.reset();
    }
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        EventQueue eq;
        expectSameOrder(eq, seed, kRunToEnd);
    }

    // reset() mid-run leaves a queue equivalent to a new one.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        EventQueue eq;
        Replay<EventQueue> before(eq, seed + 100, 6000);
        leaveMidRun(eq, before, seed + 100);
        eq.reset();
        EXPECT_TRUE(eq.empty());
        EXPECT_EQ(eq.now(), 0);
        EXPECT_EQ(eq.executed(), 0u);
        expectSameOrder(eq, seed, kRunToEnd);
    }
}

} // namespace
} // namespace usfq
