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
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "core/encoding.hh"
#include "func/batch.hh"
#include "func/components.hh"
#include "sim/event_queue.hh"
#include "sim/netlist.hh"
#include "sim/sweep.hh"
#include "sim/trace.hh"
#include "sfq/faults.hh"
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

/**
 * The batched-sweep leg of contract (b): the same functional sweep is
 * bit-identical whether batching is off (plain runSweep), coalesced at
 * B=8, or at B=64 -- at 1 thread and at many.  Lane seeds derive only
 * from the item index, so the grouping must be invisible.
 */
TEST(Determinism, SweepIdenticalAcrossBatchWidths)
{
    const std::size_t items = 200;
    const EpochConfig cfg(6);
    constexpr int kElems = 6;
    auto drawOperands = [&](std::uint64_t seed) {
        Rng rng(seed);
        std::array<int, 2 * kElems> ops;
        for (auto &v : ops)
            v = static_cast<int>(rng.uniformInt(0, cfg.nmax()));
        return ops;
    };
    // Batching off: one item per shard through the scalar model.
    const auto off = runSweep(
        items,
        [&](const ShardContext &ctx) {
            const auto ops = drawOperands(ctx.seed);
            Netlist nl;
            auto &dpu = nl.create<func::DotProductUnit>(
                "dpu", kElems, DpuMode::Bipolar);
            return dpu.evaluate(
                cfg,
                std::vector<int>(ops.begin(), ops.begin() + kElems),
                std::vector<int>(ops.begin() + kElems, ops.end()));
        },
        SweepOptions{.threads = 1});
    ASSERT_EQ(off.size(), items);
    for (int width : {8, 64}) {
        for (int threads : {1, 4}) {
            SweepOptions opt;
            opt.threads = threads;
            opt.batch.width = width;
            const auto batched = runBatchedSweep(
                items,
                [&](const LaneGroupContext &ctx) {
                    const std::size_t lanes =
                        static_cast<std::size_t>(ctx.lanes);
                    std::vector<int> counts(kElems * lanes);
                    std::vector<int> ids(kElems * lanes);
                    for (std::size_t b = 0; b < lanes; ++b) {
                        const auto ops = drawOperands(ctx.seeds[b]);
                        for (int k = 0; k < kElems; ++k) {
                            counts[static_cast<std::size_t>(k) * lanes +
                                   b] = ops[static_cast<std::size_t>(k)];
                            ids[static_cast<std::size_t>(k) * lanes +
                                b] =
                                ops[static_cast<std::size_t>(k) +
                                    kElems];
                        }
                    }
                    Netlist nl;
                    auto &dpu = nl.create<func::DotProductUnit>(
                        "dpu", kElems, DpuMode::Bipolar);
                    WordArena arena;
                    std::vector<int> out(lanes);
                    dpu.evaluateBatch(cfg, counts, ids, out, arena);
                    return out;
                },
                opt);
            EXPECT_EQ(batched, off)
                << "width=" << width << " threads=" << threads;
        }
    }
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

} // namespace
} // namespace usfq
