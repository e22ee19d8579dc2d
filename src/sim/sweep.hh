/**
 * @file
 * Parallel sweep runner: shards independent simulations (parameter
 * sweeps, fault Monte-Carlo, design-space grids) across a thread pool.
 *
 * Determinism contract: a shard computes a pure function of its seed,
 * derived only from (base seed, shard index).  Shards may reuse
 * per-worker state -- a netlist built once, operand buffers, an arena
 * (WorkerLocal below, indexed by ShardContext::worker) -- provided every
 * shard resets whatever of it it reads before it reads it, so no shard
 * sees what an earlier one left behind (a shard that threw included).
 * Which worker runs which shard is scheduling, never an input.  Results
 * are merged in shard order.  A sweep therefore produces bit-identical
 * output at 1 thread and at N threads; the thread count changes
 * wall-clock time and nothing else.
 *
 * The same contract covers observability: every shard runs under a
 * private obs::StatsRegistry (installed as the thread's current
 * registry for the duration of the shard function), and the private
 * registries are merged into the caller's current registry in shard
 * index order after the workers join.  Stats a sweep collects are
 * therefore bit-identical at any thread count too.
 */

#ifndef USFQ_SIM_SWEEP_HH
#define USFQ_SIM_SWEEP_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "obs/stats.hh"
#include "sim/backend.hh"

namespace usfq
{

/**
 * Batched-evaluation request for a sweep (docs/functional.md,
 * "Batched evaluation").
 *
 * width is the number of sweep items coalesced into one lane group:
 * runBatchedSweep hands the shard function groups of up to width
 * consecutive items, each with its own item-derived seed.  Because the
 * per-item seed depends only on (base seed, item index) -- never on
 * the group shape -- results are bit-identical at any width and any
 * thread count; width changes wall-clock time and nothing else.
 */
struct BatchSpec
{
    /** Lanes per group; <= 1 means scalar (one item per group). */
    int width = 1;

    /** Lanes a group of items starting at @p first actually gets. */
    int lanesFor(std::size_t first, std::size_t total) const
    {
        const int w = width < 1 ? 1 : width;
        const std::size_t left = total - first;
        return left < static_cast<std::size_t>(w)
                   ? static_cast<int>(left)
                   : w;
    }
};

/** Tuning knobs of a sweep. */
struct SweepOptions
{
    /**
     * Worker threads.  0 = auto: the USFQ_SWEEP_THREADS environment
     * variable if set, otherwise std::thread::hardware_concurrency().
     */
    int threads = 0;

    /** Base seed every per-shard seed is derived from. */
    std::uint64_t baseSeed = 0x5eedu;

    /**
     * Engine the shard functions should evaluate on.  Purely a
     * pass-through to ShardContext: the sweep runner itself is
     * backend-agnostic, but threading the choice here lets one shard
     * function serve both engines (docs/functional.md).
     */
    Backend backend = Backend::PulseLevel;

    /** Lane coalescing for runBatchedSweep (ignored by runSweep
     *  beyond the ShardContext pass-through). */
    BatchSpec batch;
};

/** What a shard function receives. */
struct ShardContext
{
    std::size_t index; ///< shard number, 0-based
    std::size_t total; ///< total shards in the sweep
    std::uint64_t seed; ///< deterministic per-shard RNG seed
    Backend backend;   ///< engine requested via SweepOptions
    int batchWidth = 1; ///< SweepOptions::batch.width pass-through
    int worker = 0;     ///< dense index of the worker running the shard
};

/** What a batched shard function receives: one group of lanes. */
struct LaneGroupContext
{
    std::size_t first; ///< sweep-item index of lane 0
    std::size_t total; ///< total items in the sweep
    int lanes;         ///< lanes in this group (tail groups are short)
    Backend backend;   ///< engine requested via SweepOptions
    int worker;        ///< dense index of the worker running the group

    /** seeds[b] = shardSeed(base, first + b): identical to what the
     *  scalar sweep hands item first+b, whatever the batch width. */
    std::span<const std::uint64_t> seeds;

    /** The sweep-item index lane @p b evaluates. */
    std::size_t item(int b) const
    {
        return first + static_cast<std::size_t>(b);
    }
};

/**
 * The seed shard @p index draws under base seed @p base: a SplitMix64
 * hash of the pair, so neighbouring shards get uncorrelated streams.
 */
std::uint64_t shardSeed(std::uint64_t base, std::size_t index);

/** Resolve an options thread count to a concrete worker count >= 1. */
int resolveSweepThreads(int requested);

/**
 * One T per sweep worker, indexed by ShardContext::worker or
 * LaneGroupContext::worker.  at(w, args...) builds slot w from args on
 * worker w's first shard and returns that object for the rest of the
 * sweep.  Only worker w touches slot w, so shard functions use it
 * without locks; the determinism contract above makes them reset what
 * they read.  Sized by resolveSweepThreads(opt.threads), the worker
 * count the sweep itself resolves, so construct it from the options
 * the sweep runs under.
 */
template <typename T>
class WorkerLocal
{
  public:
    explicit WorkerLocal(const SweepOptions &opt)
        : slots(static_cast<std::size_t>(resolveSweepThreads(opt.threads)))
    {
    }

    template <typename... Args>
    T &
    at(int worker, Args &&...args)
    {
        std::unique_ptr<T> &slot = slots[static_cast<std::size_t>(worker)];
        if (!slot)
            slot = std::make_unique<T>(std::forward<Args>(args)...);
        return *slot;
    }

    /** Visit every slot a worker built, in worker order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const std::unique_ptr<T> &slot : slots)
            if (slot)
                fn(*slot);
    }

  private:
    std::vector<std::unique_ptr<T>> slots;
};

namespace detail
{

/**
 * Run @p fn(i, worker) for every i in [0, n), self-scheduled over
 * @p threads workers numbered 0.. (inline as worker 0 when threads ==
 * 1).  Pool threads run in the caller's fatal() mode
 * (util/logging.hh); the first exception thrown by any shard is
 * rethrown on the caller after all workers join.
 */
void runIndexed(std::size_t n, int threads,
                const std::function<void(std::size_t, int)> &fn);

/** Panic unless a batched shard returned one result per lane. */
void checkGroupResultSize(std::size_t got, int lanes,
                          std::size_t first);

} // namespace detail

/**
 * Run @p fn once per shard and return the results in shard order.
 *
 * @p fn is invoked as fn(const ShardContext &) and builds what it
 * needs locally or keeps it per worker (WorkerLocal), resetting it at
 * the start of every shard.  The result type only needs to be movable.
 */
template <typename Fn>
auto
runSweep(std::size_t num_shards, Fn &&fn, const SweepOptions &opt = {})
{
    using Result = decltype(fn(std::declval<const ShardContext &>()));
    std::vector<std::optional<Result>> slots(num_shards);
    std::vector<obs::StatsRegistry> shardStats(num_shards);
    obs::StatsRegistry &parent = obs::currentStats();
    const int threads = resolveSweepThreads(opt.threads);
    detail::runIndexed(num_shards, threads, [&](std::size_t i,
                                                int worker) {
        const ShardContext ctx{i,
                               num_shards,
                               shardSeed(opt.baseSeed, i),
                               opt.backend,
                               opt.batch.width < 1 ? 1 : opt.batch.width,
                               worker};
        // Shard-private registry: stats recorded inside fn (netlist
        // exports, kernel counters) land here, not in the caller's.
        obs::ScopedStatsRegistry guard(shardStats[i]);
        slots[i].emplace(fn(ctx));
    });
    // Ordered deterministic reduction: merge in shard index order so
    // the combined registry is independent of worker scheduling.
    for (obs::StatsRegistry &reg : shardStats)
        parent.mergeFrom(reg);
    std::vector<Result> results;
    results.reserve(num_shards);
    for (auto &slot : slots)
        results.push_back(std::move(*slot));
    return results;
}

/**
 * Run a batched sweep: @p num_items independent evaluations coalesced
 * into lane groups of up to opt.batch.width consecutive items, each
 * group handed to @p fn once.
 *
 * @p fn is invoked as fn(const LaneGroupContext &) and must return a
 * container with one result per lane, lane order (size() == ctx.lanes
 * -- panics otherwise).  The flattened item-order result vector is
 * returned.
 *
 * Determinism contract, extending runSweep's: lane seeds derive only
 * from (base seed, item index), groups are formed by item index alone,
 * per-group stats registries are merged in group order.  Results and
 * merged stats are therefore bit-identical at any thread count AND any
 * batch width -- provided fn honours the lane-equivalence contract of
 * func::BatchStream (lane b computes exactly what a scalar run of item
 * first+b would).
 */
template <typename Fn>
auto
runBatchedSweep(std::size_t num_items, Fn &&fn,
                const SweepOptions &opt = {})
{
    using GroupResult =
        decltype(fn(std::declval<const LaneGroupContext &>()));
    using Result = typename GroupResult::value_type;
    const int width = opt.batch.width < 1 ? 1 : opt.batch.width;
    const std::size_t stride = static_cast<std::size_t>(width);
    const std::size_t groups = (num_items + stride - 1) / stride;
    std::vector<std::optional<GroupResult>> slots(groups);
    std::vector<obs::StatsRegistry> groupStats(groups);
    obs::StatsRegistry &parent = obs::currentStats();
    const int threads = resolveSweepThreads(opt.threads);
    detail::runIndexed(groups, threads, [&](std::size_t g, int worker) {
        const std::size_t first = g * stride;
        const int lanes = opt.batch.lanesFor(first, num_items);
        std::vector<std::uint64_t> seeds(
            static_cast<std::size_t>(lanes));
        for (int b = 0; b < lanes; ++b)
            seeds[static_cast<std::size_t>(b)] = shardSeed(
                opt.baseSeed, first + static_cast<std::size_t>(b));
        const LaneGroupContext ctx{first,       num_items, lanes,
                                   opt.backend, worker,    seeds};
        obs::ScopedStatsRegistry guard(groupStats[g]);
        slots[g].emplace(fn(ctx));
        detail::checkGroupResultSize(slots[g]->size(), lanes, first);
    });
    for (obs::StatsRegistry &reg : groupStats)
        parent.mergeFrom(reg);
    std::vector<Result> results;
    results.reserve(num_items);
    for (auto &slot : slots)
        for (auto &r : *slot)
            results.push_back(std::move(r));
    return results;
}

} // namespace usfq

#endif // USFQ_SIM_SWEEP_HH
