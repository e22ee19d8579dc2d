/**
 * @file
 * Parallel sweep runner: shards independent simulations (parameter
 * sweeps, fault Monte-Carlo, design-space grids) across a thread pool.
 *
 * Determinism contract: a shard computes a pure function of its seed,
 * derived only from (base seed, shard index).  Shards may reuse
 * per-worker state -- a netlist built once, operand buffers
 * (WorkerLocal below, indexed by ShardContext::worker) -- provided every
 * shard resets whatever of it it reads before it reads it, so no shard
 * sees what an earlier one left behind (a shard that threw included).
 * Which worker runs which shard is scheduling, never an input.  Results
 * are merged in shard order.  A sweep therefore produces bit-identical
 * output at 1 thread and at N threads; the thread count changes
 * wall-clock time and nothing else.
 *
 * The same contract covers observability: every shard runs under a
 * registry of its own (its worker's scratch registry, installed as the
 * thread's current registry for the duration of the shard function and
 * cleared after it), folded into a running registry per worker; those
 * are merged into the caller's current registry after the workers
 * join.  Memory stays bounded by the thread count, not the shard
 * count.  The merge is order-free (obs::StatsRegistry::mergeFrom), so
 * stats a sweep collects are bit-identical at any thread count too.
 */

#ifndef USFQ_SIM_SWEEP_HH
#define USFQ_SIM_SWEEP_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "obs/stats.hh"
#include "sim/backend.hh"

namespace usfq
{

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
};

/** What a shard function receives. */
struct ShardContext
{
    std::size_t index; ///< shard number, 0-based
    std::size_t total; ///< total shards in the sweep
    std::uint64_t seed; ///< deterministic per-shard RNG seed
    Backend backend;   ///< engine requested via SweepOptions
    int worker = 0;    ///< dense index of the worker running the shard
};

/**
 * The seed shard @p index draws under base seed @p base: a SplitMix64
 * hash of the pair, so neighbouring shards get uncorrelated streams.
 */
std::uint64_t shardSeed(std::uint64_t base, std::size_t index);

/** Resolve an options thread count to a concrete worker count >= 1. */
int resolveSweepThreads(int requested);

/**
 * One T per sweep worker, indexed by ShardContext::worker.  at(w,
 * args...) builds slot w from args on worker w's first shard and
 * returns that object for the rest of the sweep.  Only worker w
 * touches slot w, so shard functions use it without locks; the
 * determinism contract above makes them reset what they read.  Sized
 * by resolveSweepThreads(opt.threads), the worker count the sweep
 * itself resolves, so construct it from the options the sweep runs
 * under.
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

/**
 * One sweep worker's stats.  Each shard records into scratch, which
 * is then folded into total and cleared.  The scratch holds one shard
 * only because exportStats() overwrites counters: two shards exporting
 * into one registry would lose counts.
 */
struct WorkerStats
{
    obs::StatsRegistry scratch;
    obs::StatsRegistry total;

    /** Run @p body with scratch as the thread's current registry, then
     *  fold scratch into total. */
    template <typename Body>
    void
    record(Body &&body)
    {
        {
            obs::ScopedStatsRegistry guard(scratch);
            body();
        }
        total.mergeFrom(scratch);
        scratch.clear();
    }
};

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
    obs::StatsRegistry &parent = obs::currentStats();
    const int threads = resolveSweepThreads(opt.threads);
    std::vector<detail::WorkerStats> workerStats(
        static_cast<std::size_t>(threads));
    detail::runIndexed(num_shards, threads, [&](std::size_t i,
                                                int worker) {
        const ShardContext ctx{i, num_shards, shardSeed(opt.baseSeed, i),
                               opt.backend, worker};
        // Stats recorded inside fn (netlist exports, kernel counters)
        // land in the worker's scratch registry, not the caller's.
        workerStats[static_cast<std::size_t>(worker)].record(
            [&] { slots[i].emplace(fn(ctx)); });
    });
    // mergeFrom is order-free: worker placement cannot show.
    for (const detail::WorkerStats &ws : workerStats)
        parent.mergeFrom(ws.total);
    std::vector<Result> results;
    results.reserve(num_shards);
    for (auto &slot : slots)
        results.push_back(std::move(*slot));
    return results;
}

} // namespace usfq

#endif // USFQ_SIM_SWEEP_HH
