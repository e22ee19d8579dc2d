#include "sim/sweep.hh"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "util/logging.hh"

namespace usfq
{

std::uint64_t
shardSeed(std::uint64_t base, std::size_t index)
{
    // SplitMix64 over (base, index): a full-avalanche hash, so shard
    // seeds are uncorrelated even for consecutive indices.
    std::uint64_t z = base + 0x9e3779b97f4a7c15ULL *
                                 (static_cast<std::uint64_t>(index) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

int
resolveSweepThreads(int requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("USFQ_SWEEP_THREADS")) {
        const int n = std::atoi(env);
        if (n > 0)
            return n;
        warn("ignoring USFQ_SWEEP_THREADS=%s", env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace detail
{

void
runIndexed(std::size_t n, int threads,
           const std::function<void(std::size_t, int)> &fn)
{
    if (n == 0)
        return;
    if (threads < 1)
        threads = 1;
    if (static_cast<std::size_t>(threads) > n)
        threads = static_cast<int>(n);

    if (threads == 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i, 0);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr firstError;
    std::mutex errorLock;
    // fatal() dispositions are per thread: a shard body must fail the
    // way the caller asked (exit, or throw into the rethrow below).
    const FatalMode callerMode = fatalMode();

    auto worker = [&](int w) {
        setFatalMode(callerMode);
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i, w);
            } catch (...) {
                std::lock_guard<std::mutex> g(errorLock);
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
        pool.emplace_back(worker, t);
    for (auto &th : pool)
        th.join();
    if (firstError)
        std::rethrow_exception(firstError);
}

void
checkGroupResultSize(std::size_t got, int lanes, std::size_t first)
{
    if (got != static_cast<std::size_t>(lanes))
        panic("runBatchedSweep: group at item %zu returned %zu "
              "results for %d lanes",
              first, got, lanes);
}

} // namespace detail

} // namespace usfq
