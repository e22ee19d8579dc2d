/**
 * @file
 * Allocation-failure armor and heap retention of the broker (ctest
 * label `svc`).
 *
 * This binary replaces the global operator new so a test can make an
 * allocation throw std::bad_alloc: the next one on its own thread, or
 * the next one of at least a given size on any thread.  The
 * replacement also counts the calls and the bytes live on the heap.
 *  - A thread's first usfq_broker_run call allocates its per-thread
 *    error slot before anything else; when that allocation fails the
 *    call must return USFQ_ERR_INTERNAL, not let the exception cross
 *    the C boundary.
 *  - A broker worker that cannot allocate a result's JSON document
 *    must fail that request with USFQ_ERR_INTERNAL and keep serving,
 *    not let the exception end the process.
 *  - A warm broker retains nothing per request: serving hundreds more
 *    requests leaves the live heap where it was.
 *  - The functional DPU, PE, FIR and gen legs allocate nothing per
 *    epoch: a run of 4096 epochs makes as many operator new calls as
 *    one of 64.
 * The replacement allocator applies to the whole program, hence the
 * separate binary.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>

#include "api/facade.hh"
#include "api/usfq.h"
#include "obs/trace.hh"
#include "util/json.hh"

namespace
{

/** When set, the next operator new on this thread throws. */
thread_local bool failNextAllocation = false;

/** When nonzero, the next operator new of at least this many bytes,
 *  on any thread, throws (and resets it to zero). */
std::atomic<std::size_t> failAllocationOfAtLeast{0};

/** Bytes held by live operator new allocations (usable sizes). */
std::atomic<std::int64_t> liveBytes{0};

/** operator new calls that returned memory. */
std::atomic<std::uint64_t> allocations{0};

void
countLive(void *p, int sign)
{
    liveBytes.fetch_add(
        sign * static_cast<std::int64_t>(malloc_usable_size(p)),
        std::memory_order_relaxed);
}

/** Whether an armed failure claims an allocation of @p size bytes. */
bool
claimFailure(std::size_t size)
{
    if (failNextAllocation) {
        failNextAllocation = false;
        return true;
    }
    std::size_t floor = failAllocationOfAtLeast.load();
    return floor != 0 && size >= floor &&
           failAllocationOfAtLeast.compare_exchange_strong(floor, 0);
}

} // namespace

void *
operator new(std::size_t size)
{
    if (claimFailure(size))
        throw std::bad_alloc();
    if (void *p = std::malloc(size == 0 ? 1 : size)) {
        countLive(p, 1);
        allocations.fetch_add(1, std::memory_order_relaxed);
        return p;
    }
    throw std::bad_alloc();
}

// Out of line: inlined into a `new T` expression, the free() next to
// a call of operator new reads as a mismatched pair to the compiler.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    if (p != nullptr)
        countLive(p, -1);
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    operator delete(p);
}

namespace
{

TEST(SvcBrokerAbiAlloc, ErrorSlotAllocationFailureIsInternal)
{
    usfq_broker *broker = nullptr;
    ASSERT_EQ(usfq_broker_create(1, 4, 4, &broker), USFQ_OK);
    const char *spec = "{\"kind\": \"dpu\", \"taps\": 4, \"bits\": 4}";

    // This thread has no error slot on the new broker yet, so the
    // call's first allocation is the slot's.
    char *out = nullptr;
    failNextAllocation = true;
    const int32_t status = usfq_broker_run(
        broker, spec, "{\"epochs\": 1}", nullptr, nullptr, &out);
    const bool consumed = !failNextAllocation;
    failNextAllocation = false;
    EXPECT_TRUE(consumed);
    EXPECT_EQ(status, USFQ_ERR_INTERNAL);
    EXPECT_EQ(out, nullptr);
    EXPECT_STREQ(usfq_broker_last_error(broker), "");

    // The broker is unharmed: the same request now succeeds.
    ASSERT_EQ(usfq_broker_run(broker, spec, "{\"epochs\": 1}", nullptr,
                              nullptr, &out),
              USFQ_OK);
    ASSERT_NE(out, nullptr);
    EXPECT_STREQ(usfq_broker_last_error(broker), "");
    usfq_string_free(out);
    usfq_broker_destroy(broker);
}

TEST(SvcBrokerAbiAlloc, SerializeAllocationFailureIsInternal)
{
    usfq_broker *broker = nullptr;
    ASSERT_EQ(usfq_broker_create(1, 4, 4, &broker), USFQ_OK);
    const char *spec = "{\"kind\": \"dpu\", \"taps\": 16, \"bits\": 6}";
    // 2^17 epochs: the run's largest buffers are the 8-byte-per-epoch
    // sweep slots and counts, while the response document takes more
    // than ten bytes per count.  The first allocation of 12 bytes per
    // epoch is therefore the worker's serialize step.
    constexpr std::size_t kEpochs = std::size_t{1} << 17;
    const std::string params = "{\"epochs\": " + std::to_string(kEpochs) +
                               ", \"threads\": 1, "
                               "\"backend\": \"functional\"}";

    char *out = nullptr;
    usfq::obs::TraceLog::global().clear();
    usfq::obs::setTracingEnabled(true);
    failAllocationOfAtLeast = 12 * kEpochs;
    const int32_t status = usfq_broker_run(broker, spec, params.c_str(),
                                           nullptr, nullptr, &out);
    const bool consumed = failAllocationOfAtLeast.exchange(0) == 0;
    usfq::obs::setTracingEnabled(false);
    EXPECT_TRUE(consumed);
    EXPECT_EQ(status, USFQ_ERR_INTERNAL);
    EXPECT_EQ(out, nullptr);
    EXPECT_STREQ(usfq_broker_last_error(broker), "std::bad_alloc");
    // The run finished; the failure hit the serialize step.
    bool serialized = false;
    for (const usfq::obs::TraceSpan &span :
         usfq::obs::TraceLog::global().snapshot())
        serialized = serialized || span.name == "serialize";
    EXPECT_TRUE(serialized);

    // The worker survived and the failed result was not cached: the
    // same request now runs and returns a whole document.
    int32_t hit = -1;
    ASSERT_EQ(usfq_broker_run(broker, spec, params.c_str(), nullptr,
                              &hit, &out),
              USFQ_OK)
        << usfq_broker_last_error(broker);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(hit, 0);
    usfq::JsonValue doc;
    std::string err;
    EXPECT_TRUE(usfq::parseJson(out, doc, &err)) << err;
    const usfq::JsonValue *series = doc.find("series");
    ASSERT_NE(series, nullptr);
    ASSERT_NE(series->find("counts"), nullptr);
    EXPECT_EQ(series->find("counts")->array.size(), kEpochs);
    usfq_string_free(out);
    usfq_broker_destroy(broker);
}

TEST(SvcBrokerAbiAlloc, WarmBrokerRetainsNothingPerRequest)
{
    usfq_broker *broker = nullptr;
    ASSERT_EQ(usfq_broker_create(2, 4, 4, &broker), USFQ_OK);
    const char *spec = "{\"kind\": \"dpu\", \"taps\": 4, \"bits\": 4}";
    // Every request misses the cache (a new seed each time), runs,
    // inserts and evicts; the two engines alternate.
    std::atomic<std::uint64_t> nextSeed{1};
    auto serve = [&](int requests) {
        for (int i = 0; i < requests; ++i) {
            const std::uint64_t seed = nextSeed.fetch_add(1);
            const std::string params =
                std::string("{\"epochs\": 8, \"backend\": \"") +
                (i % 2 == 0 ? "functional" : "pulse") +
                "\", \"seed\": " + std::to_string(seed) + "}";
            char *out = nullptr;
            int32_t hit = -1;
            ASSERT_EQ(usfq_broker_run(broker, spec, params.c_str(),
                                      nullptr, &hit, &out),
                      USFQ_OK)
                << usfq_broker_last_error(broker);
            EXPECT_EQ(hit, 0);
            usfq_string_free(out);
        }
    };
    // Warm up from two client threads at once, in step, so both
    // workers run both engines and fill their per-thread pools (the
    // event kernel keeps drained ring buffers per thread) before the
    // measurement.
    std::thread other([&] { serve(50); });
    serve(50);
    other.join();
    const std::int64_t warm = liveBytes.load();
    serve(400);
    const std::int64_t grown = liveBytes.load() - warm;
    EXPECT_LT(grown, 16 * 1024) << "bytes retained over 400 requests";
    usfq_broker_destroy(broker);
}

TEST(FunctionalRunAlloc, NothingPerEpoch)
{
    // The serve templates' functional DPU, PE, FIR and gen shapes,
    // batch included (it selects nothing): a run allocates its sweep
    // and result buffers, and its epoch kernels nothing.
    using K = usfq::api::WorkloadKind;
    const auto Bi = usfq::DpuMode::Bipolar;
    const auto Uni = usfq::DpuMode::Unipolar;
    struct Leg
    {
        const char *name;
        K kind;
        int taps, bits;
        usfq::DpuMode mode;
        int batch;
    };
    const Leg legs[] = {
        {"dpu16", K::Dpu, 16, 6, Bi, 1},
        {"dpu16 batch 8", K::Dpu, 16, 6, Bi, 8},
        {"dpu8u", K::Dpu, 8, 5, Uni, 1},
        {"pe5", K::Pe, 16, 5, Bi, 1},
        {"fir4", K::Fir, 4, 6, Uni, 1},
        {"fir4 batch 4", K::Fir, 4, 6, Uni, 4},
        {"gen8x5", K::Gen, 16, 8, Bi, 1},
    };
    for (const Leg &leg : legs) {
        usfq::api::NetlistSpec spec;
        spec.kind = leg.kind;
        spec.name = "leg";
        spec.taps = leg.taps;
        spec.bits = leg.bits;
        spec.mode = leg.mode;
        if (leg.kind == K::Gen) {
            // The gen8x5 serve shape: the merger tree's slot mirror
            // on eight skewed lanes.
            spec.gen.lanes = 8;
            spec.gen.bits = 5;
            spec.gen.clockPeriodPs = 20;
            spec.gen.tree = usfq::gen::TreeKind::Merger;
            spec.gen.shape = usfq::gen::LaneShape::Skewed;
        }
        usfq::api::Session session(spec);
        usfq::api::DesignFacts facts;
        ASSERT_EQ(session.designFacts(facts), usfq::api::Status::Ok)
            << leg.name << ": " << session.lastError();
        const auto allocationsOf = [&](int epochs) {
            usfq::api::RunParams params;
            params.backend = usfq::Backend::Functional;
            params.epochs = epochs;
            params.batch = leg.batch;
            params.threads = 1;
            const std::uint64_t before = allocations.load();
            const usfq::api::RunResult result =
                usfq::api::runWorkload(spec, params, facts);
            const std::uint64_t calls = allocations.load() - before;
            EXPECT_EQ(result.counts.size(),
                      static_cast<std::size_t>(epochs));
            return calls;
        };
        EXPECT_EQ(allocationsOf(64), allocationsOf(4096))
            << leg.name << ": operator new calls at 64 vs 4096 epochs";
    }
}

} // namespace
