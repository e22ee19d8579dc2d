/**
 * @file
 * Allocation-failure armor of the broker (ctest label `svc`).
 *
 * This binary replaces the global operator new so a test can make an
 * allocation throw std::bad_alloc: the next one on its own thread, or
 * the next one of at least a given size on any thread.
 *  - A thread's first usfq_broker_run call allocates its per-thread
 *    error slot before anything else; when that allocation fails the
 *    call must return USFQ_ERR_INTERNAL, not let the exception cross
 *    the C boundary.
 *  - A broker worker that cannot allocate a result's JSON document
 *    must fail that request with USFQ_ERR_INTERNAL and keep serving,
 *    not let the exception end the process.
 * The replacement allocator applies to the whole program, hence the
 * separate binary.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

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
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

// Out of line: inlined into a `new T` expression, the free() next to
// a call of operator new reads as a mismatched pair to the compiler.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
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
    // 2^17 epochs in lane groups of 4096: the run's largest buffers are
    // the 8-byte-per-epoch counts, while the response document takes
    // more than ten bytes per count.  The first allocation of 12 bytes
    // per epoch is therefore the worker's serialize step.
    constexpr std::size_t kEpochs = std::size_t{1} << 17;
    const std::string params = "{\"epochs\": " + std::to_string(kEpochs) +
                               ", \"batch\": 4096, \"threads\": 1, "
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

} // namespace
