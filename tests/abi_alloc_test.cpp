/**
 * @file
 * Allocation-failure armor of the broker C ABI (ctest label `svc`).
 *
 * This binary replaces the global operator new so a test can make the
 * next allocation on its own thread throw std::bad_alloc.  A thread's
 * first usfq_broker_run call allocates its per-thread error slot before
 * anything else; when that allocation fails the call must return
 * USFQ_ERR_INTERNAL, not let the exception cross the C boundary.  The
 * replacement allocator applies to the whole program, hence the
 * separate binary.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "api/usfq.h"

namespace
{

/** When set, the next operator new on this thread throws. */
thread_local bool failNextAllocation = false;

} // namespace

void *
operator new(std::size_t size)
{
    if (failNextAllocation) {
        failNextAllocation = false;
        throw std::bad_alloc();
    }
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
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

} // namespace
