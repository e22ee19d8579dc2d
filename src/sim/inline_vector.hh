/**
 * @file
 * A small-buffer vector of trivially copyable values: the storage of
 * TimingModel's arcs, checks and floors (sim/timing.hh).
 *
 * STA asks every component for its TimingModel on every analysis, and
 * the design-space compiler analyses each design point several times;
 * with std::vector each model cost up to three heap allocations.
 * InlineVector keeps up to @p N elements in place and only allocates
 * beyond that (behavioral default models of wide composite blocks).
 * The interface is the subset of std::vector the models use:
 * initializer-list construction and assignment, push_back, size and
 * iteration.
 */

#ifndef USFQ_SIM_INLINE_VECTOR_HH
#define USFQ_SIM_INLINE_VECTOR_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <type_traits>

namespace usfq
{

template <typename T, std::size_t N>
class InlineVector
{
    static_assert(N > 0, "InlineVector needs inline room");
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "InlineVector copies its elements bytewise");

  public:
    using value_type = T;
    using iterator = T *;
    using const_iterator = const T *;

    // User-provided, so value-initialising a model does not zero the
    // inline buffer.
    InlineVector() noexcept {}
    InlineVector(std::initializer_list<T> init)
    {
        assign(init.begin(), init.size());
    }
    InlineVector(const InlineVector &other)
    {
        assign(other.data(), other.size());
    }
    InlineVector(InlineVector &&other) noexcept { take(other); }
    ~InlineVector() { freeHeap(); }

    InlineVector &
    operator=(const InlineVector &other)
    {
        if (this != &other)
            assign(other.data(), other.size());
        return *this;
    }

    InlineVector &
    operator=(InlineVector &&other) noexcept
    {
        if (this != &other) {
            freeHeap();
            take(other);
        }
        return *this;
    }

    /** Replace the contents; up to N elements go back inline. */
    InlineVector &
    operator=(std::initializer_list<T> init)
    {
        assign(init.begin(), init.size());
        return *this;
    }

    void
    push_back(const T &value)
    {
        if (count == cap)
            grow();
        ::new (static_cast<void *>(data() + count)) T(value);
        ++count;
    }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    /** N while inline; the heap block's size after spilling. */
    std::size_t capacity() const { return cap; }
    /** True once the elements live in a heap block. */
    bool onHeap() const { return heap != nullptr; }

    T *data() { return heap ? heap : local(); }
    const T *data() const { return heap ? heap : local(); }

    T &front() { return data()[0]; }
    const T &front() const { return data()[0]; }

    iterator begin() { return data(); }
    iterator end() { return data() + count; }
    const_iterator begin() const { return data(); }
    const_iterator end() const { return data() + count; }

  private:
    T *local() { return std::launder(reinterpret_cast<T *>(buf)); }
    const T *
    local() const
    {
        return std::launder(reinterpret_cast<const T *>(buf));
    }

    void
    freeHeap()
    {
        if (heap)
            std::allocator<T>().deallocate(heap, cap);
        heap = nullptr;
        cap = N;
    }

    /** Copy @p n elements from @p src (never this vector's own). */
    void
    assign(const T *src, std::size_t n)
    {
        if (n <= N)
            freeHeap();
        else if (n > cap) {
            T *block = std::allocator<T>().allocate(n);
            freeHeap();
            heap = block;
            cap = static_cast<std::uint32_t>(n);
        }
        std::uninitialized_copy_n(src, n, data());
        count = static_cast<std::uint32_t>(n);
    }

    void
    grow()
    {
        const std::uint32_t wider = cap * 2;
        T *block = std::allocator<T>().allocate(wider);
        std::uninitialized_copy_n(data(), count, block);
        freeHeap();
        heap = block;
        cap = wider;
    }

    /** Move @p other's contents in; this vector holds nothing. */
    void
    take(InlineVector &other)
    {
        if (other.heap) {
            heap = other.heap;
            cap = other.cap;
            other.heap = nullptr;
            other.cap = N;
        } else {
            std::uninitialized_copy_n(other.local(), other.count, local());
        }
        count = other.count;
        other.count = 0;
    }

    T *heap = nullptr;
    std::uint32_t count = 0;
    std::uint32_t cap = N;
    alignas(T) unsigned char buf[N * sizeof(T)];
};

} // namespace usfq

#endif // USFQ_SIM_INLINE_VECTOR_HH
