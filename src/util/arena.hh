/**
 * @file
 * Bump arena for batch scratch buffers.
 *
 * A batched functional epoch (src/func/batch.hh) wants every
 * temporary -- per-lane products, operand copies -- to be a fresh
 * contiguous span with zero per-run allocation cost.  WordArena
 * provides exactly that: 64-byte-aligned uint64 storage handed out by
 * pointer bump, released all at once by reset() at the epoch boundary.
 *
 * reset() keeps the high-water capacity, and coalesces multi-chunk
 * growth into one contiguous block, so a steady-state epoch loop does
 * no allocation at all after warm-up and walks one linear buffer.
 */

#ifndef USFQ_UTIL_ARENA_HH
#define USFQ_UTIL_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace usfq
{

/** Bump allocator of 64-byte-aligned uint64 spans. */
class WordArena
{
  public:
    /** Alignment of every returned span, in bytes (one cache line,
     *  and enough for any AVX-512 access pattern). */
    static constexpr std::size_t kAlignBytes = 64;

    explicit WordArena(std::size_t initial_words = 0);

    WordArena(const WordArena &) = delete;
    WordArena &operator=(const WordArena &) = delete;

    /** @p n words, 64-byte aligned, uninitialized.  n == 0 is legal
     *  and returns a unique non-null pointer. */
    std::uint64_t *alloc(std::size_t n);

    /**
     * @p n elements of trivial type T carved out of word storage
     * (rounded up to whole words), 64-byte aligned, uninitialized.
     * For batch scratch such as per-lane count buffers.
     */
    template <typename T>
    T *allocAs(std::size_t n)
    {
        static_assert(std::is_trivially_default_constructible_v<T> &&
                          std::is_trivially_destructible_v<T>,
                      "arena storage is never constructed/destroyed");
        static_assert(alignof(T) <= kAlignBytes);
        const std::size_t words =
            (n * sizeof(T) + sizeof(std::uint64_t) - 1) /
            sizeof(std::uint64_t);
        return reinterpret_cast<T *>(alloc(words));
    }

    /**
     * Invalidate every span handed out so far and make the full
     * capacity available again.  Capacity is retained; if growth left
     * multiple chunks behind, they are coalesced into one so future
     * epochs are a single linear buffer.
     */
    void reset();

    /** Words handed out since the last reset(). */
    std::size_t usedWords() const { return used; }

    /** Total words the arena can serve without growing. */
    std::size_t capacityWords() const { return capacity; }

  private:
    struct Chunk
    {
        std::unique_ptr<std::uint64_t[]> storage; ///< over-allocated
        std::uint64_t *base = nullptr;            ///< aligned start
        std::size_t words = 0;                    ///< usable words
    };

    static Chunk makeChunk(std::size_t words);

    /** Grow by a chunk able to hold at least @p n more words. */
    void grow(std::size_t n);

    std::vector<Chunk> chunks;
    std::size_t active = 0;   ///< chunk currently bumped
    std::size_t offset = 0;   ///< words used in the active chunk
    std::size_t used = 0;     ///< words used across all chunks
    std::size_t capacity = 0; ///< total usable words
};

} // namespace usfq

#endif // USFQ_UTIL_ARENA_HH
