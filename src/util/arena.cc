#include "util/arena.hh"

#include "util/logging.hh"

namespace usfq
{

namespace
{

constexpr std::size_t kAlignWords =
    WordArena::kAlignBytes / sizeof(std::uint64_t);

/** Round @p n up to the alignment quantum so every bump stays aligned. */
std::size_t
roundUp(std::size_t n)
{
    return (n + kAlignWords - 1) / kAlignWords * kAlignWords;
}

} // namespace

WordArena::WordArena(std::size_t initial_words)
{
    if (initial_words > 0)
        grow(initial_words);
}

WordArena::Chunk
WordArena::makeChunk(std::size_t words)
{
    Chunk c;
    // Over-allocate one alignment quantum and round the base up; the
    // plain new[] keeps the arena free of platform aligned-alloc APIs.
    c.storage =
        std::make_unique<std::uint64_t[]>(words + kAlignWords);
    auto addr = reinterpret_cast<std::uintptr_t>(c.storage.get());
    const std::uintptr_t aligned =
        (addr + kAlignBytes - 1) / kAlignBytes * kAlignBytes;
    c.base = c.storage.get() + (aligned - addr) / sizeof(std::uint64_t);
    c.words = words;
    return c;
}

void
WordArena::grow(std::size_t n)
{
    // Geometric growth with a floor keeps chunk count logarithmic in
    // the high-water mark.
    const std::size_t floor_words = 4096;
    std::size_t want = roundUp(n);
    if (want < floor_words)
        want = floor_words;
    if (want < capacity)
        want = capacity; // at least double the total
    chunks.push_back(makeChunk(want));
    capacity += want;
    active = chunks.size() - 1;
    offset = 0;
}

std::uint64_t *
WordArena::alloc(std::size_t n)
{
    if (chunks.empty())
        grow(n > 0 ? n : 1);
    const std::size_t take = roundUp(n);
    if (offset + take > chunks[active].words) {
        // Try the remaining chunks (only after a reset() that kept
        // several), else grow.
        std::size_t next = active + 1;
        while (next < chunks.size() && chunks[next].words < take)
            ++next;
        if (next < chunks.size()) {
            active = next;
            offset = 0;
        } else {
            grow(take);
        }
    }
    std::uint64_t *out = chunks[active].base + offset;
    offset += take;
    used += take;
    return out;
}

void
WordArena::reset()
{
    if (chunks.size() > 1) {
        // Coalesce: one chunk of the full capacity, so the next epoch
        // bumps through a single linear buffer.
        const std::size_t total = capacity;
        chunks.clear();
        chunks.push_back(makeChunk(total));
    }
    active = 0;
    offset = 0;
    used = 0;
}

} // namespace usfq
