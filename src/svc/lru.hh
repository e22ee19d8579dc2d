/**
 * @file
 * The one bounded LRU map of the service layer: an intrusive recency
 * list plus a hash index, O(1) find/insert/evict.  Both broker tables
 * -- the result cache (svc/cache.hh) and the design-facts table
 * (svc/facts.hh) -- are built on it.
 *
 * Not thread-safe: owners hold their own mutex around every call.
 */

#ifndef USFQ_SVC_LRU_HH
#define USFQ_SVC_LRU_HH

#include <cstddef>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace usfq::svc
{

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class Lru
{
  public:
    explicit Lru(std::size_t capacity) : cap(capacity == 0 ? 1 : capacity)
    {
    }

    /** The stored value, refreshed to most recently used; null on miss. */
    Value *
    find(const Key &key)
    {
        const auto it = index.find(key);
        if (it == index.end())
            return nullptr;
        order.splice(order.begin(), order, it->second);
        return &it->second->second;
    }

    /**
     * Store @p value as most recently used, evicting the least recently
     * used entry beyond capacity.  A key already present keeps its
     * value (returns false).  So does a key that does not compare equal
     * to itself (a NaN field): it could never be found or evicted.
     */
    bool
    insert(const Key &key, Value value)
    {
        if (!(key == key) || index.find(key) != index.end())
            return false;
        order.emplace_front(key, std::move(value));
        index.emplace(key, order.begin());
        while (order.size() > cap) {
            index.erase(order.back().first);
            order.pop_back();
            ++evicted;
        }
        return true;
    }

    std::size_t size() const { return order.size(); }
    std::size_t capacity() const { return cap; }

    /** Entries evicted since construction or the last clear(). */
    std::size_t evictions() const { return evicted; }

    void
    clear()
    {
        order.clear();
        index.clear();
        evicted = 0;
    }

  private:
    using Entry = std::pair<Key, Value>;

    std::size_t cap;
    std::size_t evicted = 0;
    std::list<Entry> order; ///< front = most recently used
    std::unordered_map<Key, typename std::list<Entry>::iterator, Hash>
        index;
};

} // namespace usfq::svc

#endif // USFQ_SVC_LRU_HH
