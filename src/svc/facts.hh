/**
 * @file
 * The broker's design-facts table (docs/service.md, "Request broker"):
 * NetlistSpec -> api::DesignFacts, the first level of the two-level
 * cache lookup.  A request whose spec is in the table builds its
 * result-cache key without a Session, a netlist or a balancing pass.
 *
 * Keyed by the FULL spec: api::specHash only picks the bucket and
 * NetlistSpec::operator== confirms the match, so a hash collision can
 * never hand one design's facts to another.  Only successful
 * derivations are stored -- a failing spec re-derives (and re-reports
 * its exact Status and message) on every request.
 *
 * Concurrency: one mutex around the service LRU (svc/lru.hh); values
 * are immutable and shared, so a lookup hands out a reference-counted
 * pointer and releases the lock at once.
 */

#ifndef USFQ_SVC_FACTS_HH
#define USFQ_SVC_FACTS_HH

#include <cstddef>
#include <memory>
#include <mutex>

#include "api/facade.hh"
#include "api/spec.hh"
#include "svc/lru.hh"

namespace usfq::svc
{

/** Bounded, thread-safe LRU map of spec -> design facts. */
class FactsTable
{
  public:
    explicit FactsTable(std::size_t capacity) : entries(capacity) {}

    FactsTable(const FactsTable &) = delete;
    FactsTable &operator=(const FactsTable &) = delete;

    /** The spec's facts (refreshing recency), or null. */
    std::shared_ptr<const api::DesignFacts>
    lookup(const api::NetlistSpec &spec)
    {
        std::lock_guard<std::mutex> lock(mu);
        const auto *facts = entries.find(spec);
        return facts != nullptr ? *facts : nullptr;
    }

    /** Memoise @p facts (a no-op when the spec is already present). */
    void
    insert(const api::NetlistSpec &spec,
           std::shared_ptr<const api::DesignFacts> facts)
    {
        std::lock_guard<std::mutex> lock(mu);
        entries.insert(spec, std::move(facts));
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return entries.size();
    }

  private:
    struct SpecHash
    {
        std::size_t
        operator()(const api::NetlistSpec &spec) const
        {
            return static_cast<std::size_t>(api::specHash(spec));
        }
    };

    mutable std::mutex mu;
    Lru<api::NetlistSpec, std::shared_ptr<const api::DesignFacts>,
        SpecHash>
        entries;
};

} // namespace usfq::svc

#endif // USFQ_SVC_FACTS_HH
