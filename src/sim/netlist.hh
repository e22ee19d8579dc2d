/**
 * @file
 * Netlist: owner of components, the event queue, the connectivity /
 * hierarchy graph, and the bookkeeping (JJ area, switching activity)
 * the evaluation metrics are computed from.
 *
 * Netlists are built in two phases (docs/elaboration.md):
 *
 *  1. build  -- create() / connect() record components, ports and
 *     edges; the hierarchy tree is derived from the registration
 *     sequence and dotted instance names (plus explicit scope()s).
 *  2. elaborate -- structural lint over the recorded graph (dangling
 *     inputs, open/unbound outputs, SFQ fan-out discipline, zero-delay
 *     cycles), then the per-port connection vectors are packed into one
 *     contiguous edge array and the netlist freezes: connect() after
 *     elaborate() is a hard error.
 *
 * run() elaborates automatically on first use.
 */

#ifndef USFQ_SIM_NETLIST_HH
#define USFQ_SIM_NETLIST_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/stats.hh"
#include "sim/component.hh"
#include "sim/elaborate.hh"
#include "sim/event_queue.hh"
#include "sim/port.hh"

namespace usfq
{

/**
 * The name of member @p index of a component family: @p prefix, then
 * @p index in decimal ("s3").  Built by appending: GCC 12 at -O3
 * reports a false -Wrestrict overlap on `"s" + std::to_string(i)`.
 */
inline std::string
indexedName(std::string_view prefix, long long index)
{
    std::string name(prefix);
    name += std::to_string(index);
    return name;
}

/**
 * A container of components sharing one event queue.
 *
 * Ownership is flat (teardown stays trivial, iteration fast); the
 * hierarchy lives in the registration-derived component tree, which
 * elaborate() lints and report() aggregates over.
 */
class Netlist
{
  public:
    explicit Netlist(std::string name = "top");

    /** Construct a component in place; the netlist takes ownership. */
    template <typename T, typename... Args>
    T &
    create(Args &&...args)
    {
        auto ptr = std::make_unique<T>(*this, std::forward<Args>(args)...);
        T &ref = *ptr;
        components.push_back(std::move(ptr));
        return ref;
    }

    /** The shared event queue. */
    EventQueue &queue() { return eq; }
    const EventQueue &queue() const { return eq; }

    /** Netlist name (prefix for diagnostics). */
    const std::string &name() const { return netName; }

    /** Total JJ count over all components — the paper's area metric. */
    int totalJJs() const;

    /** Number of owned components. */
    std::size_t numComponents() const { return components.size(); }

    /** Reset every component and clear the event queue and counters. */
    void resetAll();

    /** Record JJ switching events (called by Component). */
    void addSwitches(std::uint64_t n) { switchEvents += n; }

    /** Total JJ switching events since the last resetAll(). */
    std::uint64_t totalSwitches() const { return switchEvents; }

    /** Iterate over components (const). */
    const std::vector<std::unique_ptr<Component>> &
    all() const
    {
        return components;
    }

    /**
     * Every live component in the hierarchy graph, in registration
     * (hier) order -- including cells owned as direct members of
     * composite blocks, which all() (owned top-level objects only) does
     * not see.  This is the node set the elaboration lint and the STA
     * engine walk.
     */
    std::vector<Component *> graphComponents() const;

    // --- hierarchy ------------------------------------------------------

    /**
     * RAII hierarchy scope: components registered while the guard is
     * alive become children of a named grouping node.  Used by bench /
     * application code to structure report() output beyond what dotted
     * instance names already express.
     */
    class Scope
    {
      public:
        ~Scope();
        Scope(Scope &&other) noexcept
            : nl(other.nl), node(other.node)
        {
            other.nl = nullptr;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        Scope &operator=(Scope &&) = delete;

      private:
        friend class Netlist;
        Scope(Netlist *netlist, int node_id) : nl(netlist), node(node_id) {}
        Netlist *nl;
        int node;
    };

    /** Open a named hierarchy scope (closed when the guard dies). */
    Scope scope(std::string label);

    // --- elaboration ----------------------------------------------------

    /**
     * Run the structural lint passes without freezing the netlist.
     * Returns every finding, including waived ones.
     */
    std::vector<LintFinding> lint() const;

    /**
     * Elaborate: lint the connectivity graph, fail hard (fatal) on any
     * unwaived finding, then pack the per-port connection vectors into
     * the contiguous edge array and freeze the netlist.  Idempotent:
     * subsequent calls return the cached report.
     */
    const ElabReport &elaborate();

    /** True once elaborate() has frozen the netlist. */
    bool elaborated() const { return frozen; }

    /** Elaborate if needed, then run the event queue until @p until. */
    std::uint64_t run(Tick until = INT64_MAX);

    /**
     * Blanket-waive one lint rule for the whole netlist with a
     * documented reason.  Meant for stimulus-less area studies where
     * every port is deliberately unwired; prefer per-port
     * markOptional()/markOpen() waivers in real designs.
     */
    void waive(LintRule rule, std::string reason);

    /** Blanket waivers recorded via waive() (shared with the STA lint). */
    const std::map<LintRule, std::string> &
    blanketWaiverMap() const
    {
        return blanketWaivers;
    }

    /** Hierarchical metrics rollup (per-block area/power breakdown). */
    HierReport report() const;

    // --- observability (docs/observability.md) --------------------------

    /**
     * Export this netlist's deterministic stats into @p reg (the
     * thread's current registry by default): per-component pulse
     * counters (jj / in_pulses / out_pulses / lost_pulses / switches)
     * named by '/'-joined hier path and keyed by hier-node id, plus
     * the event-kernel stats under "<name>/kernel".  Registry rollups
     * (sumCounters) over these reproduce the report() arithmetic.
     * Counters are overwritten, so exporting twice into one registry
     * is idempotent for them; call once per registry for histograms.
     */
    void exportStats(obs::StatsRegistry &reg = obs::currentStats()) const;

    // --- registration (called by Component) -----------------------------

    /** Register @p c in the hierarchy; returns its dense node id. */
    int registerComponent(Component &c);

    /** Drop a destroyed component from the hierarchy. */
    void unregisterComponent(int node_id);

  private:
    struct HierNode
    {
        std::string name;
        Component *comp = nullptr; ///< null for the root / scope nodes
        int parent = -1;
        bool pinned = false; ///< explicit scope: only its guard pops it
        std::vector<int> children;
    };

    friend struct ElabPasses; // lint/pack implementation (elaborate.cc)

    bool subtreeLive(int node_id) const;
    void buildReportNode(int node_id, HierReport::Node &out) const;
    int inclusiveJJs(int node_id) const;
    void exportStatsNode(obs::StatsRegistry &reg, int node_id,
                         const std::string &path) const;

    std::string netName;
    EventQueue eq;

    // Hierarchy + edge storage are declared before `components` so they
    // outlive them: component destructors unregister themselves, and
    // packed OutputPort spans point into edgeStore.
    std::vector<HierNode> hier;      ///< [0] is the root
    std::vector<int> buildStack;     ///< hierarchy construction stack
    std::vector<OutputPort::Connection> edgeStore; ///< packed edges
    std::map<LintRule, std::string> blanketWaivers;
    ElabReport elabReport;
    bool frozen = false;

    std::vector<std::unique_ptr<Component>> components;
    std::uint64_t switchEvents = 0;

    std::uint64_t buildStartUs; ///< construction timestamp
};

} // namespace usfq

#endif // USFQ_SIM_NETLIST_HH
