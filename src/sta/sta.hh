/**
 * @file
 * Static timing & margin analysis over an elaborated netlist
 * (docs/sta.md).
 *
 * runSta() builds a port-level timing graph from the recorded
 * connectivity (wire edges), the per-component TimingModels (arc
 * edges) and the declared port aliases, levelizes it -- cutting
 * feedback at registered cells, the static twin of the zero-delay-cycle
 * DFS -- and propagates min/max arrival windows from the pulse
 * anchors.  From the windows it derives:
 *
 *  - setup/hold and collision margin findings, in the same
 *    LintRule/waiver vocabulary as Netlist::elaborate(),
 *  - the critical path as a named hierarchical hop list,
 *  - the minimum stimulus spacing every cell's recovery time allows
 *    (the paper's 111 GHz inverter ceiling falls out of this), and
 *  - per-component worst slack, annotated onto the components so
 *    Netlist::report() can roll it up per subtree.
 *
 * Monte-Carlo margin analysis under per-cell delay jitter lives in
 * sta/monte_carlo.hh.
 */

#ifndef USFQ_STA_STA_HH
#define USFQ_STA_STA_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/elaborate.hh"
#include "util/types.hh"

namespace usfq
{

class InputPort;
class Netlist;
class OutputPort;

/**
 * Dense node numbering of the registered ports of one analysed netlist
 * (docs/sta.md): the inputs of the component with hierarchy node id h
 * are nodes first[h] + slot, its outputs follow them.  Ports have no
 * node when they are free-standing (fixtures, PulseTrace probes) or
 * belong to another netlist -- a second netlist built the same way has
 * the same ids and slots, so the netlist check is what tells it apart.
 */
struct StaPortNodes
{
    const Netlist *netlist = nullptr;
    /** Per hierarchy node id; UINT32_MAX where no component was live. */
    std::vector<std::uint32_t> first;

    /** Node of @p port, or UINT32_MAX when it has none. */
    std::uint32_t of(const InputPort &port) const;
    std::uint32_t of(const OutputPort &port) const;
};

/** Knobs of one STA run. */
struct StaOptions
{
    /** Where arrival windows are anchored. */
    enum class AnchorMode
    {
        /**
         * At the recorded stimulus schedules of PulseSource /
         * ClockSource components (Component::stimulusAnchor()).  Ports
         * no stimulus reaches stay unreachable and are exempt from
         * checks -- the mode for simulated designs.
         */
        Stimulus,
        /**
         * Every driverless port launches at time 0.  Turns the windows
         * into pure path-skew analysis, usable on stimulus-less area
         * studies (fig16_dpu_area) where no source exists.
         */
        Zero,
    };

    AnchorMode anchorMode = AnchorMode::Stimulus;

    /**
     * Also check port pairs whose pulses come from *different* anchors
     * against each other's absolute windows.  Off by default: streams
     * from unrelated sources are usually frame-aligned by construction
     * and the cross products drown the report in pessimistic races.
     */
    bool strictRaces = false;

    /** Annotate per-component worst slack (Component::setStaSlack). */
    bool annotate = true;

    /**
     * Optional per-component propagation-delay jitter, indexed by
     * Component::nodeId(): every arc of component c is shifted by
     * (*delayDelta)[c->nodeId()] ticks (clamped at zero).  The
     * Monte-Carlo driver feeds per-trial vectors through this.
     */
    const std::vector<Tick> *delayDelta = nullptr;

    /**
     * Blanket waivers for STA rules, merged over (and shadowed by) the
     * netlist's own Netlist::waive() map.
     */
    std::map<LintRule, std::string> waivers;
};

/** Min/max arrival bounds of pulses at one port. */
struct ArrivalWindow
{
    Tick earliest = 0;
    Tick latest = 0;
    /** False: no anchored path reaches the port (it never pulses). */
    bool reachable = false;
};

/** One hop of the critical path. */
struct StaHop
{
    std::string from; ///< source port (hierarchical name)
    std::string to;   ///< destination port (hierarchical name)
    const char *kind = ""; ///< "wire", "arc" or "alias"
    Tick minDelay = 0;
    Tick maxDelay = 0; ///< this hop's contribution to the path
    Tick at = 0;       ///< cumulative latest arrival at `to`
};

/** The critical (latest-arrival) path through the design. */
struct StaPath
{
    std::string startpoint; ///< anchor port the path launches from
    std::string endpoint;   ///< port with the overall latest arrival
    std::vector<StaHop> hops;
    Tick length = 0; ///< endpoint latest minus startpoint latest
    bool valid = false;
};

/** Everything one runSta() call produces. */
struct StaReport
{
    /**
     * Margin findings (rules SetupHoldViolation, CollisionRisk,
     * RateViolation, CombinationalLoop), waiver-resolved like the
     * elaboration lint; LintFinding::margin holds the violation depth.
     */
    std::vector<LintFinding> findings;

    StaPath criticalPath;

    /**
     * Minimum spacing between successive stimulus pulses that keeps
     * every cell inside its recovery time -- the STA-predicted lossless
     * pulse period.  0 = no recovery-limited cell was reachable.
     */
    Tick requiredStreamSpacing = 0;

    /** Worst (minimum) margin over every evaluated check. */
    Tick worstSlack = 0;
    bool hasWorstSlack = false;

    // Graph statistics.
    std::size_t numPorts = 0;
    std::size_t numEdges = 0;
    std::size_t numCutEdges = 0; ///< feedback arcs cut at registered cells
    std::size_t numAnchors = 0;

    /** Unwaived findings. */
    std::size_t errors() const;

    /** requiredStreamSpacing as a rate (Hz); 0 when unconstrained. */
    double maxStreamRateHz() const;

    /** Arrival window of a port (unreachable default if unknown). */
    ArrivalWindow windowOf(const InputPort &port) const;
    ArrivalWindow windowOf(const OutputPort &port) const;

    /**
     * Provable minimum spacing between pulses at a port (0 = none
     * provable).  For every golden netlist the simulated pulse stream
     * must respect this floor -- the rate side of the STA envelope.
     */
    Tick separationFloor(const InputPort &port) const;
    Tick separationFloor(const OutputPort &port) const;

    void printFindings(std::ostream &os) const;
    void printCriticalPath(std::ostream &os) const;
    /** One-paragraph roll-up: graph size, slack, rate, findings. */
    void printSummary(std::ostream &os) const;

    // --- implementation storage (filled by runSta) ----------------------

    /** Port -> node of the analysed graph. */
    StaPortNodes portNodes;
    std::vector<ArrivalWindow> nodeWindows;
    std::vector<Tick> nodeFloors;
};

/**
 * Run static timing analysis.  Elaborates the netlist first if needed
 * (STA consumes the packed, linted graph).
 */
StaReport runSta(Netlist &nl, const StaOptions &opts = {});

/**
 * runSta() that fails hard (fatal) when any unwaived finding remains --
 * the timing twin of Netlist::elaborate()'s structural gate.
 */
StaReport runStaChecked(Netlist &nl, const StaOptions &opts = {});

/**
 * runStaChecked()'s gate applied to a report runSta() already produced
 * for @p nl: mark the findings @p opts' waivers cover, then, if any
 * finding is still unwaived, warn once per such finding and fatal.
 * Waivers only mark findings -- no window, floor, slack or rate figure
 * depends on them -- so gating a report computed without @p opts'
 * waivers is exactly runStaChecked(nl, opts), minus the second analysis.
 */
void gateStaReport(const Netlist &nl, StaReport &report,
                   const StaOptions &opts);

} // namespace usfq

#endif // USFQ_STA_STA_HH
