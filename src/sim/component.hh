/**
 * @file
 * Base class for everything instantiated inside a Netlist: SFQ cells and
 * the composite U-SFQ blocks built from them.
 */

#ifndef USFQ_SIM_COMPONENT_HH
#define USFQ_SIM_COMPONENT_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/timing.hh"
#include "util/types.hh"

namespace usfq
{

class InputPort;
class Netlist;
class EventQueue;
class OutputPort;

/**
 * A named simulation object owned by a Netlist.
 *
 * Components report their Josephson-junction count (the paper's area
 * metric) and can be reset between computing epochs.
 *
 * Every Component registers itself with its Netlist at construction and
 * receives a dense node id; the netlist derives the hierarchy tree from
 * the registration sequence and the dotted instance names ("dpu.m3"
 * registers as a child of "dpu").  Cells additionally register their
 * ports (addPort) so the elaboration lint and the hierarchical metrics
 * rollup can see the full connectivity graph.
 */
class Component
{
  public:
    Component(Netlist &netlist, std::string name);
    virtual ~Component();

    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;

    /** Hierarchical instance name. */
    const std::string &name() const { return instName; }

    /** Owning netlist. */
    Netlist &netlist() { return owner; }
    const Netlist &netlist() const { return owner; }

    /** Dense hierarchy-node id assigned by the netlist. */
    int nodeId() const { return node; }

    /** The event queue this component runs on. */
    EventQueue &queue();

    /** Number of Josephson junctions in this component (area metric). */
    virtual int jjCount() const = 0;

    /** Return to the power-on state (clears stored flux, SQUID states). */
    virtual void reset() {}

    /**
     * Smallest input-to-output latency this component can exhibit, used
     * by the zero-delay-cycle lint: a feedback loop whose wire delays
     * and cell delays are all zero would livelock the event kernel.
     * Cells override this with their propagation delay; the default 0
     * is conservative (flags more, never less).
     */
    virtual Tick minInternalDelay() const { return 0; }

    /**
     * Pulses this component destroyed (merger collisions, balancer
     * dead-time drops) -- aggregated by Netlist::report().
     */
    virtual std::uint64_t lostPulses() const { return 0; }

    /**
     * Static-timing description of this component (src/sta/,
     * docs/sta.md).  The default is the conservative behavioral model:
     * every input triggers every output after exactly
     * minInternalDelay(), no checks, registered (so feedback through an
     * unmodelled block is cut rather than flagged).  SFQ cells override
     * this with their table from sfq/params.hh; behavioral blocks that
     * emit from their own ports should override it too.
     */
    virtual TimingModel timingModel() const;

    /**
     * Stimulus schedule of a primary source (PulseSource /
     * ClockSource), or null for everything else.  The STA engine
     * anchors arrival windows at components that return one.
     */
    virtual const PulseAnchor *stimulusAnchor() const { return nullptr; }

    /** Ports registered via addPort (elaboration graph nodes). */
    const std::vector<InputPort *> &inputPorts() const { return ins; }
    const std::vector<OutputPort *> &outputPorts() const { return outs; }

    /**
     * One zero-delay alias edge: pulses delivered to `outer` are
     * forwarded to `inner` by a handler instead of a recorded wire.
     * Recording the pair makes the forwarding visible to the STA graph
     * (the connectivity lint already handles it via markOptional on the
     * inner port).
     */
    struct PortAlias
    {
        InputPort *outer;
        InputPort *inner;
    };

    /** Alias edges declared by this component (STA graph input). */
    const std::vector<PortAlias> &portAliases() const { return aliases; }

    // --- STA slack annotation (written by usfq::runSta) ----------------

    /** Record this component's worst timing margin. */
    void
    setStaSlack(Tick slack)
    {
        staMargin = slack;
        staMarginValid = true;
    }

    /** Forget any recorded margin (new analysis run). */
    void clearStaSlack() { staMarginValid = false; }

    /** True if an STA run annotated this component. */
    bool hasStaSlack() const { return staMarginValid; }

    /** Worst timing margin from the last STA run (valid if hasStaSlack). */
    Tick staSlack() const { return staMargin; }

    /**
     * JJ switching events recorded by THIS component since its last
     * counter clear (composite blocks report only their own glue; the
     * cells they contain count separately).
     */
    std::uint64_t localSwitches() const { return switchCount; }

    /** Clear the local switching counter. */
    void clearLocalSwitches() { switchCount = 0; }

  protected:
    /** Record @p n JJ switching events for the power model. */
    void recordSwitches(int n);

    /**
     * Register a port with this component (and the netlist graph); the
     * port records its slot, its index among this component's inputs
     * or outputs.
     */
    void addPort(InputPort &port);
    void addPort(OutputPort &port);

    /** Register several ports at once, growing each port list once. */
    template <typename... Ports>
    void
    addPorts(Ports &...ports)
    {
        ins.reserve(ins.size() +
                    (std::size_t{0} + ... +
                     std::is_same_v<Ports, InputPort>));
        outs.reserve(outs.size() +
                     (std::size_t{0} + ... +
                      std::is_same_v<Ports, OutputPort>));
        (addPort(ports), ...);
    }

    /**
     * Declare `outer` as a pure forwarding alias of `inner` and install
     * the forwarding handler: every pulse received by `outer` is
     * re-delivered to all of its aliased inner ports, in declaration
     * order, at the same tick.  Replaces the hand-written
     * `setHandler([inner](Tick t) { inner->receive(t); })` pattern so
     * the alias is visible to the STA graph.
     */
    void addAlias(InputPort &outer, InputPort &inner);

    /**
     * Record the alias pair WITHOUT touching `outer`'s handler -- for
     * blocks whose forwarding is conditional (RlShiftRegister routes
     * the epoch to selA or selB by phase) but whose timing is still
     * "inner may receive whenever outer does, zero delay later".
     */
    void declareAlias(InputPort &outer, InputPort &inner);

  private:
    Netlist &owner;
    std::string instName;
    int node = -1;
    std::uint64_t switchCount = 0;
    std::vector<InputPort *> ins;
    std::vector<OutputPort *> outs;
    std::vector<PortAlias> aliases;
    Tick staMargin = 0;
    bool staMarginValid = false;
};

} // namespace usfq

#endif // USFQ_SIM_COMPONENT_HH
