/**
 * @file
 * Pulse ports: the wiring abstraction between SFQ cells.
 *
 * An SFQ "signal" is a sequence of instantaneous pulses.  An InputPort
 * invokes its owner's handler when a pulse arrives; an OutputPort fans
 * out to any number of InputPorts, each connection with its own wire
 * delay (a JTL/PTL segment).
 *
 * Ports participate in the netlist's two-phase build/elaborate pipeline
 * (docs/elaboration.md): during the build phase connect() records edges
 * into per-port vectors; Netlist::elaborate() lints the resulting graph
 * and packs every connection into one contiguous per-netlist edge array
 * that emit() then walks.  Ports registered with a Component (via
 * Component::addPort) are linted; free-standing ports (test fixtures,
 * PulseTrace probes) are not.
 */

#ifndef USFQ_SIM_PORT_HH
#define USFQ_SIM_PORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/inline_function.hh"
#include "util/types.hh"

namespace usfq
{

class Component;
class EventQueue;
struct ElabPasses;

/**
 * Destination of pulses.  The handler receives the arrival time (equal
 * to EventQueue::now() at delivery).
 */
class InputPort
{
  public:
    /**
     * Delivery callback.  An InlineFunction rather than std::function:
     * cell handlers capture only their `this` pointer, so the hot
     * delivery path never allocates and never pays std::function's
     * manager indirection.
     */
    using Handler = InlineFunction<void(Tick)>;

    InputPort() = default;

    /** Create with a handler and a diagnostic name. */
    InputPort(std::string name, Handler handler);

    /** Replace the handler (used by cells wiring themselves up). */
    void setHandler(Handler handler) { onPulse = std::move(handler); }

    /** Deliver a pulse now. */
    void receive(Tick when);

    /** Total pulses delivered to this port. */
    std::uint64_t pulseCount() const { return delivered; }

    const std::string &name() const { return portName; }

    /** Number of OutputPort connections driving this port. */
    std::uint32_t driverCount() const { return drivers; }

    /** Component this port is registered with (null if free-standing). */
    Component *owner() const { return ownerComp; }

    /**
     * Index of this port among its owner's registered inputs (addPort
     * order); 0 while free-standing.  With the owner's hierarchy node
     * id it names the port's STA graph node without a lookup table.
     */
    std::uint32_t slot() const { return slotIdx; }

    /**
     * Mark as a measurement probe (PulseTrace): observer connections do
     * not load the wire, so they are exempt from the SFQ fan-out lint.
     */
    void markObserver() { observer = true; }
    bool isObserver() const { return observer; }

    /**
     * Waive the dangling-input lint for this port with a documented
     * reason (e.g. a padded DPU lane that deliberately stays silent).
     */
    void markOptional(std::string reason) { waiver = std::move(reason); }
    bool isOptional() const { return !waiver.empty(); }
    const std::string &optionalReason() const { return waiver; }

  private:
    friend class Component;  // sets ownerComp and slotIdx at registration
    friend class OutputPort; // counts drivers in connect()

    std::string portName;
    Handler onPulse;
    std::uint64_t delivered = 0;
    Component *ownerComp = nullptr;
    std::uint32_t drivers = 0;
    std::uint32_t slotIdx = 0;
    bool observer = false;
    std::string waiver;
};

/**
 * Source of pulses.  Connections carry a per-wire delay; emit()
 * schedules one delivery event per connection.
 */
class OutputPort
{
  public:
    /** One fan-out connection: destination plus wire delay. */
    struct Connection
    {
        InputPort *dst;
        Tick delay;
    };

    OutputPort() = default;

    /** Create bound to the event queue that will carry its pulses. */
    OutputPort(std::string name, EventQueue *queue);

    /** Bind to an event queue (for two-phase construction). */
    void bind(EventQueue *queue) { eq = queue; }

    /** True once bound to an event queue. */
    bool bound() const { return eq != nullptr; }

    /** Connect to @p dst with the given wire delay. */
    void connect(InputPort &dst, Tick delay = 0);

    /** Emit a pulse at time @p when (defaults to now). */
    void emit(Tick when);

    /** Emit a pulse immediately. */
    void emitNow();

    /** Total pulses emitted from this port. */
    std::uint64_t pulseCount() const { return emitted; }

    /** Number of fan-out connections. */
    std::size_t fanout() const { return connections.size(); }

    const std::string &name() const { return portName; }

    /** Component this port is registered with (null if free-standing). */
    Component *owner() const { return ownerComp; }

    /**
     * Index of this port among its owner's registered outputs (addPort
     * order); 0 while free-standing.
     */
    std::uint32_t slot() const { return slotIdx; }

    /**
     * Declare that this port may drive more than one load.  Only
     * splitter outputs, ports whose JJ budget includes an internal
     * splitter (BalancerRoutingUnit), and external pad drivers
     * (PulseSource/ClockSource) qualify; everything else is held to the
     * paper's splitter-based fan-out rule by the elaboration lint.
     */
    void markFanoutOk() { fanoutOk = true; }
    bool isFanoutOk() const { return fanoutOk; }

    /**
     * Waive the open-output lint for this port with a documented reason
     * (e.g. a counting-tree y2 terminator whose pulses are discarded).
     */
    void markOpen(std::string reason) { waiver = std::move(reason); }
    bool isOpen() const { return !waiver.empty(); }
    const std::string &openReason() const { return waiver; }

    /** Build-phase connection list (elaboration input). */
    const std::vector<Connection> &connectionList() const
    {
        return connections;
    }

  private:
    friend class Component;   // sets ownerComp and slotIdx at registration
    friend struct ElabPasses; // installs the packed edge span

    std::string portName;
    EventQueue *eq = nullptr;
    std::vector<Connection> connections;
    /**
     * Packed edge span inside the owning netlist's contiguous edge
     * array, installed by Netlist::elaborate().  Null before
     * elaboration (emit() then walks the build-phase vector).
     */
    const Connection *edges = nullptr;
    std::uint32_t edgeCount = 0;
    std::uint32_t slotIdx = 0;
    std::uint64_t emitted = 0;
    Component *ownerComp = nullptr;
    bool fanoutOk = false;
    std::string waiver;
};

} // namespace usfq

#endif // USFQ_SIM_PORT_HH
