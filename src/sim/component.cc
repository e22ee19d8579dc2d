#include "sim/component.hh"

#include "sim/netlist.hh"
#include "sim/port.hh"

namespace usfq
{

Component::Component(Netlist &netlist, std::string name)
    : owner(netlist), instName(std::move(name))
{
    node = owner.registerComponent(*this);
}

Component::~Component()
{
    owner.unregisterComponent(node);
}

EventQueue &
Component::queue()
{
    return owner.queue();
}

void
Component::recordSwitches(int n)
{
    switchCount += static_cast<std::uint64_t>(n);
    owner.addSwitches(static_cast<std::uint64_t>(n));
}

void
Component::addPort(InputPort &port)
{
    port.ownerComp = this;
    port.slotIdx = static_cast<std::uint32_t>(ins.size());
    ins.push_back(&port);
}

void
Component::addPort(OutputPort &port)
{
    port.ownerComp = this;
    port.slotIdx = static_cast<std::uint32_t>(outs.size());
    outs.push_back(&port);
}

TimingModel
Component::timingModel() const
{
    // Behavioral fallback: every input may trigger every output after
    // exactly minInternalDelay().  Registered, so unmodelled feedback
    // is cut silently instead of reported as a combinational loop.
    TimingModel m;
    m.registered = true;
    const Tick d = minInternalDelay();
    for (std::size_t i = 0; i < ins.size(); ++i)
        for (std::size_t o = 0; o < outs.size(); ++o)
            m.arcs.push_back({static_cast<std::uint8_t>(i),
                              static_cast<std::uint8_t>(o), d, d, 1});
    return m;
}

void
Component::declareAlias(InputPort &outer, InputPort &inner)
{
    aliases.push_back({&outer, &inner});
}

void
Component::addAlias(InputPort &outer, InputPort &inner)
{
    declareAlias(outer, inner);
    // One shared handler per outer port: forward to every aliased inner
    // port in declaration order.  Re-installing it on repeat addAlias()
    // calls for the same outer port is idempotent.
    InputPort *const key = &outer;
    outer.setHandler([this, key](Tick t) {
        for (const PortAlias &a : aliases)
            if (a.outer == key)
                a.inner->receive(t);
    });
}

} // namespace usfq
