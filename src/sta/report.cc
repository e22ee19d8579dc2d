/**
 * @file
 * StaReport query and printing helpers: per-port window/floor lookup,
 * the findings table, the hierarchical critical-path listing and the
 * one-paragraph summary (docs/sta.md).
 */

#include <charconv>
#include <cstdio>
#include <ostream>

#include "sim/component.hh"
#include "sim/port.hh"
#include "sta/graph.hh"
#include "sta/sta.hh"
#include "util/types.hh"

namespace usfq
{

namespace
{

using sta_detail::fmtPs;

/**
 * First node of @p owner's ports, or UINT32_MAX when @p owner is null
 * (a free-standing port) or no component of the analysed netlist.
 */
std::uint32_t
firstNodeOf(const StaPortNodes &nodes, const Component *owner)
{
    if (owner == nullptr || &owner->netlist() != nodes.netlist)
        return UINT32_MAX;
    const auto id = static_cast<std::size_t>(owner->nodeId());
    return id < nodes.first.size() ? nodes.first[id] : UINT32_MAX;
}

} // namespace

namespace sta_detail
{

std::string
fmtPs(Tick t)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, ticksToPs(t),
                                   std::chars_format::fixed, 1);
    return std::string(buf, res.ptr);
}

} // namespace sta_detail

std::uint32_t
StaPortNodes::of(const InputPort &port) const
{
    const std::uint32_t base = firstNodeOf(*this, port.owner());
    return base == UINT32_MAX ? UINT32_MAX : base + port.slot();
}

std::uint32_t
StaPortNodes::of(const OutputPort &port) const
{
    const Component *owner = port.owner();
    const std::uint32_t base = firstNodeOf(*this, owner);
    if (base == UINT32_MAX)
        return UINT32_MAX;
    return base + static_cast<std::uint32_t>(owner->inputPorts().size()) +
           port.slot();
}

std::size_t
StaReport::errors() const
{
    std::size_t n = 0;
    for (const LintFinding &f : findings)
        n += f.waived ? 0 : 1;
    return n;
}

double
StaReport::maxStreamRateHz() const
{
    if (requiredStreamSpacing <= 0)
        return 0.0;
    return 1.0 / ticksToSeconds(requiredStreamSpacing);
}

ArrivalWindow
StaReport::windowOf(const InputPort &port) const
{
    const std::uint32_t v = portNodes.of(port);
    return v == UINT32_MAX ? ArrivalWindow{} : nodeWindows[v];
}

ArrivalWindow
StaReport::windowOf(const OutputPort &port) const
{
    const std::uint32_t v = portNodes.of(port);
    return v == UINT32_MAX ? ArrivalWindow{} : nodeWindows[v];
}

Tick
StaReport::separationFloor(const InputPort &port) const
{
    const std::uint32_t v = portNodes.of(port);
    return v == UINT32_MAX ? 0 : nodeFloors[v];
}

Tick
StaReport::separationFloor(const OutputPort &port) const
{
    const std::uint32_t v = portNodes.of(port);
    return v == UINT32_MAX ? 0 : nodeFloors[v];
}

void
StaReport::printFindings(std::ostream &os) const
{
    if (findings.empty()) {
        os << "sta: no timing findings\n";
        return;
    }
    for (const LintFinding &f : findings) {
        os << "sta: [" << lintRuleName(f.rule) << "] " << f.component
           << ": " << f.message;
        if (f.waived)
            os << " (waived: " << f.waiverReason << ")";
        os << "\n";
    }
}

void
StaReport::printCriticalPath(std::ostream &os) const
{
    if (!criticalPath.valid) {
        os << "sta: no reachable path (no anchors?)\n";
        return;
    }
    os << "critical path: " << fmtPs(criticalPath.length) << " ps, "
       << criticalPath.hops.size() << " hops\n";
    os << "  launch  " << criticalPath.startpoint << "\n";
    for (const StaHop &hop : criticalPath.hops) {
        char line[64];
        std::snprintf(line, sizeof line, "  +%7s ps  %-5s -> ",
                      fmtPs(hop.maxDelay).c_str(), hop.kind);
        os << line << hop.to << "  @ " << fmtPs(hop.at) << " ps\n";
    }
}

void
StaReport::printSummary(std::ostream &os) const
{
    os << "sta: " << numPorts << " ports, " << numEdges << " edges ("
       << numCutEdges << " cut), " << numAnchors << " anchors\n";
    if (hasWorstSlack)
        os << "sta: worst slack " << fmtPs(worstSlack) << " ps\n";
    if (requiredStreamSpacing > 0) {
        char rate[32];
        std::snprintf(rate, sizeof rate, "%.1f",
                      maxStreamRateHz() * 1e-9);
        os << "sta: max lossless stream rate " << rate << " GHz (min "
           << "spacing " << fmtPs(requiredStreamSpacing) << " ps)\n";
    }
    os << "sta: " << findings.size() << " findings, " << errors()
       << " unwaived\n";
}

} // namespace usfq
