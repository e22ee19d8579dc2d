/**
 * @file
 * Phase-2 elaboration: the structural lint passes, the hot-path edge
 * packing, and the hierarchical report printer (docs/elaboration.md).
 */

#include "sim/elaborate.hh"

#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string_view>

#include "obs/phase.hh"
#include "sim/netlist.hh"
#include "util/logging.hh"

namespace usfq
{

const char *
lintRuleName(LintRule rule)
{
    switch (rule) {
      case LintRule::DanglingInput:
        return "dangling-input";
      case LintRule::OpenOutput:
        return "open-output";
      case LintRule::UnboundOutput:
        return "unbound-output";
      case LintRule::IllegalFanout:
        return "illegal-fanout";
      case LintRule::ZeroDelayCycle:
        return "zero-delay-cycle";
      case LintRule::SetupHoldViolation:
        return "setup-hold";
      case LintRule::CollisionRisk:
        return "collision-risk";
      case LintRule::RateViolation:
        return "rate-violation";
      case LintRule::CombinationalLoop:
        return "combinational-loop";
    }
    return "unknown";
}

/**
 * Implementation of the elaboration passes; a friend of Netlist so the
 * graph walk and the edge packing stay out of the public header.
 */
struct ElabPasses
{
    /** Live registered components, in registration (hier) order. */
    static std::vector<Component *>
    liveComponents(const Netlist &nl)
    {
        return nl.graphComponents();
    }

    /**
     * Append a finding, applying the port-level waiver reason (if any)
     * or the netlist-level blanket waiver for the rule.
     */
    static void
    addFinding(const Netlist &nl, std::vector<LintFinding> &out,
               LintRule rule, std::string subject, std::string component,
               std::string message, const std::string &portWaiver)
    {
        LintFinding f;
        f.rule = rule;
        f.subject = std::move(subject);
        f.component = std::move(component);
        f.message = std::move(message);
        if (!portWaiver.empty()) {
            f.waived = true;
            f.waiverReason = portWaiver;
        } else {
            const auto it = nl.blanketWaivers.find(rule);
            if (it != nl.blanketWaivers.end()) {
                f.waived = true;
                f.waiverReason = it->second;
            }
        }
        out.push_back(std::move(f));
    }

    /**
     * "<kind> port <port> of <component><tail>": the lint messages are
     * built by appending (most of them are waived findings that every
     * elaboration formats).
     */
    static std::string
    portMessage(std::string_view kind, const std::string &port,
                const std::string &component, std::string_view tail)
    {
        std::string msg;
        msg.reserve(kind.size() + port.size() + component.size() +
                    tail.size() + 10);
        msg += kind;
        msg += " port ";
        msg += port;
        msg += " of ";
        msg += component;
        msg += tail;
        return msg;
    }

    static void
    lintPorts(const Netlist &nl, const std::vector<Component *> &comps,
              std::vector<LintFinding> &out)
    {
        static const std::string kNoWaiver;
        for (Component *comp : comps) {
            for (const InputPort *in : comp->inputPorts()) {
                // Observer ports are measurement probes, not structure.
                if (in->driverCount() == 0 && !in->isObserver()) {
                    addFinding(nl, out, LintRule::DanglingInput,
                               in->name(), comp->name(),
                               portMessage("input", in->name(),
                                           comp->name(),
                                           " has no driver -- likely a "
                                           "missed connect()"),
                               in->optionalReason());
                }
            }
            for (const OutputPort *outp : comp->outputPorts()) {
                if (!outp->bound()) {
                    addFinding(nl, out, LintRule::UnboundOutput,
                               outp->name(), comp->name(),
                               portMessage("output", outp->name(),
                                           comp->name(),
                                           " has no event queue bound "
                                           "-- emit() would be fatal "
                                           "(two-phase-construction "
                                           "hazard)"),
                               outp->openReason());
                } else if (outp->connectionList().empty()) {
                    addFinding(nl, out, LintRule::OpenOutput,
                               outp->name(), comp->name(),
                               portMessage("output", outp->name(),
                                           comp->name(),
                                           " drives nothing -- its "
                                           "pulses are silently "
                                           "discarded"),
                               outp->openReason());
                }
                // SFQ fan-out discipline: one pulse drives one load;
                // wider fan-out needs a splitter tree.  Observer
                // destinations (traces) do not load the wire.
                std::size_t loads = 0;
                for (const auto &c : outp->connectionList())
                    loads += c.dst->isObserver() ? 0 : 1;
                if (loads > 1 && !outp->isFanoutOk()) {
                    addFinding(nl, out, LintRule::IllegalFanout,
                               outp->name(), comp->name(),
                               portMessage("output", outp->name(),
                                           comp->name(),
                                           " drives " +
                                               std::to_string(loads) +
                                               " loads; SFQ pulses fan "
                                               "out through Splitter "
                                               "trees, not shared "
                                               "wires"),
                               kNoWaiver);
                }
            }
        }
    }

    /**
     * Zero-delay-cycle detection on the component graph.  Edge weight =
     * wire delay + destination cell's minInternalDelay(); with all
     * weights non-negative, a zero-total-weight cycle exists iff the
     * subgraph of zero-weight edges has a cycle, which a DFS finds.
     */
    static void
    lintZeroDelayCycles(const Netlist &nl,
                        const std::vector<Component *> &comps,
                        std::vector<LintFinding> &out)
    {
        // Dense node ids double as the index map: comps[i]->nodeId()
        // indexes the netlist's hier array, so a flat vector beats a
        // pointer-keyed map (elaboration runs once per netlist but
        // sweeps build thousands of netlists).
        std::vector<std::int32_t> indexOfNode(nl.hier.size(), -1);
        for (std::size_t i = 0; i < comps.size(); ++i)
            indexOfNode[static_cast<std::size_t>(comps[i]->nodeId())] =
                static_cast<std::int32_t>(i);

        std::vector<std::vector<std::size_t>> zeroAdj(comps.size());
        for (std::size_t i = 0; i < comps.size(); ++i) {
            for (const OutputPort *outp : comps[i]->outputPorts()) {
                for (const auto &c : outp->connectionList()) {
                    const Component *dst = c.dst->owner();
                    if (!dst || &dst->netlist() != &nl)
                        continue; // probe port or foreign netlist
                    if (c.delay + dst->minInternalDelay() != 0)
                        continue;
                    const auto di = indexOfNode[static_cast<std::size_t>(
                        dst->nodeId())];
                    if (di >= 0)
                        zeroAdj[i].push_back(
                            static_cast<std::size_t>(di));
                }
            }
        }

        // Iterative DFS with tri-colour marking; report one cycle per
        // back edge found from a fresh root.  Stack of (node,
        // next-child-index); path mirrors the grey chain so a back edge
        // can be reported as a named cycle.  Both are allocated once
        // and cleared per root (a root that reports a cycle leaves them
        // non-empty).
        enum class Colour : std::uint8_t { White, Grey, Black };
        std::vector<Colour> colour(comps.size(), Colour::White);
        std::vector<std::pair<std::size_t, std::size_t>> stack;
        std::vector<std::size_t> path;
        for (std::size_t root = 0; root < comps.size(); ++root) {
            if (colour[root] != Colour::White)
                continue;
            stack.clear();
            path.clear();
            stack.emplace_back(root, 0);
            colour[root] = Colour::Grey;
            path.push_back(root);
            bool reported = false;
            while (!stack.empty() && !reported) {
                auto &[node, next] = stack.back();
                if (next < zeroAdj[node].size()) {
                    const std::size_t child = zeroAdj[node][next++];
                    if (colour[child] == Colour::Grey) {
                        // Back edge: the grey chain from `child` to
                        // `node` is a zero-weight cycle.
                        std::string names;
                        bool in_cycle = false;
                        for (std::size_t p : path) {
                            if (p == child)
                                in_cycle = true;
                            if (!in_cycle)
                                continue;
                            if (!names.empty())
                                names += " -> ";
                            names += comps[p]->name();
                        }
                        names += " -> " + comps[child]->name();
                        static const std::string kNoWaiver;
                        addFinding(nl, out, LintRule::ZeroDelayCycle,
                                   names, comps[child]->name(),
                                   "zero-delay feedback loop (" + names +
                                       ") -- the event kernel would "
                                       "livelock at one tick",
                                   kNoWaiver);
                        reported = true;
                    } else if (colour[child] == Colour::White) {
                        colour[child] = Colour::Grey;
                        stack.emplace_back(child, 0);
                        path.push_back(child);
                    }
                } else {
                    colour[node] = Colour::Black;
                    stack.pop_back();
                    path.pop_back();
                }
            }
            // Anything left grey after an early cycle report is settled
            // enough for lint purposes; mark it black so later roots do
            // not re-report the same loop.
            if (reported)
                for (auto &c : colour)
                    if (c == Colour::Grey)
                        c = Colour::Black;
        }
    }

    static std::vector<LintFinding>
    runLint(const Netlist &nl)
    {
        std::vector<LintFinding> findings;
        const auto comps = liveComponents(nl);
        lintPorts(nl, comps, findings);
        lintZeroDelayCycles(nl, comps, findings);
        return findings;
    }

    /**
     * Pack every registered output port's connection vector into the
     * netlist's contiguous edge array and install the (pointer, count)
     * spans.  Registration order; per-port connection order preserved,
     * so delivery order (and the golden traces) are bit-identical.
     */
    static void
    pack(Netlist &nl)
    {
        const auto comps = liveComponents(nl);
        std::size_t total = 0;
        for (Component *comp : comps)
            for (const OutputPort *outp : comp->outputPorts())
                total += outp->connectionList().size();

        nl.edgeStore.clear();
        nl.edgeStore.reserve(total); // exact: spans must not reallocate
        for (Component *comp : comps) {
            for (OutputPort *outp : comp->outputPorts()) {
                const auto &conns = outp->connections;
                const std::size_t begin = nl.edgeStore.size();
                nl.edgeStore.insert(nl.edgeStore.end(), conns.begin(),
                                    conns.end());
                outp->edges = nl.edgeStore.data() + begin;
                outp->edgeCount =
                    static_cast<std::uint32_t>(conns.size());
            }
        }

        nl.elabReport.numComponents = comps.size();
        nl.elabReport.numEdges = total;
        std::size_t ports = 0;
        for (Component *comp : comps)
            ports += comp->inputPorts().size() +
                     comp->outputPorts().size();
        nl.elabReport.numPorts = ports;
    }
};

std::vector<LintFinding>
Netlist::lint() const
{
    return ElabPasses::runLint(*this);
}

const ElabReport &
Netlist::elaborate()
{
    if (frozen)
        return elabReport;

    // Close the "build" phase: everything between construction and the
    // first elaborate() is netlist-building time.
    obs::recordPhase(obs::Phase::Build, buildStartUs,
                     obs::wallClockUs() - buildStartUs);
    obs::ScopedPhase timer(obs::Phase::Elaborate);

    elabReport.findings = ElabPasses::runLint(*this);
    if (const std::size_t errs = elabReport.errors(); errs > 0) {
        for (const auto &f : elabReport.findings) {
            if (f.waived)
                continue;
            std::fprintf(stderr, "lint [%s] %s: %s\n",
                         lintRuleName(f.rule), f.component.c_str(),
                         f.message.c_str());
        }
        fatal("Netlist %s: elaboration failed with %zu structural lint "
              "error(s); fix the wiring or add documented waivers "
              "(docs/elaboration.md)",
              netName.c_str(), errs);
    }

    ElabPasses::pack(*this);
    frozen = true;
    return elabReport;
}

void
HierReport::print(std::ostream &os, int max_depth) const
{
    // The slack column only appears once an STA run has annotated the
    // tree, so pre-STA report output is unchanged.
    const bool slack = root.hasSlack;

    // Columns size themselves to their widest cell (fabric-scale
    // rollups overflow any fixed layout: hundreds of tiles push both
    // the indented labels and the pulse totals past single-tile
    // widths).  The measuring pass mirrors the printing pass exactly.
    enum
    {
        kJj,
        kChildJj,
        kSwitches,
        kIn,
        kOut,
        kLost,
        kSlack,
        kCols
    };
    static const char *const kHeaders[kCols] = {
        "JJ",       "childJJ",   "switches", "inPulses",
        "outPulses", "lost",     "slack(ps)"};
    const auto slackText = [](const Node &n) -> std::string {
        if (!n.hasSlack)
            return "-";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1f",
                      ticksToPs(n.worstSlack));
        return buf;
    };
    const auto cellText = [&](const Node &n, int col) -> std::string {
        switch (col) {
        case kJj:
            return std::to_string(n.jj);
        case kChildJj:
            return std::to_string(n.jjChildren);
        case kSwitches:
            return std::to_string(n.switches);
        case kIn:
            return std::to_string(n.inPulses);
        case kOut:
            return std::to_string(n.outPulses);
        case kLost:
            return std::to_string(n.lost);
        default:
            return slackText(n);
        }
    };

    std::size_t labelWidth = std::string("block").size();
    std::size_t width[kCols];
    for (int c = 0; c < kCols; ++c)
        width[c] = std::string(kHeaders[c]).size();

    struct Measure
    {
        int max_depth;
        std::size_t &labelWidth;
        std::size_t *width;
        const decltype(cellText) &cell;

        void
        visit(const Node &n, int depth)
        {
            if (max_depth >= 0 && depth > max_depth)
                return;
            labelWidth =
                std::max(labelWidth, static_cast<std::size_t>(depth) *
                                             2 +
                                         n.name.size());
            for (int c = 0; c < kCols; ++c)
                width[c] = std::max(width[c], cell(n, c).size());
            for (const auto &child : n.children)
                visit(child, depth + 1);
        }
    };
    Measure{max_depth, labelWidth, width, cellText}.visit(root, 0);

    const int lastCol = slack ? kCols : kCols - 1;
    os << std::left << std::setw(static_cast<int>(labelWidth))
       << "block" << std::right;
    for (int c = 0; c < lastCol; ++c)
        os << std::setw(static_cast<int>(width[c]) + 2) << kHeaders[c];
    os << "\n";

    struct Printer
    {
        std::ostream &os;
        int max_depth;
        int lastCol;
        std::size_t labelWidth;
        const std::size_t *width;
        const decltype(cellText) &cell;

        void
        visit(const Node &n, int depth)
        {
            if (max_depth >= 0 && depth > max_depth)
                return;
            std::string label(static_cast<std::size_t>(depth) * 2, ' ');
            label += n.name;
            os << std::left << std::setw(static_cast<int>(labelWidth))
               << label << std::right;
            for (int c = 0; c < lastCol; ++c)
                os << std::setw(static_cast<int>(width[c]) + 2)
                   << cell(n, c);
            os << "\n";
            for (const auto &child : n.children)
                visit(child, depth + 1);
        }
    };
    Printer{os, max_depth, lastCol, labelWidth, width, cellText}.visit(
        root, 0);
}

} // namespace usfq
