#include "sim/netlist.hh"

#include <algorithm>

#include "obs/phase.hh"
#include "util/logging.hh"

namespace usfq
{

Netlist::Netlist(std::string name)
    : netName(std::move(name)), buildStartUs(obs::wallClockUs())
{
    hier.push_back(HierNode{netName, nullptr, -1, true, {}});
    buildStack.push_back(0);
}

std::vector<Component *>
Netlist::graphComponents() const
{
    std::vector<Component *> comps;
    for (const auto &node : hier)
        if (node.comp)
            comps.push_back(node.comp);
    return comps;
}

int
Netlist::totalJJs() const
{
    int total = 0;
    for (const auto &c : components)
        total += c->jjCount();
    return total;
}

void
Netlist::resetAll()
{
    eq.reset();
    for (auto &c : components)
        c->reset();
    switchEvents = 0;
}

int
Netlist::registerComponent(Component &c)
{
    if (frozen)
        panic("Netlist %s: component %s created after elaborate() -- "
              "the netlist is frozen",
              netName.c_str(), c.name().c_str());
    // Derive the parent from the construction sequence: pop
    // name-derived stack entries until the top's dotted name prefixes
    // the new component's ("dpu.m3" goes under "dpu").  Pinned entries
    // (the root, explicit scopes) stop the popping.
    while (buildStack.size() > 1) {
        const HierNode &top = hier[static_cast<std::size_t>(
            buildStack.back())];
        if (top.pinned)
            break;
        const std::string &tn = top.name;
        if (c.name().size() > tn.size() + 1 &&
            c.name().compare(0, tn.size(), tn) == 0 &&
            c.name()[tn.size()] == '.')
            break;
        buildStack.pop_back();
    }
    const int parent = buildStack.back();
    const int id = static_cast<int>(hier.size());
    hier.push_back(HierNode{c.name(), &c, parent, false, {}});
    hier[static_cast<std::size_t>(parent)].children.push_back(id);
    buildStack.push_back(id);
    return id;
}

void
Netlist::unregisterComponent(int node_id)
{
    if (node_id >= 0 && node_id < static_cast<int>(hier.size()))
        hier[static_cast<std::size_t>(node_id)].comp = nullptr;
}

Netlist::Scope
Netlist::scope(std::string label)
{
    // Same stack discipline as registerComponent: a new scope label
    // that a name-derived entry does not prefix closes that entry, so
    // scope("grp") after create("src") groups at the current explicit
    // level instead of nesting under "src".
    while (buildStack.size() > 1) {
        const HierNode &top = hier[static_cast<std::size_t>(
            buildStack.back())];
        if (top.pinned)
            break;
        const std::string &tn = top.name;
        if (label.size() > tn.size() + 1 &&
            label.compare(0, tn.size(), tn) == 0 &&
            label[tn.size()] == '.')
            break;
        buildStack.pop_back();
    }
    const int parent = buildStack.back();
    const int id = static_cast<int>(hier.size());
    hier.push_back(HierNode{std::move(label), nullptr, parent, true, {}});
    hier[static_cast<std::size_t>(parent)].children.push_back(id);
    buildStack.push_back(id);
    return Scope(this, id);
}

Netlist::Scope::~Scope()
{
    if (!nl)
        return;
    auto &stack = nl->buildStack;
    const auto it = std::find(stack.begin(), stack.end(), node);
    if (it != stack.end())
        stack.erase(it, stack.end());
}

void
Netlist::waive(LintRule rule, std::string reason)
{
    if (reason.empty())
        fatal("Netlist %s: a lint waiver needs a documented reason",
              netName.c_str());
    blanketWaivers[rule] = std::move(reason);
}

std::uint64_t
Netlist::run(Tick until)
{
    elaborate();
    obs::ScopedPhase timer(obs::Phase::Run);
    return eq.run(until);
}

bool
Netlist::subtreeLive(int node_id) const
{
    const HierNode &n = hier[static_cast<std::size_t>(node_id)];
    if (n.comp)
        return true;
    for (int child : n.children)
        if (subtreeLive(child))
            return true;
    return false;
}

void
Netlist::buildReportNode(int node_id, HierReport::Node &out) const
{
    const HierNode &n = hier[static_cast<std::size_t>(node_id)];
    out.name = n.name;
    if (n.comp) {
        out.jj = n.comp->jjCount();
        out.switches = n.comp->localSwitches();
        out.lost = n.comp->lostPulses();
        for (const InputPort *p : n.comp->inputPorts())
            out.inPulses += p->pulseCount();
        for (const OutputPort *p : n.comp->outputPorts())
            out.outPulses += p->pulseCount();
        if (n.comp->hasStaSlack()) {
            out.worstSlack = n.comp->staSlack();
            out.hasSlack = true;
        }
    }
    for (int child : n.children) {
        // Skip dead subtrees (destroyed components with no live heirs).
        if (!subtreeLive(child))
            continue;
        out.children.emplace_back();
        buildReportNode(child, out.children.back());
        const HierReport::Node &built = out.children.back();
        out.jjChildren += built.jj;
        out.switches += built.switches;
        out.inPulses += built.inPulses;
        out.outPulses += built.outPulses;
        out.lost += built.lost;
        if (built.hasSlack &&
            (!out.hasSlack || built.worstSlack < out.worstSlack)) {
            out.worstSlack = built.worstSlack;
            out.hasSlack = true;
        }
    }
    // Scope/root nodes carry no JJs of their own: inherit the child sum.
    if (!n.comp)
        out.jj = out.jjChildren;
}

HierReport
Netlist::report() const
{
    HierReport rpt;
    buildReportNode(0, rpt.root);
    return rpt;
}

int
Netlist::inclusiveJJs(int node_id) const
{
    const HierNode &n = hier[static_cast<std::size_t>(node_id)];
    if (n.comp)
        return n.comp->jjCount();
    int total = 0;
    for (int child : n.children)
        total += inclusiveJJs(child);
    return total;
}

void
Netlist::exportStatsNode(obs::StatsRegistry &reg, int node_id,
                         const std::string &path) const
{
    const HierNode &n = hier[static_cast<std::size_t>(node_id)];
    if (n.comp) {
        const Component &c = *n.comp;
        // jjCount() is inclusive of a composite's member cells, which
        // have hier nodes of their own; export the exclusive share
        // (glue JJs) so subtree sums over the registry reproduce the
        // inclusive total exactly once.
        int childJJ = 0;
        for (int child : n.children)
            childJJ += inclusiveJJs(child);
        reg.counter(path + "/jj").set(static_cast<std::uint64_t>(
            c.jjCount() > childJJ ? c.jjCount() - childJJ : 0));
        reg.counter(path + "/switches").set(c.localSwitches());
        reg.counter(path + "/lost_pulses").set(c.lostPulses());
        std::uint64_t in = 0, out = 0;
        for (const InputPort *p : c.inputPorts())
            in += p->pulseCount();
        for (const OutputPort *p : c.outputPorts())
            out += p->pulseCount();
        reg.counter(path + "/in_pulses").set(in);
        reg.counter(path + "/out_pulses").set(out);
    }
    for (int child : n.children) {
        if (!subtreeLive(child))
            continue;
        const HierNode &cn = hier[static_cast<std::size_t>(child)];
        exportStatsNode(reg, child, path + "/" + cn.name);
    }
}

void
Netlist::exportStats(obs::StatsRegistry &reg) const
{
    exportStatsNode(reg, 0, netName);
    eq.exportStats(reg, netName + "/kernel");
}

} // namespace usfq
