#include "gen/datapath.hh"

#include "sim/trace.hh"
#include "util/logging.hh"

namespace usfq::gen
{

namespace
{

/** Fold @p fs more delay into a (unit JTLs, trim) slot pair. */
void
addSlot(int &n, Tick &trim, Tick fs)
{
    if (fs <= 0)
        return;
    const Tick total =
        static_cast<Tick>(n) * cell::kJtlDelay + trim + fs;
    n = static_cast<int>(total / cell::kJtlDelay);
    trim = total % cell::kJtlDelay;
}

Tick
slotDelay(int n, Tick trim)
{
    return static_cast<Tick>(n) * cell::kJtlDelay + trim;
}

int
slotJJs(int n, Tick trim)
{
    return (n + (trim > 0 ? 1 : 0)) * cell::kJtlJJs;
}

} // namespace

// --- LanePad / PaddingPlan -------------------------------------------------

void
LanePad::addPre(Tick fs)
{
    addSlot(pre, preTrim, fs);
}

void
LanePad::addTap(Tick fs)
{
    addSlot(tap, tapTrim, fs);
}

void
LanePad::addPost(Tick fs)
{
    addSlot(post, postTrim, fs);
}

Tick
LanePad::preDelay() const
{
    return slotDelay(pre, preTrim);
}

Tick
LanePad::tapDelay() const
{
    return slotDelay(tap, tapTrim);
}

Tick
LanePad::postDelay() const
{
    return slotDelay(post, postTrim);
}

int
LanePad::jjs() const
{
    return slotJJs(pre, preTrim) + slotJJs(tap, tapTrim) +
           slotJJs(post, postTrim);
}

int
PaddingPlan::insertedJJ() const
{
    int total = 0;
    for (const LanePad &lane : lanes)
        total += lane.jjs();
    return total;
}

bool
PaddingPlan::empty() const
{
    for (const LanePad &lane : lanes)
        if (lane != LanePad{})
            return false;
    return true;
}

// --- CheapCountingTree -----------------------------------------------------

CheapCountingTree::CheapCountingTree(Netlist &nl, const std::string &name,
                                     int num_inputs)
    : Component(nl, name), fanIn(num_inputs)
{
    if (num_inputs < 2 || (num_inputs & (num_inputs - 1)) != 0)
        fatal("CheapCountingTree: fan-in %d must be a power of two >= 2",
              num_inputs);

    std::vector<MergerTff2Balancer *> level;
    for (int i = 0; i < num_inputs / 2; ++i) {
        nodes.push_back(std::make_unique<MergerTff2Balancer>(
            nl, name + ".t0_" + std::to_string(i)));
        MergerTff2Balancer *b = nodes.back().get();
        leafPorts.push_back(&b->inA());
        leafPorts.push_back(&b->inB());
        level.push_back(b);
    }
    int depth = 1;
    while (level.size() > 1) {
        std::vector<MergerTff2Balancer *> next;
        for (std::size_t i = 0; i < level.size(); i += 2) {
            nodes.push_back(std::make_unique<MergerTff2Balancer>(
                nl, name + ".t" + std::to_string(depth) + "_" +
                        std::to_string(i / 2)));
            MergerTff2Balancer *parent = nodes.back().get();
            level[i]->y1().connect(parent->inA());
            level[i + 1]->y1().connect(parent->inB());
            next.push_back(parent);
        }
        level = std::move(next);
        ++depth;
    }
    // Like the balancer tree (Fig. 6d): only q1 chains level to level,
    // q2 carries the complementary half-count and terminates.
    for (auto &b : nodes)
        b->y2().markOpen("cheap counting-tree q2 terminator: only q1 "
                         "chains to the next level (docs/synthesis.md)");
}

InputPort &
CheapCountingTree::in(int i)
{
    if (i < 0 || i >= fanIn)
        panic("CheapCountingTree %s: input %d out of range",
              name().c_str(), i);
    return *leafPorts[static_cast<std::size_t>(i)];
}

OutputPort &
CheapCountingTree::out()
{
    return nodes.back()->y1();
}

int
CheapCountingTree::jjCount() const
{
    int total = 0;
    for (const auto &b : nodes)
        total += b->jjCount();
    return total;
}

void
CheapCountingTree::reset()
{
    for (auto &b : nodes)
        b->reset();
}

std::uint64_t
CheapCountingTree::collisions() const
{
    std::uint64_t total = 0;
    for (const auto &b : nodes)
        total += b->collisions();
    return total;
}

// --- StreamDatapath --------------------------------------------------------

StreamDatapath::StreamDatapath(Netlist &nl, const std::string &name,
                               const DesignSpec &spec,
                               const PaddingPlan &plan)
    : Component(nl, name), sp(spec), pads(plan)
{
    std::string err;
    if (!sp.validate(&err))
        panic("StreamDatapath %s: %s", this->name().c_str(), err.c_str());
    pads.lanes.resize(static_cast<std::size_t>(sp.lanes));

    const bool capture = hasCapture();
    const int leaves = sp.lanes * (capture ? 2 : 1);

    clock = std::make_unique<ClockSource>(nl, this->name() + ".clk");

    switch (sp.tree) {
    case TreeKind::Balancer:
        balancerTree = std::make_unique<TreeCountingNetwork>(
            nl, this->name() + ".tree", sp.lanes);
        break;
    case TreeKind::Merger:
        mergerTree = std::make_unique<MergerTreeAdder>(
            nl, this->name() + ".tree", sp.lanes);
        break;
    case TreeKind::Tff2:
        cheapTree = std::make_unique<CheapCountingTree>(
            nl, this->name() + ".tree", sp.lanes);
        break;
    }
    out().markOpen("generated design output: harnesses attach a "
                   "PulseTrace observer (docs/synthesis.md)");

    // Balanced binary splitter fan-out of the clock over all leaves
    // (`leaves` is a power of two, so every leaf sits at equal depth
    // and the fan-out tree adds zero intrinsic skew).
    std::vector<OutputPort *> level{&clock->out};
    int splIdx = 0;
    while (static_cast<int>(level.size()) < leaves) {
        std::vector<OutputPort *> next;
        for (OutputPort *src : level) {
            fanout.push_back(std::make_unique<Splitter>(
                nl, this->name() + ".s" + std::to_string(splIdx++)));
            Splitter *s = fanout.back().get();
            src->connect(s->in);
            next.push_back(&s->out1);
            next.push_back(&s->out2);
        }
        level = std::move(next);
    }

    captureD.assign(static_cast<std::size_t>(sp.lanes), nullptr);
    captureC.assign(static_cast<std::size_t>(sp.lanes), nullptr);

    for (int i = 0; i < sp.lanes; ++i) {
        const std::string lane =
            this->name() + ".l" + std::to_string(i);
        const LanePad &pad = pads.lanes[static_cast<std::size_t>(i)];
        OutputPort *src =
            level[static_cast<std::size_t>(capture ? 2 * i : i)];

        const int divs = sp.dividersOf(i);
        for (int k = 0; k < divs; ++k) {
            dividers.push_back(std::make_unique<Tff>(
                nl, lane + ".div" + std::to_string(k)));
            Tff *t = dividers.back().get();
            src->connect(t->in);
            src = &t->out;
        }

        const int skew = sp.skewJtlsOf(i);
        for (int k = 0; k < skew; ++k) {
            jtls.push_back(std::make_unique<Jtl>(
                nl, lane + ".skew" + std::to_string(k)));
            Jtl *j = jtls.back().get();
            src->connect(j->in);
            src = &j->out;
        }

        gates.push_back(
            std::make_unique<Ndro>(nl, lane + ".gate"));
        Ndro *g = gates.back().get();
        src->connect(g->clk);
        g->s.markOptional("gate state is preset per epoch "
                          "(programEpoch), never pulsed");
        g->r.markOptional("gate state is preset per epoch "
                          "(programEpoch), never pulsed");
        src = &g->q;

        src = padChain(src, pad.pre, pad.preTrim, lane + ".pre");

        if (capture) {
            OutputPort *tap =
                level[static_cast<std::size_t>(2 * i + 1)];
            tap = padChain(tap, pad.tap, pad.tapTrim, lane + ".tap");
            if (sp.encoding == StreamEncoding::Bipolar) {
                inverters.push_back(
                    std::make_unique<Inverter>(nl, lane + ".inv"));
                Inverter *inv = inverters.back().get();
                src->connect(inv->d);
                tap->connect(inv->clk);
                captureD[static_cast<std::size_t>(i)] = &inv->d;
                captureC[static_cast<std::size_t>(i)] = &inv->clk;
                src = &inv->q;
            } else {
                regs.push_back(
                    std::make_unique<Dff>(nl, lane + ".reg"));
                Dff *reg = regs.back().get();
                src->connect(reg->d);
                tap->connect(reg->clk);
                captureD[static_cast<std::size_t>(i)] = &reg->d;
                captureC[static_cast<std::size_t>(i)] = &reg->clk;
                src = &reg->q;
            }
        }

        src = padChain(src, pad.post, pad.postTrim, lane + ".post");
        src->connect(treeIn(i));
    }
}

OutputPort *
StreamDatapath::padChain(OutputPort *src, int count, Tick trim,
                         const std::string &prefix)
{
    for (int k = 0; k < count; ++k) {
        jtls.push_back(std::make_unique<Jtl>(
            netlist(), prefix + std::to_string(k)));
        Jtl *j = jtls.back().get();
        src->connect(j->in);
        src = &j->out;
    }
    if (trim > 0) {
        jtls.push_back(std::make_unique<Jtl>(
            netlist(), prefix + "t", trim));
        Jtl *j = jtls.back().get();
        src->connect(j->in);
        src = &j->out;
    }
    return src;
}

OutputPort &
StreamDatapath::out()
{
    if (balancerTree)
        return balancerTree->out();
    if (mergerTree)
        return mergerTree->out();
    return cheapTree->out();
}

InputPort &
StreamDatapath::treeIn(int lane)
{
    if (balancerTree)
        return balancerTree->in(lane);
    if (mergerTree)
        return mergerTree->in(lane);
    return cheapTree->in(lane);
}

bool
StreamDatapath::hasCapture() const
{
    return sp.encoding == StreamEncoding::Bipolar ||
           sp.balance == BalanceStyle::Register;
}

InputPort &
StreamDatapath::captureData(int lane)
{
    if (!hasCapture() || lane < 0 || lane >= sp.lanes)
        panic("StreamDatapath %s: no capture cell on lane %d",
              name().c_str(), lane);
    return *captureD[static_cast<std::size_t>(lane)];
}

InputPort &
StreamDatapath::captureClock(int lane)
{
    if (!hasCapture() || lane < 0 || lane >= sp.lanes)
        panic("StreamDatapath %s: no capture cell on lane %d",
              name().c_str(), lane);
    return *captureC[static_cast<std::size_t>(lane)];
}

void
StreamDatapath::programEpoch(const EpochInputs &in)
{
    if (in.n < 1 || in.n > sp.nmax())
        panic("StreamDatapath %s: epoch n=%d outside [1, %d]",
              name().c_str(), in.n, sp.nmax());
    if (!in.gates.empty() &&
        static_cast<int>(in.gates.size()) != sp.lanes)
        panic("StreamDatapath %s: %zu gate states for %d lanes",
              name().c_str(), in.gates.size(), sp.lanes);
    clock->program(0, sp.slotPeriod(),
                   static_cast<std::uint64_t>(in.n));
    for (int i = 0; i < sp.lanes; ++i)
        gates[static_cast<std::size_t>(i)]->preset(
            in.gates.empty() || in.gates[static_cast<std::size_t>(i)]);
}

int
StreamDatapath::jjCount() const
{
    return jjsFor(sp, pads);
}

void
StreamDatapath::reset()
{
    clock->reset();
    for (auto &t : dividers)
        t->reset();
    for (auto &g : gates)
        g->reset();
    for (auto &r : regs)
        r->reset();
    for (auto &i : inverters)
        i->reset();
    if (balancerTree)
        balancerTree->reset();
    if (mergerTree)
        mergerTree->reset();
    if (cheapTree)
        cheapTree->reset();
}

std::uint64_t
StreamDatapath::treeLostPulses() const
{
    if (mergerTree)
        return mergerTree->collisions();
    if (cheapTree)
        return cheapTree->collisions();
    return 0;
}

int
StreamDatapath::jjsFor(const DesignSpec &spec, const PaddingPlan &plan)
{
    const bool capture = spec.encoding == StreamEncoding::Bipolar ||
                         spec.balance == BalanceStyle::Register;
    const int leaves = spec.lanes * (capture ? 2 : 1);

    int total = (leaves - 1) * cell::kSplitterJJs;
    for (int i = 0; i < spec.lanes; ++i) {
        total += spec.dividersOf(i) * cell::kTffJJs;
        total += spec.skewJtlsOf(i) * cell::kJtlJJs;
        total += cell::kNdroJJs;
        if (spec.encoding == StreamEncoding::Bipolar)
            total += cell::kInverterJJs;
        else if (capture)
            total += cell::kDffJJs;
        const LanePad pad =
            static_cast<std::size_t>(i) < plan.lanes.size()
                ? plan.lanes[static_cast<std::size_t>(i)]
                : LanePad{};
        total += pad.jjs();
    }
    switch (spec.tree) {
    case TreeKind::Balancer:
        total += TreeCountingNetwork::jjsFor(spec.lanes);
        break;
    case TreeKind::Merger:
        total += MergerTreeAdder::jjsFor(spec.lanes);
        break;
    case TreeKind::Tff2:
        total += CheapCountingTree::jjsFor(spec.lanes);
        break;
    }
    return total;
}

// --- pulse-level epoch harness ---------------------------------------------

PulseEpochRig::PulseEpochRig(const DesignSpec &spec,
                             const PaddingPlan &plan)
    : nl("gen"), dp(nl.create<StreamDatapath>("dp", spec, plan)),
      trace("gen.out")
{
    trace.input().markObserver();
    dp.out().connect(trace.input());
    nl.elaborate();
}

long long
PulseEpochRig::run(const EpochInputs &in)
{
    // Reset first, even on a fresh rig: an epoch that threw half way
    // cannot leave state behind for the next one.
    nl.resetAll();
    trace.clear();
    dp.programEpoch(in);
    nl.queue().run(); // elaborated at construction; no per-epoch span
    return static_cast<long long>(trace.totalCount());
}

long long
runPulseEpoch(const DesignSpec &spec, const PaddingPlan &plan,
              const EpochInputs &in)
{
    return PulseEpochRig(spec, plan).run(in);
}

} // namespace usfq::gen
