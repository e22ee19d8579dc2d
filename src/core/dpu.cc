#include "core/dpu.hh"
#include "core/fanout.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace usfq
{

DotProductUnit::DotProductUnit(Netlist &nl, const std::string &name,
                               int length, DpuMode mode)
    : Component(nl, name),
      numElems(length),
      dpuMode(mode),
      epochPort(this->name() + ".epoch", nullptr),
      clkPort(this->name() + ".clk", nullptr)
{
    if (length < 1)
        fatal("DotProductUnit %s: need at least one element",
              name.c_str());

    int padded = 2;
    while (padded < length)
        padded <<= 1;
    tree = std::make_unique<TreeCountingNetwork>(nl, name + ".tree",
                                                 padded);

    std::vector<InputPort *> epoch_dsts;
    std::vector<InputPort *> clk_dsts;
    for (int i = 0; i < length; ++i) {
        const std::string mname = name + ".m" + std::to_string(i);
        if (mode == DpuMode::Unipolar) {
            unipolar.push_back(
                std::make_unique<UnipolarMultiplier>(nl, mname));
            unipolar.back()->out().connect(tree->in(i));
            epoch_dsts.push_back(&unipolar.back()->epoch());
        } else {
            bipolar.push_back(
                std::make_unique<BipolarMultiplier>(nl, mname));
            bipolar.back()->out().connect(tree->in(i));
            epoch_dsts.push_back(&bipolar.back()->epoch());
            clk_dsts.push_back(&bipolar.back()->clkIn());
        }
    }

    // Physical fanout: delay-balanced splitter trees, so every
    // multiplier sees the epoch marker (and grid clock) at the same
    // instant -- lane skew would otherwise break the exact pulse
    // coincidence the counting tree depends on.
    auto distribute = [&](const std::string &net,
                          const std::vector<InputPort *> &dsts,
                          InputPort &port) {
        if (dsts.empty())
            return;
        InputPort *head =
            buildBalancedFanout(nl, name + "." + net, dsts, fanout);
        head->markOptional("fed by the DPU's " + net +
                           " alias handler, not a recorded edge");
        addAlias(port, *head);
    };
    distribute("efan", epoch_dsts, epochPort);
    distribute("cfan", clk_dsts, clkPort);

    addPorts(epochPort, clkPort);
    if (mode == DpuMode::Unipolar)
        clkPort.markOptional("grid clock is only used in bipolar mode");
    // Padded tree lanes carry no multiplier; they stay silent and
    // decode() compensates for their contribution.
    for (int i = length; i < padded; ++i)
        tree->in(i).markOptional("padded counting-tree lane (silent)");
}

InputPort &
DotProductUnit::rlIn(int i)
{
    if (i < 0 || i >= numElems)
        panic("DotProductUnit %s: element %d out of range",
              name().c_str(), i);
    return dpuMode == DpuMode::Unipolar
               ? unipolar[static_cast<std::size_t>(i)]->rlIn()
               : bipolar[static_cast<std::size_t>(i)]->rlIn();
}

InputPort &
DotProductUnit::streamIn(int i)
{
    if (i < 0 || i >= numElems)
        panic("DotProductUnit %s: element %d out of range",
              name().c_str(), i);
    return dpuMode == DpuMode::Unipolar
               ? unipolar[static_cast<std::size_t>(i)]->streamIn()
               : bipolar[static_cast<std::size_t>(i)]->streamIn();
}

int
DotProductUnit::jjCount() const
{
    int total = tree->jjCount();
    for (const auto &m : unipolar)
        total += m->jjCount();
    for (const auto &m : bipolar)
        total += m->jjCount();
    for (const auto &s : fanout)
        total += s->jjCount();
    return total;
}

void
DotProductUnit::reset()
{
    tree->reset();
    for (auto &m : unipolar)
        m->reset();
    for (auto &m : bipolar)
        m->reset();
}

int
DotProductUnit::expectedCount(const EpochConfig &cfg, DpuMode mode,
                              const std::vector<int> &stream_counts,
                              const std::vector<int> &rl_ids)
{
    return dpuExpectedCount(cfg, mode, stream_counts, rl_ids);
}

double
DotProductUnit::decode(const EpochConfig &cfg, DpuMode mode, int length,
                       int padded_length, std::size_t count)
{
    const double mean = cfg.decodeUnipolar(count);
    if (mode == DpuMode::Unipolar)
        return mean * padded_length;
    // Bipolar: each element's stream decodes as 2p-1; silent padded
    // elements read as -1, so add their contribution back.
    return (2.0 * mean - 1.0) * padded_length +
           (padded_length - length);
}

namespace
{

/** Levels of the splitter fanout over @p length elements:
 *  ceil(log2(length)), 0 for a single element. */
Tick
fanoutDepth(int length)
{
    return std::bit_width(static_cast<unsigned>(std::max(length, 1) - 1));
}

} // namespace

Tick
dpuRlLaunchOffset(int length)
{
    return fanoutDepth(length) * 3 * kPicosecond + 1 * kPicosecond;
}

Tick
dpuSlotWidth(int length, Tick floor)
{
    const Tick need = 2 * (3 * fanoutDepth(length) + 1) + 2;
    return std::max(need * kPicosecond, floor);
}

DpuEpochRig::DpuEpochRig(const EpochConfig &config, int length,
                         DpuMode dpuMode)
    : cfg(config), mode(dpuMode), nl("dpu_rig"),
      dpu(nl.create<DotProductUnit>("dpu", length, dpuMode)),
      epoch(nl.create<PulseSource>("e"))
{
    epoch.out.connect(dpu.epochIn());
    if (mode == DpuMode::Bipolar) {
        clk = &nl.create<PulseSource>("clk");
        clk->out.connect(dpu.clkIn());
        gridClock = BipolarMultiplier::gridClockTimes(cfg, 0);
    } else {
        dpu.clkIn().markOptional("unipolar DPU needs no grid clock");
    }
    dpu.out().connect(out.input());
    for (int i = 0; i < length; ++i) {
        auto &r = nl.create<PulseSource>(indexedName("a", i));
        auto &s = nl.create<PulseSource>(indexedName("b", i));
        r.out.connect(dpu.rlIn(i));
        s.out.connect(dpu.streamIn(i));
        rl.push_back(&r);
        stream.push_back(&s);
    }
    nl.elaborate();
}

int
DpuEpochRig::run(const std::vector<int> &streams,
                 const std::vector<int> &ids)
{
    if (static_cast<int>(streams.size()) != length() ||
        static_cast<int>(ids.size()) != length())
        panic("DpuEpochRig: %zu/%zu operands for %d elements",
              streams.size(), ids.size(), length());
    // Reset first, even on a fresh rig: an epoch that threw half way
    // cannot leave state behind for the next one.
    nl.resetAll();
    out.clear();
    const Tick rlOff = dpuRlLaunchOffset(length());
    epoch.pulseAt(0);
    if (clk != nullptr)
        clk->pulsesAt(gridClock);
    for (std::size_t i = 0; i < rl.size(); ++i) {
        rl[i]->pulseAt(rlOff + cfg.rlTime(ids[i]));
        stream[i]->pulsesAt(cfg.streamTimes(streams[i]));
    }
    nl.queue().run(); // no per-epoch phase span
    return static_cast<int>(out.count());
}

} // namespace usfq
