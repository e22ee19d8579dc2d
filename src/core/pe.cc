#include "core/pe.hh"

#include "core/fanout.hh"
#include "util/logging.hh"

namespace usfq
{

namespace
{
/**
 * Wire lag on the integrator's epoch marker: lets pulses launched at
 * the very end of an epoch drain through the multiplier/balancer
 * pipeline (~25 ps) before the integrator converts and restarts.
 */
constexpr Tick kIntegratorEpochLag = 30 * kPicosecond;
} // namespace

// --- PulseToRlIntegrator ----------------------------------------------------

PulseToRlIntegrator::PulseToRlIntegrator(Netlist &nl,
                                         const std::string &name,
                                         const EpochConfig &cfg_in)
    : Component(nl, name),
      in(this->name() + ".in",
         [this](Tick) {
             // One Phi0 into the integrating inductor per pulse.
             recordSwitches(2);
             if (counter < cfg.nmax())
                 ++counter;
         }),
      epochIn(this->name() + ".epoch",
              [this](Tick t) {
                  recordSwitches(cell::switchesPerOp(jjCount()));
                  const int slot = counter;
                  counter = 0;
                  out.emit(t + cfg.rlTime(slot) +
                           EpochConfig::kRlPulseOffset);
              }),
      out(this->name() + ".out", &nl.queue()),
      cfg(cfg_in)
{
    addPorts(in, epochIn, out);
}

void
PulseToRlIntegrator::reset()
{
    counter = 0;
}

TimingModel
PulseToRlIntegrator::timingModel() const
{
    TimingModel m;
    // The epoch marker converts the accumulated count into an RL pulse
    // somewhere in the next epoch: slot 0 at the earliest, nmax at the
    // latest.  Stream pulses only charge the inductor.
    m.arcs = {{1, 0, cfg.rlTime(0) + EpochConfig::kRlPulseOffset,
               cfg.rlTime(cfg.nmax()) + EpochConfig::kRlPulseOffset, 1}};
    m.registered = true;
    return m;
}

// --- ProcessingElement ---------------------------------------------------------

ProcessingElement::ProcessingElement(Netlist &nl, const std::string &name,
                                     const EpochConfig &cfg)
    : Component(nl, name),
      splE(nl, name + ".splE"),
      mult(nl, name + ".mult"),
      in3Jtl(nl, name + ".in3jtl",
             cell::kNdroDelay + cell::kJtlDelay),
      bal(nl, name + ".bal"),
      integ(nl, name + ".integ", cfg)
{
    splE.out1.connect(mult.epoch());
    splE.out2.connect(integ.epochIn, kIntegratorEpochLag);
    mult.out().connect(bal.inA());
    // In3 is delayed to match the multiplier's NDRO+JTL path so that
    // same-slot pulses reach the balancer coincidentally (which it
    // resolves losslessly).
    in3Jtl.out.connect(bal.inB());
    bal.y1().connect(integ.in);
    // Only y1 (the half-sum) accumulates; y2 is the balancer's
    // complementary output and terminates (paper Fig. 13).
    bal.y2().markOpen("PE uses only the balancer's y1 half-sum");
}

int
ProcessingElement::jjCount() const
{
    return splE.jjCount() + mult.jjCount() + in3Jtl.jjCount() +
           bal.jjCount() + integ.jjCount();
}

void
ProcessingElement::reset()
{
    mult.reset();
    bal.reset();
    integ.reset();
}

int
ProcessingElement::expectedSlot(const EpochConfig &cfg, int in1_id,
                                int in2_count, int in3_count)
{
    return peExpectedSlot(cfg, in1_id, in2_count, in3_count);
}

// --- PeChain ------------------------------------------------------------------

PeChain::PeChain(Netlist &nl, const std::string &name, int length,
                 const EpochConfig &cfg)
    : Component(nl, name),
      epochPort(this->name() + ".epoch", nullptr)
{
    if (length < 1)
        fatal("PeChain %s: need at least one PE", name.c_str());

    std::vector<InputPort *> epoch_dsts;
    for (int k = 0; k < length; ++k) {
        pes.push_back(std::make_unique<ProcessingElement>(
            nl, name + ".pe" + std::to_string(k), cfg));
        epoch_dsts.push_back(&pes.back()->epoch());
        if (k > 0)
            pes[static_cast<std::size_t>(k - 1)]->out().connect(
                pes[static_cast<std::size_t>(k)]->in1());
    }
    InputPort *head =
        buildBalancedFanout(nl, name + ".efan", epoch_dsts, fanout);
    head->markOptional("fed by the chain's epoch alias handler, not a "
                       "recorded edge");
    addAlias(epochPort, *head);
    addPort(epochPort);
}

InputPort &
PeChain::streamIn(int k)
{
    if (k < 0 || k >= length())
        panic("PeChain %s: PE %d out of range", name().c_str(), k);
    return pes[static_cast<std::size_t>(k)]->in2();
}

InputPort &
PeChain::accumIn(int k)
{
    if (k < 0 || k >= length())
        panic("PeChain %s: PE %d out of range", name().c_str(), k);
    return pes[static_cast<std::size_t>(k)]->in3();
}

int
PeChain::jjCount() const
{
    int total = 0;
    for (const auto &pe : pes)
        total += pe->jjCount();
    for (const auto &s : fanout)
        total += s->jjCount();
    return total;
}

void
PeChain::reset()
{
    for (auto &pe : pes)
        pe->reset();
}

// --- PeEpochRig --------------------------------------------------------------

PeEpochRig::PeEpochRig(const EpochConfig &config)
    : cfg(config), nl("pe_rig"),
      pe(nl.create<ProcessingElement>("pe", config)),
      epoch(nl.create<PulseSource>("e")),
      in1(nl.create<PulseSource>("in1")),
      in2(nl.create<PulseSource>("in2")),
      in3(nl.create<PulseSource>("in3"))
{
    epoch.out.connect(pe.epoch());
    in1.out.connect(pe.in1());
    in2.out.connect(pe.in2());
    in3.out.connect(pe.in3());
    pe.out().connect(out.input());
    nl.elaborate();
}

int
PeEpochRig::run(int in1_id, int in2_count, int in3_count)
{
    constexpr Tick kRlOff = 5 * kPicosecond;
    nl.resetAll();
    out.clear();
    epoch.pulseAt(0);
    in1.pulseAt(kRlOff + cfg.rlTime(in1_id));
    in2.pulsesAt(cfg.streamTimes(in2_count));
    in3.pulsesAt(cfg.streamTimes(in3_count));
    epoch.pulseAt(cfg.duration()); // conversion trigger
    nl.queue().run(); // no per-epoch phase span
    for (Tick t : out.times()) {
        if (t > cfg.duration())
            return cfg.rlSlotOf(t - cfg.duration() - cfg.slotWidth() -
                                3 * kPicosecond -
                                EpochConfig::kRlPulseOffset);
    }
    return -1;
}

} // namespace usfq
