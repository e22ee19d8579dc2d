/**
 * @file
 * Elaborable realization of a gen::DesignSpec (docs/synthesis.md).
 *
 * A StreamDatapath is the generated device under test: one ClockSource
 * fans out through a splitter tree to `lanes` pulse-stream paths (TFF
 * divider chain + intrinsic skew JTLs + an NDRO pass gate per lane,
 * plus a capture cell for the Bipolar encoding or the Register
 * balancing style), which a counting-tree variant reduces to a single
 * output stream.  A PaddingPlan -- produced by the STA-guided
 * balancing pass in gen/balance.hh -- adds JTL padding at three
 * defined slots per lane: `pre` (before the capture data input), `tap`
 * (on the capture clock tap) and `post` (between the lane and its
 * counting-tree leaf).
 *
 * The evaluation harness (PulseEpochRig) builds the datapath once and
 * replays it per epoch: every epoch resets the netlist first and then
 * programs its own clock count and gate states, so epochs stay
 * independent, as the runSweep determinism contract requires.
 */

#ifndef USFQ_GEN_DATAPATH_HH
#define USFQ_GEN_DATAPATH_HH

#include <memory>
#include <string>
#include <vector>

#include "core/adder.hh"
#include "gen/spec.hh"
#include "sfq/cells.hh"
#include "sfq/sources.hh"
#include "sim/component.hh"
#include "sim/netlist.hh"
#include "sim/trace.hh"

namespace usfq::gen
{

/** JTL padding of one lane, per slot: `n` unit JTLs plus one trim
 *  segment of `trim` ticks (0 = no trim JTL). */
struct LanePad
{
    int pre = 0;
    Tick preTrim = 0;
    int tap = 0;
    Tick tapTrim = 0;
    int post = 0;
    Tick postTrim = 0;

    /** Extend a slot's total delay by @p fs ticks (unit JTLs + trim). */
    void addPre(Tick fs);
    void addTap(Tick fs);
    void addPost(Tick fs);

    Tick preDelay() const;
    Tick tapDelay() const;
    Tick postDelay() const;

    /** Junctions this lane's padding inserts. */
    int jjs() const;

    bool operator==(const LanePad &other) const = default;
};

/** The balancing pass's output: per-lane padding. */
struct PaddingPlan
{
    std::vector<LanePad> lanes;

    /** Total junctions the plan inserts (the balancing overhead). */
    int insertedJJ() const;

    /** True when no lane carries any padding. */
    bool empty() const;

    bool operator==(const PaddingPlan &other) const = default;
};

/**
 * M:1 tree of the cheap merger+TFF2 balancer [31] (spec tree variant
 * Tff2): 17 JJs per node against the paper balancer's 58, but a
 * coincident input pair loses one pulse in the merger and the TFF2
 * recovery time (t_TFF2 = 20 ps) caps the slot rate.
 */
class CheapCountingTree : public Component
{
  public:
    CheapCountingTree(Netlist &nl, const std::string &name,
                      int num_inputs);

    InputPort &in(int i);
    OutputPort &out();

    int numInputs() const { return fanIn; }

    static constexpr int
    jjsFor(int num_inputs)
    {
        return (num_inputs - 1) *
               (cell::kMergerJJs + cell::kTff2JJs);
    }

    int jjCount() const override;
    void reset() override;

    /** Coincident pulses lost in the node mergers. */
    std::uint64_t collisions() const;

  private:
    int fanIn;
    std::vector<std::unique_ptr<MergerTff2Balancer>> nodes;
    std::vector<InputPort *> leafPorts;
};

/** One epoch's stimulus: clock count and per-lane gate states. */
struct EpochInputs
{
    int n = 1;
    std::vector<bool> gates;
};

/** The generated design point: spec + padding plan, elaborable. */
class StreamDatapath : public Component
{
  public:
    StreamDatapath(Netlist &nl, const std::string &name,
                   const DesignSpec &spec,
                   const PaddingPlan &plan = {});

    /** The counting tree's output stream (markOpen'd: harnesses attach
     *  an observer trace). */
    OutputPort &out();

    /** The counting-tree leaf a lane feeds: the balancing pass aligns
     *  the slot grid at these ports. */
    InputPort &treeIn(int lane);

    /** True when every lane carries a capture cell (Bipolar encoding
     *  or the Register balancing style). */
    bool hasCapture() const;

    /** Capture-cell data / clock ports (panic when !hasCapture()). */
    InputPort &captureData(int lane);
    InputPort &captureClock(int lane);

    /** Program one epoch: n clock pulses on the slot grid plus the
     *  per-lane NDRO gate states. */
    void programEpoch(const EpochInputs &in);

    const DesignSpec &designSpec() const { return sp; }
    const PaddingPlan &plan() const { return pads; }

    int jjCount() const override;
    void reset() override;

    /** Pulses the counting tree destroyed (merger collisions). */
    std::uint64_t treeLostPulses() const;

    /** Closed-form junction count of (spec, plan) -- what jjCount()
     *  and the report() rollup must both equal. */
    static int jjsFor(const DesignSpec &spec, const PaddingPlan &plan);

  private:
    OutputPort *padChain(OutputPort *src, int count, Tick trim,
                         const std::string &prefix);

    DesignSpec sp;
    PaddingPlan pads;

    std::unique_ptr<ClockSource> clock;
    std::vector<std::unique_ptr<Splitter>> fanout;
    std::vector<std::unique_ptr<Tff>> dividers;
    std::vector<std::unique_ptr<Jtl>> jtls;
    std::vector<std::unique_ptr<Ndro>> gates;
    std::vector<std::unique_ptr<Dff>> regs;
    std::vector<std::unique_ptr<Inverter>> inverters;

    std::unique_ptr<TreeCountingNetwork> balancerTree;
    std::unique_ptr<MergerTreeAdder> mergerTree;
    std::unique_ptr<CheapCountingTree> cheapTree;

    std::vector<InputPort *> captureD;
    std::vector<InputPort *> captureC;
};

/**
 * A (spec, plan) datapath in a netlist of its own with an observer
 * trace on its output, built and elaborated once and replayed per
 * epoch: run() resets the netlist and the trace, programs @p in and
 * runs to quiescence -- bit-identical to a freshly built datapath.
 */
class PulseEpochRig
{
  public:
    PulseEpochRig(const DesignSpec &spec, const PaddingPlan &plan);

    PulseEpochRig(const PulseEpochRig &) = delete;
    PulseEpochRig &operator=(const PulseEpochRig &) = delete;

    /** Output pulse count of one epoch. */
    long long run(const EpochInputs &in);

    Netlist &netlist() { return nl; }
    const PulseTrace &output() const { return trace; }

  private:
    Netlist nl;
    StreamDatapath &dp;
    PulseTrace trace;
};

/** One epoch on a rig built for it alone. */
long long runPulseEpoch(const DesignSpec &spec, const PaddingPlan &plan,
                        const EpochInputs &in);

} // namespace usfq::gen

#endif // USFQ_GEN_DATAPATH_HH
