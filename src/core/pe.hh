/**
 * @file
 * The U-SFQ processing element (paper Section 5.2, Fig. 13): the
 * multiply-accumulate core of CGRA / spatial-architecture arrays.
 *
 * Datapath: a unipolar multiplier (In1 in RL x In2 as a pulse stream)
 * feeds one balancer input; stream In3 feeds the other; the balancer
 * output accumulates in the pulse-counting integrator, which returns
 * the result as a race-logic pulse in the next epoch -- the natural
 * format to hand to a neighbouring PE.
 *
 * The whole element is 126 junctions, independent of resolution.
 */

#ifndef USFQ_CORE_PE_HH
#define USFQ_CORE_PE_HH

#include <memory>
#include <string>
#include <vector>

#include "core/adder.hh"
#include "core/encoding.hh"
#include "core/multiplier.hh"
#include "sfq/cells.hh"
#include "sfq/sources.hh"
#include "sim/component.hh"
#include "sim/netlist.hh"
#include "sim/trace.hh"

namespace usfq
{

/**
 * Pulse-counting integrator: counts stream pulses during an epoch and
 * re-emits the count as an RL pulse (slot = count) in the next epoch.
 * This is the same Fig. 10c integrator circuit operated as an
 * accumulator-and-converter (paper Section 5.2).
 */
class PulseToRlIntegrator : public Component
{
  public:
    PulseToRlIntegrator(Netlist &nl, const std::string &name,
                        const EpochConfig &cfg);

    InputPort in;      ///< Pulse stream to accumulate.
    InputPort epochIn; ///< Epoch marker: converts and restarts.
    OutputPort out;    ///< RL pulse at slot = accumulated count.

    /** Junction count of the integrator cell (paper Fig. 10c). */
    static constexpr int kJJs = 48;

    int jjCount() const override { return kJJs; }
    void reset() override;
    TimingModel timingModel() const override;

    /** Pulses accumulated in the current (unfinished) epoch. */
    int pendingCount() const { return counter; }

  private:
    EpochConfig cfg;
    int counter = 0;
};

/**
 * The unipolar U-SFQ processing element.
 *
 * Ports: epoch() marks epoch starts; in1() is the RL operand; in2()
 * and in3() are pulse streams; out() emits the RL-encoded result
 * (In1*In2 + In3) / 2 one epoch later.
 */
class ProcessingElement : public Component
{
  public:
    ProcessingElement(Netlist &nl, const std::string &name,
                      const EpochConfig &cfg);

    InputPort &epoch() { return splE.in; }
    InputPort &in1() { return mult.rlIn(); }
    InputPort &in2() { return mult.streamIn(); }
    InputPort &in3() { return in3Jtl.in; }
    OutputPort &out() { return integ.out; }

    /** Closed-form junction count: 126 JJs independent of resolution. */
    static constexpr int kJJs = cell::kSplitterJJs +
                                UnipolarMultiplier::kJJs +
                                cell::kJtlJJs + Balancer::kJJs +
                                PulseToRlIntegrator::kJJs;

    int jjCount() const override;
    void reset() override;

    /**
     * Functional model: the RL slot the PE emits for operands
     * (in1 as RL id, in2/in3 as stream counts).
     */
    static int expectedSlot(const EpochConfig &cfg, int in1_id,
                            int in2_count, int in3_count);

  private:
    Splitter splE;
    UnipolarMultiplier mult;
    Jtl in3Jtl; ///< aligns In3 with the multiplier's output delay
    Balancer bal;
    PulseToRlIntegrator integ;
};

/**
 * A systolic row of PEs (paper Fig. 13b): PE k computes
 * (in1_k * in2_k + in3_k)/2 and hands its RL result to PE k+1's in1
 * the next epoch -- the CGRA/spatial-architecture composition pattern.
 */
class PeChain : public Component
{
  public:
    PeChain(Netlist &nl, const std::string &name, int length,
            const EpochConfig &cfg);

    int length() const { return static_cast<int>(pes.size()); }

    /** Epoch marker (fans out to every PE). */
    InputPort &epochIn() { return epochPort; }

    /** RL operand of the first PE. */
    InputPort &rlIn() { return pes.front()->in1(); }

    /** Stream operand In2 of PE @p k. */
    InputPort &streamIn(int k);

    /** Stream operand In3 of PE @p k. */
    InputPort &accumIn(int k);

    /** RL output of the last PE. */
    OutputPort &out() { return pes.back()->out(); }

    int jjCount() const override;
    void reset() override;

  private:
    InputPort epochPort;
    std::vector<std::unique_ptr<ProcessingElement>> pes;
    std::vector<std::unique_ptr<Splitter>> fanout;
};

/**
 * One ProcessingElement with its stimulus -- epoch marker (plus the
 * conversion trigger one epoch later), the RL operand and both stream
 * operands -- and an output trace, built and elaborated once and
 * replayed per epoch like DpuEpochRig.
 */
class PeEpochRig
{
  public:
    explicit PeEpochRig(const EpochConfig &cfg);

    PeEpochRig(const PeEpochRig &) = delete;
    PeEpochRig &operator=(const PeEpochRig &) = delete;

    /** The RL slot the PE emits after conversion, or -1 if none. */
    int run(int in1_id, int in2_count, int in3_count);

    Netlist &netlist() { return nl; }
    const PulseTrace &output() const { return out; }

  private:
    EpochConfig cfg;
    Netlist nl;
    ProcessingElement &pe;
    PulseSource &epoch;
    PulseSource &in1;
    PulseSource &in2;
    PulseSource &in3;
    PulseTrace out;
};

} // namespace usfq

#endif // USFQ_CORE_PE_HH
