/**
 * @file
 * The U-SFQ dot-product unit (paper Section 5.3, Fig. 15): L parallel
 * multipliers (RL operands a_i against pulse-stream operands b_i)
 * feeding an L:1 tree counting network, so the output stream encodes
 * (a.b) / L.  Unipolar and bipolar variants share the structure; the
 * bipolar one adds the complement-regenerating inverter per element
 * and a slot-rate grid clock.
 */

#ifndef USFQ_CORE_DPU_HH
#define USFQ_CORE_DPU_HH

#include <memory>
#include <string>
#include <vector>

#include "core/adder.hh"
#include "core/encoding.hh"
#include "core/multiplier.hh"
#include "sfq/sources.hh"
#include "sim/component.hh"
#include "sim/netlist.hh"
#include "sim/trace.hh"

namespace usfq
{

/**
 * The dot-product unit.  Element count is padded internally to the
 * next power of two for the counting tree; padded inputs contribute
 * zero and the decode divisor is paddedLength().
 */
class DotProductUnit : public Component
{
  public:
    DotProductUnit(Netlist &nl, const std::string &name, int length,
                   DpuMode mode = DpuMode::Unipolar);

    int length() const { return numElems; }
    int paddedLength() const { return tree->numInputs(); }
    DpuMode mode() const { return dpuMode; }

    /** Epoch marker input (fans out to every multiplier). */
    InputPort &epochIn() { return epochPort; }

    /** Grid clock input (bipolar mode only; fans out to inverters). */
    InputPort &clkIn() { return clkPort; }

    /** RL operand a_i. */
    InputPort &rlIn(int i);

    /** Pulse-stream operand b_i. */
    InputPort &streamIn(int i);

    /** Result pulse stream: count / N_max decodes to (a.b)/paddedLength. */
    OutputPort &out() { return tree->out(); }

    int jjCount() const override;
    void reset() override;

    /**
     * Closed-form junction count of a DPU instance: the padded
     * counting tree, L multipliers, and the delay-balanced splitter
     * fanout of the epoch marker (plus the grid clock in bipolar
     * mode).  Matches jjCount() of a constructed netlist exactly.
     */
    static constexpr int
    jjsFor(int length, DpuMode mode)
    {
        int padded = 2;
        while (padded < length)
            padded <<= 1;
        const int mult = mode == DpuMode::Unipolar
                             ? UnipolarMultiplier::kJJs
                             : BipolarMultiplier::kJJs;
        const int fans = mode == DpuMode::Unipolar ? 1 : 2;
        return TreeCountingNetwork::jjsFor(padded) + length * mult +
               fans * (length - 1) * cell::kSplitterJJs;
    }

    /** Ignored routing-unit pulses in the tree (error diagnostics). */
    std::uint64_t ignoredInputs() const { return tree->ignoredInputs(); }

    /**
     * Functional model: output pulse count for per-element stream
     * counts and RL ids.
     */
    static int expectedCount(const EpochConfig &cfg, DpuMode mode,
                             const std::vector<int> &stream_counts,
                             const std::vector<int> &rl_ids);

    /**
     * Decode an output pulse count to the dot-product value.  In
     * bipolar mode the silent padded elements each read as -1 and are
     * compensated using @p length vs @p padded_length.
     */
    static double decode(const EpochConfig &cfg, DpuMode mode,
                         int length, int padded_length,
                         std::size_t count);

  private:
    int numElems;
    DpuMode dpuMode;
    InputPort epochPort;
    InputPort clkPort;
    std::vector<std::unique_ptr<UnipolarMultiplier>> unipolar;
    std::vector<std::unique_ptr<BipolarMultiplier>> bipolar;
    std::vector<std::unique_ptr<Splitter>> fanout;
    std::unique_ptr<TreeCountingNetwork> tree;
};

/**
 * Launch time of the RL operands after the epoch marker in the
 * standard DPU drive: the marker's set lag through the log2(L)-deep
 * splitter fanout (3 ps per level) plus 1 ps.  The pulse-level DPU
 * runs of the API facade and the NoC's DPU tiles both drive this way.
 */
Tick dpuRlLaunchOffset(int length);

/**
 * One DotProductUnit with its stimulus -- epoch marker, grid clock
 * (bipolar), RL and stream operand sources -- and an output trace,
 * built and elaborated once and replayed per epoch.  run() resets
 * the netlist and the trace, re-programs every source in a fixed
 * order and runs to quiescence, so each epoch is bit-identical to one
 * on a freshly built rig.
 */
class DpuEpochRig
{
  public:
    DpuEpochRig(const EpochConfig &cfg, int length, DpuMode mode);

    DpuEpochRig(const DpuEpochRig &) = delete;
    DpuEpochRig &operator=(const DpuEpochRig &) = delete;

    /** Output pulse count of one epoch (length() operands each). */
    int run(const std::vector<int> &streams,
            const std::vector<int> &ids);

    int length() const { return static_cast<int>(rl.size()); }
    Netlist &netlist() { return nl; }
    const PulseTrace &output() const { return out; }

  private:
    EpochConfig cfg;
    DpuMode mode;
    Netlist nl;
    DotProductUnit &dpu;
    PulseSource &epoch;
    PulseSource *clk = nullptr; ///< bipolar grid clock
    std::vector<Tick> gridClock; ///< its schedule, every epoch alike
    std::vector<PulseSource *> rl;
    std::vector<PulseSource *> stream;
    PulseTrace out;
};

} // namespace usfq

#endif // USFQ_CORE_DPU_HH
