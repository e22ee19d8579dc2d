/**
 * @file
 * Stream-level functional models of the U-SFQ blocks (the
 * Backend::Functional engine; see docs/functional.md).
 *
 * Each class here mirrors the constructor signature of its pulse-level
 * counterpart in src/core/ and registers in the same Netlist hierarchy
 * (so report() / exportStats() rollups and the elaboration lint keep
 * working), but evaluates a whole epoch per call using the pure
 * counting arithmetic of core/encoding.hh instead of scheduling
 * per-pulse events.  They expose no ports -- a functional netlist has
 * no wires -- which the elaboration lint accepts trivially.
 *
 * Junction counts come from the closed forms validated against the
 * pulse-level netlists (fig16 asserts equality), so area studies can
 * run on either backend.  Each evaluate() records one block-level
 * switching estimate via recordSwitches, keeping the observability
 * layer's power rollups meaningful.
 *
 * Exactness contract (frozen by tests/differential_test.cpp):
 *   - multipliers, counting networks, PNMs, uni/bipolar DPU: exact
 *   - merger trees: exact slot-union (slot width > collision window)
 *   - PE: +/-1 slot (the pulse-level balancer's toggle state)
 */

#ifndef USFQ_FUNC_COMPONENTS_HH
#define USFQ_FUNC_COMPONENTS_HH

#include <span>
#include <string>
#include <vector>

#include "core/adder.hh"
#include "core/dpu.hh"
#include "core/fir.hh"
#include "core/multiplier.hh"
#include "core/pe.hh"
#include "core/pnm.hh"
#include "core/shift_register.hh"
#include "sim/component.hh"
#include "sim/netlist.hh"

namespace usfq::func
{

/** Functional unipolar multiplier: stream AND RL-prefix. */
class UnipolarMultiplier : public Component
{
  public:
    UnipolarMultiplier(Netlist &nl, const std::string &name);

    /** Product pulse count for one epoch. */
    int evaluate(const EpochConfig &cfg, int stream_count, int rl_id);

    int jjCount() const override { return usfq::UnipolarMultiplier::kJJs; }
};

/** Functional bipolar (XNOR) multiplier. */
class BipolarMultiplier : public Component
{
  public:
    BipolarMultiplier(Netlist &nl, const std::string &name);

    int evaluate(const EpochConfig &cfg, int stream_count, int rl_id);

    int jjCount() const override { return usfq::BipolarMultiplier::kJJs; }
};

/** Functional M:1 merger tree: slot-union with collision accounting. */
class MergerTreeAdder : public Component
{
  public:
    MergerTreeAdder(Netlist &nl, const std::string &name,
                    int num_inputs);

    int numInputs() const { return fanIn; }

    /** Output pulse count: the slot union of the input streams. */
    int evaluate(const EpochConfig &cfg, const std::vector<int> &counts);

    /** Pulses lost to same-slot coincidences across all evaluations. */
    std::uint64_t collisions() const { return lost; }

    int jjCount() const override
    {
        return usfq::MergerTreeAdder::jjsFor(fanIn);
    }
    void reset() override { lost = 0; }

  private:
    int fanIn;
    std::uint64_t lost = 0;
};

/** Functional M:1 balancer tree: per-level ceiling halving. */
class TreeCountingNetwork : public Component
{
  public:
    TreeCountingNetwork(Netlist &nl, const std::string &name,
                        int num_inputs);

    int numInputs() const { return fanIn; }

    /** Output pulse count (sum of inputs / M, ceiling per level). */
    int evaluate(std::vector<int> counts);

    int jjCount() const override
    {
        return usfq::TreeCountingNetwork::jjsFor(fanIn);
    }

  private:
    int fanIn;
};

/** Functional race-logic MIN: the earliest RL arrival wins. */
class FirstArrival : public Component
{
  public:
    FirstArrival(Netlist &nl, const std::string &name);

    /** MIN of the operand RL slot ids. */
    int evaluate(const std::vector<int> &rl_ids);

    int jjCount() const override { return cell::kFirstArrivalJJs; }
};

/** Functional race-logic MAX: the latest RL arrival wins. */
class LastArrival : public Component
{
  public:
    LastArrival(Netlist &nl, const std::string &name);

    /** MAX of the operand RL slot ids. */
    int evaluate(const std::vector<int> &rl_ids);

    int jjCount() const override { return cell::kLastArrivalJJs; }
};

/** Functional classic (bursty) PNM: exact count, no slot layout. */
class ClassicPnm : public Component
{
  public:
    ClassicPnm(Netlist &nl, const std::string &name, int bits);

    int bits() const { return nbits; }
    int maxValue() const { return (1 << nbits) - 1; }

    void program(int value);

    /** Pulses per epoch: exactly the programmed value. */
    int count();

    int jjCount() const override
    {
        return usfq::ClassicPnm::jjsFor(nbits);
    }
    void reset() override { programmed = 0; }

  private:
    int nbits;
    int programmed = 0;
};

/** Functional uniform-rate PNM: count and slot layout (Fig. 9b). */
class UniformPnm : public Component
{
  public:
    UniformPnm(Netlist &nl, const std::string &name, int bits);

    int bits() const { return nbits; }
    int maxValue() const { return (1 << nbits) - 1; }

    void program(int value);

    /** Pulses per epoch: exactly the programmed value. */
    int count();

    /** The divider chain's slot layout (uniformPnmSlots). */
    std::vector<int> slots();

    int jjCount() const override
    {
        return usfq::UniformPnm::jjsFor(nbits);
    }
    void reset() override { programmed = 0; }

  private:
    int nbits;
    int programmed = 0;
};

/** Functional pulse-counting integrator (count now, RL next epoch). */
class PulseToRlIntegrator : public Component
{
  public:
    PulseToRlIntegrator(Netlist &nl, const std::string &name,
                        const EpochConfig &cfg);

    /** Accumulate @p n stream pulses (clamped at nmax). */
    void accumulate(int n);

    /** Pulses accumulated in the current (unfinished) epoch. */
    int pendingCount() const { return counter; }

    /** Epoch marker: returns the RL slot and restarts the counter. */
    int epoch();

    int jjCount() const override
    {
        return usfq::PulseToRlIntegrator::kJJs;
    }
    void reset() override { counter = 0; }

  private:
    EpochConfig cfg;
    int counter = 0;
};

/** Functional processing element: (in1*in2 + in3)/2 as an RL slot. */
class ProcessingElement : public Component
{
  public:
    ProcessingElement(Netlist &nl, const std::string &name,
                      const EpochConfig &cfg);

    /** The RL slot emitted one epoch later. */
    int evaluate(int in1_id, int in2_count, int in3_count);

    int jjCount() const override
    {
        return usfq::ProcessingElement::kJJs;
    }

  private:
    EpochConfig cfg;
};

/** Functional dot-product unit. */
class DotProductUnit : public Component
{
  public:
    DotProductUnit(Netlist &nl, const std::string &name, int length,
                   DpuMode mode = DpuMode::Unipolar);

    int length() const { return numElems; }
    int paddedLength() const { return padded; }
    DpuMode mode() const { return dpuMode; }

    /** Output pulse count for one epoch of operands. */
    int evaluate(const EpochConfig &cfg,
                 const std::vector<int> &stream_counts,
                 const std::vector<int> &rl_ids);

    /** Decode an output count to the dot-product value. */
    double decode(const EpochConfig &cfg, std::size_t count) const;

    int jjCount() const override
    {
        return usfq::DotProductUnit::jjsFor(numElems, dpuMode);
    }

  private:
    int numElems;
    int padded;
    DpuMode dpuMode;
};

/** Functional one-epoch RL delay buffer. */
class IntegratorBuffer : public Component
{
  public:
    IntegratorBuffer(Netlist &nl, const std::string &name, Tick period);

    Tick period() const { return epochPeriod; }

    /** Push this epoch's RL id; returns the previous epoch's. */
    int push(int rl_id);

    int jjCount() const override
    {
        return usfq::IntegratorBuffer::kJJs;
    }
    void reset() override { held = 0; }

  private:
    Tick epochPeriod;
    int held = 0;
};

/**
 * Quantized coefficient stream count of FIR tap value @p value, as the
 * netlist's CoefficientBank rounds it (what UsfqFir::setCoefficient
 * stores).
 */
int firCoefficientCount(const EpochConfig &epoch, DpuMode mode,
                        double value);

/**
 * Output pulse count of one FIR step: tap k multiplies coefficient
 * count h_counts[k] by RL sample id window_ids[k] (ids past the end
 * of a short window read as the zero sample), and the counting tree,
 * padded to a power of two >= 2, sums the products (paddedTreeCount:
 * no allocation up to 64 taps).
 */
int firStepCount(const EpochConfig &epoch, DpuMode mode,
                 std::span<const int> h_counts,
                 std::span<const int> window_ids);

/**
 * Functional 16-tap-class FIR: same constructor and arithmetic
 * contract as the pulse-level UsfqFir, evaluated one epoch per step.
 * The error-free integer path (stepCount) is what the differential
 * tests pin against the netlist; step()/filter() add the decode and
 * coefficient rescale of UsfqFirModel.
 */
class UsfqFir : public Component
{
  public:
    UsfqFir(Netlist &nl, const std::string &name,
            const UsfqFirConfig &config);

    const UsfqFirConfig &config() const { return cfg; }
    const EpochConfig &epochConfig() const { return epoch; }
    int paddedLength() const { return padded; }

    /**
     * Program coefficient @p k.  Quantizes the raw value like the
     * netlist's CoefficientBank (no pre-scaling -- UsfqFirModel's
     * hScale is a model-study convenience, not circuit behaviour).
     */
    void setCoefficient(int k, double value);

    /** Output pulse count for a window of RL sample ids (x[n] first). */
    int stepCount(const std::vector<int> &window_ids);

    /** One decoded output sample from the sample window. */
    double step(const std::vector<double> &window);

    /** Filter a whole signal (one output sample per epoch). */
    std::vector<double> filter(const std::vector<double> &x);

    int jjCount() const override
    {
        return static_cast<int>(
            usfqFirAreaJJ(cfg.taps, cfg.bits, cfg.mode));
    }
    void reset() override;

  private:
    UsfqFirConfig cfg;
    EpochConfig epoch;
    int padded;
    std::vector<int> hCounts;
};

} // namespace usfq::func

#endif // USFQ_FUNC_COMPONENTS_HH
