/**
 * @file
 * The U-SFQ FIR accelerator (paper Section 5.4): coefficient memory
 * bank + race-logic shift register + parallel multipliers + counting
 * network.
 *
 * Two implementations share the arithmetic contract:
 *
 *  - UsfqFirModel: an epoch-accurate functional model (exact unary
 *    counting arithmetic, including the counting tree's per-level
 *    rounding) with the paper's three unary error mechanisms --
 *    (i) lost stream pulses, (ii) lost RL pulses, (iii) RL jitter.
 *    This is what the Fig. 18/19/20 studies run on.
 *
 *  - UsfqFir: the full pulse-level netlist (CoefficientBank,
 *    RlShiftRegister, multipliers, TreeCountingNetwork) driven by a
 *    single low-frequency clock.  Used for integration tests and JJ
 *    accounting; the unipolar variant is simulated end to end.
 */

#ifndef USFQ_CORE_FIR_HH
#define USFQ_CORE_FIR_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/adder.hh"
#include "core/dpu.hh"
#include "core/encoding.hh"
#include "core/memory.hh"
#include "core/shift_register.hh"
#include "sim/component.hh"
#include "sim/netlist.hh"
#include "util/random.hh"

namespace usfq
{

/** Configuration of a U-SFQ FIR instance. */
struct UsfqFirConfig
{
    int taps = 16;
    int bits = 8;
    DpuMode mode = DpuMode::Bipolar;

    /** Fraction of product-stream pulses lost (binomial thinning). */
    double pulseLossRate = 0.0;
    /** Probability of losing the RL sample pulse per tap product. */
    double rlLossRate = 0.0;
    /** Probability of a one-slot RL arrival displacement per product. */
    double rlJitterRate = 0.0;
    std::uint64_t seed = 1;

    /** PNM clock period: T_CLK = bits * t_TFF2 (paper Section 5.4.2). */
    Tick clockPeriod() const;
    /** Computation latency per sample: 2^bits * T_CLK. */
    Tick epochLatency() const;
};

/** Closed-form JJ count of the U-SFQ FIR (validated against UsfqFir). */
long long usfqFirAreaJJ(int taps, int bits,
                        DpuMode mode = DpuMode::Bipolar);

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
 * no allocation up to 64 taps).  Without errors, UsfqFirModel::step
 * computes the same count; DotProductUnit::decode turns a count into
 * a sample.
 */
int firStepCount(const EpochConfig &epoch, DpuMode mode,
                 std::span<const int> h_counts,
                 std::span<const int> window_ids);

/**
 * Epoch-accurate functional model of the U-SFQ FIR.
 */
class UsfqFirModel
{
  public:
    /** Quantize @p coefficients onto the unary grid. */
    UsfqFirModel(const std::vector<double> &coefficients,
                 const UsfqFirConfig &config);

    const UsfqFirConfig &config() const { return cfg; }
    const EpochConfig &epochConfig() const { return epoch; }
    int paddedLength() const { return padded; }

    /** Filter a whole signal (one output sample per epoch). */
    std::vector<double> filter(const std::vector<double> &x);

    /** One output sample from the window (x[n], x[n-1], ...). */
    double step(const std::vector<double> &window);

    /** Coefficients as quantized on the unary grid. */
    std::vector<double> quantizedCoefficients() const;

    // --- performance / area (paper Fig. 18) ---

    double latencyUs() const;
    double throughputOps() const; ///< tap-MACs per second
    long long areaJJ() const;
    double efficiencyOpsPerJJ() const;

    /** Coefficient pre-scaling factor applied before quantization. */
    double coefficientScale() const { return hScale; }

  private:
    int productCount(int h_count, int x_id);

    UsfqFirConfig cfg;
    EpochConfig epoch;
    int padded;
    double hScale = 1.0;
    std::vector<int> hCounts; ///< per-tap coefficient stream counts
    Rng rng;
};

/**
 * The pulse-level U-SFQ FIR netlist.
 *
 * Drive clkIn() with 2^bits clock pulses per epoch; feed samples as RL
 * pulses into sampleIn() (one per epoch, slot-aligned to the epoch
 * marker via markerLag()); collect the result stream at out().
 */
class UsfqFir : public Component
{
  public:
    UsfqFir(Netlist &nl, const std::string &name,
            const UsfqFirConfig &config);

    const UsfqFirConfig &config() const { return cfg; }

    /** Low-frequency clock input. */
    InputPort &clkIn();

    /** RL sample input (also feeds the shift register). */
    InputPort &sampleIn() { return splX->in; }

    /** Result pulse stream. */
    OutputPort &out() { return dpu->out(); }

    /** Epoch marker output (for the harness to phase-lock against). */
    OutputPort &epochOut() { return bank->epochOut(); }

    /** Pipeline lag of the epoch marker behind the raw clock. */
    Tick markerLag() const;

    /** Program coefficient @p k (bipolar value in [-1, 1]). */
    void setCoefficient(int k, double value);

    int jjCount() const override;
    void reset() override;

  private:
    UsfqFirConfig cfg;
    std::unique_ptr<CoefficientBank> bank;
    std::unique_ptr<RlShiftRegister> shiftReg;
    std::unique_ptr<DotProductUnit> dpu;
    std::unique_ptr<Splitter> splX;     ///< sample to tap 0 + delay line
    std::unique_ptr<Splitter> splClk;   ///< clock to bank + grid fanout
    std::unique_ptr<Splitter> splEpoch; ///< marker to mults + shift reg
};

} // namespace usfq

#endif // USFQ_CORE_FIR_HH
