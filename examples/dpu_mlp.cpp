/**
 * @file
 * A tiny dense neural-network layer on the bipolar U-SFQ dot-product
 * unit (paper Section 5.3): 4 neurons x 8 inputs, weights in [-1, 1],
 * computed pulse-by-pulse on the netlist and compared against the
 * floating-point layer.
 */

#include <cstdio>
#include <vector>

#include "core/dpu.hh"
#include "sim/netlist.hh"
#include "sim/trace.hh"
#include "sfq/sources.hh"
#include "util/random.hh"

using namespace usfq;

namespace
{

/** One bipolar dot product on a fresh pulse-level DPU netlist. */
double
dotOnDpu(const EpochConfig &cfg, const std::vector<double> &weights,
         const std::vector<double> &activations)
{
    const int length = static_cast<int>(weights.size());
    Netlist nl;
    auto &dpu = nl.create<DotProductUnit>("dpu", length,
                                          DpuMode::Bipolar);
    auto &src_e = nl.create<PulseSource>("e");
    auto &src_clk = nl.create<PulseSource>("clk");
    PulseTrace out;
    src_e.out.connect(dpu.epochIn());
    src_clk.out.connect(dpu.clkIn());
    dpu.out().connect(out.input());

    int depth = 0;
    for (int m = 1; m < length; m <<= 1)
        ++depth;
    const Tick rl_off = depth * 3 * kPicosecond + kPicosecond;

    src_e.pulseAt(0);
    src_clk.pulsesAt(BipolarMultiplier::gridClockTimes(cfg, 0));
    for (int i = 0; i < length; ++i) {
        auto &r = nl.create<PulseSource>(indexedName("a", i));
        auto &s = nl.create<PulseSource>(indexedName("w", i));
        r.out.connect(dpu.rlIn(i));
        s.out.connect(dpu.streamIn(i));
        r.pulseAt(rl_off + cfg.rlTime(cfg.rlIdOfBipolar(
                               activations[static_cast<std::size_t>(
                                   i)])));
        s.pulsesAt(cfg.streamTimes(cfg.streamCountOfBipolar(
            weights[static_cast<std::size_t>(i)])));
    }
    nl.run();
    return DotProductUnit::decode(cfg, DpuMode::Bipolar, length,
                                  dpu.paddedLength(), out.count());
}

double
relu(double v)
{
    return v > 0 ? v : 0;
}

} // namespace

int
main()
{
    const int inputs = 8, neurons = 4;
    const EpochConfig cfg(6, 40 * kPicosecond);

    std::printf("Bipolar U-SFQ DPU as a dense NN layer "
                "(%d inputs -> %d neurons, %d-bit epochs)\n\n",
                inputs, neurons, cfg.bits());

    Rng rng(2024);
    std::vector<std::vector<double>> w(
        static_cast<std::size_t>(neurons));
    for (auto &row : w) {
        row.resize(static_cast<std::size_t>(inputs));
        for (auto &v : row)
            v = rng.uniform(-0.9, 0.9);
    }
    std::vector<double> x(static_cast<std::size_t>(inputs));
    for (auto &v : x)
        v = rng.uniform(-0.9, 0.9);

    // Area: the same job on one binary MAC needs ~11 kJJ at 8 bits.
    Netlist probe;
    auto &dpu =
        probe.create<DotProductUnit>("dpu", inputs, DpuMode::Bipolar);
    std::printf("DPU area: %d JJs for %d parallel multiplier/adder "
                "lanes\n\n",
                dpu.jjCount(), inputs);

    std::printf("  neuron |  float dot |  U-SFQ dot |   error | "
                "ReLU(U-SFQ)\n");
    double worst = 0.0;
    for (int nrn = 0; nrn < neurons; ++nrn) {
        double ideal = 0.0;
        for (int i = 0; i < inputs; ++i)
            ideal += w[static_cast<std::size_t>(nrn)]
                      [static_cast<std::size_t>(i)] *
                     x[static_cast<std::size_t>(i)];
        const double got =
            dotOnDpu(cfg, w[static_cast<std::size_t>(nrn)], x);
        worst = std::max(worst, std::abs(got - ideal));
        std::printf("  %6d | %10.4f | %10.4f | %7.4f | %10.4f\n", nrn,
                    ideal, got, got - ideal, relu(got));
    }
    std::printf("\nworst-case error %.4f (unary grid: %d slots/epoch, "
                "tree rounding included)\n",
                worst, cfg.nmax());
    return 0;
}
