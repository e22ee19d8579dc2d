/**
 * @file
 * Fig. 19 reproduction: FIR accuracy under errors, runnable on either
 * engine (--backend).
 *
 *  (a) SNR vs error rate for the binary filter (bit flips) and the
 *      U-SFQ filter under error types (i) lost stream pulses,
 *      (ii) lost RL pulses, (iii) RL jitter.
 *  (b) distribution of binary SNR at a 1% error rate (bit-weight
 *      dependence).
 *  (c) effect of errors on the recovered spectrum.
 *
 * Paper claims: ~10 dB binary drop early and +30 dB degradation by
 * 30%%, vs only ~4 dB for U-SFQ (i)/(iii); (ii) hits harder; golden
 * SNR 25.7 dB, 24 dB at 16 bits, 15 dB at 6 bits.
 *
 * The accuracy study itself runs on the functional backend (it is a
 * statistical model sweep; the pulse-level kernel would take hours).
 * The pulse leg runs a pinned small FIR end to end on the event
 * kernel and asserts the per-epoch output pulse counts match the
 * functional engine within the documented tolerance: the counting
 * tree's balancers carry their toggle state across epochs, so each of
 * the log2(padded) tree levels can round one pulse the other way
 * relative to the state-free functional model.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "baseline/fixed_point_fir.hh"
#include "bench_common.hh"
#include "core/fir.hh"
#include "dsp/fft.hh"
#include "dsp/fir_design.hh"
#include "dsp/signal.hh"
#include "dsp/snr.hh"
#include "sfq/sources.hh"
#include "sim/backend.hh"
#include "sim/trace.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace usfq;

namespace
{

constexpr double kFs = 20000.0;
constexpr int kTaps = 16;
constexpr int kBits = 16;

std::vector<double>
makeInput(std::size_t n)
{
    return dsp::scaleToPeak(
        dsp::sineMixture({{1000.0}, {7000.0}, {8000.0}, {9000.0}}, kFs,
                         n),
        0.45);
}

/**
 * Pulse-level leg: a pinned 4-tap unipolar FIR on the event kernel vs
 * the same filter on the functional backend, compared epoch by epoch
 * in raw output pulse counts.
 */
int
runPulseEquivalence(const bench::BenchArgs &args)
{
    bench::Artifact artifact("fig19_fir_accuracy", args,
                             Backend::PulseLevel);

    const int taps = 4, bits = 6;
    UsfqFirConfig cfg{.taps = taps, .bits = bits,
                      .mode = DpuMode::Unipolar};
    const EpochConfig ecfg(bits, cfg.clockPeriod());
    const std::vector<double> h{0.95, 0.3, 0.2, 0.1};
    const std::vector<double> x{0.0, 0.2, 0.8, 0.5, 0.9, 0.1,
                                0.6, 0.3, 0.7, 0.4, 0.5, 0.5};

    // Pulse-level run (the fir_test harness pattern).
    Netlist nl;
    auto &fir = nl.create<UsfqFir>("fir", cfg);
    for (int k = 0; k < taps; ++k)
        fir.setCoefficient(k, h[static_cast<std::size_t>(k)]);
    auto &clk = nl.create<ClockSource>("clk");
    auto &xin = nl.create<PulseSource>("x");
    PulseTrace out, markers;
    clk.out.connect(fir.clkIn());
    xin.out.connect(fir.sampleIn());
    fir.out().connect(out.input());
    fir.epochOut().connect(markers.input());

    const Tick t_clk0 = 100 * kPicosecond;
    const Tick period = cfg.clockPeriod();
    clk.program(t_clk0, period,
                (x.size() + 2) << static_cast<unsigned>(bits));
    const Tick rl_off = 20 * kPicosecond;
    for (std::size_t e = 0; e < x.size(); ++e) {
        const Tick marker =
            t_clk0 + static_cast<Tick>(e) * cfg.epochLatency() +
            fir.markerLag();
        xin.pulseAt(marker + rl_off +
                    ecfg.rlTime(ecfg.rlIdOfUnipolar(x[e])));
    }
    nl.queue().run();

    // Functional run of the identical filter: the bank's quantized
    // coefficients through the FIR counting kernel.
    std::vector<int> hCounts;
    for (double hk : h)
        hCounts.push_back(firCoefficientCount(ecfg, cfg.mode, hk));

    // Tolerance: one pulse of rounding per counting-tree level
    // (padded = 4 taps -> 2 levels), from toggle state carried across
    // epochs.
    const int tolerance = 2;
    int worst = 0;
    std::vector<int> window;
    for (std::size_t e = 0; e < x.size(); ++e) {
        window.insert(window.begin(), ecfg.rlIdOfUnipolar(x[e]));
        if (static_cast<int>(window.size()) > taps)
            window.pop_back();
        const int func_count =
            firStepCount(ecfg, cfg.mode, hCounts, window);

        const Tick lo = t_clk0 +
                        static_cast<Tick>(e) * cfg.epochLatency() +
                        fir.markerLag() + period;
        const int pulse_count = static_cast<int>(
            out.countInWindow(lo, lo + cfg.epochLatency()));

        // The netlist's sample delay line starts in its reset state, so
        // the first `taps` epochs see a different window than the
        // zero-padded functional model; fir_test's MatchesFunctionalModel
        // excludes the same warm-up transient.  Compare steady state.
        if (e < static_cast<std::size_t>(taps))
            continue;

        const int diff = std::abs(pulse_count - func_count);
        worst = std::max(worst, diff);
        if (diff > tolerance) {
            std::cerr << "FAIL: epoch " << e << ": pulse count "
                      << pulse_count << " vs functional " << func_count
                      << " (tolerance " << tolerance << ")\n";
            return 1;
        }
    }
    const std::size_t steady = x.size() - static_cast<std::size_t>(taps);
    std::cout << "pulse-level equivalence: " << steady
              << " steady-state epochs of a " << taps
              << "-tap unipolar FIR (first " << taps
              << " warm-up epochs excluded), worst per-epoch count "
                 "deviation "
              << worst << " pulses (tolerance " << tolerance << ")\n\n";
    artifact.metric("equiv_epochs", static_cast<double>(steady));
    artifact.metric("equiv_worst_count_diff", worst, "pulses");
    artifact.metric("equiv_tolerance", tolerance, "pulses");
    artifact.note("equivalence",
                  "per-epoch output counts vs functional backend, "
                  "tolerance = one pulse per counting-tree level");
    return 0;
}

int
runAccuracyStudy(const bench::BenchArgs &args)
{
    bench::Artifact artifact("fig19_fir_accuracy", args,
                             Backend::Functional);
    const auto h = dsp::designLowpass(kTaps, 2500.0, kFs);
    const auto x = makeInput(4096);
    const auto golden = dsp::firFilter(h, x);

    const double golden_snr = dsp::snrOfTone(golden, kFs, 1000.0);
    std::cout << "golden reference SNR: " << golden_snr
              << " dB (paper: 25.7 dB)\n";
    artifact.metric("golden_snr_db", golden_snr, "dB");
    {
        UsfqFirModel q16(h, {.taps = kTaps, .bits = 16});
        UsfqFirModel q6(h, {.taps = kTaps, .bits = 6});
        const double snr16 = dsp::snrOfTone(q16.filter(x), kFs, 1000.0);
        const double snr6 = dsp::snrOfTone(q6.filter(x), kFs, 1000.0);
        std::cout << "quantized (error-free): 16 bits " << snr16
                  << " dB (paper ~24), 6 bits " << snr6
                  << " dB (paper ~15)\n\n";
        artifact.metric("snr16_db", snr16, "dB");
        artifact.metric("snr6_db", snr6, "dB");

        // Engine self-check: the FIR counting kernel on the model's
        // pre-scaled coefficients runs the exact same integer
        // arithmetic, so the two functional paths agree to rounding.
        const EpochConfig &ecfg = q16.epochConfig();
        const DpuMode mode = DpuMode::Bipolar; // UsfqFirConfig's default
        const double scale = q16.coefficientScale();
        std::vector<int> hCounts;
        for (double hk : h)
            hCounts.push_back(firCoefficientCount(ecfg, mode, hk * scale));
        std::vector<int> window(kTaps, ecfg.rlIdOfBipolar(0.0));
        const auto y_model = q16.filter(x);
        for (std::size_t n = 0; n < x.size(); ++n) {
            std::copy_backward(window.begin(), window.end() - 1,
                               window.end());
            window[0] = ecfg.rlIdOfBipolar(x[n]);
            const int count = firStepCount(ecfg, mode, hCounts, window);
            const double y_func = DotProductUnit::decode(
                ecfg, mode, kTaps, q16.paddedLength(),
                static_cast<std::size_t>(count));
            if (std::fabs(y_model[n] - y_func / scale) > 1e-9) {
                std::cerr << "FAIL: UsfqFirModel and firStepCount "
                             "disagree at sample "
                          << n << "\n";
                return 1;
            }
        }
        std::cout << "engine self-check: firStepCount matches "
                     "UsfqFirModel exactly over "
                  << x.size() << " samples\n\n";
    }

    // --- (a) SNR vs error rate ----------------------------------------
    Table table("Fig. 19a: SNR [dB] vs error rate",
                {"Error rate %", "Binary (bit flips)",
                 "U-SFQ (i) pulse loss", "U-SFQ (iii) RL jitter",
                 "U-SFQ (ii) RL loss"});
    for (double rate : {0.0, 0.01, 0.05, 0.10, 0.20, 0.30}) {
        baseline::FixedPointFir binary(h, kBits);
        binary.setErrorRate(rate, 17);
        UsfqFirModel u_i(h, {.taps = kTaps, .bits = kBits,
                             .pulseLossRate = rate, .seed = 17});
        UsfqFirModel u_iii(h, {.taps = kTaps, .bits = kBits,
                               .rlJitterRate = rate, .seed = 18});
        UsfqFirModel u_ii(h, {.taps = kTaps, .bits = kBits,
                              .rlLossRate = rate, .seed = 19});
        table.row()
            .cell(rate * 100, 3)
            .cell(dsp::snrOfTone(binary.filter(x), kFs, 1000.0), 4)
            .cell(dsp::snrOfTone(u_i.filter(x), kFs, 1000.0), 4)
            .cell(dsp::snrOfTone(u_iii.filter(x), kFs, 1000.0), 4)
            .cell(dsp::snrOfTone(u_ii.filter(x), kFs, 1000.0), 4);
    }
    table.print(std::cout);

    // Interpretation against the paper's baseline: our golden filter
    // is cleaner (~55 dB) than the paper's (25.7 dB), so the unary
    // noise floors must be composed with their golden to compare.
    {
        UsfqFirModel u30(h, {.taps = kTaps, .bits = kBits,
                             .pulseLossRate = 0.30, .seed = 17});
        const double floor30 =
            dsp::snrOfTone(u30.filter(x), kFs, 1000.0);
        const double composed =
            -10.0 * std::log10(std::pow(10.0, -25.7 / 10.0) +
                               std::pow(10.0, -floor30 / 10.0));
        std::cout << "\ncomposed with the paper's 25.7 dB golden: "
                     "U-SFQ (i) at 30% loses "
                  << 25.7 - composed
                  << " dB (paper: ~4 dB); binary loses the signal "
                     "entirely.\n";
        artifact.metric("usfq_i_30pct_composed_loss_db",
                        25.7 - composed, "dB");
    }

    // --- (b) binary SNR distribution at 1% --------------------------------
    RunningStats dist;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        baseline::FixedPointFir binary(h, kBits);
        binary.setErrorRate(0.01, seed);
        dist.add(dsp::snrOfTone(binary.filter(x), kFs, 1000.0));
    }
    std::cout << "\nFig. 19b: binary SNR at 1% errors over 40 seeds: "
              << "mean " << dist.mean() << " dB, sd " << dist.stddev()
              << ", min " << dist.min() << ", max " << dist.max()
              << "\n  (large variance: the damage depends on which "
                 "bit flips -- paper's wide distribution)\n";

    // --- (c) spectra -----------------------------------------------------
    std::cout << "\nFig. 19c: spectral peak at 1 kHz vs error rate "
                 "(U-SFQ pulse loss):\n";
    for (double rate : {0.0, 0.25, 0.50}) {
        UsfqFirModel fir(h, {.taps = kTaps, .bits = kBits,
                             .pulseLossRate = rate, .seed = 23});
        const auto y = fir.filter(x);
        const auto mag = dsp::magnitudeSpectrum(y);
        const std::size_t n_fft = mag.size() * 2;
        const auto k = static_cast<std::size_t>(
            1000.0 / kFs * static_cast<double>(n_fft) + 0.5);
        double peak = 0.0, stop = 0.0;
        for (std::size_t j = k - 4; j <= k + 4; ++j)
            peak = std::max(peak, mag[j]);
        for (double f : {7000.0, 8000.0, 9000.0}) {
            const auto kk = static_cast<std::size_t>(
                f / kFs * static_cast<double>(n_fft) + 0.5);
            for (std::size_t j = kk - 4; j <= kk + 4; ++j)
                stop = std::max(stop, mag[j]);
        }
        std::cout << "  " << rate * 100 << "% errors: 1 kHz peak "
                  << peak << ", worst stop-band peak " << stop
                  << " (" << 20.0 * std::log10(stop / peak)
                  << " dB below)\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::BenchArgs::parse(&argc, argv);
    bench::banner("Fig. 19: FIR accuracy under errors",
                  "binary collapses with error rate; U-SFQ loses only "
                  "~4 dB at 30% for errors (i)/(iii)");

    if (args.runPulse) {
        const int rc = runPulseEquivalence(args);
        if (rc != 0)
            return rc;
    }
    if (args.runFunctional) {
        const int rc = runAccuracyStudy(args);
        if (rc != 0)
            return rc;
    }
    return 0;
}
