#include "core/fir.hh"

#include <algorithm>
#include <cmath>

#include "sfq/params.hh"
#include "util/logging.hh"

namespace usfq
{

// --- UsfqFirConfig -----------------------------------------------------------

Tick
UsfqFirConfig::clockPeriod() const
{
    return static_cast<Tick>(bits) * cell::kTff2Delay;
}

Tick
UsfqFirConfig::epochLatency() const
{
    return (Tick{1} << bits) * clockPeriod();
}

// --- area model ------------------------------------------------------------------

long long
usfqFirAreaJJ(int taps, int bits, DpuMode mode)
{
    using namespace cell;
    long long total = 0;

    // Coefficient bank: shared TFF2 divider + epoch JTL + per-stage
    // fanout + per-word NDRO gates and merger cascade.
    total += static_cast<long long>(bits) * kTff2JJs + kJtlJJs;
    total += static_cast<long long>(bits) * (taps - 1) * kSplitterJJs;
    total += static_cast<long long>(taps) *
             (bits * kNdroJJs + (bits - 1) * kMergerJJs);
    if (bits == 1)
        total += static_cast<long long>(taps) * kJtlJJs;

    // RL shift register: taps-1 memory cells + toggler + tap splitters.
    if (taps > 1) {
        total += static_cast<long long>(taps - 1) * 120 + kTff2JJs;
        if (taps > 2)
            total += static_cast<long long>(taps - 2) * kSplitterJJs;
    }

    // DPU: multipliers + counting tree + fanout trees.
    int padded = 2;
    while (padded < taps)
        padded <<= 1;
    const int mult_jj = mode == DpuMode::Unipolar ? 13 : 46;
    total += static_cast<long long>(taps) * mult_jj;
    total += static_cast<long long>(padded - 1) * 60;
    if (taps > 1) {
        total += static_cast<long long>(taps - 1) * kSplitterJJs;
        if (mode == DpuMode::Bipolar)
            total += static_cast<long long>(taps - 1) * kSplitterJJs;
    }

    // Top-level splitters: sample, clock, epoch distribution.
    total += 3 * kSplitterJJs;
    return total;
}

// --- counting kernels ----------------------------------------------------------

int
firCoefficientCount(const EpochConfig &epoch, DpuMode mode, double value)
{
    return mode == DpuMode::Unipolar ? epoch.streamCountOfUnipolar(value)
                                     : epoch.streamCountOfBipolar(value);
}

int
firStepCount(const EpochConfig &epoch, DpuMode mode,
             std::span<const int> h_counts,
             std::span<const int> window_ids)
{
    return paddedTreeCount(h_counts.size(), [&](std::size_t k) {
        const int id = k < window_ids.size()
                           ? window_ids[k]
                           : (mode == DpuMode::Unipolar
                                  ? 0
                                  : epoch.rlIdOfBipolar(0.0));
        return mode == DpuMode::Unipolar
                   ? unipolarProductCount(epoch, h_counts[k], id)
                   : bipolarProductCount(epoch, h_counts[k], id);
    });
}

// --- UsfqFirModel -------------------------------------------------------------------

UsfqFirModel::UsfqFirModel(const std::vector<double> &coefficients,
                           const UsfqFirConfig &config)
    : cfg(config),
      epoch(config.bits, config.clockPeriod()),
      rng(config.seed)
{
    if (coefficients.empty())
        fatal("UsfqFirModel: no coefficients");
    if (static_cast<int>(coefficients.size()) != cfg.taps)
        fatal("UsfqFirModel: %zu coefficients for %d taps",
              coefficients.size(), cfg.taps);

    padded = 2;
    while (padded < cfg.taps)
        padded <<= 1;

    // Normalize coefficients to full scale before quantizing (the
    // usual fixed-coefficient practice; the decode rescales).  Small
    // low-pass taps would otherwise waste most of the unary grid.
    double peak = 0.0;
    for (double c : coefficients)
        peak = std::max(peak, std::fabs(c));
    hScale = peak > 0.0 && peak < 0.95 ? 0.95 / peak : 1.0;

    hCounts.reserve(coefficients.size());
    for (double c : coefficients)
        hCounts.push_back(firCoefficientCount(epoch, cfg.mode, c * hScale));
}

namespace
{

/** Binomial thinning: keep each of @p count pulses with prob 1-p. */
int
thinStream(int count, double p, Rng &rng)
{
    if (count <= 0 || p <= 0.0)
        return count;
    if (count < 32) {
        int kept = 0;
        for (int i = 0; i < count; ++i)
            kept += rng.bernoulli(p) ? 0 : 1;
        return kept;
    }
    const double mean = count * (1.0 - p);
    const double sd = std::sqrt(count * p * (1.0 - p));
    const auto drawn =
        static_cast<int>(std::lround(rng.gaussian(mean, sd)));
    return std::clamp(drawn, 0, count);
}

} // namespace

int
UsfqFirModel::productCount(int h_count, int x_id)
{
    // Error (ii): the RL sample pulse is lost; the multiplier's NDRO is
    // never reset, so the whole coefficient stream passes.
    if (cfg.rlLossRate > 0.0 && rng.bernoulli(cfg.rlLossRate))
        return h_count;

    // Error (iii): delay variation makes the RL pulse "arrive outside
    // the expected time-slot" (paper §5.4.1) -- a one-slot
    // displacement with the given probability.  Like (i), each event
    // perturbs the operand by one LSB, which is why the paper calls
    // their effects similar.
    int id = x_id;
    if (cfg.rlJitterRate > 0.0 && rng.bernoulli(cfg.rlJitterRate)) {
        id += rng.bernoulli(0.5) ? 1 : -1;
        id = std::clamp(id, 0, epoch.nmax());
    }

    int count = cfg.mode == DpuMode::Unipolar
                    ? unipolarProductCount(epoch, h_count, id)
                    : bipolarProductCount(epoch, h_count, id);

    // Error (i): a fraction of the product-stream pulses is lost
    // (flux trapping, collisions): binomial thinning at the loss rate.
    count = thinStream(count, cfg.pulseLossRate, rng);
    return count;
}

double
UsfqFirModel::step(const std::vector<double> &window)
{
    // Products are requested in tap order, so the error draws are too.
    const int count = paddedTreeCount(hCounts.size(), [&](std::size_t k) {
        const double xv = k < window.size() ? window[k] : 0.0;
        const int id = cfg.mode == DpuMode::Unipolar
                           ? epoch.rlIdOfUnipolar(xv)
                           : epoch.rlIdOfBipolar(xv);
        return productCount(hCounts[k], id);
    });
    return DotProductUnit::decode(epoch, cfg.mode, cfg.taps, padded,
                                  static_cast<std::size_t>(count)) /
           hScale;
}

std::vector<double>
UsfqFirModel::filter(const std::vector<double> &x)
{
    std::vector<double> y(x.size());
    std::vector<double> window(static_cast<std::size_t>(cfg.taps), 0.0);
    for (std::size_t n = 0; n < x.size(); ++n) {
        for (std::size_t k = window.size() - 1; k > 0; --k)
            window[k] = window[k - 1];
        window[0] = x[n];
        y[n] = step(window);
    }
    return y;
}

std::vector<double>
UsfqFirModel::quantizedCoefficients() const
{
    std::vector<double> out;
    out.reserve(hCounts.size());
    for (int c : hCounts) {
        const double scaled =
            cfg.mode == DpuMode::Unipolar
                ? epoch.decodeUnipolar(static_cast<std::size_t>(c))
                : epoch.decodeBipolar(static_cast<std::size_t>(c));
        out.push_back(scaled / hScale);
    }
    return out;
}

double
UsfqFirModel::latencyUs() const
{
    return ticksToSeconds(cfg.epochLatency()) * 1e6;
}

double
UsfqFirModel::throughputOps() const
{
    return cfg.taps / ticksToSeconds(cfg.epochLatency());
}

long long
UsfqFirModel::areaJJ() const
{
    return usfqFirAreaJJ(cfg.taps, cfg.bits, cfg.mode);
}

double
UsfqFirModel::efficiencyOpsPerJJ() const
{
    return throughputOps() / static_cast<double>(areaJJ());
}

// --- UsfqFir (pulse-level netlist) ----------------------------------------------

UsfqFir::UsfqFir(Netlist &nl, const std::string &name,
                 const UsfqFirConfig &config)
    : Component(nl, name), cfg(config)
{
    if (cfg.taps < 2)
        fatal("UsfqFir %s: need at least two taps", name.c_str());

    bank = std::make_unique<CoefficientBank>(nl, name + ".bank",
                                             cfg.taps, cfg.bits);
    shiftReg = std::make_unique<RlShiftRegister>(
        nl, name + ".sreg", cfg.taps - 1, cfg.epochLatency());
    dpu = std::make_unique<DotProductUnit>(nl, name + ".dpu", cfg.taps,
                                           cfg.mode);
    splX = std::make_unique<Splitter>(nl, name + ".splX");
    splClk = std::make_unique<Splitter>(nl, name + ".splClk");
    splEpoch = std::make_unique<Splitter>(nl, name + ".splE");

    // Clock: to the bank's divider chain and (bipolar) the grid clock.
    splClk->out1.connect(bank->clkIn());
    if (cfg.mode == DpuMode::Bipolar)
        splClk->out2.connect(dpu->clkIn());
    else
        splClk->out2.markOpen("grid-clock leg only used in bipolar "
                              "mode");

    // Epoch marker: to the multipliers and the delay-line interleave.
    bank->epochOut().connect(splEpoch->in);
    splEpoch->out1.connect(dpu->epochIn());
    splEpoch->out2.connect(shiftReg->epochIn());

    // Sample path: tap 0 directly, taps 1..N-1 through the delay line.
    splX->out1.connect(dpu->rlIn(0));
    splX->out2.connect(shiftReg->in());
    for (int k = 0; k + 1 < cfg.taps; ++k)
        shiftReg->tapOut(k).connect(dpu->rlIn(k + 1));

    // Coefficient streams.
    for (int k = 0; k < cfg.taps; ++k)
        bank->out(k).connect(dpu->streamIn(k));
}

InputPort &
UsfqFir::clkIn()
{
    return splClk->in;
}

Tick
UsfqFir::markerLag() const
{
    // splClk -> B TFF2 stages -> epoch JTL.
    return cell::kSplitterDelay +
           static_cast<Tick>(cfg.bits) * cell::kTff2Delay +
           cell::kJtlDelay;
}

void
UsfqFir::setCoefficient(int k, double value)
{
    if (cfg.mode == DpuMode::Unipolar)
        bank->programUnipolar(k, value);
    else
        bank->programBipolar(k, value);
}

int
UsfqFir::jjCount() const
{
    return bank->jjCount() + shiftReg->jjCount() + dpu->jjCount() +
           splX->jjCount() + splClk->jjCount() + splEpoch->jjCount();
}

void
UsfqFir::reset()
{
    bank->reset();
    shiftReg->reset();
    dpu->reset();
}

} // namespace usfq
