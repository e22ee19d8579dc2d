#include "func/components.hh"

#include <algorithm>

#include "sfq/params.hh"
#include "util/logging.hh"
#include "util/span_kernels.hh"

namespace usfq::func
{

namespace
{

/** Block-level switching estimate for one epoch evaluation. */
int
epochSwitches(int jj)
{
    return cell::switchesPerOp(jj);
}

/** Batched evaluations record one epoch's switching per lane, so the
 *  power rollup of a B-lane call equals B scalar calls. */
int
batchSwitches(int jj, std::size_t lanes)
{
    return static_cast<int>(lanes) * epochSwitches(jj);
}

void
checkBatchSpans(const char *what, const std::string &name,
                std::size_t got, int operands, std::size_t lanes)
{
    if (got != static_cast<std::size_t>(operands) * lanes)
        panic("%s %s: %zu operand values for %d inputs x %zu lanes",
              what, name.c_str(), got, operands, lanes);
}

void
checkFanIn(const char *what, const std::string &name, int num_inputs)
{
    if (num_inputs < 2 || (num_inputs & (num_inputs - 1)) != 0)
        fatal("%s %s: %d inputs (need a power of two >= 2)", what,
              name.c_str(), num_inputs);
}

} // namespace

// --- multipliers ------------------------------------------------------------

UnipolarMultiplier::UnipolarMultiplier(Netlist &nl,
                                       const std::string &name)
    : Component(nl, name)
{
}

int
UnipolarMultiplier::evaluate(const EpochConfig &cfg, int stream_count,
                             int rl_id)
{
    recordSwitches(epochSwitches(jjCount()));
    return unipolarProductCount(cfg, stream_count, rl_id);
}

PulseStream
UnipolarMultiplier::evaluateStream(const PulseStream &a, int rl_id)
{
    recordSwitches(epochSwitches(jjCount()));
    return a.maskBelow(rl_id);
}

void
UnipolarMultiplier::evaluateBatch(const EpochConfig &cfg,
                                  std::span<const int> ns,
                                  std::span<const int> rl_ids,
                                  std::span<int> out)
{
    recordSwitches(batchSwitches(jjCount(), out.size()));
    batchUnipolarProductCount(cfg, ns, rl_ids, out);
}

BatchStream
UnipolarMultiplier::evaluateStreamBatch(const BatchStream &a,
                                        std::span<const int> rl_ids,
                                        WordArena &arena)
{
    recordSwitches(batchSwitches(jjCount(),
                                 static_cast<std::size_t>(a.lanes())));
    return batchMaskBelow(a, rl_ids, arena);
}

BipolarMultiplier::BipolarMultiplier(Netlist &nl,
                                     const std::string &name)
    : Component(nl, name)
{
}

int
BipolarMultiplier::evaluate(const EpochConfig &cfg, int stream_count,
                            int rl_id)
{
    recordSwitches(epochSwitches(jjCount()));
    return bipolarProductCount(cfg, stream_count, rl_id);
}

PulseStream
BipolarMultiplier::evaluateStream(const PulseStream &a, int rl_id)
{
    recordSwitches(epochSwitches(jjCount()));
    return bipolarProductStream(a, rl_id);
}

void
BipolarMultiplier::evaluateBatch(const EpochConfig &cfg,
                                 std::span<const int> ns,
                                 std::span<const int> rl_ids,
                                 std::span<int> out)
{
    recordSwitches(batchSwitches(jjCount(), out.size()));
    batchBipolarProductCount(cfg, ns, rl_ids, out);
}

BatchStream
BipolarMultiplier::evaluateStreamBatch(const BatchStream &a,
                                       std::span<const int> rl_ids,
                                       WordArena &arena)
{
    recordSwitches(batchSwitches(jjCount(),
                                 static_cast<std::size_t>(a.lanes())));
    return batchBipolarProduct(a, rl_ids, arena);
}

// --- adders -----------------------------------------------------------------

MergerTreeAdder::MergerTreeAdder(Netlist &nl, const std::string &name,
                                 int num_inputs)
    : Component(nl, name), fanIn(num_inputs)
{
    checkFanIn("func::MergerTreeAdder", this->name(), num_inputs);
}

int
MergerTreeAdder::evaluate(const EpochConfig &cfg,
                          const std::vector<int> &counts)
{
    if (static_cast<int>(counts.size()) != fanIn)
        panic("func::MergerTreeAdder %s: %zu counts for %d inputs",
              name().c_str(), counts.size(), fanIn);
    recordSwitches(epochSwitches(jjCount()));
    lost += static_cast<std::uint64_t>(
        mergerTreeCollisionLoss(cfg, counts));
    return mergerTreeUnionCount(cfg, counts);
}

void
MergerTreeAdder::evaluateBatch(const EpochConfig &cfg,
                               std::span<const int> counts,
                               std::span<int> out, WordArena &arena)
{
    const std::size_t lanes = out.size();
    checkBatchSpans("func::MergerTreeAdder", name(), counts.size(),
                    fanIn, lanes);
    recordSwitches(batchSwitches(jjCount(), lanes));
    // Union the per-input Euclidean batches in place: lane b ends up
    // with the slot union of lane b's input streams, exactly the
    // scalar mergerTreeUnionCount set.
    BatchStream acc =
        BatchStream::euclidean(cfg, counts.first(lanes), arena);
    for (int k = 1; k < fanIn; ++k) {
        const BatchStream next = BatchStream::euclidean(
            cfg, counts.subspan(static_cast<std::size_t>(k) * lanes,
                                lanes),
            arena);
        span::wordOr(acc.data(), acc.data(), next.data(),
                     acc.totalWords());
    }
    acc.counts(out);
    for (std::size_t b = 0; b < lanes; ++b) {
        int sum = 0;
        for (int k = 0; k < fanIn; ++k)
            sum += counts[static_cast<std::size_t>(k) * lanes + b];
        lost += static_cast<std::uint64_t>(sum - out[b]);
    }
}

TreeCountingNetwork::TreeCountingNetwork(Netlist &nl,
                                         const std::string &name,
                                         int num_inputs)
    : Component(nl, name), fanIn(num_inputs)
{
    checkFanIn("func::TreeCountingNetwork", this->name(), num_inputs);
}

int
TreeCountingNetwork::evaluate(std::vector<int> counts)
{
    if (static_cast<int>(counts.size()) != fanIn)
        panic("func::TreeCountingNetwork %s: %zu counts for %d inputs",
              name().c_str(), counts.size(), fanIn);
    recordSwitches(epochSwitches(jjCount()));
    return treeNetworkCount(std::move(counts));
}

void
TreeCountingNetwork::evaluateBatch(std::span<const int> counts,
                                   std::span<int> out, WordArena &arena)
{
    const std::size_t lanes = out.size();
    checkBatchSpans("func::TreeCountingNetwork", name(), counts.size(),
                    fanIn, lanes);
    recordSwitches(batchSwitches(jjCount(), lanes));
    int *scratch = arena.allocAs<int>(counts.size());
    std::copy(counts.begin(), counts.end(), scratch);
    batchTreeNetworkCount(std::span<int>(scratch, counts.size()),
                          static_cast<int>(lanes), out);
}

// --- race logic -------------------------------------------------------------

FirstArrival::FirstArrival(Netlist &nl, const std::string &name)
    : Component(nl, name)
{
}

int
FirstArrival::evaluate(const std::vector<int> &rl_ids)
{
    if (rl_ids.empty())
        panic("func::FirstArrival %s: no operands", name().c_str());
    recordSwitches(epochSwitches(jjCount()));
    return *std::min_element(rl_ids.begin(), rl_ids.end());
}

void
FirstArrival::evaluateBatch(std::span<const int> rl_ids, int operands,
                            std::span<int> out)
{
    if (operands < 1)
        panic("func::FirstArrival %s: no operands", name().c_str());
    const std::size_t lanes = out.size();
    checkBatchSpans("func::FirstArrival", name(), rl_ids.size(),
                    operands, lanes);
    recordSwitches(batchSwitches(jjCount(), lanes));
    std::copy(rl_ids.begin(),
              rl_ids.begin() + static_cast<std::ptrdiff_t>(lanes),
              out.begin());
    for (int k = 1; k < operands; ++k)
        for (std::size_t b = 0; b < lanes; ++b)
            out[b] = std::min(
                out[b],
                rl_ids[static_cast<std::size_t>(k) * lanes + b]);
}

LastArrival::LastArrival(Netlist &nl, const std::string &name)
    : Component(nl, name)
{
}

int
LastArrival::evaluate(const std::vector<int> &rl_ids)
{
    if (rl_ids.empty())
        panic("func::LastArrival %s: no operands", name().c_str());
    recordSwitches(epochSwitches(jjCount()));
    return *std::max_element(rl_ids.begin(), rl_ids.end());
}

void
LastArrival::evaluateBatch(std::span<const int> rl_ids, int operands,
                           std::span<int> out)
{
    if (operands < 1)
        panic("func::LastArrival %s: no operands", name().c_str());
    const std::size_t lanes = out.size();
    checkBatchSpans("func::LastArrival", name(), rl_ids.size(),
                    operands, lanes);
    recordSwitches(batchSwitches(jjCount(), lanes));
    std::copy(rl_ids.begin(),
              rl_ids.begin() + static_cast<std::ptrdiff_t>(lanes),
              out.begin());
    for (int k = 1; k < operands; ++k)
        for (std::size_t b = 0; b < lanes; ++b)
            out[b] = std::max(
                out[b],
                rl_ids[static_cast<std::size_t>(k) * lanes + b]);
}

// --- PNMs -------------------------------------------------------------------

ClassicPnm::ClassicPnm(Netlist &nl, const std::string &name, int bits)
    : Component(nl, name), nbits(bits)
{
    if (bits < 1 || bits > 20)
        fatal("func::ClassicPnm %s: %d bits unsupported",
              this->name().c_str(), bits);
}

void
ClassicPnm::program(int value)
{
    if (value < 0 || value > maxValue())
        fatal("func::ClassicPnm %s: value %d out of range 0..%d",
              name().c_str(), value, maxValue());
    programmed = value;
}

int
ClassicPnm::count()
{
    recordSwitches(epochSwitches(jjCount()));
    return programmed;
}

UniformPnm::UniformPnm(Netlist &nl, const std::string &name, int bits)
    : Component(nl, name), nbits(bits)
{
    if (bits < 1 || bits > 20)
        fatal("func::UniformPnm %s: %d bits unsupported",
              this->name().c_str(), bits);
}

void
UniformPnm::program(int value)
{
    if (value < 0 || value > maxValue())
        fatal("func::UniformPnm %s: value %d out of range 0..%d",
              name().c_str(), value, maxValue());
    programmed = value;
}

int
UniformPnm::count()
{
    recordSwitches(epochSwitches(jjCount()));
    return programmed;
}

std::vector<int>
UniformPnm::slots()
{
    recordSwitches(epochSwitches(jjCount()));
    return uniformPnmSlots(nbits, programmed);
}

// --- integrator / PE --------------------------------------------------------

PulseToRlIntegrator::PulseToRlIntegrator(Netlist &nl,
                                         const std::string &name,
                                         const EpochConfig &config)
    : Component(nl, name), cfg(config)
{
}

void
PulseToRlIntegrator::accumulate(int n)
{
    if (n < 0)
        panic("func::PulseToRlIntegrator %s: negative pulse count",
              name().c_str());
    recordSwitches(2 * n);
    counter = std::min(counter + n, cfg.nmax());
}

int
PulseToRlIntegrator::epoch()
{
    recordSwitches(epochSwitches(jjCount()));
    const int slot = counter;
    counter = 0;
    return slot;
}

ProcessingElement::ProcessingElement(Netlist &nl,
                                     const std::string &name,
                                     const EpochConfig &config)
    : Component(nl, name), cfg(config)
{
}

int
ProcessingElement::evaluate(int in1_id, int in2_count, int in3_count)
{
    recordSwitches(epochSwitches(jjCount()));
    return peExpectedSlot(cfg, in1_id, in2_count, in3_count);
}

void
ProcessingElement::evaluateBatch(std::span<const int> in1_ids,
                                 std::span<const int> in2_counts,
                                 std::span<const int> in3_counts,
                                 std::span<int> out, WordArena &arena)
{
    recordSwitches(batchSwitches(jjCount(), out.size()));
    batchPeExpectedSlot(cfg, in1_ids, in2_counts, in3_counts, out,
                        arena);
}

// --- DPU --------------------------------------------------------------------

DotProductUnit::DotProductUnit(Netlist &nl, const std::string &name,
                               int length, DpuMode mode)
    : Component(nl, name), numElems(length), dpuMode(mode)
{
    if (length < 1)
        fatal("func::DotProductUnit %s: need at least one element",
              this->name().c_str());
    padded = 2;
    while (padded < length)
        padded <<= 1;
}

int
DotProductUnit::evaluate(const EpochConfig &cfg,
                         const std::vector<int> &stream_counts,
                         const std::vector<int> &rl_ids)
{
    if (static_cast<int>(stream_counts.size()) != numElems ||
        static_cast<int>(rl_ids.size()) != numElems)
        panic("func::DotProductUnit %s: operand size mismatch",
              name().c_str());
    recordSwitches(epochSwitches(jjCount()));
    return dpuExpectedCount(cfg, dpuMode, stream_counts, rl_ids);
}

void
DotProductUnit::evaluateBatch(const EpochConfig &cfg,
                              std::span<const int> stream_counts,
                              std::span<const int> rl_ids,
                              std::span<int> out, WordArena &arena)
{
    const std::size_t lanes = out.size();
    checkBatchSpans("func::DotProductUnit", name(),
                    stream_counts.size(), numElems, lanes);
    checkBatchSpans("func::DotProductUnit", name(), rl_ids.size(),
                    numElems, lanes);
    recordSwitches(batchSwitches(jjCount(), lanes));
    batchDpuExpectedCount(cfg, dpuMode, numElems, stream_counts,
                          rl_ids, out, arena);
}

double
DotProductUnit::decode(const EpochConfig &cfg, std::size_t count) const
{
    return usfq::DotProductUnit::decode(cfg, dpuMode, numElems, padded,
                                        count);
}

// --- buffer -----------------------------------------------------------------

IntegratorBuffer::IntegratorBuffer(Netlist &nl, const std::string &name,
                                   Tick period)
    : Component(nl, name), epochPeriod(period)
{
    if (period <= 0)
        fatal("func::IntegratorBuffer %s: period must be positive",
              this->name().c_str());
}

int
IntegratorBuffer::push(int rl_id)
{
    recordSwitches(epochSwitches(jjCount()));
    const int prev = held;
    held = rl_id;
    return prev;
}

// --- FIR --------------------------------------------------------------------

namespace
{

int
firPadded(std::size_t taps)
{
    int padded = 2;
    while (static_cast<std::size_t>(padded) < taps)
        padded <<= 1;
    return padded;
}

} // namespace

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
    std::vector<int> products(
        static_cast<std::size_t>(firPadded(h_counts.size())), 0);
    for (std::size_t k = 0; k < h_counts.size(); ++k) {
        const int id = k < window_ids.size()
                           ? window_ids[k]
                           : (mode == DpuMode::Unipolar
                                  ? 0
                                  : epoch.rlIdOfBipolar(0.0));
        products[k] = mode == DpuMode::Unipolar
                          ? unipolarProductCount(epoch, h_counts[k], id)
                          : bipolarProductCount(epoch, h_counts[k], id);
    }
    return treeNetworkCount(std::move(products));
}

void
firStepCountBatch(const EpochConfig &epoch, DpuMode mode,
                  std::span<const int> h_counts,
                  std::span<const int> window_ids, std::span<int> out,
                  WordArena &arena)
{
    const std::size_t lanes = out.size();
    const std::size_t taps = h_counts.size();
    const auto padded = static_cast<std::size_t>(firPadded(taps));
    int *products = arena.allocAs<int>(padded * lanes);
    int *hs = arena.allocAs<int>(lanes);
    for (std::size_t k = 0; k < taps; ++k) {
        std::fill(hs, hs + lanes, h_counts[k]);
        const std::size_t off = k * lanes;
        std::span<int> lane_out(products + off, lanes);
        if (mode == DpuMode::Unipolar)
            batchUnipolarProductCount(
                epoch, std::span<const int>(hs, lanes),
                window_ids.subspan(off, lanes), lane_out);
        else
            batchBipolarProductCount(
                epoch, std::span<const int>(hs, lanes),
                window_ids.subspan(off, lanes), lane_out);
    }
    std::fill(products + taps * lanes, products + padded * lanes, 0);
    batchTreeNetworkCount(std::span<int>(products, padded * lanes),
                          static_cast<int>(lanes), out);
}

UsfqFir::UsfqFir(Netlist &nl, const std::string &name,
                 const UsfqFirConfig &config)
    : Component(nl, name),
      cfg(config),
      epoch(config.bits, config.clockPeriod()),
      hCounts(static_cast<std::size_t>(config.taps), 0)
{
    if (cfg.taps < 2)
        fatal("func::UsfqFir %s: need at least two taps",
              this->name().c_str());
    padded = firPadded(static_cast<std::size_t>(cfg.taps));
}

void
UsfqFir::setCoefficient(int k, double value)
{
    if (k < 0 || k >= cfg.taps)
        panic("func::UsfqFir %s: tap %d out of range", name().c_str(),
              k);
    hCounts[static_cast<std::size_t>(k)] =
        firCoefficientCount(epoch, cfg.mode, value);
}

int
UsfqFir::stepCount(const std::vector<int> &window_ids)
{
    recordSwitches(epochSwitches(jjCount()));
    return firStepCount(epoch, cfg.mode, hCounts, window_ids);
}

void
UsfqFir::stepCountBatch(std::span<const int> window_ids,
                        std::span<int> out, WordArena &arena)
{
    checkBatchSpans("func::UsfqFir", name(), window_ids.size(),
                    cfg.taps, out.size());
    recordSwitches(batchSwitches(jjCount(), out.size()));
    firStepCountBatch(epoch, cfg.mode, hCounts, window_ids, out, arena);
}

double
UsfqFir::step(const std::vector<double> &window)
{
    std::vector<int> ids;
    ids.reserve(window.size());
    for (double xv : window)
        ids.push_back(cfg.mode == DpuMode::Unipolar
                          ? epoch.rlIdOfUnipolar(xv)
                          : epoch.rlIdOfBipolar(xv));
    const int count = stepCount(ids);
    return usfq::DotProductUnit::decode(epoch, cfg.mode, cfg.taps,
                                        padded,
                                        static_cast<std::size_t>(count));
}

std::vector<double>
UsfqFir::filter(const std::vector<double> &x)
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

void
UsfqFir::reset()
{
    std::fill(hCounts.begin(), hCounts.end(), 0);
}

} // namespace usfq::func
