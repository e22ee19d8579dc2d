#include "func/batch.hh"

#include <algorithm>
#include <cstdint>

#include "util/logging.hh"

namespace usfq::func
{

namespace
{

void
checkOperandRange(const char *what, const EpochConfig &cfg,
                  std::span<const int> values)
{
    for (int v : values)
        if (v < 0 || v > cfg.nmax())
            panic("%s: operand %d out of range 0..%d", what, v,
                  cfg.nmax());
}

} // namespace

void
batchUnipolarProductCount(const EpochConfig &cfg,
                          std::span<const int> ns,
                          std::span<const int> rl_ids,
                          std::span<int> out)
{
    if (ns.size() != rl_ids.size() || ns.size() != out.size())
        panic("batchUnipolarProductCount: span size mismatch");
    checkOperandRange("batchUnipolarProductCount", cfg, ns);
    checkOperandRange("batchUnipolarProductCount", cfg, rl_ids);
    const std::int64_t nmax = cfg.nmax();
    for (std::size_t b = 0; b < ns.size(); ++b)
        out[b] = static_cast<int>(
            static_cast<std::int64_t>(rl_ids[b]) * ns[b] / nmax);
}

void
batchBipolarProductCount(const EpochConfig &cfg,
                         std::span<const int> ns,
                         std::span<const int> rl_ids,
                         std::span<int> out)
{
    if (ns.size() != rl_ids.size() || ns.size() != out.size())
        panic("batchBipolarProductCount: span size mismatch");
    checkOperandRange("batchBipolarProductCount", cfg, ns);
    checkOperandRange("batchBipolarProductCount", cfg, rl_ids);
    const std::int64_t nmax = cfg.nmax();
    for (std::size_t b = 0; b < ns.size(); ++b) {
        // o1 + o2 with o1 = |A&B|, o2 = (N-n) - (id-o1): identical
        // arithmetic to bipolarProductCount, folded per lane.
        const int o1 = static_cast<int>(
            static_cast<std::int64_t>(rl_ids[b]) * ns[b] / nmax);
        out[b] = 2 * o1 + cfg.nmax() - ns[b] - rl_ids[b];
    }
}

void
batchTreeNetworkCount(std::span<int> products, int lanes,
                      std::span<int> out)
{
    if (lanes < 1)
        panic("batchTreeNetworkCount: need at least one lane");
    const std::size_t stride = static_cast<std::size_t>(lanes);
    if (products.size() % stride != 0)
        panic("batchTreeNetworkCount: %zu values not a multiple of "
              "%d lanes",
              products.size(), lanes);
    std::size_t operands = products.size() / stride;
    if (operands == 0 || (operands & (operands - 1)) != 0)
        panic("batchTreeNetworkCount: %zu operands (need a power of "
              "two)",
              operands);
    if (out.size() != stride)
        panic("batchTreeNetworkCount: output span size mismatch");
    while (operands > 1) {
        // One balancer level across every lane: pair p collapses into
        // slot p with the Y1-chain ceiling.  Writes trail reads, so
        // the halving is safely in place and the inner loop is a
        // contiguous vectorizable pass.
        for (std::size_t p = 0; p < operands / 2; ++p) {
            int *dst = products.data() + p * stride;
            const int *l = products.data() + 2 * p * stride;
            const int *r = l + stride;
            for (std::size_t b = 0; b < stride; ++b)
                dst[b] = (l[b] + r[b] + 1) / 2;
        }
        operands /= 2;
    }
    std::copy(products.begin(),
              products.begin() + static_cast<std::ptrdiff_t>(stride),
              out.begin());
}

void
batchDpuExpectedCount(const EpochConfig &cfg, DpuMode mode, int length,
                      std::span<const int> stream_counts,
                      std::span<const int> rl_ids, std::span<int> out,
                      WordArena &arena)
{
    const std::size_t lanes = out.size();
    if (length < 1)
        panic("batchDpuExpectedCount: need at least one element");
    if (stream_counts.size() !=
            static_cast<std::size_t>(length) * lanes ||
        rl_ids.size() != stream_counts.size())
        panic("batchDpuExpectedCount: operand span size mismatch");
    std::size_t padded = 2;
    while (padded < static_cast<std::size_t>(length))
        padded <<= 1;
    int *products = arena.allocAs<int>(padded * lanes);
    for (int k = 0; k < length; ++k) {
        const std::size_t off = static_cast<std::size_t>(k) * lanes;
        std::span<int> lane_out(products + off, lanes);
        if (mode == DpuMode::Unipolar)
            batchUnipolarProductCount(
                cfg, stream_counts.subspan(off, lanes),
                rl_ids.subspan(off, lanes), lane_out);
        else
            batchBipolarProductCount(
                cfg, stream_counts.subspan(off, lanes),
                rl_ids.subspan(off, lanes), lane_out);
    }
    // Padded inputs carry no pulses (a bipolar -1), as in the scalar
    // model.
    std::fill(products + static_cast<std::size_t>(length) * lanes,
              products + padded * lanes, 0);
    batchTreeNetworkCount(
        std::span<int>(products, padded * lanes),
        static_cast<int>(lanes), out);
}

void
batchPeExpectedSlot(const EpochConfig &cfg,
                    std::span<const int> in1_ids,
                    std::span<const int> in2_counts,
                    std::span<const int> in3_counts, std::span<int> out,
                    WordArena &arena)
{
    const std::size_t lanes = out.size();
    if (in1_ids.size() != lanes || in2_counts.size() != lanes ||
        in3_counts.size() != lanes)
        panic("batchPeExpectedSlot: operand span size mismatch");
    int *products = arena.allocAs<int>(lanes);
    batchUnipolarProductCount(cfg, in2_counts, in1_ids,
                              std::span<int>(products, lanes));
    for (std::size_t b = 0; b < lanes; ++b) {
        // treeNetworkCount({product, in3}) = one balancer ceiling,
        // clamped at the integrator's nmax, as in peExpectedSlot.
        const int slot = (products[b] + in3_counts[b] + 1) / 2;
        out[b] = std::min(slot, cfg.nmax());
    }
}

} // namespace usfq::func
