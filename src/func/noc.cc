#include "func/noc.hh"

#include <algorithm>
#include <map>
#include <tuple>

#include "core/encoding.hh"
#include "func/batch.hh"

namespace usfq::func
{

FabricIndex::FabricIndex(const noc::GridPlan &plan)
    : cfg(plan.cfg), windows(plan.windows), routers(plan.routers.size()),
      sinks(plan.sinkTiles())
{
    for (std::size_t si = 0; si < sinks.size(); ++si) {
        for (int w = 0; w < windows; ++w) {
            SinkWindow sw{si, w, {}};
            for (const noc::FlowPlan &f : plan.flows)
                if (f.spec.dst == sinks[si] && f.window == w)
                    sw.srcs.push_back(f.spec.src);
            if (!sw.srcs.empty())
                sinkWindows.push_back(std::move(sw));
        }
    }
    std::map<std::tuple<int, int, int>, std::map<int, std::vector<int>>>
        via;
    for (const noc::FlowPlan &f : plan.flows)
        for (std::size_t k = 0; k < f.routers.size(); ++k)
            via[{f.routers[k], f.outDir[k], f.window}][f.inDir[k]]
                .push_back(f.spec.src);
    for (const auto &[key, byInput] : via) {
        const auto [r, d, w] = key;
        Channel ch;
        ch.router = r;
        ch.slot = (static_cast<std::size_t>(r) * noc::kDirCount +
                   static_cast<std::size_t>(d)) *
                      static_cast<std::size_t>(windows) +
                  static_cast<std::size_t>(w);
        for (const auto &[in, srcs] : byInput)
            ch.inputs.push_back(srcs);
        channels.push_back(std::move(ch));
    }
}

std::vector<int>
nocTileCounts(const noc::GridPlan &plan, const noc::TileOperands &ops)
{
    std::vector<int> counts(static_cast<std::size_t>(plan.tiles()), 0);
    if (plan.spec.kind == noc::TileKind::Pe) {
        // The PE's converted result is a single RL pulse: the injected
        // count is exactly 1 regardless of operands (the slot, which
        // the functional PE models to +/-1, never enters the fabric).
        for (const noc::FlowPlan &f : plan.flows)
            counts[static_cast<std::size_t>(f.spec.src)] = 1;
        return counts;
    }
    const std::size_t taps = static_cast<std::size_t>(plan.spec.taps);
    std::vector<int> streams(taps), ids(taps);
    for (const noc::FlowPlan &f : plan.flows) {
        const std::size_t t = static_cast<std::size_t>(f.spec.src);
        std::copy_n(ops.streams.begin() +
                        static_cast<std::ptrdiff_t>(t * taps),
                    taps, streams.begin());
        std::copy_n(ops.ids.begin() + static_cast<std::ptrdiff_t>(t * taps),
                    taps, ids.begin());
        counts[t] = std::min(
            dpuExpectedCount(plan.cfg, plan.spec.mode, streams, ids),
            plan.cfg.nmax());
    }
    return counts;
}

noc::FabricObservation
evaluateFabric(const FabricIndex &index, const std::vector<int> &counts)
{
    const EpochConfig &cfg = index.cfg;
    const std::size_t windows = static_cast<std::size_t>(index.windows);
    noc::FabricObservation obs;
    obs.sinks = index.sinks;
    obs.sinkWindowCounts.assign(obs.sinks.size(),
                                std::vector<std::uint64_t>(windows, 0));

    // Sink deliveries: per (sink, window), the slot union of the
    // sharing flows' Euclidean streams.
    std::vector<int> flowCounts;
    const auto gather = [&](const std::vector<int> &srcs) {
        flowCounts.clear();
        for (int t : srcs)
            flowCounts.push_back(counts[static_cast<std::size_t>(t)]);
        return mergerTreeUnionCount(cfg, flowCounts);
    };
    for (const FabricIndex::SinkWindow &sw : index.sinkWindows) {
        const auto u = static_cast<std::uint64_t>(gather(sw.srcs));
        obs.sinkWindowCounts[sw.sink][static_cast<std::size_t>(
            sw.window)] = u;
        obs.delivered += u;
    }

    // Router ledgers: per (router, output, window), the pulses the
    // merger tree absorbs = sum of per-input stream sizes minus the
    // overall union.  Union loss is associative, so this is exact for
    // any balanced tree topology.  The overall union is also exactly
    // what survives onto the output -- the occupancy the pulse
    // engine's NocTap counts there.
    obs.routerCollisions.assign(index.routers, 0);
    obs.outputWindowPulses.assign(index.routers * noc::kDirCount * windows,
                                  0);
    std::vector<int> all;
    for (const FabricIndex::Channel &ch : index.channels) {
        all.clear();
        long long inputSum = 0;
        for (const std::vector<int> &srcs : ch.inputs) {
            inputSum += gather(srcs);
            all.insert(all.end(), flowCounts.begin(), flowCounts.end());
        }
        const long long unionOut = mergerTreeUnionCount(cfg, all);
        obs.outputWindowPulses[ch.slot] =
            static_cast<std::uint64_t>(unionOut);
        const long long loss = inputSum - unionOut;
        obs.routerCollisions[static_cast<std::size_t>(ch.router)] +=
            static_cast<std::uint64_t>(loss);
        obs.collisions += static_cast<std::uint64_t>(loss);
    }
    return obs;
}

noc::FabricObservation
evaluateFabricSeed(const noc::GridPlan &plan, const FabricIndex &index,
                   std::uint64_t seed)
{
    return evaluateFabric(
        index, nocTileCounts(plan, drawTileOperands(plan, seed)));
}

noc::FabricObservation
evaluateFabricSeed(const noc::GridPlan &plan, std::uint64_t seed)
{
    return evaluateFabricSeed(plan, FabricIndex(plan), seed);
}

void
evaluateFabricBatch(const noc::GridPlan &plan, const FabricIndex &index,
                    std::span<const std::uint64_t> seeds,
                    std::vector<noc::FabricObservation> &out,
                    WordArena &arena)
{
    const std::size_t lanes = seeds.size();
    const std::size_t tiles = static_cast<std::size_t>(plan.tiles());
    const std::size_t taps = static_cast<std::size_t>(plan.spec.taps);
    std::vector<noc::TileOperands> ops;
    ops.reserve(lanes);
    for (std::uint64_t seed : seeds)
        ops.push_back(drawTileOperands(plan, seed));

    std::vector<std::vector<int>> counts(
        lanes, std::vector<int>(tiles, 0));
    if (plan.spec.kind == noc::TileKind::Pe) {
        for (const noc::FlowPlan &f : plan.flows)
            for (std::size_t l = 0; l < lanes; ++l)
                counts[l][static_cast<std::size_t>(f.spec.src)] = 1;
    } else {
        int *streams = arena.allocAs<int>(taps * lanes);
        int *ids = arena.allocAs<int>(taps * lanes);
        int *res = arena.allocAs<int>(lanes);
        for (const noc::FlowPlan &f : plan.flows) {
            const std::size_t t = static_cast<std::size_t>(f.spec.src);
            for (std::size_t k = 0; k < taps; ++k)
                for (std::size_t l = 0; l < lanes; ++l) {
                    streams[k * lanes + l] =
                        ops[l].streams[t * taps + k];
                    ids[k * lanes + l] = ops[l].ids[t * taps + k];
                }
            batchDpuExpectedCount(
                plan.cfg, plan.spec.mode, plan.spec.taps,
                std::span<const int>(streams, taps * lanes),
                std::span<const int>(ids, taps * lanes),
                std::span<int>(res, lanes), arena);
            for (std::size_t l = 0; l < lanes; ++l)
                counts[l][t] = std::min(res[l], plan.cfg.nmax());
        }
    }

    out.clear();
    out.reserve(lanes);
    for (std::size_t l = 0; l < lanes; ++l)
        out.push_back(evaluateFabric(index, counts[l]));
}

void
evaluateFabricBatch(const noc::GridPlan &plan,
                    const std::vector<std::uint64_t> &seeds,
                    std::vector<noc::FabricObservation> &out,
                    WordArena &arena)
{
    evaluateFabricBatch(plan, FabricIndex(plan), seeds, out, arena);
}

} // namespace usfq::func
