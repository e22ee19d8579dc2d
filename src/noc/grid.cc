#include "noc/grid.hh"

#include <algorithm>

#include <map>
#include <set>
#include <string>
#include <tuple>

#include "core/multiplier.hh"
#include "sfq/params.hh"
#include "util/logging.hh"

namespace usfq::noc
{

namespace
{

constexpr Tick kPeRlOff = 5 * kPicosecond;

std::string
tileName(const GridPlan &gp, int t)
{
    return "t" + std::to_string(t / gp.spec.cols) + "_" +
           std::to_string(t % gp.spec.cols);
}

std::string
routerName(const GridPlan &gp, int r)
{
    return "r" + std::to_string(r / gp.spec.cols) + "_" +
           std::to_string(r % gp.spec.cols);
}

} // namespace

TileGrid::TileGrid(Netlist &netlist, const GridPlan &plan)
    : nl(netlist), gp(plan),
      tiles(static_cast<std::size_t>(plan.tiles())),
      routers(static_cast<std::size_t>(plan.tiles()), nullptr)
{
    std::vector<int> flowOf(tiles.size(), -1);
    for (std::size_t f = 0; f < gp.flows.size(); ++f)
        flowOf[static_cast<std::size_t>(gp.flows[f].spec.src)] =
            static_cast<int>(f);
    for (int t = 0; t < gp.tiles(); ++t)
        buildTile(t, flowOf[static_cast<std::size_t>(t)]);
    buildRouters();
    buildLinks();
    buildTaps();
    programSchedule();
}

void
TileGrid::programSchedule()
{
    for (const auto &[src, times] : schedule)
        src->pulsesAt(times);
}

void
TileGrid::buildTile(int t, int flow)
{
    const std::string tn = tileName(gp, t);
    const EpochConfig &cfg = gp.cfg;
    Tile &tile = tiles[static_cast<std::size_t>(t)];
    auto scope = nl.scope(tn);

    OutputPort *result = nullptr;
    if (gp.spec.kind == TileKind::Pe) {
        tile.pe = &nl.create<ProcessingElement>(tn + ".pe", cfg);
        auto &e = nl.create<PulseSource>(tn + ".e");
        e.out.connect(tile.pe->epoch());
        schedule.push_back({&e, {0, cfg.duration()}}); // + conversion
        tile.in1 = &nl.create<PulseSource>(tn + ".in1");
        tile.in2 = &nl.create<PulseSource>(tn + ".in2");
        tile.in3 = &nl.create<PulseSource>(tn + ".in3");
        tile.in1->out.connect(tile.pe->in1());
        tile.in2->out.connect(tile.pe->in2());
        tile.in3->out.connect(tile.pe->in3());
        result = &tile.pe->out();
    } else {
        tile.dpu = &nl.create<DotProductUnit>(tn + ".dpu", gp.spec.taps,
                                              gp.spec.mode);
        auto &e = nl.create<PulseSource>(tn + ".e");
        e.out.connect(tile.dpu->epochIn());
        schedule.push_back({&e, {0}});
        if (gp.spec.mode == DpuMode::Bipolar) {
            auto &clk = nl.create<PulseSource>(tn + ".clk");
            clk.out.connect(tile.dpu->clkIn());
            schedule.push_back(
                {&clk, BipolarMultiplier::gridClockTimes(cfg, 0)});
        } else {
            tile.dpu->clkIn().markOptional(
                "noc tile: unipolar DPU needs no grid clock");
        }
        for (int i = 0; i < gp.spec.taps; ++i) {
            auto &a = nl.create<PulseSource>(tn + ".a" +
                                             std::to_string(i));
            auto &b = nl.create<PulseSource>(tn + ".b" +
                                             std::to_string(i));
            a.out.connect(tile.dpu->rlIn(i));
            b.out.connect(tile.dpu->streamIn(i));
            tile.rl.push_back(&a);
            tile.stream.push_back(&b);
        }
        result = &tile.dpu->out();
    }

    if (flow >= 0) {
        const Tick countFrom =
            gp.spec.kind == TileKind::Pe ? cfg.duration() + 1 : 0;
        tile.inj =
            &nl.create<NocInjector>(tn + ".inj", cfg, countFrom);
        result->connect(tile.inj->in);
        auto &trig = nl.create<PulseSource>(tn + ".trig");
        trig.out.connect(tile.inj->trigger);
        schedule.push_back({&trig, {gp.triggerTime(flow)}});
    } else {
        result->markOpen(
            "noc: tile result not sourced into the fabric");
    }

    bool isSink = false;
    for (const FlowPlan &f : gp.flows)
        isSink = isSink || f.spec.dst == t;
    if (isSink)
        tile.snk = &nl.create<NocSink>(
            tn + ".snk", gp.windows, cfg.nmax(),
            gp.computeStart + gp.maxFlowLatency + cfg.slotWidth() / 2,
            gp.windowPitch, cfg.slotWidth());
}

void
TileGrid::buildRouters()
{
    const Tick slot = gp.cfg.slotWidth();

    // TDM demux-select schedule: for every (router, input, tree node),
    // which side each active window steers to, and when the select
    // pulse must arrive (a quarter slot before the window's first data
    // pulse reaches the node -- clear of the demux setup window, and
    // the previous window has fully drained long before).
    std::map<std::tuple<int, int, int>, std::map<int, int>> sides;
    std::map<std::tuple<int, int, int, int>, Tick> when;
    for (std::size_t f = 0; f < gp.flows.size(); ++f) {
        const FlowPlan &fp = gp.flows[f];
        for (std::size_t k = 0; k < fp.routers.size(); ++k) {
            const int r = fp.routers[k];
            const int in = fp.inDir[k];
            const RouterPlan &rp =
                gp.routers[static_cast<std::size_t>(r)];
            for (auto [node, side] : rp.demuxPath(in, fp.outDir[k])) {
                sides[{r, in, node}][fp.window] = side;
                const Tick dataFirst =
                    gp.computeStart +
                    static_cast<Tick>(fp.window) * gp.windowPitch +
                    gp.maxFlowLatency -
                    gp.remainingAfter(static_cast<int>(f),
                                      static_cast<int>(k)) -
                    gp.routerLatency + cell::kJtlDelay +
                    static_cast<Tick>(
                        rp.demux[in][static_cast<std::size_t>(node)]
                            .depth) *
                        cell::kMuxDelay +
                    slot / 2;
                when[{r, in, node, fp.window}] = dataFirst - slot / 4;
            }
        }
    }

    for (int r = 0; r < gp.tiles(); ++r) {
        const RouterPlan &rp = gp.routers[static_cast<std::size_t>(r)];
        if (!rp.used())
            continue;
        routers[static_cast<std::size_t>(r)] = &nl.create<NocRouter>(
            routerName(gp, r), rp, gp.routerLatency);
    }

    for (const auto &[key, windowSides] : sides) {
        const auto [r, in, node] = key;
        NocRouter &router = *routers[static_cast<std::size_t>(r)];
        for (int side = 0; side < 2; ++side) {
            std::vector<Tick> times;
            for (const auto &[w, s] : windowSides)
                if (s == side)
                    times.push_back(when.at({r, in, node, w}));
            if (times.empty()) {
                router.sel(in, node, side)
                    .markOptional(
                        "noc router: demux never steers this side");
                continue;
            }
            auto &src = nl.create<PulseSource>(
                routerName(gp, r) + ".sel_" + dirName(in) + "_" +
                std::to_string(node) + "_" + std::to_string(side));
            src.out.connect(router.sel(in, node, side));
            schedule.push_back({&src, std::move(times)});
        }
    }

    // Terminal wiring: injectors onto their local router input, sink
    // tiles off their local router output.
    for (const FlowPlan &f : gp.flows) {
        Tile &src = tiles[static_cast<std::size_t>(f.spec.src)];
        src.inj->out.connect(
            routers[static_cast<std::size_t>(f.spec.src)]->in(
                kDirLocal));
    }
    for (int s : gp.sinkTiles())
        routers[static_cast<std::size_t>(s)]->out(kDirLocal).connect(
            tiles[static_cast<std::size_t>(s)].snk->in);
}

void
TileGrid::buildLinks()
{
    for (int r = 0; r < gp.tiles(); ++r) {
        const RouterPlan &rp = gp.routers[static_cast<std::size_t>(r)];
        for (int dir = 0; dir < kDirLocal; ++dir) {
            if (!rp.outUsed[dir])
                continue;
            const int neighbor =
                dir == kDirN   ? r - gp.spec.cols
                : dir == kDirS ? r + gp.spec.cols
                : dir == kDirE ? r + 1
                               : r - 1;
            auto &link = nl.create<NocLink>(
                routerName(gp, r) + ".l_" + dirName(dir),
                gp.spec.linkHops, gp.linkLatency);
            routers[static_cast<std::size_t>(r)]->out(dir).connect(
                link.in());
            link.out().connect(
                routers[static_cast<std::size_t>(neighbor)]->in(
                    oppositeDir(dir)));
        }
    }
}

void
TileGrid::buildTaps()
{
    const auto bases = outputWindowBases(gp);
    taps.assign(static_cast<std::size_t>(gp.tiles()) * kDirCount,
                nullptr);
    for (int r = 0; r < gp.tiles(); ++r) {
        for (int d = 0; d < kDirCount; ++d) {
            const std::size_t ch =
                static_cast<std::size_t>(r) * kDirCount +
                static_cast<std::size_t>(d);
            if (bases[ch].empty())
                continue;
            std::vector<std::pair<Tick, int>> starts;
            starts.reserve(bases[ch].size());
            for (const OutputWindowBase &b : bases[ch])
                starts.emplace_back(b.start, b.window);
            auto &tap = nl.create<NocTap>(
                routerName(gp, r) + ".tap_" + dirName(d),
                std::move(starts), gp.windows, gp.cfg.nmax(),
                gp.cfg.slotWidth());
            OutputPort &out =
                routers[static_cast<std::size_t>(r)]->out(d);
            out.markFanoutOk(); // observation shares the output net
            out.connect(tap.in);
            taps[ch] = &tap;
        }
    }
}

void
TileGrid::programOperands(const TileOperands &ops)
{
    const EpochConfig &cfg = gp.cfg;
    const Tick rlOff = dpuRlLaunchOffset(gp.spec.taps);
    for (int t = 0; t < gp.tiles(); ++t) {
        Tile &tile = tiles[static_cast<std::size_t>(t)];
        const std::size_t base =
            static_cast<std::size_t>(t) *
            static_cast<std::size_t>(gp.spec.taps);
        if (tile.pe != nullptr) {
            tile.in1->pulseAt(kPeRlOff + cfg.rlTime(ops.ids[base]));
            tile.in2->pulsesAt(cfg.streamTimes(ops.streams[base]));
            tile.in3->pulsesAt(cfg.streamTimes(
                gp.spec.taps > 1 ? ops.streams[base + 1] : 0));
        } else {
            for (int i = 0; i < gp.spec.taps; ++i) {
                const std::size_t k =
                    base + static_cast<std::size_t>(i);
                tile.rl[static_cast<std::size_t>(i)]->pulseAt(
                    rlOff + cfg.rlTime(ops.ids[k]));
                tile.stream[static_cast<std::size_t>(i)]->pulsesAt(
                    cfg.streamTimes(ops.streams[k]));
            }
        }
    }
}

FabricObservation
TileGrid::observe() const
{
    FabricObservation obs;
    obs.sinks = gp.sinkTiles();
    for (int s : obs.sinks) {
        obs.sinkWindowCounts.push_back(
            tiles[static_cast<std::size_t>(s)].snk->windowCounts());
        for (std::uint64_t c : obs.sinkWindowCounts.back())
            obs.delivered += c;
    }
    obs.routerCollisions.resize(routers.size(), 0);
    for (std::size_t r = 0; r < routers.size(); ++r) {
        obs.routerCollisions[r] =
            routers[r] != nullptr ? routers[r]->collisions() : 0;
        obs.collisions += obs.routerCollisions[r];
    }
    obs.outputWindowPulses.assign(
        taps.size() * static_cast<std::size_t>(gp.windows), 0);
    for (std::size_t ch = 0; ch < taps.size(); ++ch) {
        if (taps[ch] == nullptr)
            continue;
        const auto &counts = taps[ch]->windowCounts();
        for (std::size_t w = 0; w < counts.size(); ++w)
            obs.outputWindowPulses
                [ch * static_cast<std::size_t>(gp.windows) + w] =
                counts[w];
    }
    return obs;
}

std::uint64_t
TileGrid::latePulses() const
{
    std::uint64_t total = 0;
    for (const Tile &t : tiles)
        if (t.inj != nullptr)
            total += t.inj->latePulses();
    return total;
}

std::vector<int>
TileGrid::injectedCounts() const
{
    std::vector<int> counts(tiles.size(), 0);
    for (std::size_t t = 0; t < tiles.size(); ++t)
        if (tiles[t].inj != nullptr)
            counts[t] = std::min(
                static_cast<int>(tiles[t].inj->counted()),
                gp.cfg.nmax());
    return counts;
}

std::uint64_t
TileGrid::misaligned() const
{
    std::uint64_t total = 0;
    for (const Tile &t : tiles)
        if (t.snk != nullptr)
            total += t.snk->misaligned();
    for (const NocTap *tap : taps)
        if (tap != nullptr)
            total += tap->misbinned();
    return total;
}

PulseFabricRig::PulseFabricRig(const GridPlan &plan)
    : nl("noc"), tileGrid(nl, plan)
{
    nl.elaborate();
}

PulseFabricResult
PulseFabricRig::run(std::uint64_t seed)
{
    // Reset first, even on a fresh rig: a run that threw half way
    // cannot leave state behind for the next one.
    nl.resetAll();
    tileGrid.programSchedule();
    tileGrid.programOperands(drawTileOperands(tileGrid.plan(), seed));
    nl.run(tileGrid.plan().horizon);
    PulseFabricResult res;
    res.obs = tileGrid.observe();
    res.latePulses = tileGrid.latePulses();
    res.misaligned = tileGrid.misaligned();
    res.totalJJ = nl.totalJJs();
    return res;
}

PulseFabricResult
runPulseFabric(const GridPlan &plan, std::uint64_t seed)
{
    return PulseFabricRig(plan).run(seed);
}

} // namespace usfq::noc
