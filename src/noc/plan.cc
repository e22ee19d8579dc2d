#include "noc/plan.hh"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "obs/stats.hh"
#include "sfq/params.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace usfq::noc
{

namespace
{

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t
fnvU64(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

int
nextPow2(int v)
{
    int p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

int
log2Of(int pow2)
{
    int b = 0;
    while ((1 << b) < pow2)
        ++b;
    return b;
}

/**
 * Slot width of a tile's epoch grid.  PE tiles use the facade's 30 ps
 * grid.  DPU / FIR tiles use the facade's depth formula with a 40 ps
 * floor: the differential corpus proves pulse == functional counts
 * exactly at 40 ps, while the tighter single-tile floor (9 ps) loses
 * unipolar multiplier pulses to recovery -- and the fabric's
 * flit-for-flit contract needs exact tile counts.
 */
Tick
tileSlotWidth(TileKind kind, int taps)
{
    if (kind == TileKind::Pe)
        return 30 * kPicosecond;
    const int padded = nextPow2(taps);
    const Tick need =
        2 * (3 * static_cast<Tick>(log2Of(padded)) + 1) + 2;
    return std::max<Tick>(need, 40) * kPicosecond;
}

Tick
ceilToSlot(Tick value, Tick slot)
{
    return ((value + slot - 1) / slot) * slot;
}

/** Demux branch split point: the left subtree takes the larger half. */
int
splitMid(int lo, int hi)
{
    return lo + (hi - lo + 1) / 2;
}

} // namespace

const char *
tileKindName(TileKind kind)
{
    switch (kind) {
    case TileKind::Dpu: return "dpu";
    case TileKind::Pe: return "pe";
    case TileKind::Fir: return "fir";
    }
    return "?";
}

int
oppositeDir(int dir)
{
    switch (dir) {
    case kDirN: return kDirS;
    case kDirS: return kDirN;
    case kDirE: return kDirW;
    case kDirW: return kDirE;
    default: return kDirLocal;
    }
}

const char *
dirName(int dir)
{
    switch (dir) {
    case kDirN: return "n";
    case kDirE: return "e";
    case kDirS: return "s";
    case kDirW: return "w";
    case kDirLocal: return "local";
    }
    return "?";
}

bool
GridSpec::validate(std::string *err) const
{
    const auto fail = [&](const std::string &msg) {
        if (err != nullptr)
            *err = msg;
        return false;
    };
    if (rows < 1 || rows > 64 || cols < 1 || cols > 64)
        return fail("noc: rows and cols must be in [1, 64]");
    if (rows * cols > 1024)
        return fail("noc: rows * cols must be <= 1024");
    if (taps < 1 || taps > 64)
        return fail("noc: taps must be in [1, 64]");
    if (bits < 2 || bits > 12)
        return fail("noc: bits must be in [2, 12]");
    if (linkHops < 1 || linkHops > 64)
        return fail("noc: linkHops must be in [1, 64]");
    const int n = rows * cols;
    std::set<int> sources;
    for (const FlowSpec &f : flows) {
        if (f.src < 0 || f.src >= n || f.dst < 0 || f.dst >= n)
            return fail("noc: flow endpoints must be tile ids");
        if (f.src == f.dst)
            return fail("noc: flow src and dst must differ");
        if (!sources.insert(f.src).second)
            return fail("noc: at most one flow per source tile");
    }
    return true;
}

bool
RouterPlan::used() const
{
    for (bool u : inUsed)
        if (u)
            return true;
    return false;
}

int
RouterPlan::demuxDepth(int in, int out) const
{
    const auto &outs = branches[in];
    if (outs.size() < 2)
        return 0;
    const int branch = static_cast<int>(
        std::lower_bound(outs.begin(), outs.end(), out) - outs.begin());
    int lo = 0;
    int hi = static_cast<int>(outs.size());
    int depth = 0;
    while (hi - lo >= 2) {
        ++depth;
        const int mid = splitMid(lo, hi);
        if (branch < mid)
            hi = mid;
        else
            lo = mid;
    }
    return depth;
}

std::vector<std::pair<int, int>>
RouterPlan::demuxPath(int in, int out) const
{
    std::vector<std::pair<int, int>> path;
    const auto &outs = branches[in];
    if (outs.size() < 2)
        return path;
    const int branch = static_cast<int>(
        std::lower_bound(outs.begin(), outs.end(), out) - outs.begin());
    int lo = 0;
    int hi = static_cast<int>(outs.size());
    while (hi - lo >= 2) {
        int node = -1;
        for (std::size_t i = 0; i < demux[in].size(); ++i)
            if (demux[in][i].lo == lo && demux[in][i].hi == hi)
                node = static_cast<int>(i);
        const int mid = splitMid(lo, hi);
        if (branch < mid) {
            path.emplace_back(node, 0);
            hi = mid;
        } else {
            path.emplace_back(node, 1);
            lo = mid;
        }
    }
    return path;
}

int
RouterPlan::mergerDepth(int out) const
{
    const int n = static_cast<int>(feeders[out].size());
    return n < 2 ? 0 : log2Of(nextPow2(n));
}

std::vector<int>
GridPlan::sinkTiles() const
{
    std::set<int> sinks;
    for (const FlowPlan &f : flows)
        sinks.insert(f.spec.dst);
    return {sinks.begin(), sinks.end()};
}

Tick
GridPlan::triggerTime(int flow) const
{
    const FlowPlan &f = flows[flow];
    return computeStart + static_cast<Tick>(f.window) * windowPitch +
           (maxFlowLatency - f.latency);
}

Tick
GridPlan::remainingAfter(int flow, int hop) const
{
    const FlowPlan &f = flows[flow];
    const int tail = static_cast<int>(f.routers.size()) - 1 - hop;
    return static_cast<Tick>(tail) * (linkLatency + routerLatency);
}

GridPlan
planGrid(const GridSpec &spec)
{
    std::string err;
    if (!spec.validate(&err))
        fatal("%s", err.c_str());

    GridPlan plan;
    plan.spec = spec;
    plan.cfg = EpochConfig(spec.bits, tileSlotWidth(spec.kind, spec.taps));
    plan.routers.resize(spec.rows * spec.cols);

    // XY dimension-order routes, and the structural union per router.
    for (const FlowSpec &fs : spec.flows) {
        FlowPlan fp;
        fp.spec = fs;
        int row = fs.src / spec.cols;
        int col = fs.src % spec.cols;
        const int drow = fs.dst / spec.cols;
        const int dcol = fs.dst % spec.cols;
        fp.routers.push_back(fs.src);
        fp.inDir.push_back(kDirLocal);
        while (col != dcol || row != drow) {
            int dir;
            if (col != dcol)
                dir = dcol > col ? kDirE : kDirW;
            else
                dir = drow > row ? kDirS : kDirN;
            fp.outDir.push_back(dir);
            col += dir == kDirE ? 1 : dir == kDirW ? -1 : 0;
            row += dir == kDirS ? 1 : dir == kDirN ? -1 : 0;
            fp.routers.push_back(row * spec.cols + col);
            fp.inDir.push_back(oppositeDir(dir));
        }
        fp.outDir.push_back(kDirLocal);
        for (std::size_t k = 0; k < fp.routers.size(); ++k) {
            RouterPlan &rp = plan.routers[fp.routers[k]];
            rp.inUsed[fp.inDir[k]] = true;
            rp.outUsed[fp.outDir[k]] = true;
            rp.turn[fp.inDir[k]][fp.outDir[k]] = true;
        }
        plan.flows.push_back(std::move(fp));
    }

    for (RouterPlan &rp : plan.routers) {
        for (int in = 0; in < kDirCount; ++in)
            for (int out = 0; out < kDirCount; ++out)
                if (rp.turn[in][out]) {
                    rp.feeders[out].push_back(in);
                    rp.branches[in].push_back(out);
                }
        // Binary demux tree per input, breadth-first over branch
        // ranges; leaves (single-branch ranges) need no node.
        for (int in = 0; in < kDirCount; ++in) {
            const int k = static_cast<int>(rp.branches[in].size());
            if (k < 2)
                continue;
            std::vector<RouterPlan::DemuxNode> pending;
            pending.push_back({0, splitMid(0, k), k, 0});
            for (std::size_t i = 0; i < pending.size(); ++i) {
                const RouterPlan::DemuxNode node = pending[i];
                rp.demux[in].push_back(node);
                if (node.mid - node.lo >= 2)
                    pending.push_back({node.lo,
                                       splitMid(node.lo, node.mid),
                                       node.mid, node.depth + 1});
                if (node.hi - node.mid >= 2)
                    pending.push_back({node.mid,
                                       splitMid(node.mid, node.hi),
                                       node.hi, node.depth + 1});
            }
        }
    }

    // Slot-aligned latency budget.  Every router traversal is padded to
    // one grid-wide constant (and every link to another) so a flow's
    // latency depends only on its hop count -- the phase algebra that
    // keeps all streams on one global slot grid.
    const Tick slot = plan.cfg.slotWidth();
    Tick maxRaw = 0;
    for (const RouterPlan &rp : plan.routers)
        for (int in = 0; in < kDirCount; ++in)
            for (int out = 0; out < kDirCount; ++out)
                if (rp.turn[in][out]) {
                    const Tick raw =
                        cell::kJtlDelay +
                        static_cast<Tick>(rp.demuxDepth(in, out)) *
                            cell::kMuxDelay +
                        static_cast<Tick>(rp.mergerDepth(out)) *
                            cell::kMergerDelay;
                    maxRaw = std::max(maxRaw, raw);
                }
    // + kJtlDelay so even the slowest turn gets a real pad JTL.
    plan.routerLatency = ceilToSlot(maxRaw + cell::kJtlDelay, slot);
    plan.linkLatency = ceilToSlot(
        static_cast<Tick>(spec.linkHops) * cell::kJtlDelay, slot);

    for (FlowPlan &f : plan.flows) {
        const Tick hops = static_cast<Tick>(f.routers.size());
        f.latency =
            hops * plan.routerLatency + (hops - 1) * plan.linkLatency;
        plan.maxFlowLatency = std::max(plan.maxFlowLatency, f.latency);
    }

    // TDM coloring over channel-conflict groups.  A channel is a
    // (router, output) pair; two groups that share one must get
    // different windows.  With sharedSinkWindows, all flows to one sink
    // form a single group (identical route suffixes from any shared
    // point, so in-window merging is well defined); otherwise every
    // flow is its own group.
    std::vector<std::vector<int>> groups;
    std::map<int, int> groupOfSink;
    for (std::size_t i = 0; i < plan.flows.size(); ++i) {
        const int dst = plan.flows[i].spec.dst;
        if (spec.sharedSinkWindows) {
            auto it = groupOfSink.find(dst);
            if (it == groupOfSink.end()) {
                groupOfSink[dst] = static_cast<int>(groups.size());
                groups.push_back({static_cast<int>(i)});
            } else {
                groups[it->second].push_back(static_cast<int>(i));
            }
        } else {
            groups.push_back({static_cast<int>(i)});
        }
    }
    std::vector<std::set<int>> channels(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g)
        for (int fi : groups[g]) {
            const FlowPlan &f = plan.flows[fi];
            for (std::size_t k = 0; k < f.routers.size(); ++k)
                channels[g].insert(f.routers[k] * kDirCount +
                                   f.outDir[k]);
        }
    std::vector<int> color(groups.size(), -1);
    int numColors = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        std::set<int> busy;
        for (std::size_t h = 0; h < g; ++h) {
            const bool conflict = std::any_of(
                channels[h].begin(), channels[h].end(),
                [&](int c) { return channels[g].count(c) != 0; });
            if (conflict)
                busy.insert(color[h]);
        }
        int c = 0;
        while (busy.count(c) != 0)
            ++c;
        color[g] = c;
        numColors = std::max(numColors, c + 1);
        for (int fi : groups[g])
            plan.flows[fi].window = c;
    }
    plan.windows = std::max(numColors, 1);

    // Window pitch = epoch + worst route latency: by the time window
    // w+1 is launched anywhere, every window-w pulse has drained from
    // the entire fabric, so windows can never interact.
    plan.windowPitch = plan.cfg.duration() + plan.maxFlowLatency;

    // Tiles finish computing (and injectors finish counting) before
    // the first window launches.  PE tiles convert their result one
    // epoch late, hence the extra epoch.
    plan.computeStart =
        static_cast<Tick>(spec.kind == TileKind::Pe ? 3 : 2) *
        plan.cfg.duration();

    plan.horizon = plan.computeStart +
                   static_cast<Tick>(plan.windows - 1) * plan.windowPitch +
                   plan.maxFlowLatency + plan.cfg.duration() + slot;
    return plan;
}

std::vector<FlowSpec>
columnCollectFlows(int rows, int cols)
{
    std::vector<FlowSpec> flows;
    for (int r = 1; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            flows.push_back({r * cols + c, c});
    return flows;
}

std::vector<FlowSpec>
hotspotFlows(int rows, int cols, int dst)
{
    std::vector<FlowSpec> flows;
    for (int t = 0; t < rows * cols; ++t)
        if (t != dst)
            flows.push_back({t, dst});
    return flows;
}

std::uint64_t
observationDigest(const FabricObservation &obs)
{
    std::uint64_t h = kFnvBasis;
    h = fnvU64(h, obs.sinks.size());
    for (int s : obs.sinks)
        h = fnvU64(h, static_cast<std::uint64_t>(s));
    for (const auto &row : obs.sinkWindowCounts) {
        h = fnvU64(h, row.size());
        for (std::uint64_t c : row)
            h = fnvU64(h, c);
    }
    for (std::uint64_t c : obs.routerCollisions)
        h = fnvU64(h, c);
    h = fnvU64(h, obs.outputWindowPulses.size());
    for (std::uint64_t c : obs.outputWindowPulses)
        h = fnvU64(h, c);
    h = fnvU64(h, obs.delivered);
    h = fnvU64(h, obs.collisions);
    return h;
}

std::string
routerLabel(const GridSpec &spec, int router)
{
    return "r" + std::to_string(router / spec.cols) + "_" +
           std::to_string(router % spec.cols);
}

std::vector<std::vector<OutputWindowBase>>
outputWindowBases(const GridPlan &plan)
{
    std::vector<std::vector<OutputWindowBase>> bases(
        plan.routers.size() * kDirCount);
    const Tick sinkBase = plan.computeStart + plan.maxFlowLatency +
                          plan.cfg.slotWidth() / 2;
    std::map<std::pair<std::size_t, int>, Tick> seen;
    for (std::size_t f = 0; f < plan.flows.size(); ++f) {
        const FlowPlan &fp = plan.flows[f];
        for (std::size_t k = 0; k < fp.routers.size(); ++k) {
            const std::size_t ch =
                static_cast<std::size_t>(fp.routers[k]) * kDirCount +
                static_cast<std::size_t>(fp.outDir[k]);
            const Tick start =
                sinkBase +
                static_cast<Tick>(fp.window) * plan.windowPitch -
                plan.remainingAfter(static_cast<int>(f),
                                    static_cast<int>(k));
            const auto [it, fresh] =
                seen.emplace(std::pair{ch, fp.window}, start);
            if (!fresh) {
                if (it->second != start)
                    fatal("noc: window %d reaches router %d output "
                          "%s at two different phases",
                          fp.window, fp.routers[k],
                          dirName(fp.outDir[k]));
                continue;
            }
            bases[ch].push_back({start, fp.window});
        }
    }
    for (auto &channel : bases)
        std::sort(channel.begin(), channel.end(),
                  [](const OutputWindowBase &a,
                     const OutputWindowBase &b) {
                      return a.start < b.start;
                  });
    return bases;
}

namespace
{

/** nmax * #(sink, window) pairs carrying any flow. */
double
windowCapacity(const GridPlan &plan)
{
    std::set<std::pair<int, int>> scheduled;
    for (const FlowPlan &f : plan.flows)
        scheduled.insert({f.spec.dst, f.window});
    return static_cast<double>(scheduled.size()) *
           static_cast<double>(plan.cfg.nmax());
}

double
utilizationOf(std::uint64_t delivered, double capacity)
{
    return capacity > 0.0 ? static_cast<double>(delivered) / capacity
                          : 0.0;
}

} // namespace

double
windowUtilization(const GridPlan &plan, const FabricObservation &obs)
{
    return utilizationOf(obs.delivered, windowCapacity(plan));
}

FabricTelemetry::FabricTelemetry(const GridPlan &plan,
                                 const std::string &prefix)
    : capacity(windowCapacity(plan))
{
    const auto add = [this](std::string name) {
        names.push_back(std::move(name));
        return names.size() - 1;
    };
    const auto bases = outputWindowBases(plan);
    const std::size_t windows = static_cast<std::size_t>(plan.windows);
    for (std::size_t r = 0; r < plan.routers.size(); ++r) {
        if (!plan.routers[r].used())
            continue;
        const std::string rb =
            prefix + "/" + routerLabel(plan.spec, static_cast<int>(r));
        collisionTerms.emplace_back(add(rb + "/collisions"), r);
        for (int d = 0; d < kDirCount; ++d) {
            const std::size_t ch =
                r * kDirCount + static_cast<std::size_t>(d);
            if (bases[ch].empty())
                continue;
            const std::string ob = rb + "/out_" + dirName(d);
            const std::size_t link = d != kDirLocal
                                         ? add(ob + "/link_pulses")
                                         : std::string::npos;
            for (const OutputWindowBase &b : bases[ch])
                windowTerms.push_back(
                    {add(ob + "/w" + std::to_string(b.window)), link,
                     ch * windows + static_cast<std::size_t>(b.window)});
        }
    }
    delivered = add(prefix + "/fabric/delivered");
    collisions = add(prefix + "/fabric/collisions");
    utilizationName = prefix + "/fabric/window_utilization";
    counters.assign(names.size(), 0);
}

void
FabricTelemetry::accumulate(const FabricObservation &obs)
{
    for (const auto &[counter, r] : collisionTerms)
        counters[counter] += r < obs.routerCollisions.size()
                                 ? obs.routerCollisions[r]
                                 : 0;
    for (const WindowTerm &t : windowTerms) {
        const std::uint64_t v = t.pulses < obs.outputWindowPulses.size()
                                    ? obs.outputWindowPulses[t.pulses]
                                    : 0;
        counters[t.counter] += v;
        if (t.link != std::string::npos)
            counters[t.link] += v;
    }
    counters[delivered] += obs.delivered;
    counters[collisions] += obs.collisions;
    const double u = utilizationOf(obs.delivered, capacity);
    if (epochs == 0 || u > utilization)
        utilization = u;
    ++epochs;
}

void
FabricTelemetry::mergeFrom(const FabricTelemetry &other)
{
    if (other.names != names)
        panic("FabricTelemetry: merging telemetry of another plan");
    if (other.epochs == 0)
        return;
    for (std::size_t i = 0; i < counters.size(); ++i)
        counters[i] += other.counters[i];
    if (epochs == 0 || other.utilization > utilization)
        utilization = other.utilization;
    epochs += other.epochs;
}

void
FabricTelemetry::exportTo(obs::StatsRegistry &reg) const
{
    if (epochs == 0)
        return;
    for (std::size_t i = 0; i < names.size(); ++i)
        reg.counter(names[i]).inc(counters[i]);
    reg.gauge(utilizationName, obs::Gauge::Merge::Max).high(utilization);
}

void
exportFabricTelemetry(const GridPlan &plan, const FabricObservation &obs,
                      obs::StatsRegistry &reg, const std::string &prefix)
{
    FabricTelemetry telemetry(plan, prefix);
    telemetry.accumulate(obs);
    telemetry.exportTo(reg);
}

TileOperands
drawTileOperands(const GridPlan &plan, std::uint64_t seed)
{
    Rng rng(seed);
    const int n = plan.tiles() * plan.spec.taps;
    TileOperands ops;
    ops.streams.reserve(n);
    ops.ids.reserve(n);
    for (int i = 0; i < n; ++i) {
        ops.streams.push_back(
            static_cast<int>(rng.uniformInt(0, plan.cfg.nmax())));
        ops.ids.push_back(
            static_cast<int>(rng.uniformInt(0, plan.cfg.nmax())));
    }
    return ops;
}

long long
fabricJJs(const GridPlan &plan)
{
    long long jjs = 0;
    for (const RouterPlan &rp : plan.routers) {
        for (int in = 0; in < kDirCount; ++in) {
            if (!rp.inUsed[in])
                continue;
            jjs += cell::kJtlJJs; // input buffer
            jjs += static_cast<long long>(rp.demux[in].size()) *
                   cell::kDemuxJJs;
        }
        for (int in = 0; in < kDirCount; ++in)
            for (int out = 0; out < kDirCount; ++out)
                if (rp.turn[in][out])
                    jjs += cell::kJtlJJs; // pad JTL
        for (int out = 0; out < kDirCount; ++out) {
            const int n = static_cast<int>(rp.feeders[out].size());
            if (n >= 2)
                jjs += static_cast<long long>(nextPow2(n) - 1) *
                       cell::kMergerJJs;
        }
    }
    for (std::size_t r = 0; r < plan.routers.size(); ++r)
        for (int out = 0; out < kDirLocal; ++out)
            if (plan.routers[r].outUsed[out])
                jjs += static_cast<long long>(plan.spec.linkHops) *
                       cell::kJtlJJs;
    return jjs;
}

} // namespace usfq::noc
