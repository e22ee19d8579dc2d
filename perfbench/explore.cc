/**
 * @file
 * The design-space workload (perfbench/README.md): explore.
 *
 * A seeded compile of the fig20 generator grid -- lanes x bits x slot
 * period x tree kind x lane shape x encoding/balancing style, 1296
 * points a pass, shapeSeed drawn from the workload seed and the pass.
 * One op is one point: gen::balanceDesign, then build and
 * Netlist::elaborate, then runSta under gen::genStaOptions (pricing:
 * area, lossless rate), then the functional-mirror epochs
 * (gen::evalEpoch).  A fixed seeded subset of feasible points also
 * replays its epochs with gen::runPulseEpoch and must match the
 * mirror.  Points are sharded with runSweep in chunks until the window
 * closes; the first pass always completes, and its digest over every
 * feasible point's counts repeats exactly for a given seed.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.hh"
#include "gen/balance.hh"
#include "gen/datapath.hh"
#include "gen/functional.hh"
#include "gen/spec.hh"
#include "sim/netlist.hh"
#include "sim/sweep.hh"
#include "sta/sta.hh"

namespace perfbench
{
namespace
{

using namespace usfq;

constexpr int kEpochs = 4;
constexpr std::uint64_t kPulseEvery = 16;
constexpr std::size_t kChunk = 108;
constexpr int kSetups = 5;
constexpr std::size_t kWarmPoints = 6 * kChunk;
constexpr std::size_t kRssPoints = 4000;
constexpr std::uint64_t kWarmPass = 1u << 20;

constexpr std::uint64_t kShapeSalt = 0x6e11'0000'0000'0001ULL;
constexpr std::uint64_t kEpochSalt = 0x6e11'0000'0000'0002ULL;
constexpr std::uint64_t kPulseSalt = 0x6e11'0000'0000'0003ULL;

/** Global index of point @p idx of pass @p pass (seed derivations). */
std::uint64_t
pointKey(std::uint64_t pass, std::size_t idx)
{
    return pass * 4096 + idx;
}

/** The fig20 generator grid of one pass (every 9th point when tiny). */
std::vector<gen::DesignSpec>
enumerateGrid(std::uint64_t seed, std::uint64_t pass, bool tiny)
{
    std::vector<gen::DesignSpec> specs;
    std::size_t k = 0;
    for (int lanes : {4, 8, 16})
        for (int bits : {3, 4, 5, 6})
            for (int period : {10, 16, 20, 24})
                for (gen::TreeKind tree :
                     {gen::TreeKind::Balancer, gen::TreeKind::Merger,
                      gen::TreeKind::Tff2})
                    for (gen::LaneShape shape :
                         {gen::LaneShape::Balanced, gen::LaneShape::Skewed,
                          gen::LaneShape::Random})
                        for (int style = 0; style < 3; ++style, ++k) {
                            if (tiny && k % 9 != 0)
                                continue;
                            gen::DesignSpec s;
                            s.lanes = lanes;
                            s.bits = bits;
                            s.clockPeriodPs = period;
                            s.tree = tree;
                            s.shape = shape;
                            // Unipolar/Jtl, Unipolar/Register,
                            // Bipolar/Jtl.
                            s.encoding = style == 2
                                             ? gen::StreamEncoding::Bipolar
                                             : gen::StreamEncoding::Unipolar;
                            s.balance = style == 1
                                            ? gen::BalanceStyle::Register
                                            : gen::BalanceStyle::Jtl;
                            s.maxDividers = 2;
                            s.skewStep = 2;
                            s.shapeSeed = shardSeed(
                                seed ^ kShapeSalt,
                                pointKey(pass, specs.size()));
                            specs.push_back(s);
                        }
    return specs;
}

/** One compiled and priced design point. */
struct Point
{
    bool feasible = false;
    int iterations = 0;
    long long areaJJ = 0;
    std::vector<long long> counts; ///< mirror, per epoch
    bool pulseChecked = false;
    bool mismatch = false;
    double latencyMs = 0.0;
    std::int64_t endNs = 0; ///< absolute completion time
    SpanLog spans;
};

Point
compilePoint(const gen::DesignSpec &spec, std::uint64_t seed,
             std::uint64_t key, bool traced)
{
    Point p;
    p.spans.enabled = traced;
    const bool pulse =
        shardSeed(seed ^ kPulseSalt, key) % kPulseEvery == 0;
    std::unique_ptr<Netlist> nl;
    const std::int64_t t0 = nowNs();
    {
        Scoped root(p.spans, "point");
        gen::BalanceOutcome bo;
        {
            Scoped s(p.spans, "gen.balance", root.id());
            bo = gen::balanceDesign(spec);
        }
        p.iterations = bo.iterations;
        if (bo.converged()) {
            p.feasible = true;
            nl = std::make_unique<Netlist>("explore");
            std::uint64_t buildId = 0;
            {
                Scoped s(p.spans, "sim.build", root.id());
                buildId = s.id();
                auto &dp =
                    nl->create<gen::StreamDatapath>("dp", spec, bo.plan);
                dp.programEpoch({spec.nmax(), {}});
            }
            const double components =
                static_cast<double>(nl->graphComponents().size());
            p.spans.setWork(buildId, components);
            {
                Scoped s(p.spans, "sim.elaborate", root.id());
                nl->elaborate();
                p.spans.setWork(s.id(), components);
            }
            {
                Scoped s(p.spans, "sta.run", root.id());
                const StaReport rep =
                    runSta(*nl, gen::genStaOptions(spec));
                p.spans.setWork(s.id(),
                                static_cast<double>(rep.numEdges));
            }
            p.areaJJ = nl->totalJJs();
            if (p.areaJJ != gen::StreamDatapath::jjsFor(spec, bo.plan))
                p.mismatch = true;
            std::vector<gen::EpochInputs> inputs;
            {
                Scoped s(p.spans, "func.mirror", root.id());
                for (int e = 0; e < kEpochs; ++e) {
                    inputs.push_back(gen::drawEpochInputs(
                        spec, shardSeed(seed ^ kEpochSalt,
                                        key * kEpochs +
                                            static_cast<unsigned>(e))));
                    p.counts.push_back(
                        gen::evalEpoch(spec, inputs.back()).count);
                }
                p.spans.setWork(s.id(), kEpochs);
            }
            if (pulse) {
                Scoped s(p.spans, "sim.pulse", root.id());
                for (int e = 0; e < kEpochs; ++e)
                    if (gen::runPulseEpoch(spec, bo.plan, inputs[e]) !=
                        p.counts[static_cast<std::size_t>(e)])
                        p.mismatch = true;
                p.pulseChecked = true;
                p.spans.setWork(s.id(), kEpochs);
            }
        }
    }
    p.endNs = nowNs();
    p.latencyMs = static_cast<double>(p.endNs - t0) / 1e6;
    // Event-kernel probe (traced only, outside the op): run the priced
    // netlist's densest epoch.
    if (traced && pulse && nl) {
        Scoped root(p.spans, "probe");
        Scoped s(p.spans, "sim.run", root.id());
        p.spans.setWork(s.id(), static_cast<double>(nl->run()));
    }
    return p;
}

/** Compile points [first, last) of @p grid over the sweep pool. */
std::vector<Point>
compileChunk(const std::vector<gen::DesignSpec> &grid, std::size_t first,
             std::size_t last, std::uint64_t seed, std::uint64_t pass,
             bool traced, int threads)
{
    SweepOptions so;
    so.threads = threads;
    so.backend = Backend::Functional;
    return runSweep(
        last - first,
        [&](const ShardContext &ctx) {
            const std::size_t idx = first + ctx.index;
            return compilePoint(grid[idx], seed, pointKey(pass, idx),
                                traced);
        },
        so);
}

/** What one timed window produced. */
struct Window
{
    double seconds = 0.0;
    std::vector<Point> points; ///< every op, pass order
    std::size_t firstPass = 0; ///< points of pass 0
    double peakRssMb = 0.0;    ///< high-water mark at kRssPoints ops
    std::vector<OpSample> ops;
    std::uint64_t failed = 0;
};

Window
timedWindow(const Options &opt, double seconds, bool traced, int threads)
{
    Window w;
    const std::size_t rssPoints = opt.tiny ? 100 : kRssPoints;
    const std::int64_t start = nowNs();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(seconds * 1e9);
    for (std::uint64_t pass = 0;; ++pass) {
        const std::vector<gen::DesignSpec> grid =
            enumerateGrid(opt.seed, pass, opt.tiny);
        for (std::size_t first = 0; first < grid.size(); first += kChunk) {
            if (pass > 0 && nowNs() >= deadline)
                break;
            const std::size_t last = std::min(first + kChunk, grid.size());
            for (Point &p : compileChunk(grid, first, last, opt.seed, pass,
                                         traced, threads))
                w.points.push_back(std::move(p));
        }
        if (pass == 0)
            w.firstPass = w.points.size();
        // Peak RSS after a fixed amount of work (see serve.cc).
        if (w.peakRssMb == 0.0 && w.points.size() >= rssPoints)
            w.peakRssMb = peakRssMb();
        if (nowNs() >= deadline)
            break;
    }
    w.seconds = static_cast<double>(nowNs() - start) / 1e9;
    if (w.peakRssMb == 0.0)
        w.peakRssMb = peakRssMb();
    for (const Point &p : w.points) {
        w.ops.push_back({p.endNs - start, p.latencyMs});
        w.failed += p.mismatch ? 1 : 0;
    }
    return w;
}

} // namespace

Outcome
runExplore(const Options &opt)
{
    Outcome out;
    const int threads = static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));

    // Set-up, kSetups times: enumerate the grid and compile a warm-up
    // chunk (sweep pool, allocator, code paths) of a pass never timed.
    std::vector<double> setupS;
    for (int i = 0; i < kSetups; ++i) {
        const std::int64_t t0 = nowNs();
        const std::vector<gen::DesignSpec> warm =
            enumerateGrid(opt.seed, kWarmPass, opt.tiny);
        for (const Point &p :
             compileChunk(warm, 0, std::min(warm.size(), kWarmPoints),
                          opt.seed, kWarmPass, false, threads))
            out.failed += p.mismatch ? 1 : 0;
        setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }

    double untracedOps = 0.0;
    if (opt.trace) {
        const Window plain = timedWindow(opt, opt.seconds / 2, false,
                                         threads);
        untracedOps =
            static_cast<double>(plain.points.size()) / plain.seconds;
        out.attempted += plain.points.size();
        out.failed += plain.failed;
    }
    const Window w = timedWindow(
        opt, opt.trace ? opt.seconds / 2 : opt.seconds, opt.trace, threads);
    out.attempted += w.points.size();
    out.failed += w.failed;

    // Digest over pass 0: which points are feasible, and their counts.
    std::uint64_t digest = kFnvBasis;
    std::uint64_t inputs = kFnvBasis;
    double feasible = 0, iterations = 0, pulsed = 0;
    for (std::size_t i = 0; i < w.firstPass; ++i) {
        const Point &p = w.points[i];
        digest = fold(digest, p.feasible ? i : ~i);
        for (long long c : p.counts)
            digest = fold(digest, static_cast<std::uint64_t>(c));
        feasible += p.feasible ? 1 : 0;
        iterations += p.iterations;
        pulsed += p.pulseChecked ? 1 : 0;
    }
    for (const gen::DesignSpec &s : enumerateGrid(opt.seed, 0, opt.tiny))
        inputs = fold(inputs, gen::designSpecHash(kFnvBasis, s));
    inputs = fold(inputs, shardSeed(opt.seed ^ kEpochSalt, 0));

    const Summary sum = summarize(w.ops, w.seconds);
    out.endToEnd = {
        {"ops_per_s", sum.opsPerS},
        {"op_p50_ms", sum.p50Ms},
        {"op_p99_ms", sum.p99Ms},
        {"setup_s", percentile(setupS, 50)},
        {"peak_rss_mb", w.peakRssMb},
    };

    if (opt.trace) {
        SpanLog all;
        for (const Point &p : w.points)
            all.append(p.spans);
        const std::map<std::string, double> self = selfByName(all.spans);
        const auto selfOf = [&](const char *name) {
            const auto it = self.find(name);
            return it != self.end() ? it->second : 0.0;
        };
        double pointNs = 0.0;
        for (const Span &s : all.spans)
            if (s.name == "point")
                pointNs += static_cast<double>(s.durNs);
        const double n = static_cast<double>(w.firstPass);
        std::vector<Metric> &m = out.perLayer;
        m.push_back({"sim.build_us_per_component",
                     nsPerUnit(all.spans, "sim.build") / 1e3});
        m.push_back({"sim.elaborate_us_per_component",
                     nsPerUnit(all.spans, "sim.elaborate") / 1e3});
        m.push_back({"sim.events_per_s",
                     ratio(1e9, nsPerUnit(all.spans, "sim.run"))});
        m.push_back({"sim.pulse_us_per_epoch",
                     nsPerUnit(all.spans, "sim.pulse") / 1e3});
        m.push_back({"sim.self_share",
                     ratio(selfOf("sim.build") + selfOf("sim.elaborate") +
                               selfOf("sim.pulse"),
                           pointNs)});
        m.push_back({"sta.ns_per_edge", nsPerUnit(all.spans, "sta.run")});
        m.push_back({"sta.self_share", ratio(selfOf("sta.run"), pointNs)});
        m.push_back({"gen.balance_us_per_spec.p50",
                     percentile(durationsUs(all.spans, "gen.balance"), 50)});
        m.push_back({"gen.balance_iterations_mean", ratio(iterations, n)});
        m.push_back({"gen.converged_ratio", ratio(feasible, n)});
        m.push_back({"gen.self_share", ratio(selfOf("gen.balance"), pointNs)});
        m.push_back({"func.mirror_ns_per_epoch",
                     nsPerUnit(all.spans, "func.mirror")});
        m.push_back({"func.self_share", ratio(selfOf("func.mirror"), pointNs)});
        m.push_back({"trace.ops_per_s_ratio",
                     ratio(static_cast<double>(w.points.size()) / w.seconds,
                           untracedOps)});
        if (!opt.traceOut.empty() && !writeSpans(opt.traceOut, all.spans))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opt.traceOut.c_str());
    }

    out.meta = {
        {"workers", "0"},
        {"generator_threads", "1"},
        {"sweep_threads", std::to_string(threads)},
        {"loop", "closed"},
        {"sweep_chunk", std::to_string(kChunk)},
        {"ops", std::to_string(w.points.size())},
        {"latency_samples", std::to_string(w.ops.size())},
        {"fewest_per_slice", std::to_string(sum.fewestPerSlice)},
        {"points_per_pass", std::to_string(w.firstPass)},
        {"pass0_feasible", std::to_string(static_cast<long long>(feasible))},
        {"pass0_pulse_checked",
         std::to_string(static_cast<long long>(pulsed))},
        {"inputs_digest", hex(inputs)},
        {"outputs_digest", hex(digest)},
    };
    return out;
}

} // namespace perfbench
