/**
 * @file
 * Fig. 20 reproduction, extended into a real design-space compiler run.
 *
 * Part (1) keeps the paper's taps x bits heatmaps (latency, area,
 * efficiency of the U-SFQ FIR against the wave-pipelined binary FIR)
 * with the IR-sensor / SDR regions and the RTL-2832U class point.
 *
 * Part (2) is the generator sweep (src/gen/, docs/synthesis.md): 1296
 * auto-generated DesignSpecs -- lanes x bits x slot period x tree kind
 * x lane shape x encoding/balancing style -- each compiled through the
 * STA-guided balancing pass.  Every point that survives the checked
 * STA gate is priced (area JJ including the inserted balancing
 * overhead, max lossless stream rate from the final STA, counting
 * accuracy from the functional mirror) and evaluated over seeded
 * epochs on the selected engine; the functional leg must be
 * bit-identical at 1 and 4 sweep threads, and the pulse leg must
 * reproduce the functional counts exactly (one result_digest across
 * backends).  The non-dominated set (area down, rate up, accuracy up)
 * is the Pareto front the artifact reports.
 *
 * Both backend artifacts carry the same metric set (including the
 * timing-margin Monte-Carlo yields, which depend only on the STA
 * model), so bench_diff and json_lint see one schema.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "baseline/binary_models.hh"
#include "bench_common.hh"
#include "core/fir.hh"
#include "func/components.hh"
#include "gen/balance.hh"
#include "gen/datapath.hh"
#include "gen/functional.hh"
#include "gen/spec.hh"
#include "sfq/cells.hh"
#include "sfq/sources.hh"
#include "sim/backend.hh"
#include "sim/netlist.hh"
#include "sim/sweep.hh"
#include "sta/monte_carlo.hh"
#include "util/hash.hh"

using namespace usfq;

namespace
{

const std::vector<int> kTaps{4,  8,  16,  32,  64,
                             128, 256, 512, 1024};
constexpr int kBitsLo = 4, kBitsHi = 16;

double
unaryLatencyPs(int bits)
{
    return std::ldexp(1.0, bits) * bits * 20.0;
}

double
gainPct(double unary, double binary, bool higher_is_better)
{
    if (higher_is_better)
        return (unary / binary - 1.0) * 100.0;
    return (1.0 - unary / binary) * 100.0;
}

char
glyph(double gain)
{
    if (gain <= 0)
        return '.';
    if (gain < 20)
        return '2';
    if (gain < 40)
        return '4';
    if (gain < 60)
        return '6';
    if (gain < 80)
        return '8';
    return '#';
}

/** One bits row of the design-space grid (all three metrics). */
struct GridRow
{
    int bits;
    std::vector<double> latency;
    std::vector<double> area;
    std::vector<double> efficiency;
};

void
printMap(const char *title, const std::vector<GridRow> &rows,
         std::vector<double> GridRow::*metric)
{
    std::printf("%s\n  ('.' = binary wins; digits = unary gain "
                "decile; '#' >= 80%%)\n\n  bits ", title);
    for (int taps : kTaps)
        std::printf("%5d", taps);
    std::printf("   <- taps\n");
    for (const GridRow &row : rows) {
        std::printf("  %4d ", row.bits);
        for (double gain : row.*metric)
            std::printf("    %c", glyph(gain));
        // Region annotations per the paper.
        if (row.bits == 7)
            std::printf("   IR sensors: ~30 taps, 6-8 bits");
        if (row.bits == 10)
            std::printf("   SDR: 200-900 taps, 7-14 bits");
        std::printf("\n");
    }
    std::printf("\n");
}

/** Unary FIR area as priced by the selected engine. */
long long
unaryAreaJJ(Backend backend, int taps, int bits)
{
    if (backend == Backend::PulseLevel)
        return usfqFirAreaJJ(taps, bits);
    // Functional engine: the src/func/ component reports its own
    // area into the hierarchy rollup; ask it directly.
    Netlist nl;
    UsfqFirConfig cfg{.taps = taps, .bits = bits};
    auto &fir = nl.create<func::UsfqFir>("fir", cfg);
    return fir.jjCount();
}

double
latencyGain(int taps, int bits)
{
    return gainPct(unaryLatencyPs(bits),
                   baseline::BinaryFir{taps, bits}.latencyPs(), false);
}

double
areaGain(Backend backend, int taps, int bits)
{
    return gainPct(static_cast<double>(unaryAreaJJ(backend, taps, bits)),
                   baseline::BinaryFir{taps, bits}.areaJJ(), false);
}

double
efficiencyGain(Backend backend, int taps, int bits)
{
    const double u_eff =
        taps / (unaryLatencyPs(bits) * 1e-12) /
        static_cast<double>(unaryAreaJJ(backend, taps, bits));
    return gainPct(u_eff,
                   baseline::BinaryFir{taps, bits}.efficiencyOpsPerJJ(),
                   true);
}

void
referencePoint(Backend backend, const char *label, int taps, int bits)
{
    std::printf("  %-28s (%4d taps, %2d bits): latency %+6.1f%%, "
                "area %+6.1f%%, efficiency %+7.1f%%\n",
                label, taps, bits, latencyGain(taps, bits),
                areaGain(backend, taps, bits),
                efficiencyGain(backend, taps, bits));
}

/** One bits row of the grid, priced by @p backend. */
GridRow
computeRow(Backend backend, std::size_t index)
{
    GridRow row;
    row.bits = kBitsHi - static_cast<int>(index);
    for (int taps : kTaps) {
        row.latency.push_back(latencyGain(taps, row.bits));
        row.area.push_back(areaGain(backend, taps, row.bits));
        row.efficiency.push_back(
            efficiencyGain(backend, taps, row.bits));
    }
    return row;
}

std::vector<GridRow>
computeGrid(Backend backend)
{
    // One shard per bits row, top row first to match print order.
    SweepOptions opt;
    opt.backend = backend;
    return runSweep(
        static_cast<std::size_t>(kBitsHi - kBitsLo + 1),
        [](const ShardContext &ctx) {
            return computeRow(ctx.backend, ctx.index);
        },
        opt);
}

// --- the generator design space --------------------------------------------

/** Epochs evaluated per surviving design point. */
constexpr int kEpochsPerPoint = 4;

/** Seed of epoch @p e of point @p index -- identical on both engines. */
std::uint64_t
epochSeed(std::size_t index, int e)
{
    return 0xf1620000ULL + 16ULL * index + static_cast<unsigned>(e);
}

/** One compiled point of the generated design space. */
struct GenPoint
{
    gen::DesignSpec spec;
    bool feasible = false;
    gen::PaddingPlan plan;
    long long areaJJ = 0;   ///< balanced datapath, padding included
    int insertedJJ = 0;     ///< the balancing overhead
    double rateGhz = 0.0;   ///< STA max lossless stream rate
    double accuracy = 0.0;  ///< delivered / offered at the tree (mirror)
};

/**
 * The 1296-point grid: 3 lane counts x 4 resolutions x 4 slot periods
 * x 3 tree kinds x 3 lane shapes x 3 encoding/balancing styles.  The
 * slot-period axis deliberately dips below the Balancer dead time and
 * the TFF2 recovery, so the STA gate genuinely rejects part of the
 * space (points_feasible < points_total).
 */
std::vector<gen::DesignSpec>
enumerateSpace()
{
    std::vector<gen::DesignSpec> specs;
    for (int lanes : {4, 8, 16})
        for (int bits : {3, 4, 5, 6})
            for (int period : {10, 16, 20, 24})
                for (gen::TreeKind tree :
                     {gen::TreeKind::Balancer, gen::TreeKind::Merger,
                      gen::TreeKind::Tff2})
                    for (gen::LaneShape shape :
                         {gen::LaneShape::Balanced,
                          gen::LaneShape::Skewed,
                          gen::LaneShape::Random})
                        for (int style = 0; style < 3; ++style) {
                            gen::DesignSpec s;
                            s.lanes = lanes;
                            s.bits = bits;
                            s.clockPeriodPs = period;
                            s.tree = tree;
                            s.shape = shape;
                            // Unipolar/Jtl, Unipolar/Register,
                            // Bipolar/Jtl (Bipolar+Register is
                            // rejected by validate()).
                            s.encoding = style == 2
                                             ? gen::StreamEncoding::
                                                   Bipolar
                                             : gen::StreamEncoding::
                                                   Unipolar;
                            s.balance =
                                style == 1
                                    ? gen::BalanceStyle::Register
                                    : gen::BalanceStyle::Jtl;
                            s.maxDividers = 2;
                            s.skewStep = 2;
                            s.shapeSeed =
                                0x5eedULL + specs.size();
                            specs.push_back(s);
                        }
    return specs;
}

/** Compile every point: balancing pass + checked STA gate + pricing.
 *  Backend-independent (the gate is the STA model), parallel, and a
 *  pure function of the grid -- any thread count gives the same
 *  result. */
std::vector<GenPoint>
compileSpace(const std::vector<gen::DesignSpec> &specs)
{
    return runSweep(specs.size(), [&specs](const ShardContext &ctx) {
        GenPoint p;
        p.spec = specs[ctx.index];
        const gen::BalanceOutcome bo = gen::balanceDesign(p.spec);
        if (!bo.converged())
            return p;
        p.feasible = true;
        p.plan = bo.plan;
        p.areaJJ = gen::StreamDatapath::jjsFor(p.spec, p.plan);
        p.insertedJJ = bo.insertedJJ;
        p.rateGhz = bo.maxStreamRateHz / 1e9;
        long long delivered = 0, offered = 0;
        for (int e = 0; e < kEpochsPerPoint; ++e) {
            const gen::EpochEval ev = gen::evalEpoch(
                p.spec, gen::drawEpochInputs(
                            p.spec, epochSeed(ctx.index, e)));
            delivered += ev.laneSum - ev.lost;
            offered += ev.laneSum;
        }
        p.accuracy = offered > 0 ? static_cast<double>(delivered) /
                                       static_cast<double>(offered)
                                 : 1.0;
        return p;
    });
}

/** Per-epoch output counts of one feasible point on @p backend. */
std::vector<long long>
evalPointEpochs(const GenPoint &p, std::size_t index, Backend backend)
{
    std::vector<long long> counts;
    for (int e = 0; e < kEpochsPerPoint; ++e) {
        const gen::EpochInputs in =
            gen::drawEpochInputs(p.spec, epochSeed(index, e));
        counts.push_back(backend == Backend::PulseLevel
                             ? gen::runPulseEpoch(p.spec, p.plan, in)
                             : gen::evalEpoch(p.spec, in).count);
    }
    return counts;
}

/**
 * Evaluate every feasible point's epochs on @p backend, one point per
 * shard.
 */
std::vector<std::vector<long long>>
evalSpace(const std::vector<GenPoint> &points,
          const std::vector<std::size_t> &feasible, Backend backend,
          int threads)
{
    SweepOptions opt;
    opt.backend = backend;
    opt.threads = threads;
    return runSweep(
        feasible.size(),
        [&](const ShardContext &ctx) {
            const std::size_t i = feasible[ctx.index];
            return evalPointEpochs(points[i], i, ctx.backend);
        },
        opt);
}

/** Order-sensitive digest over every feasible point's epoch counts. */
std::uint64_t
digestOf(const std::vector<std::vector<long long>> &counts)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &row : counts)
        for (long long c : row)
            h = fnvU64(h, static_cast<std::uint64_t>(c));
    return h;
}

std::string
hexDigest(std::uint64_t h)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Non-dominated set: area down, rate up, accuracy up. */
std::vector<std::size_t>
paretoFront(const std::vector<GenPoint> &points,
            const std::vector<std::size_t> &feasible)
{
    std::vector<std::size_t> front;
    for (std::size_t i : feasible) {
        const GenPoint &p = points[i];
        bool dominated = false;
        for (std::size_t j : feasible) {
            if (i == j)
                continue;
            const GenPoint &q = points[j];
            const bool noWorse = q.areaJJ <= p.areaJJ &&
                                 q.rateGhz >= p.rateGhz &&
                                 q.accuracy >= p.accuracy;
            const bool better = q.areaJJ < p.areaJJ ||
                                q.rateGhz > p.rateGhz ||
                                q.accuracy > p.accuracy;
            if (noWorse && better) {
                dominated = true;
                break;
            }
        }
        if (!dominated)
            front.push_back(i);
    }
    return front;
}

bool
sameCounts(const std::vector<std::vector<long long>> &a,
           const std::vector<std::vector<long long>> &b)
{
    return a == b;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::BenchArgs::parse(&argc, argv);
    bench::banner("Fig. 20: design-space heatmaps + the generator "
                  "design-space compiler sweep",
                  "unary gain regions over the WP binary FIR; 1296 "
                  "auto-generated datapaths STA-gated, priced and "
                  "Pareto-ranked");

    // --- the generator sweep, compiled once (backend-independent) ---
    const std::vector<gen::DesignSpec> specs = enumerateSpace();
    const std::vector<GenPoint> points = compileSpace(specs);
    std::vector<std::size_t> feasible;
    long long insertedTotal = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].feasible) {
            feasible.push_back(i);
            insertedTotal += points[i].insertedJJ;
        }
    }
    const std::vector<std::size_t> front = paretoFront(points, feasible);
    if (specs.size() < 1000 || feasible.empty() || front.empty()) {
        std::fprintf(stderr,
                     "FAIL: design space too small (%zu points, %zu "
                     "feasible, %zu on the front)\n",
                     specs.size(), feasible.size(), front.size());
        return 1;
    }

    std::printf("generator design space: %zu points, %zu pass the "
                "checked STA gate, %zu on the Pareto front "
                "(area vs lossless rate vs accuracy)\n",
                specs.size(), feasible.size(), front.size());
    std::printf("balancing overhead: %lld JJs inserted across the "
                "feasible set\n\n",
                insertedTotal);
    std::printf("  pareto samples (of %zu):\n", front.size());
    for (std::size_t k = 0; k < front.size();
         k += std::max<std::size_t>(1, front.size() / 6)) {
        const GenPoint &p = points[front[k]];
        std::printf("    %2d lanes %d bits P=%2d ps %-8s %-8s %-8s: "
                    "%5lld JJ (+%3d), %5.1f GHz, accuracy %.3f\n",
                    p.spec.lanes, p.spec.bits, p.spec.clockPeriodPs,
                    gen::treeKindName(p.spec.tree),
                    gen::laneShapeName(p.spec.shape),
                    gen::streamEncodingName(p.spec.encoding), p.areaJJ,
                    p.insertedJJ, p.rateGhz, p.accuracy);
    }
    std::printf("\n");

    // Functional reference evaluation + the sweep contract: the same
    // counts at any thread count.
    const auto funcCounts =
        evalSpace(points, feasible, Backend::Functional, 1);
    const auto funcCounts4 =
        evalSpace(points, feasible, Backend::Functional, 4);
    if (!sameCounts(funcCounts, funcCounts4)) {
        std::fprintf(stderr,
                     "FAIL: functional sweep not bit-identical across "
                     "thread counts\n");
        return 1;
    }
    const std::uint64_t funcDigest = digestOf(funcCounts);
    std::printf("functional sweep: %zu points x %d epochs, identical "
                "at 1 and 4 threads, digest %s\n\n",
                feasible.size(), kEpochsPerPoint,
                hexDigest(funcDigest).c_str());

    // Timing-margin Monte-Carlo (sta/monte_carlo.hh): depends only on
    // the STA model, so it is computed once and recorded in BOTH
    // backend artifacts -- the artifacts carry one metric schema.
    // The scenario: a 4-sink DFF clock grid where each sink's data and
    // clock branches run their own JTLs, 4 ps nominal lag against the
    // 2 ps setup window, per-cell delay jitter; yield = fraction of
    // trials where every sink still captures.
    std::printf("timing-margin Monte-Carlo (4-sink DFF clock grid, "
                "2 ps nominal capture slack, per-cell delay "
                "jitter):\n");
    std::vector<std::pair<Tick, double>> yields;
    for (Tick amp : {0, 1, 2, 3}) {
        StaJitterOptions mc;
        mc.trials = 64;
        mc.amplitude = amp * kPicosecond;
        const StaJitterStats stats = runStaJitter(
            [](Netlist &nl) {
                constexpr Tick kTclk = 200 * kPicosecond;
                auto &clk = nl.create<ClockSource>("clk");
                auto &root = nl.create<Splitter>("root");
                auto &ha = nl.create<Splitter>("ha");
                auto &hb = nl.create<Splitter>("hb");
                clk.out.connect(root.in);
                root.out1.connect(ha.in);
                root.out2.connect(hb.in);
                OutputPort *leaves[4] = {&ha.out1, &ha.out2, &hb.out1,
                                         &hb.out2};
                for (int i = 0; i < 4; ++i) {
                    const std::string n = std::to_string(i);
                    auto &sink = nl.create<Splitter>("sink" + n);
                    auto &jd = nl.create<Jtl>("jd" + n);
                    auto &jc = nl.create<Jtl>("jc" + n);
                    auto &ff = nl.create<Dff>("ff" + n);
                    leaves[i]->connect(sink.in);
                    sink.out1.connect(jd.in);
                    sink.out2.connect(jc.in);
                    jd.out.connect(ff.d);
                    jc.out.connect(ff.clk, 4 * kPicosecond);
                    ff.q.markOpen("margin study endpoint");
                }
                clk.program(kTclk, kTclk, 16);
            },
            mc);
        std::printf("  +/-%lld ps jitter: worst slack %6.1f .. %6.1f "
                    "ps (mean %6.1f), yield %5.1f%%\n",
                    static_cast<long long>(amp),
                    ticksToPs(stats.slackMin), ticksToPs(stats.slackMax),
                    stats.slackMean / kPicosecond,
                    stats.yield() * 100.0);
        yields.emplace_back(amp, stats.yield() * 100.0);
    }
    std::printf("\n");

    std::vector<GridRow> reference;
    for (Backend backend : args.backends()) {
        bench::Artifact artifact("fig20_design_space", args, backend);
        std::printf("--- %s backend ---\n\n", backendName(backend));
        const auto rows = computeGrid(backend);

        // Cross-backend contract: both engines price the design space
        // identically (the functional FIR reports the same closed-form
        // area the netlist validates cell by cell).
        if (reference.empty()) {
            reference = rows;
        } else {
            for (std::size_t r = 0; r < rows.size(); ++r) {
                if (rows[r].area != reference[r].area ||
                    rows[r].latency != reference[r].latency ||
                    rows[r].efficiency != reference[r].efficiency) {
                    std::fprintf(stderr,
                                 "FAIL: design-space grids disagree "
                                 "between backends at bits=%d\n",
                                 rows[r].bits);
                    return 1;
                }
            }
            std::printf("cross-backend check: grid identical to the "
                        "pulse-level pricing.\n\n");
        }

        printMap("(a) latency gain", rows, &GridRow::latency);
        printMap("(b) area gain", rows, &GridRow::area);
        printMap("(c) efficiency gain (throughput per JJ)", rows,
                 &GridRow::efficiency);

        std::printf("application reference points:\n");
        referencePoint(backend, "IR sensor filter", 32, 7);
        referencePoint(backend, "IR sensor filter (8 bits)", 32, 8);
        referencePoint(backend, "RTL-2832U-class SDR", 256, 8);
        referencePoint(backend, "RSP-class SDR", 512, 12);
        artifact.metric("ir_latency_gain", latencyGain(32, 7), "%");
        artifact.metric("ir_area_gain", areaGain(backend, 32, 7), "%");
        artifact.metric("ir_efficiency_gain",
                        efficiencyGain(backend, 32, 7), "%");
        artifact.metric("rtl_area_gain", areaGain(backend, 256, 8),
                        "%");
        artifact.metric("rtl_efficiency_gain",
                        efficiencyGain(backend, 256, 8), "%");
        std::printf("\npaper: IR sensors gain 13-78%% latency / ~40%% "
                    "area / 62-89%% efficiency; the RTL-class filter "
                    "pays ~60%% area for ~80%% better efficiency.\n\n");

        // The generator sweep on this backend: the pulse leg replays
        // every feasible point's epochs at pulse level and must land
        // on the functional digest exactly; the functional leg reuses
        // the reference run.
        std::vector<std::vector<long long>> counts;
        if (backend == Backend::PulseLevel) {
            counts =
                evalSpace(points, feasible, Backend::PulseLevel, 0);
            if (!sameCounts(counts, funcCounts)) {
                std::fprintf(stderr,
                             "FAIL: pulse-level generator sweep "
                             "disagrees with the functional mirror\n");
                return 1;
            }
            std::printf("generator sweep: pulse-level counts match "
                        "the functional mirror on all %zu points.\n",
                        feasible.size());
        } else {
            counts = funcCounts;
            std::printf("generator sweep: functional reference counts "
                        "reused.\n");
        }
        const std::uint64_t digest = digestOf(counts);

        // One metric schema for both backend artifacts.
        artifact.metric("points_total",
                        static_cast<double>(specs.size()), "");
        artifact.metric("points_feasible",
                        static_cast<double>(feasible.size()), "");
        artifact.metric("pareto_points",
                        static_cast<double>(front.size()), "");
        artifact.metric("balance_overhead_jj",
                        static_cast<double>(insertedTotal), "JJ");
        long long minArea = points[front[0]].areaJJ;
        double maxRate = 0.0, bestAcc = 0.0;
        for (std::size_t i : front) {
            minArea = std::min(minArea, points[i].areaJJ);
            maxRate = std::max(maxRate, points[i].rateGhz);
            bestAcc = std::max(bestAcc, points[i].accuracy);
        }
        artifact.metric("pareto_min_area_jj",
                        static_cast<double>(minArea), "JJ");
        artifact.metric("pareto_max_rate_ghz", maxRate, "GHz");
        artifact.metric("pareto_best_accuracy", bestAcc, "");
        artifact.note("result_digest", hexDigest(digest));
        for (const auto &[amp, yield] : yields)
            artifact.metric("yield_jitter_" + std::to_string(amp) +
                                "ps",
                            yield, "%");
    }
    return 0;
}
