// Lane-level differential fuzzer for the batched functional engine
// (src/func/batch.hh): every batched component evaluation must be
// bit-identical, lane by lane, to the scalar functional model run on
// that lane's operands alone -- at batch widths 1, 3, 8 and 64, and at
// 1 and N sweep threads.  Batching is a performance knob, never a
// semantics knob (docs/functional.md, "Batched evaluation").
//
// Each component class runs >= 1000 seeded cases per (bits, width,
// threads) grid point; operands derive only from the per-item sweep
// seed, so the scalar reference and every batched run see the same
// corpus no matter how lanes are grouped.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "func/batch.hh"
#include "func/components.hh"
#include "sim/netlist.hh"
#include "sim/sweep.hh"
#include "util/random.hh"

using namespace usfq;

namespace
{

constexpr std::size_t kItems = 1024; // cases per class per grid point
constexpr std::uint64_t kBaseSeed = 0xba7c4edULL;

const int kWidths[] = {1, 3, 8, 64};
const int kThreadCounts[] = {1, 4};

// bits=3: nmax=8; bits=7: nmax=128 -- a short and a long epoch.
const int kBitGrid[] = {3, 7};

/**
 * Run one component class through the full grid.  @p gen draws a case
 * from a per-item Rng; @p scalar evaluates one case with the scalar
 * functional model; @p batched evaluates a whole lane group with the
 * batched engine and returns one int per lane (a count or a slot id).
 */
template <typename GenFn, typename ScalarFn, typename BatchFn>
void
checkClass(const std::string &what, GenFn gen, ScalarFn scalar,
           BatchFn batched)
{
    for (int bits : kBitGrid) {
        const EpochConfig cfg(bits);
        // Scalar reference: item i alone, from its own sweep seed.
        std::vector<int> ref(kItems);
        for (std::size_t i = 0; i < kItems; ++i) {
            Rng rng(shardSeed(kBaseSeed, i));
            ref[i] = scalar(cfg, gen(cfg, rng));
        }
        for (int width : kWidths) {
            for (int threads : kThreadCounts) {
                SweepOptions opt;
                opt.threads = threads;
                opt.baseSeed = kBaseSeed;
                opt.batch.width = width;
                const auto got = runBatchedSweep(
                    kItems,
                    [&](const LaneGroupContext &ctx) {
                        using CaseT = decltype(gen(
                            cfg, std::declval<Rng &>()));
                        std::vector<CaseT> cases;
                        cases.reserve(
                            static_cast<std::size_t>(ctx.lanes));
                        for (int b = 0; b < ctx.lanes; ++b) {
                            Rng rng(ctx.seeds[static_cast<std::size_t>(
                                b)]);
                            cases.push_back(gen(cfg, rng));
                        }
                        return batched(cfg, cases);
                    },
                    opt);
                ASSERT_EQ(got.size(), kItems) << what;
                for (std::size_t i = 0; i < kItems; ++i)
                    ASSERT_EQ(got[i], ref[i])
                        << what << " bits=" << bits
                        << " width=" << width << " threads=" << threads
                        << " item=" << i;
            }
        }
    }
}

// --- per-class operand shapes ------------------------------------------------

struct MultCase
{
    int n;
    int id;
};

MultCase
multCase(const EpochConfig &cfg, Rng &rng)
{
    return {static_cast<int>(rng.uniformInt(0, cfg.nmax())),
            static_cast<int>(rng.uniformInt(0, cfg.nmax()))};
}

struct TripleCase
{
    int a;
    int b;
    int c;
};

TripleCase
tripleCase(const EpochConfig &cfg, Rng &rng)
{
    return {static_cast<int>(rng.uniformInt(0, cfg.nmax())),
            static_cast<int>(rng.uniformInt(0, cfg.nmax())),
            static_cast<int>(rng.uniformInt(0, cfg.nmax()))};
}

template <std::size_t N>
struct VecCase
{
    std::array<int, N> v;
};

template <std::size_t N>
VecCase<N>
vecCase(const EpochConfig &cfg, Rng &rng)
{
    VecCase<N> c;
    for (auto &x : c.v)
        x = static_cast<int>(rng.uniformInt(0, cfg.nmax()));
    return c;
}

/** Flatten cases operand-major: operand k's lane values contiguous. */
template <std::size_t N>
std::vector<int>
operandMajor(const std::vector<VecCase<N>> &cases)
{
    const std::size_t lanes = cases.size();
    std::vector<int> flat(N * lanes);
    for (std::size_t k = 0; k < N; ++k)
        for (std::size_t b = 0; b < lanes; ++b)
            flat[k * lanes + b] = cases[b].v[k];
    return flat;
}

} // namespace

// --- multipliers -------------------------------------------------------------

TEST(BatchDifferential, UnipolarMultiplierCounts)
{
    checkClass(
        "unipolar-mult-count", multCase,
        [](const EpochConfig &cfg, const MultCase &c) {
            Netlist nl;
            return nl.create<func::UnipolarMultiplier>("m").evaluate(
                cfg, c.n, c.id);
        },
        [](const EpochConfig &cfg, const std::vector<MultCase> &cs) {
            Netlist nl;
            auto &m = nl.create<func::UnipolarMultiplier>("m");
            std::vector<int> ns, ids;
            for (const MultCase &c : cs) {
                ns.push_back(c.n);
                ids.push_back(c.id);
            }
            std::vector<int> out(cs.size());
            m.evaluateBatch(cfg, ns, ids, out);
            return out;
        });
}

TEST(BatchDifferential, BipolarMultiplierCounts)
{
    checkClass(
        "bipolar-mult-count", multCase,
        [](const EpochConfig &cfg, const MultCase &c) {
            Netlist nl;
            return nl.create<func::BipolarMultiplier>("m").evaluate(
                cfg, c.n, c.id);
        },
        [](const EpochConfig &cfg, const std::vector<MultCase> &cs) {
            Netlist nl;
            auto &m = nl.create<func::BipolarMultiplier>("m");
            std::vector<int> ns, ids;
            for (const MultCase &c : cs) {
                ns.push_back(c.n);
                ids.push_back(c.id);
            }
            std::vector<int> out(cs.size());
            m.evaluateBatch(cfg, ns, ids, out);
            return out;
        });
}

TEST(BatchDifferential, MergerTreeAdderCounts)
{
    checkClass(
        "merger-tree", vecCase<4>,
        [](const EpochConfig &cfg, const VecCase<4> &c) {
            Netlist nl;
            auto &add = nl.create<func::MergerTreeAdder>("add", 4);
            return add.evaluate(
                cfg, std::vector<int>(c.v.begin(), c.v.end()));
        },
        [](const EpochConfig &cfg, const std::vector<VecCase<4>> &cs) {
            Netlist nl;
            auto &add = nl.create<func::MergerTreeAdder>("add", 4);
            std::vector<int> out(cs.size());
            add.evaluateBatch(cfg, operandMajor(cs), out);
            return out;
        });
}

TEST(BatchDifferential, TreeCountingNetworkCounts)
{
    checkClass(
        "counting-tree", vecCase<8>,
        [](const EpochConfig &cfg, const VecCase<8> &c) {
            (void)cfg;
            Netlist nl;
            auto &net = nl.create<func::TreeCountingNetwork>("net", 8);
            return net.evaluate(
                std::vector<int>(c.v.begin(), c.v.end()));
        },
        [](const EpochConfig &cfg, const std::vector<VecCase<8>> &cs) {
            (void)cfg;
            Netlist nl;
            auto &net = nl.create<func::TreeCountingNetwork>("net", 8);
            WordArena arena;
            std::vector<int> out(cs.size());
            net.evaluateBatch(operandMajor(cs), out, arena);
            return out;
        });
}

// --- race logic --------------------------------------------------------------

TEST(BatchDifferential, FirstAndLastArrival)
{
    checkClass(
        "first-arrival", vecCase<3>,
        [](const EpochConfig &cfg, const VecCase<3> &c) {
            (void)cfg;
            Netlist nl;
            return nl.create<func::FirstArrival>("fa").evaluate(
                std::vector<int>(c.v.begin(), c.v.end()));
        },
        [](const EpochConfig &cfg, const std::vector<VecCase<3>> &cs) {
            (void)cfg;
            Netlist nl;
            auto &fa = nl.create<func::FirstArrival>("fa");
            std::vector<int> out(cs.size());
            fa.evaluateBatch(operandMajor(cs), 3, out);
            return out;
        });
    checkClass(
        "last-arrival", vecCase<3>,
        [](const EpochConfig &cfg, const VecCase<3> &c) {
            (void)cfg;
            Netlist nl;
            return nl.create<func::LastArrival>("la").evaluate(
                std::vector<int>(c.v.begin(), c.v.end()));
        },
        [](const EpochConfig &cfg, const std::vector<VecCase<3>> &cs) {
            (void)cfg;
            Netlist nl;
            auto &la = nl.create<func::LastArrival>("la");
            std::vector<int> out(cs.size());
            la.evaluateBatch(operandMajor(cs), 3, out);
            return out;
        });
}

// --- PE / DPU / FIR ----------------------------------------------------------

TEST(BatchDifferential, ProcessingElementSlots)
{
    checkClass(
        "processing-element", tripleCase,
        [](const EpochConfig &cfg, const TripleCase &c) {
            Netlist nl;
            return nl.create<func::ProcessingElement>("pe", cfg)
                .evaluate(c.a, c.b, c.c);
        },
        [](const EpochConfig &cfg, const std::vector<TripleCase> &cs) {
            Netlist nl;
            auto &pe = nl.create<func::ProcessingElement>("pe", cfg);
            WordArena arena;
            std::vector<int> in1, in2, in3;
            for (const TripleCase &c : cs) {
                in1.push_back(c.a);
                in2.push_back(c.b);
                in3.push_back(c.c);
            }
            std::vector<int> out(cs.size());
            pe.evaluateBatch(in1, in2, in3, out, arena);
            return out;
        });
}

namespace
{

template <DpuMode Mode>
void
checkDpuClass(const std::string &what)
{
    // 6 elements pads to 8 internally, covering the padded tree path.
    checkClass(
        what, vecCase<12>,
        [](const EpochConfig &cfg, const VecCase<12> &c) {
            Netlist nl;
            auto &dpu =
                nl.create<func::DotProductUnit>("dpu", 6, Mode);
            return dpu.evaluate(
                cfg, std::vector<int>(c.v.begin(), c.v.begin() + 6),
                std::vector<int>(c.v.begin() + 6, c.v.end()));
        },
        [](const EpochConfig &cfg, const std::vector<VecCase<12>> &cs) {
            Netlist nl;
            auto &dpu =
                nl.create<func::DotProductUnit>("dpu", 6, Mode);
            WordArena arena;
            const std::size_t lanes = cs.size();
            std::vector<int> counts(6 * lanes), ids(6 * lanes);
            for (std::size_t k = 0; k < 6; ++k)
                for (std::size_t b = 0; b < lanes; ++b) {
                    counts[k * lanes + b] = cs[b].v[k];
                    ids[k * lanes + b] = cs[b].v[k + 6];
                }
            std::vector<int> out(lanes);
            dpu.evaluateBatch(cfg, counts, ids, out, arena);
            return out;
        });
}

} // namespace

TEST(BatchDifferential, DotProductUnitUnipolar)
{
    checkDpuClass<DpuMode::Unipolar>("dpu-unipolar");
}

TEST(BatchDifferential, DotProductUnitBipolar)
{
    checkDpuClass<DpuMode::Bipolar>("dpu-bipolar");
}

TEST(BatchDifferential, UsfqFirStepCounts)
{
    // Coefficients are component state shared by every lane, so they
    // are fixed per corpus; only the sample windows vary per item.
    for (int bits : {4, 6}) {
        UsfqFirConfig fc;
        fc.taps = 6;
        fc.bits = bits;
        fc.mode = DpuMode::Bipolar;
        const auto program = [&](func::UsfqFir &fir) {
            for (int k = 0; k < fc.taps; ++k)
                fir.setCoefficient(k, (k % 2 ? -0.8 : 0.7) /
                                          static_cast<double>(k + 1));
        };
        const EpochConfig cfg(bits);
        std::vector<int> ref(kItems);
        for (std::size_t i = 0; i < kItems; ++i) {
            Rng rng(shardSeed(kBaseSeed, i));
            const auto c = vecCase<6>(cfg, rng);
            Netlist nl;
            auto &fir = nl.create<func::UsfqFir>("fir", fc);
            program(fir);
            ref[i] = fir.stepCount(
                std::vector<int>(c.v.begin(), c.v.end()));
        }
        for (int width : kWidths) {
            SweepOptions opt;
            opt.baseSeed = kBaseSeed;
            opt.batch.width = width;
            const auto got = runBatchedSweep(
                kItems,
                [&](const LaneGroupContext &ctx) {
                    std::vector<VecCase<6>> cases;
                    for (int b = 0; b < ctx.lanes; ++b) {
                        Rng rng(
                            ctx.seeds[static_cast<std::size_t>(b)]);
                        cases.push_back(vecCase<6>(cfg, rng));
                    }
                    Netlist nl;
                    auto &fir = nl.create<func::UsfqFir>("fir", fc);
                    program(fir);
                    WordArena arena;
                    std::vector<int> out(cases.size());
                    fir.stepCountBatch(operandMajor(cases), out,
                                       arena);
                    return out;
                },
                opt);
            for (std::size_t i = 0; i < kItems; ++i)
                ASSERT_EQ(got[i], ref[i])
                    << "fir bits=" << bits << " width=" << width
                    << " item=" << i;
        }
    }
}

// --- stats / ledger parity ---------------------------------------------------

TEST(BatchDifferential, BatchedSwitchStatsMatchScalarRuns)
{
    const EpochConfig cfg(5);
    constexpr int kLanes = 64;
    Rng rng(0xd1f2u);
    std::vector<int> ns, ids;
    for (int b = 0; b < kLanes; ++b) {
        ns.push_back(static_cast<int>(rng.uniformInt(0, cfg.nmax())));
        ids.push_back(static_cast<int>(rng.uniformInt(0, cfg.nmax())));
    }
    Netlist scalarNl;
    auto &sm = scalarNl.create<func::UnipolarMultiplier>("m");
    for (int b = 0; b < kLanes; ++b)
        sm.evaluate(cfg, ns[static_cast<std::size_t>(b)],
                    ids[static_cast<std::size_t>(b)]);
    Netlist batchNl;
    auto &bm = batchNl.create<func::UnipolarMultiplier>("m");
    std::vector<int> out(kLanes);
    bm.evaluateBatch(cfg, ns, ids, out);
    EXPECT_EQ(bm.localSwitches(), sm.localSwitches());
    EXPECT_EQ(batchNl.totalSwitches(), scalarNl.totalSwitches());
}

TEST(BatchDifferential, BatchedCollisionLedgerMatchesScalarRuns)
{
    const EpochConfig cfg(5);
    constexpr std::size_t kLanes = 48;
    Rng rng(0xadd5u);
    std::vector<VecCase<4>> cases;
    for (std::size_t b = 0; b < kLanes; ++b)
        cases.push_back(vecCase<4>(cfg, rng));
    Netlist scalarNl;
    auto &sa = scalarNl.create<func::MergerTreeAdder>("add", 4);
    for (const auto &c : cases)
        sa.evaluate(cfg, std::vector<int>(c.v.begin(), c.v.end()));
    Netlist batchNl;
    auto &ba = batchNl.create<func::MergerTreeAdder>("add", 4);
    std::vector<int> out(kLanes);
    ba.evaluateBatch(cfg, operandMajor(cases), out);
    EXPECT_EQ(ba.collisions(), sa.collisions());
    EXPECT_EQ(ba.localSwitches(), sa.localSwitches());
}
