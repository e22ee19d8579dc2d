/**
 * @file
 * Differential fuzzer between the pulse-level netlists and the
 * stream-level functional backend (src/func/): seeded random operands
 * for every component class, sharded over runSweep so the full corpus
 * runs in parallel yet stays bit-identical at any thread count.
 *
 * Exactness contract (docs/functional.md):
 *   - multipliers, counting-network DPUs, PNMs: exact count equality
 *   - merger trees: exact slot-union (plus exact collision accounting)
 *   - standalone counting trees: bounded by one rounded pulse per tree
 *     level (the drive pattern sets each balancer's toggle phase)
 *   - PE: +/-1 RL slot (integrator capture vs the pure model)
 *
 * Any mismatch outside these bounds is a real engine divergence, never
 * "flaky": every case prints its operands so it can be replayed.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/adder.hh"
#include "core/dpu.hh"
#include "core/multiplier.hh"
#include "core/pe.hh"
#include "core/pnm.hh"
#include "func/components.hh"
#include "sim/netlist.hh"
#include "sim/sweep.hh"
#include "sim/trace.hh"
#include "sfq/sources.hh"
#include "util/random.hh"

namespace usfq
{
namespace
{

constexpr std::size_t kShards = 16;
constexpr std::uint64_t kCorpusSeed = 0xd1ffu;

/** One fuzz case: operands plus both engines' answers. */
struct DiffCase
{
    int bits = 0;
    std::vector<int> operands;
    long long pulse = 0;
    long long func = 0;

    bool operator==(const DiffCase &other) const = default;
};

// --- pulse-level harnesses (mirroring the unit-test drives) -----------------

int
runUnipolarMult(const EpochConfig &cfg, int stream_count, int rl_id)
{
    Netlist nl;
    auto &mult = nl.create<UnipolarMultiplier>("mult");
    auto &src_e = nl.create<PulseSource>("e");
    auto &src_a = nl.create<PulseSource>("a");
    auto &src_b = nl.create<PulseSource>("b");
    PulseTrace out;
    src_e.out.connect(mult.epoch());
    src_a.out.connect(mult.streamIn());
    src_b.out.connect(mult.rlIn());
    mult.out().connect(out.input());
    src_e.pulseAt(0);
    src_b.pulseAt(cfg.rlArrival(rl_id));
    src_a.pulsesAt(cfg.streamTimes(stream_count));
    nl.queue().run();
    return static_cast<int>(out.count());
}

int
runBipolarMult(const EpochConfig &cfg, int stream_count, int rl_id)
{
    Netlist nl;
    auto &mult = nl.create<BipolarMultiplier>("mult");
    auto &src_e = nl.create<PulseSource>("e");
    auto &src_a = nl.create<PulseSource>("a");
    auto &src_b = nl.create<PulseSource>("b");
    auto &src_clk = nl.create<PulseSource>("clk");
    PulseTrace out;
    src_e.out.connect(mult.epoch());
    src_a.out.connect(mult.streamIn());
    src_b.out.connect(mult.rlIn());
    src_clk.out.connect(mult.clkIn());
    mult.out().connect(out.input());
    src_e.pulseAt(0);
    src_b.pulseAt(cfg.rlArrival(rl_id));
    src_a.pulsesAt(cfg.streamTimes(stream_count));
    src_clk.pulsesAt(BipolarMultiplier::gridClockTimes(cfg, 0));
    nl.queue().run();
    return static_cast<int>(out.count());
}

/** Merger tree fed same-grid streams; returns {survivors, collisions}. */
std::pair<int, int>
runMergerTree(const EpochConfig &cfg, const std::vector<int> &counts)
{
    Netlist nl;
    auto &add = nl.create<MergerTreeAdder>(
        "add", static_cast<int>(counts.size()));
    PulseTrace out;
    add.out().connect(out.input());
    for (std::size_t i = 0; i < counts.size(); ++i) {
        auto &src = nl.create<PulseSource>(indexedName("s", i));
        src.out.connect(add.in(static_cast<int>(i)));
        src.pulsesAt(cfg.streamTimes(counts[i]));
    }
    nl.queue().run();
    return {static_cast<int>(out.count()),
            static_cast<int>(add.collisions())};
}

/** Slot width satisfying slot >= 2*(3*log2(L)+1) for DPU lengths <= 64. */
constexpr Tick kDpuSlot = 40 * kPicosecond;

Tick
dpuSetLag(int length)
{
    int depth = 0, n = 1;
    while (n < length) {
        n <<= 1;
        ++depth;
    }
    return static_cast<Tick>(depth) * 3 * kPicosecond;
}

int
runPulseDpu(const EpochConfig &cfg, DpuMode mode,
            const std::vector<int> &streams, const std::vector<int> &ids)
{
    const int length = static_cast<int>(streams.size());
    Netlist nl;
    auto &dpu = nl.create<DotProductUnit>("dpu", length, mode);
    auto &src_e = nl.create<PulseSource>("e");
    auto &src_clk = nl.create<PulseSource>("clk");
    PulseTrace out;
    src_e.out.connect(dpu.epochIn());
    if (mode == DpuMode::Bipolar)
        src_clk.out.connect(dpu.clkIn());
    dpu.out().connect(out.input());

    std::vector<PulseSource *> rl_srcs, st_srcs;
    for (int i = 0; i < length; ++i) {
        auto &r = nl.create<PulseSource>(indexedName("a", i));
        auto &s = nl.create<PulseSource>(indexedName("b", i));
        r.out.connect(dpu.rlIn(i));
        s.out.connect(dpu.streamIn(i));
        rl_srcs.push_back(&r);
        st_srcs.push_back(&s);
    }
    const Tick rl_off = dpuSetLag(length) + 1 * kPicosecond;
    src_e.pulseAt(0);
    if (mode == DpuMode::Bipolar)
        src_clk.pulsesAt(BipolarMultiplier::gridClockTimes(cfg, 0));
    for (int i = 0; i < length; ++i) {
        rl_srcs[static_cast<std::size_t>(i)]->pulseAt(
            rl_off + cfg.rlTime(ids[static_cast<std::size_t>(i)]));
        st_srcs[static_cast<std::size_t>(i)]->pulsesAt(
            cfg.streamTimes(streams[static_cast<std::size_t>(i)]));
    }
    nl.queue().run();
    return static_cast<int>(out.count());
}

/** PE pulse harness (pe_test.cpp drive): returns the result RL slot. */
int
runPulsePe(const EpochConfig &cfg, int in1_id, int in2_count,
           int in3_count)
{
    constexpr Tick kRlOff = 5 * kPicosecond;
    Netlist nl;
    auto &pe = nl.create<ProcessingElement>("pe", cfg);
    auto &src_e = nl.create<PulseSource>("e");
    auto &src1 = nl.create<PulseSource>("in1");
    auto &src2 = nl.create<PulseSource>("in2");
    auto &src3 = nl.create<PulseSource>("in3");
    PulseTrace out;
    src_e.out.connect(pe.epoch());
    src1.out.connect(pe.in1());
    src2.out.connect(pe.in2());
    src3.out.connect(pe.in3());
    pe.out().connect(out.input());

    src_e.pulseAt(0);
    src1.pulseAt(kRlOff + cfg.rlTime(in1_id));
    src2.pulsesAt(cfg.streamTimes(in2_count));
    src3.pulsesAt(cfg.streamTimes(in3_count));
    src_e.pulseAt(cfg.duration()); // conversion trigger
    nl.queue().run();
    for (Tick t : out.times()) {
        if (t > cfg.duration())
            return cfg.rlSlotOf(t - cfg.duration() - 30 * kPicosecond -
                                3 * kPicosecond -
                                EpochConfig::kRlPulseOffset);
    }
    return -1;
}

// --- sharded corpora ---------------------------------------------------------

template <typename Fn>
std::vector<DiffCase>
runCorpus(std::size_t cases_per_shard, Fn &&shard_case,
          const SweepOptions &opt = {})
{
    const auto shards = runSweep(
        kShards,
        [&](const ShardContext &ctx) {
            Rng rng(ctx.seed);
            std::vector<DiffCase> cases;
            cases.reserve(cases_per_shard);
            for (std::size_t i = 0; i < cases_per_shard; ++i)
                cases.push_back(shard_case(rng));
            return cases;
        },
        opt);
    std::vector<DiffCase> merged;
    for (const auto &shard : shards)
        merged.insert(merged.end(), shard.begin(), shard.end());
    return merged;
}

std::string
describe(const DiffCase &c)
{
    std::string s = "bits=" + std::to_string(c.bits) + " operands=[";
    for (std::size_t i = 0; i < c.operands.size(); ++i) {
        if (i)
            s += ',';
        s += std::to_string(c.operands[i]);
    }
    return s + "]";
}

DiffCase
unipolarMultCase(Rng &rng)
{
    DiffCase c;
    c.bits = static_cast<int>(rng.uniformInt(2, 6));
    const EpochConfig cfg(c.bits);
    const int n = static_cast<int>(rng.uniformInt(0, cfg.nmax()));
    const int id = static_cast<int>(rng.uniformInt(0, cfg.nmax()));
    c.operands = {n, id};
    c.pulse = runUnipolarMult(cfg, n, id);
    Netlist nl;
    c.func = nl.create<func::UnipolarMultiplier>("m").evaluate(cfg, n, id);
    return c;
}

// --- the component-class fuzzers ---------------------------------------------

TEST(Differential, UnipolarMultiplierExact)
{
    const auto cases = runCorpus(72, unipolarMultCase); // 1152 cases
    for (const DiffCase &c : cases)
        EXPECT_EQ(c.pulse, c.func) << describe(c);
}

TEST(Differential, BipolarMultiplierExact)
{
    const auto cases = runCorpus(64, [](Rng &rng) { // 1024 cases
        DiffCase c;
        c.bits = static_cast<int>(rng.uniformInt(2, 5));
        const EpochConfig cfg(c.bits);
        const int n = static_cast<int>(rng.uniformInt(0, cfg.nmax()));
        const int id = static_cast<int>(rng.uniformInt(0, cfg.nmax()));
        c.operands = {n, id};
        c.pulse = runBipolarMult(cfg, n, id);
        Netlist nl;
        c.func =
            nl.create<func::BipolarMultiplier>("m").evaluate(cfg, n, id);
        return c;
    });
    for (const DiffCase &c : cases)
        EXPECT_EQ(c.pulse, c.func) << describe(c);
}

TEST(Differential, MergerTreeAdderExactUnionAndCollisions)
{
    // Same-grid streams coincide slot-exactly, so the union model is
    // exact and the collision ledger must match pulse for pulse.
    const auto cases = runCorpus(64, [](Rng &rng) { // 1024 cases
        DiffCase c;
        c.bits = static_cast<int>(rng.uniformInt(3, 5));
        const EpochConfig cfg(c.bits);
        const int m = rng.bernoulli(0.5) ? 2 : 4;
        std::vector<int> counts;
        for (int i = 0; i < m; ++i)
            counts.push_back(
                static_cast<int>(rng.uniformInt(0, cfg.nmax())));
        c.operands = counts;
        const auto [survivors, collided] = runMergerTree(cfg, counts);
        c.pulse = survivors;
        Netlist nl;
        auto &add = nl.create<func::MergerTreeAdder>("add", m);
        c.func = add.evaluate(cfg, counts);
        // Fold the collision cross-check into the comparison: a
        // survivor match with a collision mismatch must still fail.
        if (collided != static_cast<int>(add.collisions()))
            c.func = -1000 - static_cast<int>(add.collisions());
        return c;
    });
    for (const DiffCase &c : cases)
        EXPECT_EQ(c.pulse, c.func) << describe(c);
}

TEST(Differential, CountingTreeBoundedByDepthRounding)
{
    // Standalone trees are driven with staggered lanes (not the DPU's
    // product streams), so each level's balancer toggle phase can round
    // one pulse the other way versus the pure ceiling model.
    const auto cases = runCorpus(64, [](Rng &rng) { // 1024 cases
        DiffCase c;
        const int m = rng.bernoulli(0.5) ? 4 : 8;
        c.bits = m; // repurposed: fan-in
        std::vector<int> counts;
        for (int i = 0; i < m; ++i)
            counts.push_back(static_cast<int>(rng.uniformInt(0, 8)));
        c.operands = counts;

        Netlist nl;
        auto &net = nl.create<TreeCountingNetwork>("net", m);
        PulseTrace out;
        net.out().connect(out.input());
        const Tick spacing = 2 * cell::kBffDeadTime;
        for (int i = 0; i < m; ++i) {
            auto &src = nl.create<PulseSource>(indexedName("s", i));
            src.out.connect(net.in(i));
            for (int k = 0; k < counts[static_cast<std::size_t>(i)]; ++k)
                src.pulseAt(10 * kPicosecond + k * spacing * m +
                            i * spacing);
        }
        nl.queue().run();
        c.pulse = static_cast<int>(out.count());
        Netlist fnl;
        c.func = fnl.create<func::TreeCountingNetwork>("net", m)
                     .evaluate(counts);
        return c;
    });
    for (const DiffCase &c : cases) {
        const double depth = std::log2(static_cast<double>(c.bits));
        EXPECT_LE(std::llabs(c.pulse - c.func),
                  static_cast<long long>(depth))
            << describe(c);
    }
}

TEST(Differential, PnmCountsExact)
{
    constexpr Tick kTclk = 200 * kPicosecond;
    const auto cases = runCorpus(64, [](Rng &rng) { // 1024 cases
        DiffCase c;
        c.bits = static_cast<int>(rng.uniformInt(1, 6));
        const int value =
            static_cast<int>(rng.uniformInt(0, (1 << c.bits) - 1));
        const bool uniform = rng.bernoulli(0.5);
        c.operands = {value, uniform ? 1 : 0};

        Netlist nl;
        PulseTrace stream;
        auto &clk = nl.create<ClockSource>("clk");
        if (uniform) {
            auto &pnm = nl.create<UniformPnm>("pnm", c.bits);
            clk.out.connect(pnm.clkIn());
            pnm.out().connect(stream.input());
            pnm.epochOut().markOpen("diff fuzz: count only");
            pnm.program(value);
        } else {
            auto &pnm = nl.create<ClassicPnm>("pnm", c.bits);
            clk.out.connect(pnm.clkIn());
            pnm.out().connect(stream.input());
            pnm.epochOut().markOpen("diff fuzz: count only");
            pnm.program(value);
        }
        clk.program(kTclk, kTclk, 1ULL << static_cast<unsigned>(c.bits));
        nl.queue().run();
        c.pulse = static_cast<int>(stream.count());

        Netlist fnl;
        if (uniform) {
            auto &fpnm = fnl.create<func::UniformPnm>("pnm", c.bits);
            fpnm.program(value);
            c.func = fpnm.count();
        } else {
            auto &fpnm = fnl.create<func::ClassicPnm>("pnm", c.bits);
            fpnm.program(value);
            c.func = fpnm.count();
        }
        return c;
    });
    for (const DiffCase &c : cases)
        EXPECT_EQ(c.pulse, c.func) << describe(c);
}

TEST(Differential, UniformPnmSlotLayoutExact)
{
    // Beyond the count: the netlist's pulse times land exactly on the
    // divider-chain slot layout the functional model predicts.
    constexpr Tick kTclk = 200 * kPicosecond;
    const auto cases = runCorpus(16, [](Rng &rng) { // 256 layout cases
        DiffCase c;
        c.bits = static_cast<int>(rng.uniformInt(2, 6));
        const int value =
            static_cast<int>(rng.uniformInt(0, (1 << c.bits) - 1));
        c.operands = {value};

        Netlist nl;
        PulseTrace stream;
        auto &clk = nl.create<ClockSource>("clk");
        auto &pnm = nl.create<UniformPnm>("pnm", c.bits);
        clk.out.connect(pnm.clkIn());
        pnm.out().connect(stream.input());
        pnm.epochOut().markOpen("diff fuzz: layout only");
        pnm.program(value);
        clk.program(kTclk, kTclk, 1ULL << static_cast<unsigned>(c.bits));
        nl.queue().run();

        // A pulse for slot s leaves the divider chain after the clock
        // edge at (s + 2) * kTclk, lagging it by the TFF-chain delay of
        // whichever stage fired (69..129 ps at bits=6 -- it grows with
        // stage depth but stays below one period), so floor(t / kTclk),
        // not round-to-nearest, recovers the slot index.
        std::vector<int> slots;
        for (Tick t : stream.times())
            slots.push_back(static_cast<int>(t / kTclk - 2));
        Netlist fnl;
        auto &fpnm = fnl.create<func::UniformPnm>("pnm", c.bits);
        fpnm.program(value);
        c.pulse = slots == fpnm.slots() ? 1 : 0;
        c.func = 1;
        return c;
    });
    for (const DiffCase &c : cases)
        EXPECT_EQ(c.pulse, c.func) << describe(c);
}

TEST(Differential, ProcessingElementWithinOneSlot)
{
    const auto cases = runCorpus(64, [](Rng &rng) { // 1024 cases
        DiffCase c;
        c.bits = static_cast<int>(rng.uniformInt(3, 5));
        const EpochConfig cfg(c.bits, 30 * kPicosecond);
        const int in1 = static_cast<int>(rng.uniformInt(0, cfg.nmax()));
        const int in2 = static_cast<int>(rng.uniformInt(0, cfg.nmax()));
        const int in3 = static_cast<int>(rng.uniformInt(0, cfg.nmax()));
        c.operands = {in1, in2, in3};
        c.pulse = runPulsePe(cfg, in1, in2, in3);
        Netlist nl;
        c.func = nl.create<func::ProcessingElement>("pe", cfg)
                     .evaluate(in1, in2, in3);
        return c;
    });
    for (const DiffCase &c : cases)
        EXPECT_LE(std::llabs(c.pulse - c.func), 1) << describe(c);
}

DiffCase
dpuCase(Rng &rng, DpuMode mode)
{
    DiffCase c;
    c.bits = static_cast<int>(rng.uniformInt(4, 5));
    const EpochConfig cfg(c.bits, kDpuSlot);
    const int length = 1 << rng.uniformInt(1, 3); // 2, 4, 8
    std::vector<int> streams, ids;
    for (int i = 0; i < length; ++i) {
        streams.push_back(static_cast<int>(rng.uniformInt(0, cfg.nmax())));
        ids.push_back(static_cast<int>(rng.uniformInt(0, cfg.nmax())));
    }
    c.operands = streams;
    c.operands.insert(c.operands.end(), ids.begin(), ids.end());
    c.pulse = runPulseDpu(cfg, mode, streams, ids);
    Netlist nl;
    c.func = nl.create<func::DotProductUnit>("dpu", length, mode)
                 .evaluate(cfg, streams, ids);
    return c;
}

TEST(Differential, DpuUnipolarExact)
{
    const auto cases = runCorpus(
        64, [](Rng &rng) { return dpuCase(rng, DpuMode::Unipolar); });
    for (const DiffCase &c : cases)
        EXPECT_EQ(c.pulse, c.func) << describe(c);
}

TEST(Differential, DpuBipolarExact)
{
    const auto cases = runCorpus(
        64, [](Rng &rng) { return dpuCase(rng, DpuMode::Bipolar); });
    for (const DiffCase &c : cases)
        EXPECT_EQ(c.pulse, c.func) << describe(c);
}

// --- determinism --------------------------------------------------------------

TEST(Differential, CorpusBitIdenticalAtOneAndManyThreads)
{
    // The sweep contract (sim/sweep.hh) promises thread-count
    // independence; the fuzzer leans on it, so pin it here end to end.
    SweepOptions serial;
    serial.threads = 1;
    SweepOptions parallel;
    parallel.threads = 4;
    const auto a = runCorpus(8, unipolarMultCase, serial);
    const auto b = runCorpus(8, unipolarMultCase, parallel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(a[i] == b[i]) << "case " << i << ": " << describe(a[i])
                                  << " vs " << describe(b[i]);
}

} // namespace
} // namespace usfq
