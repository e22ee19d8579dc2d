/**
 * @file
 * Fig. 9 reproduction: pulse-number multipliers.  The classic TFF
 * chain emits the programmed count in bursts; the proposed TFF2 PNM
 * emits a near-uniform stream.  Prints the pulse trains and spacing
 * statistics for the paper's "1111" and "0100" examples, runnable on
 * either engine (--backend).
 *
 * The pulse-level leg runs the real netlists and measures the emitted
 * trains; the functional leg reads the count contract (exactly the
 * programmed value per epoch) and, for the uniform PNM, the divider
 * chain's slot layout (uniformPnmSlots), which must agree with the
 * pulse-level observation.
 */

#include <iostream>

#include "analog/waveform.hh"
#include "bench_common.hh"
#include "core/encoding.hh"
#include "core/pnm.hh"
#include "sim/trace.hh"
#include "sfq/sources.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace usfq;

namespace
{

struct StreamStats
{
    std::size_t count;
    double cv;         ///< coefficient of variation of gaps
    Tick min_gap;
    std::vector<Tick> times;
};

StreamStats
statsOf(std::vector<Tick> ts)
{
    RunningStats gaps;
    Tick min_gap = 0;
    for (std::size_t i = 1; i < ts.size(); ++i) {
        const Tick gap = ts[i] - ts[i - 1];
        gaps.add(static_cast<double>(gap));
        if (min_gap == 0 || gap < min_gap)
            min_gap = gap;
    }
    return {ts.size(),
            gaps.mean() > 0 ? gaps.stddev() / gaps.mean() : 0.0,
            min_gap, std::move(ts)};
}

template <typename Pnm>
StreamStats
runPnm(int bits, int value, Tick t_clk)
{
    Netlist nl;
    auto &pnm = nl.create<Pnm>("pnm", bits);
    auto &clk = nl.create<ClockSource>("clk");
    PulseTrace stream;
    clk.out.connect(pnm.clkIn());
    pnm.out().connect(stream.input());
    pnm.epochOut().markOpen("stream study: the epoch marker is not "
                            "consumed");
    pnm.program(value);
    clk.program(t_clk, t_clk, std::uint64_t{1} << bits);
    nl.run();
    return statsOf(stream.times());
}

/**
 * The uniform PNM's functional train (uniformPnmSlots), laid onto the
 * clock grid: slot s fires at (s + 1) * t_clk like the netlist's
 * divider chain.  The classic PNM's functional count is the programmed
 * value (bursty, no layout), so only its count is comparable.
 */
StreamStats
functionalUniform(int bits, int value, Tick t_clk)
{
    std::vector<Tick> times;
    for (const int slot : uniformPnmSlots(bits, value))
        times.push_back((static_cast<Tick>(slot) + 1) * t_clk);
    if (static_cast<int>(times.size()) != value) {
        fatal("functional uniform PNM: slot layout (%zu) disagrees "
              "with the programmed value (%d)",
              times.size(), value);
    }
    return statsOf(std::move(times));
}

/** The classic PNM's functional train: the programmed count only. */
StreamStats
functionalClassic(int value)
{
    return {static_cast<std::size_t>(value), 0.0, 0, {}};
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::BenchArgs::parse(&argc, argv);
    bench::banner("Fig. 9: classic vs uniform pulse-number multiplier",
                  "\"1111\" yields 15 pulses, \"0100\" yields 4; the "
                  "TFF2 PNM resembles a uniform-rate train");

    const int bits = 4;
    const Tick t_clk = 80 * kPicosecond; // T_CLK = B * t_TFF2

    for (Backend backend : args.backends()) {
        bench::Artifact artifact("fig09_pnm_streams", args, backend);
        const bool pulse = backend == Backend::PulseLevel;

        StreamStats classic15, uniform15, classic4, uniform4;
        if (pulse) {
            classic15 = runPnm<ClassicPnm>(bits, 0b1111, t_clk);
            uniform15 = runPnm<UniformPnm>(bits, 0b1111, t_clk);
            classic4 = runPnm<ClassicPnm>(bits, 0b0100, t_clk);
            uniform4 = runPnm<UniformPnm>(bits, 0b0100, t_clk);
        } else {
            classic15 = functionalClassic(0b1111);
            uniform15 = functionalUniform(bits, 0b1111, t_clk);
            classic4 = functionalClassic(0b0100);
            uniform4 = functionalUniform(bits, 0b0100, t_clk);
        }

        // Cross-backend count contract: both engines emit exactly the
        // programmed value per epoch.
        if (classic15.count != 15 || uniform15.count != 15 ||
            classic4.count != 4 || uniform4.count != 4) {
            std::cerr << "FAIL: PNM counts disagree with the "
                         "programmed values on the "
                      << backendName(backend) << " backend\n";
            return 1;
        }

        Table table(std::string("PNM streams over one 4-bit epoch "
                                "(16 clocks of 80 ps, ") +
                        backendName(backend) + " backend)",
                    {"PNM", "Program", "Pulses", "Min gap (ps)",
                     "Gap CV (lower = more uniform)"});
        const auto row = [&table, pulse](const char *kind,
                                         const char *program,
                                         const StreamStats &s) {
            auto &r = table.row();
            r.cell(kind).cell(program).cell(s.count);
            if (s.times.empty() && !pulse) {
                // The functional classic PNM is count-only.
                r.cell("-").cell("-");
            } else {
                r.cell(ticksToPs(s.min_gap), 4).cell(s.cv, 3);
            }
        };
        row("classic", "1111", classic15);
        row("uniform", "1111", uniform15);
        row("classic", "0100", classic4);
        row("uniform", "0100", uniform4);
        table.print(std::cout);

        artifact.metric("classic_1111_pulses",
                        static_cast<double>(classic15.count));
        artifact.metric("uniform_1111_pulses",
                        static_cast<double>(uniform15.count));
        artifact.metric("uniform_1111_gap_cv", uniform15.cv);

        if (pulse) {
            const Tick until =
                (Tick{1} << bits) * t_clk + 2 * t_clk;
            std::cout << "\n";
            analog::printAscii(
                std::cout,
                {{"classic PNM '1111' (bursty)",
                  analog::renderPulseTrain(classic15.times, until)},
                 {"uniform PNM '1111' (paper Fig. 9b)",
                  analog::renderPulseTrain(uniform15.times, until)}},
                100, 3);
        }

        // Per-stage area: classic TFF+splitter+NDRO vs uniform
        // TFF2+NDRO -- the dual output replaces the tap splitter.
        // Both engines report the closed forms; the pulse leg's
        // netlists must add up to them.
        const int classic_jj = ClassicPnm::jjsFor(8);
        const int uniform_jj = UniformPnm::jjsFor(8);
        if (pulse) {
            Netlist nl;
            auto &c = nl.create<ClassicPnm>("c", 8);
            auto &u = nl.create<UniformPnm>("u", 8);
            nl.waive(LintRule::DanglingInput,
                     "area comparison: the PNMs are instantiated "
                     "unwired");
            nl.waive(LintRule::OpenOutput,
                     "area comparison: the PNMs are instantiated "
                     "unwired");
            nl.elaborate();
            if (c.jjCount() != classic_jj || u.jjCount() != uniform_jj) {
                std::cerr << "FAIL: PNM JJ counts disagree with the "
                             "closed forms on the "
                          << backendName(backend) << " backend\n";
                return 1;
            }
        }
        std::cout << "\nPer-stage area (" << backendName(backend)
                  << " backend): 8-bit classic: " << classic_jj
                  << " JJs; 8-bit uniform: " << uniform_jj
                  << " JJs\n\n";
    }
    return 0;
}
