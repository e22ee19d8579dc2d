/**
 * @file
 * Fig. 5 reproduction: pulse collisions in a 4:1 merger cell and the
 * collision-free schedule with increased latency.
 *
 * Paper claims: simultaneous arrivals lose pulses (four in, three
 * out); spacing the streams by the safe interval restores all pulses;
 * the minimum distance between pulses grows with the number of inputs.
 */

#include <iostream>

#include "bench_common.hh"
#include "core/adder.hh"
#include "sim/netlist.hh"
#include "sim/trace.hh"
#include "sfq/sources.hh"
#include "util/table.hh"

using namespace usfq;

namespace
{

struct Result
{
    std::size_t in;
    std::size_t out;
    std::uint64_t collisions;
};

Result
runMerger(int fan_in, bool spaced, int rounds)
{
    Netlist nl;
    auto &add = nl.create<MergerTreeAdder>("add", fan_in);
    PulseTrace out;
    add.out().connect(out.input());
    std::size_t sent = 0;
    const Tick spacing = MergerTreeAdder::safeSpacing(fan_in);
    for (int i = 0; i < fan_in; ++i) {
        auto &src = nl.create<PulseSource>(indexedName("s", i));
        src.out.connect(add.in(i));
        for (int k = 0; k < rounds; ++k) {
            const Tick base = 10 * kPicosecond + k * spacing;
            const Tick lane =
                spaced ? i * (spacing / fan_in) : Tick{0};
            src.pulseAt(base + lane);
            ++sent;
        }
    }
    nl.run();
    return {sent, out.count(), add.collisions()};
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Artifact artifact("fig05_merger_collisions", &argc, argv);
    bench::banner("Fig. 5: pulse collisions in M:1 merger cells",
                  "(b) simultaneous pulses collide: 4 in -> 3 out; "
                  "(c) spacing by the safe interval avoids losses");

    // The paper's exact Fig. 5b scenario: A1 and A2 coincide, A3 and
    // A4 arrive later -- four pulses in, three out.
    {
        Netlist nl;
        auto &add = nl.create<MergerTreeAdder>("add", 4);
        PulseTrace out;
        add.out().connect(out.input());
        const Tick at[4] = {10 * kPicosecond, 10 * kPicosecond,
                            60 * kPicosecond, 110 * kPicosecond};
        for (int i = 0; i < 4; ++i) {
            auto &src = nl.create<PulseSource>(indexedName("s", i));
            src.out.connect(add.in(i));
            src.pulseAt(at[i]);
        }
        nl.run();
        std::cout << "Fig. 5b scenario (A1 = A2, A3/A4 later): 4 in -> "
                  << out.count() << " out (" << add.collisions()
                  << " collision) -- paper: 3 out\n";
    }
    const auto safe = runMerger(4, true, 1);
    std::cout << "Fig. 5c scenario (safe spacing):            "
              << safe.in << " in -> " << safe.out << " out ("
              << safe.collisions << " collisions)\n\n";

    Table table("Collision behaviour vs fan-in (6 waves per input)",
                {"Fan-in", "Simultaneous: in->out", "Collisions",
                 "Spaced: in->out", "Safe spacing (ps)"});
    for (int m : {2, 4, 8, 16}) {
        const auto c = runMerger(m, false, 6);
        const auto s = runMerger(m, true, 6);
        table.row()
            .cell(m)
            .cell(std::to_string(c.in) + " -> " + std::to_string(c.out))
            .cell(static_cast<std::int64_t>(c.collisions))
            .cell(std::to_string(s.in) + " -> " + std::to_string(s.out))
            .cell(ticksToPs(MergerTreeAdder::safeSpacing(m)), 4);
    }
    table.print(std::cout);
    std::cout << "\nThe safe spacing grows linearly with fan-in: the "
                 "latency cost the balancer-based adder removes.\n";
    return 0;
}
