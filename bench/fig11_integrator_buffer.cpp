/**
 * @file
 * Figs. 10/11 reproduction: the integrator-based RL buffer, runnable
 * on either engine (--backend).  Shows the device-level inductor ramp
 * (charge to Ic in half an epoch, discharge in the second half) and
 * checks the one-epoch delay contract of the buffer across resolutions
 * and input slots.
 *
 * The pulse-level leg measures the delay on the behavioral netlist
 * component.  The functional engine has no model of the buffer's
 * timing (a one-epoch delay of an RL id is a register that would only
 * check itself), so its leg reports the area story alone.  Both report
 * the resolution-independent closed-form JJ count.
 */

#include <iostream>

#include "analog/circuits.hh"
#include "analog/waveform.hh"
#include "bench_common.hh"
#include "core/encoding.hh"
#include "core/shift_register.hh"
#include "sim/trace.hh"
#include "sfq/sources.hh"
#include "util/table.hh"

using namespace usfq;

namespace
{

/**
 * Behavioral buffer netlists: the one-epoch delay contract across bits
 * and input slots.  False (after printing the table) when a delay is
 * off.
 */
bool
delayContractHolds()
{
    Table table(std::string("One-epoch delay check (") +
                    backendName(Backend::PulseLevel) + " backend)",
                {"Bits", "Epoch (ns)", "Input slot", "Delay measured "
                 "(epochs)", "Exact"});
    bool all_exact = true;
    for (int bits : {4, 8, 12, 16}) {
        const Tick t_clk = static_cast<Tick>(bits) * 20 * kPicosecond;
        const Tick period = (Tick{1} << bits) * t_clk;
        for (int slot : {0, (1 << bits) / 3, (1 << bits) - 1}) {
            Netlist nl;
            auto &buf = nl.create<IntegratorBuffer>("buf", period);
            auto &src = nl.create<PulseSource>("in");
            PulseTrace out;
            src.out.connect(buf.in);
            buf.out.connect(out.input());
            const Tick at = static_cast<Tick>(slot) * t_clk +
                            EpochConfig::kRlPulseOffset;
            src.pulseAt(at);
            nl.run();
            const Tick delay = out.times().front() - at;
            const double delay_epochs = static_cast<double>(delay) /
                                        static_cast<double>(period);
            table.row()
                .cell(bits)
                .cell(ticksToNs(period), 4)
                .cell(slot)
                .cell(delay_epochs, 5)
                .cell(delay_epochs == 1.0 ? "yes" : "NO");
            if (delay_epochs != 1.0)
                all_exact = false;
        }
    }
    table.print(std::cout);
    if (!all_exact)
        std::cerr << "FAIL: the one-epoch delay contract broke on "
                     "the "
                  << backendName(Backend::PulseLevel) << " backend\n";
    return all_exact;
}

int
runBackend(Backend backend, const bench::BenchArgs &args)
{
    bench::Artifact artifact("fig11_integrator_buffer", args, backend);

    if (backend == Backend::PulseLevel && !delayContractHolds())
        return 1;

    // Area story (ties into Fig. 12): constant in resolution on both
    // engines.
    int buffer_jj = 0;
    int cell_jj = 0;
    if (backend == Backend::PulseLevel) {
        Netlist nl;
        auto &buf = nl.create<IntegratorBuffer>("b", kNanosecond);
        auto &cellm = nl.create<RlMemoryCell>("c", kNanosecond);
        nl.waive(LintRule::DanglingInput,
                 "area story: the buffers are instantiated unwired");
        nl.waive(LintRule::OpenOutput,
                 "area story: the buffers are instantiated unwired");
        nl.elaborate();
        buffer_jj = buf.jjCount();
        cell_jj = cellm.jjCount();
    } else {
        buffer_jj = IntegratorBuffer::kJJs;
        // The double-buffered cell has no closed form: count the real
        // cells (an elaboration-only area query, no pulse simulation
        // involved).
        Netlist area("area");
        auto &cellm = area.create<RlMemoryCell>("c", kNanosecond);
        area.waive(LintRule::DanglingInput,
                   "area story: the cell is instantiated unwired");
        area.waive(LintRule::OpenOutput,
                   "area story: the cell is instantiated unwired");
        area.elaborate();
        cell_jj = cellm.jjCount();
    }
    if (buffer_jj != IntegratorBuffer::kJJs) {
        std::cerr << "FAIL: buffer JJ count (" << buffer_jj
                  << ") != closed form (" << IntegratorBuffer::kJJs
                  << ") on the " << backendName(backend)
                  << " backend\n";
        return 1;
    }
    std::cout << "\nbuffer: " << buffer_jj
              << " JJs; double-buffered memory cell (Fig. 10d): "
              << cell_jj
              << " JJs -- constant in resolution; only the inductance "
                 "value grows (x2 per bit).\n\n";
    artifact.metric("buffer_jj", buffer_jj, "JJ");
    artifact.metric("memory_cell_jj", cell_jj, "JJ");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::BenchArgs::parse(&argc, argv);
    bench::banner("Fig. 11: integrator-based RL buffer",
                  "the RL input pulse reappears exactly one epoch "
                  "later; I_L ramps to Ic and back; JJ count constant "
                  "in resolution");

    // Device-level ramp for a 6-bit epoch of 20 ps slots
    // (backend-independent: this is the analog model under the
    // behavioral component).
    analog::PulseIntegrator device(6, 20e-12);
    const double t_in = 9 * 20e-12;
    device.run(t_in);
    std::cout << "device level (6 bits): input at "
              << t_in * 1e12 << " ps, output at "
              << device.outputTime() * 1e12 << " ps (epoch = "
              << device.epoch() * 1e12 << " ps), peak I_L = "
              << device.peakCurrent() * 1e6 << " uA, L = "
              << device.inductance() * 1e9 << " nH\n\n";
    analog::printAscii(std::cout,
                       {{"I_L [uA]", device.inductorCurrent()}}, 100,
                       5);
    std::cout << "\n";

    for (Backend backend : args.backends()) {
        const int rc = runBackend(backend, args);
        if (rc != 0)
            return rc;
    }
    return 0;
}
