/**
 * @file
 * Simulation backend selector (docs/functional.md).
 *
 * The repo carries two engines for every U-SFQ building block:
 *
 *  - Backend::PulseLevel: the event-driven netlist simulator -- every
 *    pulse is an event, every cell a state machine.  The golden truth.
 *
 *  - Backend::Functional: the pure counting kernels of
 *    core/encoding.hh and core/fir.hh -- a pulse stream is its pulse
 *    count, and a whole epoch evaluates in a handful of integer
 *    operations (src/func/ adds the NoC fabric mirror and the packed
 *    PulseStream bitmap the kernels are checked against).
 *
 * Benches and sweeps thread a Backend through SweepOptions /
 * ShardContext (sim/sweep.hh) and bench::BenchArgs (bench_common.hh)
 * so one binary can run the same study on either engine; the
 * differential test layer (tests/differential_test.cpp) pins the two
 * to each other.
 */

#ifndef USFQ_SIM_BACKEND_HH
#define USFQ_SIM_BACKEND_HH

#include <cstring>

namespace usfq
{

/** Which engine evaluates a run. */
enum class Backend
{
    PulseLevel, ///< event-driven pulse simulation (src/sim + src/sfq)
    Functional, ///< counting kernels (core/encoding.hh, core/fir.hh)
};

/** Stable lower-case name, used in artifact tags and --backend. */
inline const char *
backendName(Backend b)
{
    return b == Backend::PulseLevel ? "pulse" : "functional";
}

/** Parse a --backend value; returns false on an unknown name. */
inline bool
parseBackend(const char *s, Backend &out)
{
    if (std::strcmp(s, "pulse") == 0 ||
        std::strcmp(s, "pulse-level") == 0) {
        out = Backend::PulseLevel;
        return true;
    }
    if (std::strcmp(s, "functional") == 0 ||
        std::strcmp(s, "func") == 0) {
        out = Backend::Functional;
        return true;
    }
    return false;
}

} // namespace usfq

#endif // USFQ_SIM_BACKEND_HH
