/**
 * @file
 * Host-side phase timing (docs/observability.md): scoped wall-clock
 * timers around the coarse phases of a netlist (build, elaborate, sta,
 * run).  A finished phase adds its duration to a process-wide total
 * per phase -- fixed storage, so serving more requests grows nothing --
 * and, only while request tracing is on, appends one root span named
 * "netlist/<phase>" to the request trace log (obs/trace.hh), the one
 * span log the Perfetto exporter reads.
 *
 * Wall-clock time is deliberately kept OUT of the stats registry: the
 * registry holds deterministic simulation facts, the phase totals and
 * the trace log hold nondeterministic host timing.  Bench artifacts
 * report both, under different keys.
 */

#ifndef USFQ_OBS_PHASE_HH
#define USFQ_OBS_PHASE_HH

#include <cstdint>
#include <map>
#include <string>

namespace usfq::obs
{

/** Microseconds of wall clock since process start (steady clock). */
std::uint64_t wallClockUs();

/** Dense id of the calling thread (assigned on first use). */
std::uint32_t threadId();

/** The coarse netlist phases host time is totalled under. */
enum class Phase
{
    Build,     ///< construction to the first elaborate()
    Elaborate, ///< lint + port packing
    Sta,       ///< runSta()
    Run,       ///< Netlist::run()
};

/**
 * Add one finished phase: @p durUs into the phase's process total and,
 * when tracing is on, a root "netlist/<phase>" span starting at
 * @p startUs into TraceLog::global().
 */
void recordPhase(Phase phase, std::uint64_t startUs, std::uint64_t durUs);

/**
 * Process-wide wall-clock total per phase name ("build", "elaborate",
 * "sta", "run"), microseconds.  A phase appears exactly when it ran at
 * least once.
 */
std::map<std::string, double> phaseTotalsUs();

/**
 * RAII phase timer: recordPhase() over its scope.  Costs two
 * steady_clock reads and two relaxed atomic adds per phase when
 * tracing is off.
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(Phase p) : phase(p), startUs(wallClockUs()) {}

    ~ScopedPhase() { recordPhase(phase, startUs, wallClockUs() - startUs); }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    Phase phase;
    std::uint64_t startUs;
};

} // namespace usfq::obs

#endif // USFQ_OBS_PHASE_HH
