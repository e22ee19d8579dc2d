/**
 * @file
 * Chrome Trace Event (Perfetto / chrome://tracing) JSON exporter
 * (docs/observability.md).
 *
 * Two kinds of content share one trace file:
 *
 *  - host-side spans from the one span log (obs/trace.hh): request
 *    span chains and the "netlist/<phase>" wall-clock spans
 *    obs/phase.hh adds while tracing is on, rendered as "X" duration
 *    events on pid 1, one row per host thread;
 *  - optional sim-time pulse-activity tracks (one named track per
 *    traced component), rendered as instant events on pid 2 with the
 *    simulated femtosecond tick mapped to the trace's nanosecond axis.
 *
 * The output is plain Trace Event JSON ({"traceEvents": [...]}), which
 * both Perfetto and chrome://tracing load directly.  Set USFQ_TRACE_OUT
 * to a path and bench harnesses (bench::Artifact) write the trace
 * there; library code can also call writeChromeTrace() explicitly.
 */

#ifndef USFQ_OBS_PERFETTO_HH
#define USFQ_OBS_PERFETTO_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "util/types.hh"

namespace usfq::obs
{

/** One sim-time activity track: a named, time-sorted pulse train. */
struct PulseTrack
{
    std::string name;
    std::vector<Tick> times; ///< pulse arrival ticks (femtoseconds)
};

/**
 * Emit a complete Trace Event JSON document: @p spans as host duration
 * events carrying their trace/span/parent ids in "args" (one request =
 * one span chain, netlist phases as root spans of their own; real
 * thread ids so worker activity reads per-row), @p tracks as sim-time
 * instant events.  Host threads named via obs::setCurrentThreadName
 * get thread_name metadata rows.  The document is built in one string
 * and written to @p os in one call.
 */
void writeChromeTrace(std::ostream &os,
                      const std::vector<TraceSpan> &spans,
                      const std::vector<PulseTrack> &tracks = {});

/**
 * Write the trace to @p path.  Returns false (with a warn) when the
 * file cannot be opened.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<TraceSpan> &spans,
                      const std::vector<PulseTrack> &tracks = {});

/** Value of USFQ_TRACE_OUT, or empty when tracing is not requested. */
std::string traceOutPath();

/**
 * If USFQ_TRACE_OUT is set, write the global trace log (request span
 * chains and netlist phase spans, plus @p tracks) there.  Returns true
 * when a trace was written.
 */
bool writeTraceIfRequested(const std::vector<PulseTrack> &tracks = {});

} // namespace usfq::obs

#endif // USFQ_OBS_PERFETTO_HH
