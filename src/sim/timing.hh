/**
 * @file
 * Uniform cell-timing description consumed by the static timing engine
 * (src/sta/, docs/sta.md).
 *
 * Every Component describes its timing as a TimingModel: propagation
 * arcs (which input pulse triggers which output, with min/max delay),
 * timing checks (setup/hold capture windows, collision / dead-time
 * windows between input pairs), a recovery time (the minimum input
 * spacing the cell can process losslessly) and whether the cell
 * enforces a minimum spacing on its own outputs.  The SFQ cells build
 * their models from the shared tables in sfq/params.hh, so the
 * event-driven simulator and the STA engine read the same numbers.
 */

#ifndef USFQ_SIM_TIMING_HH
#define USFQ_SIM_TIMING_HH

#include <cstddef>
#include <cstdint>

#include "sim/inline_vector.hh"
#include "util/types.hh"

namespace usfq
{

/**
 * One propagation arc: a pulse at input port @p from (index into the
 * component's registered input ports) triggers a pulse at output port
 * @p to after a delay in [minDelay, maxDelay].  Inputs with no arc
 * (DFF data, NDRO set/reset, mux selects) change state only; their
 * effect on outputs is covered by timing checks, not arcs -- which is
 * also what cuts arrival propagation at registered cells.
 */
struct TimingArc
{
    std::uint8_t from = 0; ///< input port index (addPort order)
    std::uint8_t to = 0;   ///< output port index (addPort order)
    Tick minDelay = 0;
    Tick maxDelay = 0;
    /**
     * Output pulses per input pulse divisor: 2 for a TFF/TFF2 arc
     * (every second pulse escapes through each output), 1 otherwise.
     * Used by the lossless-rate propagation: the output spacing of a
     * divider arc is at least rateDiv times the input spacing.
     */
    std::uint8_t rateDiv = 1;
};

/** What a TimingCheck constrains. */
enum class TimingCheckKind : std::uint8_t
{
    /**
     * Clocked capture: a data pulse must arrive at least `setup`
     * before a reference (clock) pulse and not within `hold` after
     * it.  Violations mean the stored fluxon state is indeterminate.
     */
    SetupHold,
    /**
     * Collision / dead-time window: pulses at the two ports closer
     * than `window` interact destructively (merger absorption, BFF
     * mid-transition pulse loss).
     */
    Collision,
};

/** One timing check between two input ports of a cell. */
struct TimingCheck
{
    TimingCheckKind kind = TimingCheckKind::SetupHold;
    std::uint8_t data = 0; ///< data / first input port index
    std::uint8_t ref = 0;  ///< clock / second input port index
    Tick setup = 0;        ///< SetupHold only
    Tick hold = 0;         ///< SetupHold only
    Tick window = 0;       ///< Collision only
};

/**
 * Guaranteed minimum spacing between any two pulses a cell emits on one
 * output port, regardless of its input streams -- because the cell
 * absorbs or ignores inputs that arrive too close (merger collision
 * absorption, BFF dead-time drops).  The STA rate analysis propagates
 * these floors forward to bound the sustained pulse rate on every wire.
 */
struct OutputFloor
{
    std::uint8_t port = 0; ///< output port index (addPort order)
    Tick spacing = 0;
};

/**
 * Inline capacities of a TimingModel, sized from the cell library: the
 * BFF has the most arcs (8), collision pairs (6) and output floors (2)
 * of any cell.  Larger models -- the behavioral default of a wide
 * composite block, every input to every output -- spill to the heap.
 */
constexpr std::size_t kInlineArcs = 8;
constexpr std::size_t kInlineChecks = 6;
constexpr std::size_t kInlineFloors = 2;

/**
 * The full static-timing description of one component.  Returned by
 * value from Component::timingModel() on every STA run, so its lists
 * are inline (no heap allocation for any library cell).
 */
struct TimingModel
{
    InlineVector<TimingArc, kInlineArcs> arcs;
    InlineVector<TimingCheck, kInlineChecks> checks;
    InlineVector<OutputFloor, kInlineFloors> floors;

    /**
     * Minimum spacing between successive pulses on any single input
     * for lossless operation (the cell's recovery time); 0 = no
     * constraint.  Streams provably faster than this raise a rate
     * finding.
     */
    Tick recovery = 0;

    /**
     * What happens when the recovery spacing is violated: true = the
     * cell absorbs the extra pulse (merger, BFF -- reported as
     * collision-risk), false = state/data corruption (inverter, TFF --
     * reported as rate-violation).
     */
    bool absorbs = false;

    /**
     * True for stateful cells: a feedback loop may legally be cut at
     * this cell's arcs during levelization (the stored fluxon decouples
     * the wavefronts).  Purely combinational cells (JTL, splitter,
     * merger) in a loop are a structural finding instead.
     */
    bool registered = false;
};

/**
 * Stimulus description of a primary pulse source, used by the STA
 * engine to anchor arrival windows: the first and last scheduled pulse
 * and the minimum spacing between any two (0 = unknown/unbounded
 * rate).
 */
struct PulseAnchor
{
    Tick first = 0;
    Tick last = 0;
    Tick minSpacing = 0;
    std::uint64_t count = 0;
    /**
     * True when the schedule is exactly uniform (every gap equals
     * minSpacing).  The margin analysis may then shift separation
     * intervals by exact multiples of the period; otherwise only the
     * conservative one-sided neighbour bounds apply.
     */
    bool periodic = false;
};

} // namespace usfq

#endif // USFQ_SIM_TIMING_HH
