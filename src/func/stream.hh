/**
 * @file
 * Packed bitstream representation for the stream-level functional
 * backend (docs/functional.md).
 *
 * A PulseStream is the slot-occupancy bitmap of one epoch: bit i set
 * means a pulse at the center of slot i.  The packed-uint64_t layout
 * makes the stochastic-computing identities (AND-gating by an RL
 * prefix, complement, union) single-word bit operations, so the
 * functional models can evaluate whole epochs without an event queue.
 *
 * Counts and rates:  count() / nmax is the encoded unipolar value;
 * 2*count()/nmax - 1 the bipolar one.  The window is always one epoch
 * of cfg.nmax() slots starting at a caller-supplied origin tick.
 */

#ifndef USFQ_FUNC_STREAM_HH
#define USFQ_FUNC_STREAM_HH

#include <cstdint>
#include <vector>

#include "core/encoding.hh"
#include "util/types.hh"

namespace usfq::func
{

/** One epoch's pulse stream as a packed slot-occupancy bitmap. */
class PulseStream
{
  public:
    /** The canonical Euclidean layout of an @p count-pulse stream. */
    static PulseStream euclidean(const EpochConfig &cfg, int count);

    /** A stream with pulses exactly at @p slots (0-based, in range). */
    static PulseStream fromSlots(const EpochConfig &cfg,
                                 const std::vector<int> &slots);

    /** The empty stream (no pulses). */
    static PulseStream empty(const EpochConfig &cfg);

    /** Packed words a @p cfg-sized stream occupies: ceil(nmax/64). */
    static std::size_t wordCount(const EpochConfig &cfg);

    const EpochConfig &config() const { return cfg; }

    /**
     * The packed slot-occupancy words, read-only.  Invariant (pinned
     * by the tail-bit regression test): bits at or beyond
     * config().nmax() are always zero, so popcounts and unions never
     * see ghost pulses.
     */
    const std::uint64_t *words() const { return bits.data(); }

    /** Number of packed words, wordCount(config()). */
    std::size_t wordCountOf() const { return bits.size(); }

    /** Pulse count (popcount of the bitmap). */
    int count() const;

    /** True if slot @p i holds a pulse. */
    bool occupied(int i) const;

    /** The complement stream: pulses exactly in the empty slots. */
    PulseStream complement() const;

    /**
     * AND with an RL prefix: keep only pulses in slots < @p rl_id --
     * the unipolar multiplier's NDRO gate (pass until the RL reset).
     */
    PulseStream maskBelow(int rl_id) const;

    /** Keep only pulses in slots >= @p rl_id (the bipolar !A&!B leg). */
    PulseStream maskAtOrAbove(int rl_id) const;

    /** Slot-wise union: what an ideal merger produces on this grid. */
    PulseStream unionWith(const PulseStream &other) const;

    /** Slot-wise intersection (coincident pulses). */
    PulseStream intersectWith(const PulseStream &other) const;

    /** Occupied slot indices, sorted ascending. */
    std::vector<int> slots() const;

    /** Pulse times at slot centers for an epoch starting at @p start. */
    std::vector<Tick> times(Tick start = 0) const;

    /** Decoded unipolar value count()/nmax. */
    double decodeUnipolar() const;

    /** Decoded bipolar value 2*count()/nmax - 1. */
    double decodeBipolar() const;

    bool operator==(const PulseStream &other) const = default;

  private:
    explicit PulseStream(const EpochConfig &config);

    int checkedSlot(int i) const;

    EpochConfig cfg;
    std::vector<std::uint64_t> bits;
};

/**
 * The bipolar (XNOR) product stream of stream @p a and RL operand
 * @p rl_id: (A & B) | (!A & !B) on the slot grid, mirroring the
 * two-NDRO multiplier datapath.  Its count equals
 * bipolarProductCount(cfg, a.count(), rl_id) when @p a is Euclidean.
 */
PulseStream bipolarProductStream(const PulseStream &a, int rl_id);

} // namespace usfq::func

#endif // USFQ_FUNC_STREAM_HH
