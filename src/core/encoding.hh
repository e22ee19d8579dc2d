/**
 * @file
 * The U-SFQ data representation (paper Section 3).
 *
 * A computing epoch of B bits is divided into N_max = 2^B time slots.
 *
 *  - Race Logic (RL): a value is a single pulse whose arrival slot Id
 *    encodes the number.  Unipolar value = Id / N_max in [0, 1]
 *    (Id in 0..N_max); bipolar value = 2 * unipolar - 1.
 *
 *  - Pulse streams: a value p in [0, 1] is the rate of a periodic pulse
 *    train, p = n / N_max where n is the pulse count in the epoch.
 *    Streams are laid out on the N_max-slot grid with even (Euclidean)
 *    spacing, one potential pulse per slot at the slot center.  The
 *    complement stream (used by the bipolar multiplier's inverter) has
 *    pulses exactly in the empty slots.
 *
 * The pure counting arithmetic of the U-SFQ blocks also lives here: it
 * is the functional engine (Backend::Functional; docs/functional.md),
 * and the differential tests check it against the pulse-level netlists.
 */

#ifndef USFQ_CORE_ENCODING_HH
#define USFQ_CORE_ENCODING_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "util/types.hh"

namespace usfq
{

/**
 * Geometry of a computing epoch: resolution and slot width.
 *
 * The default slot width is the paper's t_INV = 9 ps, which bounds the
 * maximum pulse-stream rate at ~111 GHz.
 */
class EpochConfig
{
  public:
    /** Construct a B-bit epoch; slot width defaults to 9 ps. */
    explicit EpochConfig(int bits, Tick slot_width = 9 * kPicosecond);

    /** Resolution in bits. */
    int bits() const { return nbits; }

    /** Number of slots, N_max = 2^bits. */
    int nmax() const { return 1 << nbits; }

    /** Slot width in ticks. */
    Tick slotWidth() const { return slot; }

    /** Epoch duration, N_max * slotWidth. */
    Tick duration() const { return static_cast<Tick>(nmax()) * slot; }

    // --- Race logic -----------------------------------------------------

    /**
     * Offset added to RL pulse arrivals so an id=0 pulse never shares a
     * tick with the epoch marker (a one-JTL input skew).
     */
    static constexpr Tick kRlPulseOffset = 1 * kPicosecond;

    /** Arrival time (relative to epoch start) of RL slot @p id. */
    Tick rlTime(int id) const;

    /** Absolute arrival time of an RL pulse: start + rlTime + offset. */
    Tick
    rlArrival(int id, Tick start = 0) const
    {
        return start + rlTime(id) + kRlPulseOffset;
    }

    /** Slot id (clamped to 0..N_max) for an arrival @p t after start. */
    int rlSlotOf(Tick t) const;

    /** Quantize a unipolar value in [0,1] to an RL slot id. */
    int rlIdOfUnipolar(double value) const;

    /** Quantize a bipolar value in [-1,1] to an RL slot id. */
    int rlIdOfBipolar(double value) const;

    /** Unipolar value of slot @p id. */
    double rlUnipolar(int id) const;

    /** Bipolar value of slot @p id (2 * unipolar - 1). */
    double rlBipolar(int id) const;

    // --- Pulse streams -----------------------------------------------------

    /** Pulse count encoding a unipolar value in [0,1]. */
    int streamCountOfUnipolar(double value) const;

    /** Pulse count encoding a bipolar value in [-1,1]. */
    int streamCountOfBipolar(double value) const;

    /** Unipolar value of a pulse count. */
    double decodeUnipolar(std::size_t count) const;

    /** Bipolar value of a pulse count. */
    double decodeBipolar(std::size_t count) const;

    /**
     * Occupied slots (sorted) for an n-pulse stream, evenly distributed
     * over the grid (Euclidean rhythm): slot i holds a pulse iff
     * floor((i+1)n/N) > floor(i*n/N).
     */
    std::vector<int> streamSlots(int count) const;

    /** Slots NOT occupied by streamSlots(count): the complement stream. */
    std::vector<int> complementSlots(int count) const;

    /**
     * Pulse times (relative to epoch start) for an n-pulse stream.
     * Pulses sit at slot centers so they never tie with RL slot edges.
     */
    std::vector<Tick> streamTimes(int count, Tick start = 0) const;

    /** Center time of slot @p slot_index. */
    Tick slotCenter(int slot_index, Tick start = 0) const;

    bool operator==(const EpochConfig &other) const = default;

  private:
    int nbits;
    Tick slot;
};

/**
 * Data representation of a DPU / FIR instance.  Lives here (not in
 * dpu.hh) so the pure counting models below can take it.
 */
enum class DpuMode
{
    Unipolar,
    Bipolar,
};

/**
 * Pure counting model of the unipolar U-SFQ multiplier (paper §4.1):
 * the number of stream pulses that pass the NDRO before the RL pulse
 * arrives at slot @p rl_id, for an @p n-pulse stream on an N-slot grid.
 */
int unipolarProductCount(const EpochConfig &cfg, int n, int rl_id);

/**
 * Pure counting model of the bipolar multiplier:
 * |A&B| + |!A&!B| pulses, with A the stream and B the RL operand.
 */
int bipolarProductCount(const EpochConfig &cfg, int n, int rl_id);

/**
 * Pure model of an M:1 tree counting network over per-input pulse
 * counts: each balancer level halves (taking the ceiling on the Y1
 * chain); returns the final output pulse count.  @p inputs must have
 * power-of-two size; the levels are reduced in place, so their values
 * are consumed.
 */
int treeNetworkCount(std::span<int> inputs);

/**
 * treeNetworkCount over @p n inputs, input k = product(k), padded with
 * zeros to a power of two >= 2 (padded inputs carry no pulses).  Up to
 * 64 inputs -- the pulse DPU's tap limit and every serve template --
 * stay on the stack; more take one heap block.
 */
template <typename Product>
int
paddedTreeCount(std::size_t n, Product &&product)
{
    std::size_t padded = 2;
    while (padded < n)
        padded <<= 1;
    // Left uninitialised: only [0, padded) is read, and the loop and
    // the fill below write all of it.
    std::array<int, 64> local;
    std::vector<int> heap;
    int *inputs = local.data();
    if (padded > local.size()) {
        heap.resize(padded);
        inputs = heap.data();
    }
    for (std::size_t k = 0; k < n; ++k)
        inputs[k] = product(k);
    std::fill(inputs + n, inputs + padded, 0);
    return treeNetworkCount(std::span<int>(inputs, padded));
}

/**
 * Pure model of an M:1 merger tree over same-grid streams: the output
 * carries the slot-wise union of the input streams (each laid out as
 * streamSlots()), because same-slot pulses coincide exactly and the
 * merger forwards only one of a colliding pair.  Exact whenever the
 * slot width exceeds the merger collision window -- true for every
 * EpochConfig in the repo (slot >= 9 ps vs a 5 ps window).
 */
int mergerTreeUnionCount(const EpochConfig &cfg,
                         const std::vector<int> &counts);

/**
 * Pulses a merger tree loses to collisions for the given same-grid
 * input streams: sum of counts minus their slot union.
 */
int mergerTreeCollisionLoss(const EpochConfig &cfg,
                            const std::vector<int> &counts);

/**
 * Pure model of the uniform PNM's stream layout (paper Fig. 9b):
 * divider stage k fires on the clock indices i in 1..2^bits whose
 * 2-adic valuation is exactly k (the TFF2 chain partitions the epoch's
 * clock phases), gated by bit (bits-1-k) of @p value.  Returns the
 * sorted 0-based slot indices; the slot count is exactly @p value.
 */
std::vector<int> uniformPnmSlots(int bits, int value);

/**
 * Pure counting model of the dot-product unit (paper §5.3): per-element
 * multiplier products through a padded-to-power-of-two counting tree
 * (paddedTreeCount).  Shared by DotProductUnit::expectedCount and the
 * service's functional DPU leg.
 */
int dpuExpectedCount(const EpochConfig &cfg, DpuMode mode,
                     const std::vector<int> &stream_counts,
                     const std::vector<int> &rl_ids);

/**
 * Pure model of the processing element (paper §5.2): the RL slot the
 * PE emits for operands (in1 as RL id, in2/in3 as stream counts) --
 * one balancer's ceiling over the product and in3 -- clamped to the
 * integrator's nmax ceiling.
 */
int peExpectedSlot(const EpochConfig &cfg, int in1_id, int in2_count,
                   int in3_count);

} // namespace usfq

#endif // USFQ_CORE_ENCODING_HH
