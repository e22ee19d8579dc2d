/**
 * @file
 * Functional mirror of a generated StreamDatapath (docs/synthesis.md).
 *
 * Post-balancing, every pulse in the datapath lives on the epoch's slot
 * grid (slot m = m * slotPeriod + lane phase), so the whole device
 * reduces to slot-index set algebra: a lane contributes the divided /
 * gated / complemented subset of [0, n), and each counting-tree node is
 * a deterministic walk over its children's slot sets.  evalEpoch()
 * computes the exact output pulse count (and the pulses the lossy trees
 * destroy) without simulating a single event -- the functional backend
 * the differential tier and fig20 compare against the pulse engine.
 */

#ifndef USFQ_GEN_FUNCTIONAL_HH
#define USFQ_GEN_FUNCTIONAL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gen/datapath.hh"
#include "gen/spec.hh"

namespace usfq::gen
{

/** Functional evaluation of one epoch. */
struct EpochEval
{
    /** Pulses at the counting-tree output. */
    long long count = 0;

    /** Pulses the tree destroyed (merger collisions; 0 for Balancer). */
    long long lost = 0;

    /** Total pulses entering the tree (the value an ideal lossless
     *  M:1 counting network would divide by `lanes`). */
    long long laneSum = 0;
};

/**
 * Slot indices (within [0, n)) lane @p lane emits into the counting
 * tree: the TFF divider chain keeps every 2^k-th slot, the NDRO gate
 * blanks the lane when off, and the Bipolar encoding complements the
 * result at the clocked inverter.
 */
std::vector<int> laneSlots(const DesignSpec &spec, int lane, int n,
                           bool gate_on);

/** Draw one epoch's stimulus deterministically from @p seed. */
EpochInputs drawEpochInputs(const DesignSpec &spec, std::uint64_t seed);

/**
 * The slot-set mirror on reused storage: all nodes of one tree level
 * share one flat slot buffer (node k holds [offsets[k], offsets[k+1])),
 * and the next level merges into the other buffer, so once the buffers
 * have grown to the largest spec seen an epoch allocates nothing.  One
 * mirror serves any sequence of specs; each eval() overwrites what the
 * last one left.  Not thread-safe: hold one per sweep worker.
 */
class EpochMirror
{
  public:
    /** Evaluate one epoch functionally (no event simulation). */
    EpochEval eval(const DesignSpec &spec, const EpochInputs &in);

  private:
    /** Ping-pong level storage: flat slots plus node offsets. */
    struct Level
    {
        std::vector<int> slots;
        std::vector<std::size_t> offsets;
    };
    Level levels[2];
};

/** Evaluate one epoch functionally: a one-epoch EpochMirror. */
EpochEval evalEpoch(const DesignSpec &spec, const EpochInputs &in);

/** FNV-1a fold of one 64-bit value -- the digest primitive the gen
 *  tiers use so pulse and functional legs hash identically. */
std::uint64_t hashFold(std::uint64_t h, std::uint64_t v);

} // namespace usfq::gen

#endif // USFQ_GEN_FUNCTIONAL_HH
