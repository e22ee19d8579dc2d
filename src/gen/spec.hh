/**
 * @file
 * Design-space generator vocabulary (docs/synthesis.md): a DesignSpec
 * describes a parameterized pulse-stream datapath -- lane count, epoch
 * resolution, slot period, stream encoding, counting-tree variant, lane
 * shape (the intrinsic skew the balancer must fix) and the balancing
 * style -- and compiles into an elaborated Netlist via gen::StreamDatapath
 * plus the STA-guided balancing pass (gen/balance.hh).
 *
 * Specs are value types: they round-trip through JSON (the `gen` object
 * of a service NetlistSpec), hash deterministically into the service
 * cache key, and can be drawn at random (randomDesignSpec) so the
 * differential test tier has an unbounded supply of circuits nobody
 * hand-wrote.
 */

#ifndef USFQ_GEN_SPEC_HH
#define USFQ_GEN_SPEC_HH

#include <cstdint>
#include <string>

#include "util/json.hh"
#include "util/types.hh"

namespace usfq
{
class Rng;
}

namespace usfq::gen
{

/** Counting-tree variant reducing the lanes to one output stream. */
enum class TreeKind
{
    /** The paper's balancer tree (Fig. 6d): lossless, 58 JJs/node. */
    Balancer,
    /** Confluence-buffer tree (Fig. 5): 5 JJs/node, collisions lose
     *  coincident pulses -- the cheap lossy variant. */
    Merger,
    /** T1-style cheap balancer [31]: merger + TFF2, 17 JJs/node; a
     *  coincident pair loses one pulse and the TFF2 recovery caps the
     *  slot rate at t_TFF2. */
    Tff2,
};

/** How lane stream values are encoded. */
enum class StreamEncoding
{
    /** Pulse count c in [0, N] directly. */
    Unipolar,
    /** Clocked inverter per lane: the tree counts the complement
     *  N - c (paper Section 4.1). */
    Bipolar,
};

/** Intrinsic per-lane path shape (what the balancer must equalize). */
enum class LaneShape
{
    /** All lanes identical: the trivially-converging baseline. */
    Balanced,
    /** Divider depth and skew JTLs ramp with the lane index. */
    Skewed,
    /** Depth/skew drawn from Rng(shapeSeed, lane). */
    Random,
};

/** How the balancing pass closes lane skew. */
enum class BalanceStyle
{
    /** JTL/DTFF-free: pad every under-slack path with unit JTLs plus
     *  one sub-JTL trim segment. */
    Jtl,
    /** Clock-follow-data style (arXiv 2409.04944): every lane is
     *  re-timed through a DFF capture stage, so skew up to the capture
     *  band is absorbed without any padding JJs. */
    Register,
};

const char *treeKindName(TreeKind kind);
bool parseTreeKind(const std::string &s, TreeKind &out);
const char *streamEncodingName(StreamEncoding encoding);
bool parseStreamEncoding(const std::string &s, StreamEncoding &out);
const char *laneShapeName(LaneShape shape);
bool parseLaneShape(const std::string &s, LaneShape &out);
const char *balanceStyleName(BalanceStyle style);
bool parseBalanceStyle(const std::string &s, BalanceStyle &out);

/**
 * One auto-generated design point: `lanes` gated pulse streams derived
 * from a single clock (per-lane TFF divider chains + NDRO pass gates),
 * optionally complement-encoded, reduced by a counting tree.
 */
struct DesignSpec
{
    /** Stream lanes into the counting tree (power of two in [2, 64]). */
    int lanes = 8;

    /** Epoch resolution: epochs carry N in [1, 2^bits] clock pulses. */
    int bits = 5;

    /** Slot period of the pulse-stream grid, in picoseconds. */
    int clockPeriodPs = 24;

    StreamEncoding encoding = StreamEncoding::Unipolar;
    TreeKind tree = TreeKind::Balancer;
    LaneShape shape = LaneShape::Balanced;
    BalanceStyle balance = BalanceStyle::Jtl;

    /** Deepest TFF divider chain a lane may carry, in [0, 3]. */
    int maxDividers = 1;

    /** Skew JTLs per shape unit (Skewed ramps, Random draws), [0, 6]. */
    int skewStep = 2;

    /** Seed of the Random lane shape (ignored by the other shapes). */
    std::uint64_t shapeSeed = 1;

    /** JJ budget of the balancing pass; exceeding it aborts balancing
     *  with BalanceStatus::BudgetExhausted. */
    int balanceBudgetJJ = 4096;

    /** TFF divider chain depth of lane @p lane (derived, in
     *  [0, maxDividers]). */
    int dividersOf(int lane) const;

    /** Intrinsic skew JTLs of lane @p lane (derived). */
    int skewJtlsOf(int lane) const;

    /** Slot period in ticks. */
    Tick slotPeriod() const;

    /** Largest per-epoch clock count (2^bits). */
    int nmax() const { return 1 << bits; }

    /** Range/consistency check; fills @p err on failure. */
    bool validate(std::string *err = nullptr) const;

    bool operator==(const DesignSpec &other) const = default;
};

/** Serialize as a JSON object (the `gen` member of a NetlistSpec). */
void designSpecToJson(const DesignSpec &spec, JsonWriter &w);

/**
 * Parse from a parsed JSON object; fills @p err on failure (not an
 * object, an unknown name).  Parses only: fields absent from the
 * object keep their defaults, and ranges are validate()'s to check.
 */
bool designSpecFromJson(const JsonValue &obj, DesignSpec &out,
                        std::string *err = nullptr);

/** FNV-1a over every result-affecting field, continuing from @p h. */
std::uint64_t designSpecHash(std::uint64_t h, const DesignSpec &spec);

/**
 * Draw a random valid spec: the input source of the generator
 * differential tier.  Every combination it can produce satisfies
 * validate() and the gate preconditions of gen/balance.hh.
 */
DesignSpec randomDesignSpec(Rng &rng);

} // namespace usfq::gen

#endif // USFQ_GEN_SPEC_HH
