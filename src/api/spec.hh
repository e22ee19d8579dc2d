/**
 * @file
 * Serializable request vocabulary of the simulation service
 * (docs/service.md): a NetlistSpec describes WHAT to build (a
 * parameterized DPU / PE / FIR / inverter-probe design), RunParams
 * describe HOW to evaluate it (backend, epochs, seed, batch, sweep
 * threads).  Both round-trip through the dependency-free JSON
 * layer (util/json.hh), which is what crosses the C ABI (usfq.h).
 *
 * Everything that can change a result is in (spec, backend, seed,
 * epochs); batch selects nothing and threads is a performance knob
 * covered by the sweep's bit-identity contract (sim/sweep.hh), so both
 * are excluded from the cache key (src/svc/cache.hh).
 */

#ifndef USFQ_API_SPEC_HH
#define USFQ_API_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/encoding.hh"
#include "gen/spec.hh"
#include "sim/backend.hh"

namespace usfq::api
{

/** Flat result code of every facade / C ABI operation. */
enum class Status
{
    Ok = 0,
    InvalidArg,  ///< spec/params out of range or inconsistent
    ParseError,  ///< spec/params did not parse: JSON, type, name
    LintError,   ///< elaboration found unwaived structural findings
    StaError,    ///< STA found unwaived timing findings
    RunError,    ///< evaluation failed (engine fatal, bad workload)
    Unsupported, ///< operation not available for this spec/backend
    Internal,    ///< unexpected exception (a bug, not a user error)
};

/** Stable lower-case name of a status (diagnostics, C ABI); "?" for
 *  a value outside the enum. */
const char *statusName(Status status);

/** Design families the service can instantiate from a spec. */
enum class WorkloadKind
{
    Dpu,      ///< dot-product unit, `taps` elements (core/dpu.hh)
    Pe,       ///< processing element (core/pe.hh)
    Fir,      ///< U-SFQ FIR filter, `taps` taps (core/fir.hh)
    Inverter, ///< clocked inverter probe (the 111 GHz rate study)
    NocMesh,  ///< 2D temporal-NoC mesh of DPU tiles (noc/grid.hh)
    Gen,      ///< auto-generated stream datapath (src/gen/,
              ///< docs/synthesis.md): spec-driven synthesis with
              ///< STA-guided delay balancing
};

/** Stable lower-case name of a workload kind. */
const char *workloadKindName(WorkloadKind kind);

/** Parse a workload-kind name; false on an unknown one. */
bool parseWorkloadKind(const std::string &s, WorkloadKind &out);

/**
 * Parameterized netlist description.  buildNetlist() (facade.hh)
 * turns one into a real pulse-level Netlist for elaboration / STA /
 * structural hashing; runWorkload() evaluates it on either engine.
 */
struct NetlistSpec
{
    WorkloadKind kind = WorkloadKind::Dpu;

    /** Instance name of the device under test. */
    std::string name = "dut";

    /** Vector length (Dpu) / tap count (Fir).  Ignored otherwise. */
    int taps = 16;

    /** Epoch resolution in bits (streams carry up to 2^bits pulses). */
    int bits = 8;

    /** DPU arithmetic mode (Dpu only). */
    DpuMode mode = DpuMode::Bipolar;

    /** FIR coefficients (Fir only); empty = uniform 0.5/taps. */
    std::vector<double> coefficients;

    /**
     * Inverter probe: clock period in picoseconds and pulse count.
     * Periods below the inverter recovery time (9 ps) make the STA
     * rate check fail -- the serviceable twin of the paper's 111 GHz
     * ceiling, and the error path api_test drives through the ABI.
     */
    double clockPeriodPs = 12.0;
    int clockCount = 32;

    /**
     * Apply the area-study waivers (dangling-input / open-output) to
     * the unwired device.  false leaves the findings unwaived, so
     * elaboration fails -- the lint error path of the C ABI.
     */
    bool waiveUnwired = true;

    /**
     * NocMesh only: mesh dimensions (gridRows x gridCols DPU tiles,
     * `taps` x `bits` each, column-collect traffic) and the TDM
     * policy -- false gives every flow its own collision-free window,
     * true shares one window per sink so merger arbitration (and the
     * router collision ledger) engages.
     */
    int gridRows = 4;
    int gridCols = 4;
    bool nocShareWindows = false;

    /**
     * Gen only: the design-space generator spec (the `gen` JSON
     * object).  buildNetlist() compiles it through the STA-guided
     * balancing pass (gen/balance.hh) and fails with an StaError-class
     * message when the spec is infeasible or over budget.
     */
    gen::DesignSpec gen;

    /** Range/consistency check; fills @p err on failure. */
    bool validate(std::string *err = nullptr) const;

    bool operator==(const NetlistSpec &other) const = default;
};

/**
 * Parse a spec from its JSON object text.  ParseError when the text is
 * not JSON, a member has the wrong type or a name is unknown;
 * InvalidArg when the parsed spec (or a `gen` object, whatever the
 * kind) fails validate().  Fills @p err on failure.
 */
Status specFromJson(const std::string &json, NetlistSpec &out,
                    std::string *err = nullptr);

/** Serialize a spec as a JSON object. */
std::string specToJson(const NetlistSpec &spec);

/** Evaluation parameters of one run request. */
struct RunParams
{
    /** Engine to evaluate on. */
    Backend backend = Backend::Functional;

    /**
     * Independent evaluation epochs (Dpu/Pe: one random operand set
     * each, sharded over runSweep) or filter length in samples (Fir).
     * Ignored by the Inverter probe (its schedule is in the spec).
     */
    int epochs = 16;

    /** Base seed; per-epoch operands derive from shardSeed(seed, e). */
    std::uint64_t seed = 0x5eedULL;

    /**
     * Parsed and validated (1..4096, > 1 only on the functional
     * backend) but selects nothing: every kind has one functional leg
     * (docs/functional.md, "The batch parameter").  NOT part of the
     * cache key or the response.
     */
    int batch = 1;

    /** Sweep worker threads (0 = auto); also not result-affecting. */
    int threads = 1;

    bool validate(std::string *err = nullptr) const;

    bool operator==(const RunParams &other) const = default;
};

/** Parse run params from JSON object text: ParseError or InvalidArg
 *  as for specFromJson; fills @p err on failure. */
Status runParamsFromJson(const std::string &json, RunParams &out,
                         std::string *err = nullptr);

/** Serialize run params as a JSON object. */
std::string runParamsToJson(const RunParams &params);

/**
 * Hash of the result-affecting run parameters EXCLUDING backend and
 * seed (those are separate cache-key fields): today just `epochs`.
 * batch/threads are deliberately absent -- the engines' bit-identity
 * contracts make them cache-transparent, which svc_test verifies.
 */
std::uint64_t runParamsKeyHash(const RunParams &params);

/**
 * Hash of every result-affecting field of a spec -- the content
 * address of specs that never get built (and a cheap pre-filter for
 * ones that do).  The structural hash of the built netlist
 * (svc/cache.hh) is the authoritative key component.
 */
std::uint64_t specHash(const NetlistSpec &spec);

} // namespace usfq::api

#endif // USFQ_API_SPEC_HH
