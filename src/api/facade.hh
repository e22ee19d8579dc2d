/**
 * @file
 * Embeddable engine facade (docs/service.md): everything the
 * simulation stack can do -- build a parameterized netlist from a
 * NetlistSpec, elaborate + lint it, run STA, evaluate pulse-level or
 * functional sweeps -- drivable as a library, with structured
 * errors instead of fatal() exits.
 *
 * This is the seam the C ABI (usfq.h), the request broker
 * (svc/broker.hh) and the result cache (svc/cache.hh) are built on.
 * Every entry point that can reach a fatal() path runs under
 * ScopedFatalThrow and converts FatalError into a Status + message, so
 * no engine condition can kill an embedding host.
 */

#ifndef USFQ_API_FACADE_HH
#define USFQ_API_FACADE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/spec.hh"
#include "gen/balance.hh"
#include "obs/stats.hh"
#include "sim/elaborate.hh"
#include "sta/sta.hh"

namespace usfq
{
class Netlist;
}

namespace usfq::api
{

/** What one evaluation run produced. */
struct RunResult
{
    Backend backend = Backend::Functional;

    /**
     * Per-epoch outputs, epoch order: output pulse counts (Dpu, Fir,
     * Inverter) or result RL slots (Pe).  Bit-identical at any sweep
     * thread count (sim/sweep.hh contract) and any batch value, which
     * selects nothing.
     */
    std::vector<long long> counts;

    /** Order-sensitive FNV-1a over counts: the result fingerprint. */
    std::uint64_t checksum = 0;

    /** JJ area of the device under test (both engines agree). */
    long long totalJJ = 0;

    /**
     * Deterministic per-run stats registry: the sweep's merged shard
     * registries plus the facade's own svc/run counters.
     */
    obs::StatsRegistry stats;
};

/**
 * What a spec's design is, independent of any run: a pure function of
 * the NetlistSpec (the NoC and gen stimuli that buildNetlist programs
 * are pinned, not drawn per run), so a service derives it once per
 * spec and reuses it for every request (docs/service.md, "Request
 * broker").  Session::designFacts derives it; runWorkload reads
 * totalJJ and balance from it instead of rebuilding or rebalancing.
 */
struct DesignFacts
{
    /** structuralHash of the elaborated netlist. */
    std::uint64_t structural = 0;

    /** JJ area of the built netlist (RunResult::totalJJ). */
    long long totalJJ = 0;

    /** The converged balancing pass (Gen specs only). */
    std::optional<gen::BalanceOutcome> balance;
};

/**
 * Build the spec's netlist into @p nl: the device under test, plus
 * stimulus (Inverter kind) and the area-study waivers the spec asks
 * for.  Does not elaborate.  Returns false with @p err set when the
 * spec fails validation.
 */
bool buildNetlist(const NetlistSpec &spec, Netlist &nl,
                  std::string *err = nullptr);

/**
 * Deterministic structural hash of an elaborated netlist: hierarchy
 * names, per-component JJ/timing models, port lists, and the edge set
 * with wire delays -- combined order-independently where registration
 * order does not matter (docs/service.md, "Cache key").  Elaborates
 * the netlist first if needed (fatal on lint errors, so gate with
 * elaborate()/ScopedFatalThrow first when the input is untrusted).
 */
std::uint64_t structuralHash(Netlist &nl);

/**
 * Evaluate the spec's workload: `epochs` independent seeded operand
 * sets through the requested engine, sharded over runSweep; each kind
 * has one leg per engine, whatever params.batch says.  Throws FatalError on engine fatals; Session::run wraps this with the
 * Status conversion.
 */
RunResult runWorkload(const NetlistSpec &spec, const RunParams &params);

/**
 * runWorkload over the spec's already-derived @p facts: no scratch
 * netlist, and a Gen design is not balanced again.  Bit-identical to
 * runWorkload(spec, params).
 */
RunResult runWorkload(const NetlistSpec &spec, const RunParams &params,
                      const DesignFacts &facts);

/**
 * Serialize a run result in the artifact wire format (the PR-4
 * BENCH_*.json schema via obs::ArtifactPayload) -- byte-deterministic
 * in (spec, params, result), which is what makes cached results
 * comparable to recomputation.
 */
std::string resultToJson(const NetlistSpec &spec,
                         const RunParams &params,
                         const RunResult &result);

/** Serialize lint/STA findings as a JSON object ("findings" array). */
std::string findingsToJson(const std::vector<LintFinding> &findings);

/** Serialize an STA report (findings, slack, rate, critical path). */
std::string staReportToJson(const StaReport &report);

/**
 * One service session over one spec: owns the built netlist and the
 * latest findings/STA report, and exposes the build -> elaborate ->
 * STA -> run pipeline with Status results.  Not thread-safe; the
 * broker gives each request its own session.
 */
class Session
{
  public:
    explicit Session(NetlistSpec spec);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    const NetlistSpec &spec() const { return sp; }

    /** Build the netlist (idempotent; elaborate()/sta() call it). */
    Status build();

    /**
     * Elaborate: structural lint + freeze.  Findings (waived and not)
     * are retrievable via findings(); unwaived ones yield LintError.
     */
    Status elaborate();

    /**
     * Run STA (stimulus anchors when the spec wires stimulus, zero
     * anchors for area-study netlists).  Unwaived timing findings
     * yield StaError; the full report stays retrievable either way.
     */
    Status analyzeTiming();

    /**
     * Evaluate the workload; independent of the session netlist.  With
     * @p facts (the spec's, from designFacts()) the run reuses them.
     */
    Status run(const RunParams &params, RunResult &out,
               const DesignFacts *facts = nullptr);

    /** Structural hash of the elaborated session netlist. */
    Status contentHash(std::uint64_t &out);

    /**
     * The spec's design facts: builds, lints and elaborates the
     * session netlist, so a failure carries the same Status and
     * message as elaborate() / contentHash().
     */
    Status designFacts(DesignFacts &out);

    /** Findings of the last elaborate()/analyzeTiming() call. */
    const std::vector<LintFinding> &findings() const
    {
        return lastFindings;
    }

    /** STA report of the last analyzeTiming() call (null before). */
    const StaReport *staReport() const { return sta.get(); }

    /** Human-readable message of the last non-Ok status. */
    const std::string &lastError() const { return errMsg; }

    /** The built netlist (null before build()). */
    Netlist *netlist() { return nl.get(); }

  private:
    Status failWith(Status status, std::string message);

    /**
     * @p body's status, run in fatal-throw mode: a FatalError becomes
     * @p onFatal and any other exception Internal, with its message.
     */
    template <typename Body>
    Status armored(Status onFatal, Body &&body);

    NetlistSpec sp;
    std::unique_ptr<Netlist> nl;
    std::optional<gen::BalanceOutcome> balance; ///< set by build (Gen)
    std::unique_ptr<StaReport> sta;
    std::vector<LintFinding> lastFindings;
    std::string errMsg;
    bool elaborateOk = false;
};

} // namespace usfq::api

#endif // USFQ_API_FACADE_HH
