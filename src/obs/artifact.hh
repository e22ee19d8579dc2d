/**
 * @file
 * The one serializer of the machine-readable run-artifact schema
 * (docs/observability.md): BENCH_*.json files written by the bench
 * harnesses AND the wire format of the simulation service's result
 * cache (src/svc/, docs/service.md) both go through ArtifactPayload,
 * so the schema cannot fork.
 *
 * The payload itself holds only deterministic facts (metrics, notes,
 * series).  Nondeterministic host state -- wall-clock phase totals and
 * the process-wide warn/inform counters -- is supplied separately at
 * write time via ArtifactHostState: benches capture() the live
 * process state, while the service passes the default (empty) state so
 * cached results are bit-identical to recomputation.
 */

#ifndef USFQ_OBS_ARTIFACT_HH
#define USFQ_OBS_ARTIFACT_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/stats.hh"

namespace usfq
{
class JsonWriter;
}

namespace usfq::obs
{

/**
 * Host-side (nondeterministic) facts embedded in an artifact: phase
 * wall-clock totals and the process log counters.  Default-constructed
 * = "none", which keeps the serialized artifact a pure function of the
 * payload and stats registry.
 */
struct ArtifactHostState
{
    std::map<std::string, double> phasesUs;
    std::uint64_t warnings = 0;
    std::uint64_t informs = 0;

    /** Snapshot the live process state (global phase log + counters). */
    static ArtifactHostState capture();
};

/** Current artifact schema version (the "schema_version" key). */
constexpr int kArtifactSchemaVersion = 3;

/**
 * Deterministic content of one run artifact plus the serializer that
 * turns it (with a stats registry and optional host state) into the
 * schema-3 JSON document.  Schema 2 added the optional "series"
 * section (named numeric arrays, e.g. per-epoch counts); schema 3
 * adds the explicit "schema_version" key every downstream consumer
 * (bench/json_lint, bench/bench_diff) gates on.
 */
class ArtifactPayload
{
  public:
    explicit ArtifactPayload(std::string artifact_name)
        : payloadName(std::move(artifact_name))
    {
    }

    /** Artifact name (the "bench" key; BENCH_<name>.json file stem). */
    const std::string &name() const { return payloadName; }

    /** Record one headline number. */
    void
    metric(const std::string &key, double value,
           const std::string &unit = "")
    {
        metrics.push_back({key, value, unit});
    }

    /** Record one free-form string fact. */
    void
    note(const std::string &key, const std::string &value)
    {
        notes.emplace_back(key, value);
    }

    /** Record one named numeric series (e.g. per-epoch counts). */
    void
    series(const std::string &key, std::vector<double> values)
    {
        seriesData.emplace_back(key, std::move(values));
    }

    /**
     * Serialize the full artifact document: payload + @p reg snapshot
     * + @p host.  The output is byte-deterministic in (payload, reg,
     * host).  The document is built in one string and written to
     * @p os in one call.
     */
    void writeJson(std::ostream &os, const StatsRegistry &reg,
                   const ArtifactHostState &host = {}) const;

    /** The writeJson document as a string, with a trailing newline. */
    std::string toJson(const StatsRegistry &reg,
                       const ArtifactHostState &host = {}) const;

  private:
    /** The document into @p out (no trailing newline). */
    void append(std::string &out, const StatsRegistry &reg,
                const ArtifactHostState &host) const;

    struct Metric
    {
        std::string key;
        double value;
        std::string unit;
    };

    std::string payloadName;
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, std::string>> notes;
    std::vector<std::pair<std::string, std::vector<double>>> seriesData;
};

/**
 * Serialize @p reg as the {"counters": ..., "gauges": ...,
 * "histograms": ...} object the artifact's "stats" section carries --
 * also the payload of the usfq_engine_metrics / usfq_broker_metrics
 * C ABI entry points, so registries egress in exactly one shape.
 */
std::string statsToJson(const StatsRegistry &reg);

/** statsToJson written to @p os in one call. */
void writeStatsJson(std::ostream &os, const StatsRegistry &reg);

/**
 * The three registry sections ("counters"/"gauges"/"histograms") into
 * an open JSON object of @p w -- the shared core of writeStatsJson and
 * ArtifactPayload::writeJson's "stats" section.
 */
void writeStatsSections(JsonWriter &w, const StatsRegistry &reg);

} // namespace usfq::obs

#endif // USFQ_OBS_ARTIFACT_HH
