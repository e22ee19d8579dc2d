/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses: the
 * console banner/format helpers and the machine-readable bench
 * artifact emitter (docs/observability.md).
 */

#ifndef USFQ_BENCH_COMMON_HH
#define USFQ_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/artifact.hh"
#include "obs/perfetto.hh"
#include "obs/phase.hh"
#include "obs/stats.hh"
#include "sim/backend.hh"
#include "util/args.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace usfq::bench
{

/**
 * Parsed command line of a two-backend figure harness.
 *
 * Recognized flags (all extracted loudly via util/args):
 *
 *  - `--json <path>` / `--json=<path>`: artifact destination; with
 *    `--backend both` the backend tag is spliced in before ".json" so
 *    the two artifacts do not clobber each other.
 *  - `--backend pulse|functional|both`: which engine(s) to run
 *    (default both).
 *
 * Anything else left in argv that looks like a flag is a fatal error
 * (the old parser silently ignored typos and, worse, treated a flag
 * following `--json` as the output path).
 */
struct BenchArgs
{
    std::string jsonPath;
    bool runPulse = true;
    bool runFunctional = true;

    static BenchArgs
    parse(int *argc, char **argv)
    {
        BenchArgs a;
        a.jsonPath = args::extractFlag(argc, argv, "json");
        const std::string backend =
            args::extractFlag(argc, argv, "backend");
        if (!backend.empty()) {
            if (backend == "both") {
                // default
            } else {
                Backend b;
                if (!parseBackend(backend.c_str(), b))
                    fatal("--backend: '%s' is not pulse, functional, "
                          "or both",
                          backend.c_str());
                a.runPulse = b == Backend::PulseLevel;
                a.runFunctional = b == Backend::Functional;
            }
        }
        args::rejectUnknownFlags(*argc, argv);
        return a;
    }

    /** The engines selected, in fixed (pulse-first) order. */
    std::vector<Backend>
    backends() const
    {
        std::vector<Backend> out;
        if (runPulse)
            out.push_back(Backend::PulseLevel);
        if (runFunctional)
            out.push_back(Backend::Functional);
        return out;
    }
};

/** Banner naming the experiment and the paper's claim it checks. */
inline void
banner(const char *experiment, const char *paper_claim)
{
    std::printf("================================================="
                "=============================\n");
    std::printf("%s\n", experiment);
    std::printf("paper: %s\n", paper_claim);
    std::printf("================================================="
                "=============================\n\n");
}

/** "x.xx x" multiplier-style ratio. */
inline std::string
times(double ratio)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1fx", ratio);
    return buf;
}

/** Percentage saving of @p ours against @p theirs. */
inline double
savingsPct(double ours, double theirs)
{
    return theirs > 0 ? (1.0 - ours / theirs) * 100.0 : 0.0;
}

/** One-decimal number formatting for composed table cells. */
inline std::string
fmt1(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", value);
    return buf;
}

/**
 * Machine-readable run artifact: every bench constructs one, records
 * its headline numbers with metric()/note(), and on destruction (or an
 * explicit write()) a BENCH_<name>.json lands wherever the run asked:
 *
 *  - `--json <path>` (or `--json=<path>`) on the command line names
 *    the exact output file; the constructor strips the flag from argv
 *    so the remaining arguments can go to e.g. benchmark::Initialize;
 *  - otherwise $USFQ_BENCH_JSON, when set, is the output *directory*
 *    and the file is named BENCH_<name>.json inside it;
 *  - otherwise the artifact is disabled and costs nothing.
 *
 * Besides the explicit metrics the artifact embeds the process-wide
 * per-phase wall-clock totals (obs/phase.hh), the warn()/inform()
 * counts, and a snapshot of the stats registry (the thread's current
 * registry unless stats() picked another).  write() also triggers the
 * Perfetto trace export when USFQ_TRACE_OUT is set, with any tracks
 * registered via track().
 *
 * Serialization is obs::ArtifactPayload (src/obs/artifact.hh) -- the
 * same writer the simulation service's result cache uses as its wire
 * format (docs/service.md) -- so this class only handles the CLI
 * concerns: argv, output-path resolution, trace export, destructor
 * write.
 */
class Artifact
{
  public:
    explicit Artifact(std::string bench_name, int *argc = nullptr,
                      char **argv = nullptr)
        : payload(std::move(bench_name))
    {
        if (argc != nullptr && argv != nullptr) {
            // Loud flag handling (util/args): `--json` followed by
            // another flag or a typo'd flag aborts instead of being
            // mangled away.  google-benchmark flags pass through.
            outPath = args::extractFlag(argc, argv, "json");
            args::rejectUnknownFlags(*argc, argv, {"--benchmark_"});
        }
        resolveDirFallback();
    }

    /**
     * Backend-tagged artifact of a two-backend figure harness: the
     * bench name gains a `_pulse` / `_functional` suffix and an
     * explicit `--json out.json` becomes `out_<backend>.json`, so a
     * `--backend both` run leaves one artifact per engine.  The
     * backend is also recorded as a note.
     */
    Artifact(const std::string &bench_name, const BenchArgs &args,
             Backend tag)
        : payload(bench_name + "_" + backendName(tag))
    {
        if (!args.jsonPath.empty()) {
            outPath = args.jsonPath;
            const std::string suffix =
                std::string("_") + backendName(tag);
            const std::size_t dot = outPath.rfind(".json");
            if (dot != std::string::npos &&
                dot + 5 == outPath.size())
                outPath.insert(dot, suffix);
            else
                outPath += suffix;
        }
        resolveDirFallback();
        note("backend", backendName(tag));
    }

    ~Artifact() { write(); }

    Artifact(const Artifact &) = delete;
    Artifact &operator=(const Artifact &) = delete;

    /** True when a destination was resolved and output will be written. */
    bool enabled() const { return !outPath.empty(); }

    /** Resolved output path (empty when disabled). */
    const std::string &path() const { return outPath; }

    /** Record one headline number. */
    void
    metric(const std::string &key, double value,
           const std::string &unit = "")
    {
        payload.metric(key, value, unit);
    }

    /** Record one free-form string fact. */
    void
    note(const std::string &key, const std::string &value)
    {
        payload.note(key, value);
    }

    /** Record one named numeric series (e.g. per-epoch counts). */
    void
    series(const std::string &key, std::vector<double> values)
    {
        payload.series(key, std::move(values));
    }

    /** Embed @p reg instead of the current registry at write() time. */
    void stats(const obs::StatsRegistry &reg) { statsReg = &reg; }

    /** Add a sim-time pulse track for the Perfetto trace export. */
    void
    track(std::string track_name, std::vector<Tick> pulse_times)
    {
        tracks.push_back(
            {std::move(track_name), std::move(pulse_times)});
    }

    /**
     * Write the artifact now (idempotent; the destructor is a no-op
     * afterwards).  Returns false when disabled or the file cannot be
     * opened.
     */
    bool
    write()
    {
        if (written)
            return false;
        written = true;
        obs::writeTraceIfRequested(tracks);
        if (outPath.empty())
            return false;
        std::ofstream os(outPath);
        if (!os) {
            warn("bench artifact: cannot open %s", outPath.c_str());
            return false;
        }
        const obs::StatsRegistry &reg =
            statsReg != nullptr ? *statsReg : obs::currentStats();
        payload.writeJson(os, reg, obs::ArtifactHostState::capture());
        os << "\n";
        return os.good();
    }

  private:
    void
    resolveDirFallback()
    {
        if (!outPath.empty())
            return;
        if (const char *dir = std::getenv("USFQ_BENCH_JSON");
            dir != nullptr && dir[0] != '\0')
            outPath =
                std::string(dir) + "/BENCH_" + payload.name() + ".json";
    }

    obs::ArtifactPayload payload;
    std::string outPath;
    std::vector<obs::PulseTrack> tracks;
    const obs::StatsRegistry *statsReg = nullptr;
    bool written = false;
};

} // namespace usfq::bench

#endif // USFQ_BENCH_COMMON_HH
