/**
 * @file
 * google-benchmark glue for the artifact emitter: a console reporter
 * that mirrors every run's headline numbers into a bench::Artifact,
 * and the shared main() the micro benches use.  Kept separate from
 * bench_common.hh so the table-style benches do not pull in
 * <benchmark/benchmark.h>.
 */

#ifndef USFQ_BENCH_GBENCH_HH
#define USFQ_BENCH_GBENCH_HH

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_common.hh"

namespace usfq::bench
{

/**
 * ConsoleReporter that also records each completed run into the
 * artifact: adjusted real time and, when SetItemsProcessed() was
 * called, the derived items/second rate.  Tabular without colour: the
 * library only drops ANSI colour for non-terminals in reporters it
 * builds itself, and bench output is mostly read from pipes and logs.
 */
class ArtifactReporter : public benchmark::ConsoleReporter
{
  public:
    explicit ArtifactReporter(Artifact &artifact)
        : ConsoleReporter(OO_Tabular), sink(artifact)
    {
    }

    bool
    ReportContext(const Context &context) override
    {
        return ConsoleReporter::ReportContext(context);
    }

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred)
                continue;
            const std::string name = run.benchmark_name();
            sink.metric(name + "/real_time_ns",
                        run.GetAdjustedRealTime(), "ns");
            const auto it = run.counters.find("items_per_second");
            if (it != run.counters.end())
                sink.metric(name + "/items_per_second",
                            static_cast<double>(it->second),
                            "items/s");
        }
        ConsoleReporter::ReportRuns(runs);
    }

  private:
    Artifact &sink;
};

/**
 * Shared main() body for the micro benches: strip --json, run every
 * registered benchmark through the artifact reporter, write the
 * artifact on exit.
 */
inline int
gbenchMain(const char *bench_name, int argc, char **argv)
{
    Artifact artifact(bench_name, &argc, argv);
    ArtifactReporter reporter(artifact);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    return 0;
}

} // namespace usfq::bench

#endif // USFQ_BENCH_GBENCH_HH
