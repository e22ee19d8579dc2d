/**
 * @file
 * perfbench: the repository benchmark (perfbench/README.md).
 *
 *   perfbench --workload serve_repeat|serve_fresh|explore --seed N
 *             --seconds S --trace 0|1 [--tiny] [--trace-out FILE]
 *
 * --trace 0 measures the end-to-end metrics with tracing off over one
 * S-second window; --trace 1 runs an untraced window of S/2 seconds,
 * then a traced one of S/2, and reports the per-layer metrics plus the
 * tracing overhead (traced over untraced ops/s).  Metadata and every metric print as
 * "# ..." lines; the last line of stdout is the JSON result.  Exits 1
 * when any output differed from its reference, 2 on bad arguments.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.hh"
#include "util/span_kernels.hh"

using namespace perfbench;

namespace
{

/** End-to-end metrics, in result order. */
const std::vector<std::pair<std::string, std::string>> kEndToEnd{
    {"ops_per_s", "1/s"},   {"op_p50_ms", "ms"}, {"op_p99_ms", "ms"},
    {"setup_s", "s"},       {"peak_rss_mb", "MB"},
};

/** Per-layer metrics, in result order.  A layer a workload does not
 *  exercise reports 0. */
const std::vector<std::pair<std::string, std::string>> kPerLayer{
    {"svc.queue_wait_us.p50", "us"},
    {"svc.cache_probe_us.p50", "us"},
    {"svc.cache_hit_ratio", "ratio"},
    {"svc.cache_evictions", "count"},
    {"svc.serialize_us.p50", "us"},
    {"svc.worker_busy_frac", "ratio"},
    {"svc.self_share", "ratio"},
    {"api.key_us.p50", "us"},
    {"api.key_us.p99", "us"},
    {"api.key_us.dpu", "us"},
    {"api.key_us.pe", "us"},
    {"api.key_us.fir", "us"},
    {"api.key_us.inverter", "us"},
    {"api.key_us.noc", "us"},
    {"api.key_us.gen", "us"},
    {"api.key_share", "ratio"},
    {"api.run_us.p50", "us"},
    {"api.run_share", "ratio"},
    {"sim.build_us_per_component", "us"},
    {"sim.elaborate_us_per_component", "us"},
    {"sim.events_per_s", "1/s"},
    {"sim.pulse_us_per_epoch", "us"},
    {"sim.self_share", "ratio"},
    {"sta.ns_per_edge", "ns"},
    {"sta.self_share", "ratio"},
    {"gen.balance_us_per_spec.p50", "us"},
    {"gen.balance_iterations_mean", "count"},
    {"gen.converged_ratio", "ratio"},
    {"gen.self_share", "ratio"},
    {"func.scalar_ns_per_epoch", "ns"},
    {"func.batched_ns_per_epoch", "ns"},
    {"func.mirror_ns_per_epoch", "ns"},
    {"func.self_share", "ratio"},
    {"noc.us_per_epoch.functional", "us"},
    {"noc.us_per_epoch.pulse", "us"},
    {"trace.ops_per_s_ratio", "ratio"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "serve_repeat|serve_fresh|explore --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--tiny") {
            opt.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage("--seed takes a whole number");
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(opt.seconds > 0.0) ||
                opt.seconds > 120.0)
                usage("--seconds takes a number in (0, 120]");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            opt.trace = v == "1";
        } else if (a == "--trace-out") {
            opt.traceOut = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return opt;
}

/** Look a metric up by name (0 when the workload did not report it). */
double
valueOf(const std::vector<Metric> &ms, const std::string &name)
{
    for (const Metric &m : ms)
        if (m.name == name)
            return std::isfinite(m.value) ? m.value : 0.0;
    return 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    Outcome out;
    if (opt.workload == "serve_repeat")
        out = runServe(opt, false);
    else if (opt.workload == "serve_fresh")
        out = runServe(opt, true);
    else if (opt.workload == "explore")
        out = runExplore(opt);
    else
        usage(("unknown workload " + opt.workload).c_str());
    const bool correct = out.failed == 0;

#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, opt.tiny ? " tiny" : "");
    std::printf("# meta nproc=%u build_type=%s optimized=%s "
                "span_kernel=%s",
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                optimized ? "yes" : "NO",
                usfq::span::kernelName(usfq::span::activeKernel()));
    for (const auto &[k, v] : out.meta)
        std::printf(" %s=%s", k.c_str(), v.c_str());
    std::printf("\n");
    if (!optimized)
        std::printf("# WARNING: not an optimised build -- do not compare "
                    "these figures with an optimised one\n");

    const std::vector<std::pair<std::string, std::string>> &names =
        opt.trace ? kPerLayer : kEndToEnd;
    const std::vector<Metric> &values =
        opt.trace ? out.perLayer : out.endToEnd;
    for (const auto &[name, unit] : kEndToEnd)
        std::printf("# metric %s %.6g %s\n", name.c_str(),
                    valueOf(out.endToEnd, name), unit.c_str());
    std::printf("# metric error_rate %.6g ratio (%llu failed of %llu "
                "attempted)\n",
                out.attempted > 0 ? static_cast<double>(out.failed) /
                                        static_cast<double>(out.attempted)
                                  : 0.0,
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
    if (opt.trace)
        for (const auto &[name, unit] : kPerLayer)
            std::printf("# layer %s %.6g %s\n", name.c_str(),
                        valueOf(out.perLayer, name), unit.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (std::size_t i = 0; i < names.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", names[i].first.c_str(),
                    valueOf(values, names[i].first),
                    names[i].second.c_str());
    std::printf("}}\n");
    return correct ? 0 : 1;
}
