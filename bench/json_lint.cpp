/**
 * @file
 * Artifact linter: parse every JSON file named on the command line and
 * fail (exit 1) on the first malformed one.  Files whose name starts
 * with BENCH_ are additionally checked against the artifact schema
 * (bench/schema/metrics keys present, a numeric schema_version at or
 * above the digest-carrying revision).  Where one bench emitted both a
 * _pulse and a _functional artifact carrying a result_digest note, the
 * two digests must agree -- the engines' equivalence contract checked
 * at the artifact level.  scripts/check.sh runs this over the
 * artifacts a bench sweep produced.
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "util/json.hh"

namespace
{

/** Oldest artifact schema this linter accepts. */
constexpr double kMinSchemaVersion = 3.0;

/** Strip one suffix; true (and shortens @p s) when it was there. */
bool
stripSuffix(std::string &s, const std::string &suffix)
{
    if (s.size() < suffix.size() ||
        s.compare(s.size() - suffix.size(), suffix.size(), suffix) !=
            0)
        return false;
    s.resize(s.size() - suffix.size());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: json_lint <file.json>...\n");
        return 2;
    }
    int bad = 0;
    // stem -> per-backend result_digest note ("pulse"/"functional").
    std::map<std::string, std::map<std::string, std::string>> digests;
    for (int i = 1; i < argc; ++i) {
        const std::string path = argv[i];
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "json_lint: cannot open %s\n",
                         path.c_str());
            ++bad;
            continue;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        usfq::JsonValue doc;
        std::string error;
        if (!usfq::parseJson(buf.str(), doc, &error)) {
            std::fprintf(stderr, "json_lint: %s: %s\n", path.c_str(),
                         error.c_str());
            ++bad;
            continue;
        }
        // Artifact schema check for BENCH_*.json files.
        const std::size_t slash = path.find_last_of('/');
        const std::string base =
            slash == std::string::npos ? path : path.substr(slash + 1);
        if (base.rfind("BENCH_", 0) == 0) {
            const bool ok = doc.isObject() && doc.find("bench") &&
                            doc.find("schema") && doc.find("metrics");
            if (!ok) {
                std::fprintf(stderr,
                             "json_lint: %s: not a bench artifact "
                             "(missing bench/schema/metrics)\n",
                             path.c_str());
                ++bad;
                continue;
            }
            // Every artifact must self-describe its schema revision.
            const usfq::JsonValue *version =
                doc.find("schema_version");
            if (version == nullptr ||
                version->type != usfq::JsonValue::Type::Number ||
                version->number < kMinSchemaVersion) {
                std::fprintf(stderr,
                             "json_lint: %s: missing or stale "
                             "schema_version (need a number >= %g)\n",
                             path.c_str(), kMinSchemaVersion);
                ++bad;
                continue;
            }
            // Remember result_digest notes for the cross-backend
            // equivalence check after the scan.
            {
                std::string stem = base;
                std::string backend;
                if (stripSuffix(stem, "_pulse.json"))
                    backend = "pulse";
                else if (stripSuffix(stem, "_functional.json"))
                    backend = "functional";
                const usfq::JsonValue *notes = doc.find("notes");
                const usfq::JsonValue *digest =
                    notes ? notes->find("result_digest") : nullptr;
                if (!backend.empty() && digest != nullptr &&
                    digest->type == usfq::JsonValue::Type::String)
                    digests[stem][backend] = digest->str;
            }
            // Temporal-NoC artifacts must record the fabric geometry:
            // downstream tooling normalizes delivered/ledgered counts
            // per tile, which is meaningless without it.
            if (base.rfind("BENCH_fig_noc_", 0) == 0) {
                const usfq::JsonValue *metrics = doc.find("metrics");
                bool geom = metrics != nullptr;
                const char *missing = nullptr;
                for (const char *key :
                     {"grid_rows", "grid_cols", "tiles"}) {
                    const usfq::JsonValue *m =
                        geom ? metrics->find(key) : nullptr;
                    const usfq::JsonValue *value =
                        m ? m->find("value") : nullptr;
                    if (value == nullptr ||
                        value->type !=
                            usfq::JsonValue::Type::Number ||
                        value->number < 1.0) {
                        geom = false;
                        missing = key;
                        break;
                    }
                }
                if (!geom) {
                    std::fprintf(stderr,
                                 "json_lint: %s: NoC artifact "
                                 "without a %s metric >= 1\n",
                                 path.c_str(),
                                 missing ? missing : "grid geometry");
                    ++bad;
                    continue;
                }
            }
            // Design-space compiler artifacts must report the swept
            // space and its Pareto front (docs/synthesis.md): a fig20
            // run that did not gate >= 1000 generated points through
            // the balancing pass is not a design-space sweep.
            if (base.rfind("BENCH_fig20_", 0) == 0) {
                const usfq::JsonValue *metrics = doc.find("metrics");
                bool pareto = metrics != nullptr;
                const char *missing = nullptr;
                const struct
                {
                    const char *key;
                    double floor;
                } checks[] = {{"points_total", 1000.0},
                              {"points_feasible", 1.0},
                              {"pareto_points", 1.0},
                              {"pareto_min_area_jj", 1.0},
                              {"pareto_max_rate_ghz", 0.0},
                              {"pareto_best_accuracy", 0.0}};
                for (const auto &check : checks) {
                    const usfq::JsonValue *m =
                        pareto ? metrics->find(check.key) : nullptr;
                    const usfq::JsonValue *value =
                        m ? m->find("value") : nullptr;
                    if (value == nullptr ||
                        value->type !=
                            usfq::JsonValue::Type::Number ||
                        value->number < check.floor) {
                        pareto = false;
                        missing = check.key;
                        break;
                    }
                }
                if (!pareto) {
                    std::fprintf(stderr,
                                 "json_lint: %s: design-space "
                                 "artifact without a valid %s "
                                 "Pareto-front metric\n",
                                 path.c_str(),
                                 missing ? missing
                                         : "points/pareto");
                    ++bad;
                    continue;
                }
            }
        }
        std::printf("json_lint: %s ok\n", path.c_str());
    }
    // Cross-backend equivalence: where one bench wrote both a pulse
    // and a functional artifact with result_digest notes, the engines
    // must have observed the same result.
    for (const auto &[stem, byBackend] : digests) {
        const auto pulse = byBackend.find("pulse");
        const auto functional = byBackend.find("functional");
        if (pulse == byBackend.end() ||
            functional == byBackend.end())
            continue;
        if (pulse->second != functional->second) {
            std::fprintf(stderr,
                         "json_lint: %s: pulse and functional "
                         "result_digest disagree (%s vs %s)\n",
                         stem.c_str(), pulse->second.c_str(),
                         functional->second.c_str());
            ++bad;
        } else {
            std::printf("json_lint: %s pulse/functional digests "
                        "agree\n",
                        stem.c_str());
        }
    }
    return bad == 0 ? 0 : 1;
}
