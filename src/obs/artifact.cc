#include "obs/artifact.hh"

#include "obs/phase.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace usfq::obs
{

ArtifactHostState
ArtifactHostState::capture()
{
    ArtifactHostState s;
    s.phasesUs = phaseTotalsUs();
    s.warnings = warnCount();
    s.informs = informCount();
    return s;
}

void
ArtifactPayload::append(std::string &out, const StatsRegistry &reg,
                        const ArtifactHostState &host) const
{
    // Room for the series (a count takes about a dozen bytes with its
    // indentation) plus the rest, so the buffer rarely regrows.
    std::size_t values = 0;
    for (const auto &entry : seriesData)
        values += entry.second.size();
    out.reserve(out.size() + 16 * values + 4096);

    JsonWriter w(out);
    w.beginObject();
    w.kv("bench", payloadName);
    w.kv("schema", kArtifactSchemaVersion);
    w.kv("schema_version", kArtifactSchemaVersion);

    w.key("metrics").beginObject();
    for (const Metric &m : metrics) {
        w.key(m.key).beginObject();
        w.kv("value", m.value);
        if (!m.unit.empty())
            w.kv("unit", m.unit);
        w.endObject();
    }
    w.endObject();

    w.key("notes").beginObject();
    for (const auto &[k, v] : notes)
        w.kv(k, v);
    w.endObject();

    if (!seriesData.empty()) {
        w.key("series").beginObject();
        for (const auto &[k, values] : seriesData) {
            w.key(k).beginArray();
            for (double v : values)
                w.value(v);
            w.endArray();
        }
        w.endObject();
    }

    w.key("phases_us").beginObject();
    for (const auto &[phase, us] : host.phasesUs)
        w.kv(phase, us);
    w.endObject();

    w.key("log").beginObject();
    w.kv("warnings", host.warnings);
    w.kv("informs", host.informs);
    w.endObject();

    w.key("stats").beginObject();
    writeStatsSections(w, reg);
    w.endObject();

    w.endObject();
}

void
writeStatsSections(JsonWriter &w, const StatsRegistry &reg)
{
    w.key("counters").beginObject();
    reg.forEach([&](const std::string &n,
                    const StatsRegistry::Entry &e) {
        if (e.kind == StatsRegistry::Entry::Kind::Counter)
            w.kv(n, e.counter.value());
    });
    w.endObject();
    w.key("gauges").beginObject();
    reg.forEach([&](const std::string &n,
                    const StatsRegistry::Entry &e) {
        if (e.kind == StatsRegistry::Entry::Kind::Gauge &&
            e.gauge.valid())
            w.kv(n, e.gauge.value());
    });
    w.endObject();
    w.key("histograms").beginObject();
    reg.forEach([&](const std::string &n,
                    const StatsRegistry::Entry &e) {
        if (e.kind != StatsRegistry::Entry::Kind::Histogram)
            return;
        const Histogram &h = e.histogram;
        w.key(n).beginObject();
        w.kv("count", h.count());
        w.kv("sum", h.sum());
        w.kv("min", h.min());
        w.kv("max", h.max());
        w.kv("mean", h.mean());
        w.key("buckets").beginArray();
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
            if (h.bucket(i) == 0)
                continue;
            w.beginArray();
            w.value(Histogram::bucketLo(i));
            w.value(h.bucket(i));
            w.endArray();
        }
        w.endArray();
        w.endObject();
    });
    w.endObject();
}

std::string
statsToJson(const StatsRegistry &reg)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    writeStatsSections(w, reg);
    w.endObject();
    return out;
}

void
writeStatsJson(std::ostream &os, const StatsRegistry &reg)
{
    const std::string doc = statsToJson(reg);
    os.write(doc.data(), static_cast<std::streamsize>(doc.size()));
}

void
ArtifactPayload::writeJson(std::ostream &os, const StatsRegistry &reg,
                           const ArtifactHostState &host) const
{
    std::string doc;
    append(doc, reg, host);
    os.write(doc.data(), static_cast<std::streamsize>(doc.size()));
}

std::string
ArtifactPayload::toJson(const StatsRegistry &reg,
                        const ArtifactHostState &host) const
{
    std::string doc;
    append(doc, reg, host);
    doc += '\n';
    return doc;
}

} // namespace usfq::obs
