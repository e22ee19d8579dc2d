#include "obs/perfetto.hh"

#include <cstdlib>
#include <fstream>
#include <ostream>

#include "util/json.hh"
#include "util/logging.hh"

namespace usfq::obs
{

namespace
{

constexpr int kHostPid = 1;
constexpr int kSimPid = 2;

void
metadataEvent(JsonWriter &w, const char *what, int pid, int tid,
              const std::string &label)
{
    w.beginObject();
    w.kv("name", what);
    w.kv("ph", "M");
    w.kv("pid", pid);
    w.kv("tid", tid);
    w.key("args").beginObject().kv("name", label).endObject();
    w.endObject();
}

} // namespace

void
writeChromeTrace(std::ostream &os, const std::vector<TraceSpan> &spans,
                 const std::vector<PulseTrack> &tracks)
{
    std::string doc;
    JsonWriter w(doc, 1);
    w.beginObject();
    w.kv("displayTimeUnit", "ns");
    w.key("traceEvents").beginArray();

    metadataEvent(w, "process_name", kHostPid, 0, "usfq host");
    if (!tracks.empty())
        metadataEvent(w, "process_name", kSimPid, 0, "usfq sim time");

    // Host-thread names (obs::setCurrentThreadName): one metadata row
    // per named thread so broker workers read as "worker-N", not as a
    // bare tid.
    for (const auto &[tid, name] : threadNames())
        metadataEvent(w, "thread_name", kHostPid,
                      static_cast<int>(tid), name);

    // Host spans (obs/trace.hh): "X" complete events, ts/dur in
    // microseconds (the Trace Event time unit), on the thread that ran
    // the work, nested by time containment per tid; the explicit
    // trace/span/parent ids in args keep a request's chain recoverable
    // however the viewer folds rows.
    for (const TraceSpan &s : spans) {
        w.beginObject();
        w.kv("name", s.name);
        w.kv("cat", "request");
        w.kv("ph", "X");
        w.kv("ts", static_cast<std::uint64_t>(s.startUs));
        w.kv("dur", static_cast<std::uint64_t>(s.durUs));
        w.kv("pid", kHostPid);
        w.kv("tid", static_cast<std::int64_t>(s.tid));
        w.key("args").beginObject();
        w.kv("trace", s.traceId);
        w.kv("span", s.spanId);
        if (s.parentSpanId != 0)
            w.kv("parent", s.parentSpanId);
        for (const auto &[k, v] : s.args)
            w.kv(k, v);
        w.endObject();
        w.endObject();
    }

    // Sim-time pulse tracks: thread-scoped instant events, one tid per
    // track.  Ticks are femtoseconds; the trace axis is microseconds,
    // so 1 us of trace time = 1 ns of simulated time (displayTimeUnit
    // "ns" keeps the numbers readable).
    int tid = 0;
    for (const PulseTrack &track : tracks) {
        metadataEvent(w, "thread_name", kSimPid, tid, track.name);
        for (Tick t : track.times) {
            w.beginObject();
            w.kv("name", "pulse");
            w.kv("cat", "pulse");
            w.kv("ph", "i");
            w.kv("s", "t");
            w.kv("ts", static_cast<double>(t) * 1e-6);
            w.kv("pid", kSimPid);
            w.kv("tid", tid);
            w.endObject();
        }
        ++tid;
    }

    w.endArray();
    w.endObject();
    doc += '\n';
    os.write(doc.data(), static_cast<std::streamsize>(doc.size()));
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<TraceSpan> &spans,
                 const std::vector<PulseTrack> &tracks)
{
    std::ofstream out(path);
    if (!out.good()) {
        warn("cannot write trace to %s", path.c_str());
        return false;
    }
    writeChromeTrace(out, spans, tracks);
    return out.good();
}

std::string
traceOutPath()
{
    const char *env = std::getenv("USFQ_TRACE_OUT");
    return env != nullptr ? std::string(env) : std::string();
}

bool
writeTraceIfRequested(const std::vector<PulseTrack> &tracks)
{
    const std::string path = traceOutPath();
    if (path.empty())
        return false;
    return writeChromeTrace(path, TraceLog::global().snapshot(), tracks);
}

} // namespace usfq::obs
