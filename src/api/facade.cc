#include "api/facade.hh"

#include <algorithm>

#include "core/dpu.hh"
#include "core/fir.hh"
#include "core/multiplier.hh"
#include "core/pe.hh"
#include "func/components.hh"
#include "func/noc.hh"
#include "gen/balance.hh"
#include "gen/datapath.hh"
#include "gen/functional.hh"
#include "noc/grid.hh"
#include "noc/sta.hh"
#include "obs/artifact.hh"
#include "sfq/cells.hh"
#include "sfq/sources.hh"
#include "sim/netlist.hh"
#include "sim/sweep.hh"
#include "sim/trace.hh"
#include "util/hash.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace usfq::api
{

namespace
{

std::string
hexU64(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** PE epoch slot width (the differential-test drive geometry). */
constexpr Tick kPeSlot = 30 * kPicosecond;

std::vector<double>
firCoefficients(const NetlistSpec &spec)
{
    if (!spec.coefficients.empty())
        return spec.coefficients;
    return std::vector<double>(
        static_cast<std::size_t>(spec.taps),
        0.5 / static_cast<double>(spec.taps));
}

Tick
inverterPeriod(const NetlistSpec &spec)
{
    const double ticks =
        spec.clockPeriodPs * static_cast<double>(kPicosecond);
    return std::max<Tick>(1, static_cast<Tick>(ticks + 0.5));
}

/** The spec's FIR filter in @p nl, its coefficients programmed. */
UsfqFir &
buildFir(const NetlistSpec &spec, Netlist &nl)
{
    auto &fir = nl.create<UsfqFir>(
        spec.name, UsfqFirConfig{.taps = spec.taps, .bits = spec.bits,
                                 .mode = spec.mode});
    const std::vector<double> h = firCoefficients(spec);
    for (int k = 0; k < spec.taps; ++k)
        fir.setCoefficient(k, h[static_cast<std::size_t>(k)]);
    return fir;
}

/**
 * The inverter probe in @p nl: a clock source driving the spec's
 * inverter `clockCount` times at its period, the data input undriven.
 * The caller decides where the output goes.
 */
Inverter &
buildInverterProbe(const NetlistSpec &spec, Netlist &nl)
{
    auto &clk = nl.create<ClockSource>("clk");
    auto &inv = nl.create<Inverter>(spec.name);
    clk.out.connect(inv.clk);
    inv.d.markOptional("svc inverter probe: clock-only drive");
    const Tick period = inverterPeriod(spec);
    clk.program(period, period,
                static_cast<std::uint64_t>(spec.clockCount));
    return inv;
}

/**
 * Kinds whose netlist brings its own stimulus: the inverter probe is
 * self-driving, and the NoC mesh and the generated datapath are built
 * fully wired.  They need no area-study waivers and STA anchors them
 * on that stimulus; the other kinds are timed from zero anchors.
 */
bool
selfDriven(WorkloadKind kind)
{
    return kind == WorkloadKind::Inverter ||
           kind == WorkloadKind::NocMesh || kind == WorkloadKind::Gen;
}

/**
 * "N unwaived <what> finding(s): <first one's message>", or an empty
 * string when every one of @p findings is waived.
 */
std::string
unwaivedSummary(const std::vector<LintFinding> &findings,
                const char *what)
{
    std::size_t errors = 0;
    const LintFinding *first = nullptr;
    for (const LintFinding &f : findings) {
        if (f.waived)
            continue;
        if (first == nullptr)
            first = &f;
        ++errors;
    }
    if (first == nullptr)
        return {};
    return std::to_string(errors) + " unwaived " + what +
           " finding(s): " + first->message;
}

// --- pulse-level FIR run ---------------------------------------------------

/**
 * Pulse-level FIR run (the fig19 equivalence drive): one netlist, one
 * event-queue run, per-epoch output pulse counts read back from marker
 * windows.  The sample delay line starts in its reset state, so the
 * first `taps` epochs differ from the zero-padded functional window --
 * a per-backend fact the cache key covers via the backend field.
 */
std::vector<long long>
runPulseFir(const NetlistSpec &spec, const RunParams &params)
{
    Netlist nl;
    UsfqFir &fir = buildFir(spec, nl);
    const UsfqFirConfig &cfg = fir.config();
    const EpochConfig ecfg(spec.bits, cfg.clockPeriod());
    const std::size_t epochs = static_cast<std::size_t>(params.epochs);

    const UniformInt sample(0, ecfg.nmax());
    std::vector<int> ids(epochs);
    for (std::size_t e = 0; e < epochs; ++e) {
        Rng rng(shardSeed(params.seed, e));
        ids[e] = static_cast<int>(sample(rng));
    }

    auto &clk = nl.create<ClockSource>("clk");
    auto &xin = nl.create<PulseSource>("x");
    PulseTrace out;
    clk.out.connect(fir.clkIn());
    xin.out.connect(fir.sampleIn());
    fir.out().connect(out.input());
    fir.epochOut().markOpen("svc fir run: windows read from the trace");

    const Tick t_clk0 = 100 * kPicosecond;
    const Tick period = cfg.clockPeriod();
    clk.program(t_clk0, period,
                (epochs + 2) << static_cast<unsigned>(spec.bits));
    const Tick rl_off = 20 * kPicosecond;
    for (std::size_t e = 0; e < epochs; ++e) {
        const Tick marker =
            t_clk0 + static_cast<Tick>(e) * cfg.epochLatency() +
            fir.markerLag();
        xin.pulseAt(marker + rl_off + ecfg.rlTime(ids[e]));
    }
    nl.queue().run();

    std::vector<long long> counts(epochs);
    for (std::size_t e = 0; e < epochs; ++e) {
        const Tick lo = t_clk0 +
                        static_cast<Tick>(e) * cfg.epochLatency() +
                        fir.markerLag() + period;
        counts[e] = static_cast<long long>(
            out.countInWindow(lo, lo + cfg.epochLatency()));
    }
    return counts;
}

// --- per-kind sweeps -----------------------------------------------------
//
// Every leg builds what depends only on the spec once per sweep (FIR
// coefficient counts, the NoC routing index) or once per sweep worker
// (WorkerLocal: operand buffers, pulse-level rigs), and each shard
// only re-programs its stimulus and evaluates.  RunParams::batch
// selects nothing here: every kind has one functional leg, and its
// epoch kernels allocate nothing per epoch.

/** Sweep options of a run, with the thread count resolved once. */
SweepOptions
sweepOptions(const RunParams &params)
{
    SweepOptions opt;
    opt.threads = resolveSweepThreads(params.threads);
    opt.baseSeed = params.seed;
    opt.backend = params.backend;
    return opt;
}

std::vector<long long>
widen(const std::vector<int> &counts)
{
    return {counts.begin(), counts.end()};
}

/** A leg's per-worker operand buffers, resized in place per shard. */
struct Scratch
{
    std::vector<int> a, b;
};

/**
 * @p buf resized to @p n entries, as a pointer to fill: its capacity
 * survives across shards, so a warm worker allocates nothing.
 */
int *
sized(std::vector<int> &buf, std::size_t n)
{
    buf.resize(n);
    return buf.data();
}

std::vector<long long>
runDpu(const NetlistSpec &spec, const RunParams &params)
{
    const EpochConfig cfg(spec.bits,
                          dpuSlotWidth(spec.taps, 9 * kPicosecond));
    const std::size_t epochs = static_cast<std::size_t>(params.epochs);
    const auto taps = static_cast<std::size_t>(spec.taps);
    const SweepOptions opt = sweepOptions(params);
    WorkerLocal<Scratch> scratch(opt);
    // The draw order (stream, then id, per element) is the seed's.
    const UniformInt operand(0, cfg.nmax());
    const auto draw = [&](std::uint64_t seed, Scratch &s) {
        int *streams = sized(s.a, taps);
        int *ids = sized(s.b, taps);
        Rng rng(seed);
        for (std::size_t k = 0; k < taps; ++k) {
            streams[k] = static_cast<int>(operand(rng));
            ids[k] = static_cast<int>(operand(rng));
        }
    };
    if (params.backend == Backend::PulseLevel) {
        WorkerLocal<DpuEpochRig> rigs(opt);
        return widen(runSweep(
            epochs,
            [&](const ShardContext &ctx) {
                Scratch &s = scratch.at(ctx.worker);
                draw(ctx.seed, s);
                return rigs.at(ctx.worker, cfg, spec.taps, spec.mode)
                    .run(s.a, s.b);
            },
            opt));
    }
    return widen(runSweep(
        epochs,
        [&](const ShardContext &ctx) {
            Scratch &s = scratch.at(ctx.worker);
            draw(ctx.seed, s);
            return dpuExpectedCount(cfg, spec.mode, s.a, s.b);
        },
        opt));
}

std::vector<long long>
runPe(const NetlistSpec &spec, const RunParams &params)
{
    const EpochConfig cfg(spec.bits, kPeSlot);
    const std::size_t epochs = static_cast<std::size_t>(params.epochs);
    const SweepOptions opt = sweepOptions(params);
    struct Operands
    {
        int in1, in2, in3;
    };
    const UniformInt operand(0, cfg.nmax());
    const auto draw = [&](std::uint64_t seed) {
        Rng rng(seed);
        Operands op;
        op.in1 = static_cast<int>(operand(rng));
        op.in2 = static_cast<int>(operand(rng));
        op.in3 = static_cast<int>(operand(rng));
        return op;
    };
    if (params.backend == Backend::PulseLevel) {
        WorkerLocal<PeEpochRig> rigs(opt);
        return widen(runSweep(
            epochs,
            [&](const ShardContext &ctx) {
                const Operands op = draw(ctx.seed);
                return rigs.at(ctx.worker, cfg).run(op.in1, op.in2,
                                                    op.in3);
            },
            opt));
    }
    return widen(runSweep(
        epochs,
        [&](const ShardContext &ctx) {
            const Operands op = draw(ctx.seed);
            return peExpectedSlot(cfg, op.in1, op.in2, op.in3);
        },
        opt));
}

std::vector<long long>
runFunctionalFir(const NetlistSpec &spec, const RunParams &params)
{
    UsfqFirConfig cfg{.taps = spec.taps, .bits = spec.bits,
                      .mode = spec.mode};
    const EpochConfig ecfg(spec.bits, cfg.clockPeriod());
    const std::size_t epochs = static_cast<std::size_t>(params.epochs);
    const auto taps = static_cast<std::size_t>(spec.taps);
    const SweepOptions opt = sweepOptions(params);

    // Quantized once per sweep: every epoch reads the same taps.
    const std::vector<double> h = firCoefficients(spec);
    std::vector<int> hCounts(taps);
    for (std::size_t k = 0; k < taps; ++k)
        hCounts[k] = func::firCoefficientCount(ecfg, spec.mode, h[k]);

    // Sample ids are a pure function of (seed, epoch), never of sweep
    // shape, so the zero-padded windows below are identical at any
    // thread count -- the cache-transparency contract.
    const UniformInt sample(0, ecfg.nmax());
    std::vector<int> ids(epochs);
    for (std::size_t e = 0; e < epochs; ++e) {
        Rng rng(shardSeed(params.seed, e));
        ids[e] = static_cast<int>(sample(rng));
    }
    const auto windowId = [&](std::size_t e, std::size_t k) {
        return e >= k ? ids[e - k] : 0;
    };
    WorkerLocal<Scratch> scratch(opt);
    return widen(runSweep(
        epochs,
        [&](const ShardContext &ctx) {
            Scratch &s = scratch.at(ctx.worker);
            int *window = sized(s.a, taps);
            for (std::size_t k = 0; k < taps; ++k)
                window[k] = windowId(ctx.index, k);
            return func::firStepCount(ecfg, spec.mode, hCounts, s.a);
        },
        opt));
}

/** GridPlan of a NocMesh spec: column-collect traffic by default. */
noc::GridPlan
nocPlan(const NetlistSpec &spec)
{
    noc::GridSpec gs;
    gs.rows = spec.gridRows;
    gs.cols = spec.gridCols;
    gs.kind = noc::TileKind::Dpu;
    gs.taps = spec.taps;
    gs.bits = spec.bits;
    gs.mode = spec.mode;
    gs.flows = noc::columnCollectFlows(spec.gridRows, spec.gridCols);
    gs.sharedSinkWindows = spec.nocShareWindows;
    return noc::planGrid(gs);
}

/**
 * NoC epochs report a digest of the full fabric observation (sink
 * window tables + router collision ledgers), not a single count --
 * truncated to 31 bits so it travels the counts vector.  Both engines
 * digest the same observation type, so pulse == functional epoch-wise
 * exactly when the fabrics agree flit-for-flit.
 */
int
nocDigest(const noc::FabricObservation &obs)
{
    return static_cast<int>(noc::observationDigest(obs) & 0x7fffffff);
}

/**
 * NoC sweep: one epoch per shard.  Fabric telemetry is summed per
 * worker and exported once after the sweep; counters add and the
 * utilization gauge keeps the max, so the registry is the one
 * per-epoch exports would merge to.
 */
std::vector<long long>
runNocMesh(const NetlistSpec &spec, const RunParams &params)
{
    const noc::GridPlan plan = nocPlan(spec);
    const std::size_t epochs = static_cast<std::size_t>(params.epochs);
    const SweepOptions opt = sweepOptions(params);
    WorkerLocal<noc::FabricTelemetry> telemetry(opt);
    std::vector<int> digests;
    if (params.backend == Backend::PulseLevel) {
        WorkerLocal<noc::PulseFabricRig> rigs(opt);
        digests = runSweep(
            epochs,
            [&](const ShardContext &ctx) {
                const noc::PulseFabricResult res =
                    rigs.at(ctx.worker, plan).run(ctx.seed);
                if (res.latePulses != 0 || res.misaligned != 0)
                    fatal("noc fabric: %llu late / %llu misaligned "
                          "pulses (TDM schedule bug)",
                          static_cast<unsigned long long>(
                              res.latePulses),
                          static_cast<unsigned long long>(
                              res.misaligned));
                telemetry.at(ctx.worker, plan).accumulate(res.obs);
                return nocDigest(res.obs);
            },
            opt);
    } else {
        const func::FabricIndex index(plan);
        digests = runSweep(
            epochs,
            [&](const ShardContext &ctx) {
                const noc::FabricObservation obs =
                    func::evaluateFabricSeed(plan, index, ctx.seed);
                telemetry.at(ctx.worker, plan).accumulate(obs);
                return nocDigest(obs);
            },
            opt);
    }
    noc::FabricTelemetry total(plan);
    telemetry.forEach(
        [&](const noc::FabricTelemetry &t) { total.mergeFrom(t); });
    total.exportTo(obs::currentStats());
    return widen(digests);
}

/**
 * Gen sweep: one drawEpochInputs() epoch per shard.  The functional
 * leg walks one slot-set mirror (gen::EpochMirror) per worker; the
 * pulse leg replays one balanced datapath rig per worker.  The
 * balancing pass @p bo is part of the design, not of any epoch: it
 * arrives with the spec's DesignFacts.
 */
std::vector<long long>
runGen(const NetlistSpec &spec, const RunParams &params,
       const gen::BalanceOutcome &bo)
{
    if (!bo.converged())
        fatal("gen run: balancing %s: %s",
              gen::balanceStatusName(bo.status), bo.detail.c_str());
    const std::size_t epochs = static_cast<std::size_t>(params.epochs);
    const SweepOptions opt = sweepOptions(params);
    if (params.backend == Backend::PulseLevel) {
        WorkerLocal<gen::PulseEpochRig> rigs(opt);
        return widen(runSweep(
            epochs,
            [&](const ShardContext &ctx) {
                return static_cast<int>(
                    rigs.at(ctx.worker, spec.gen, bo.plan)
                        .run(gen::drawEpochInputs(spec.gen, ctx.seed)));
            },
            opt));
    }
    WorkerLocal<gen::EpochMirror> mirrors(opt);
    return widen(runSweep(
        epochs,
        [&](const ShardContext &ctx) {
            return static_cast<int>(
                mirrors.at(ctx.worker)
                    .eval(spec.gen,
                          gen::drawEpochInputs(spec.gen, ctx.seed))
                    .count);
        },
        opt));
}

std::vector<long long>
runInverter(const NetlistSpec &spec, const RunParams &params)
{
    if (params.backend == Backend::Functional) {
        // Closed form: with no data pulse ever arriving, the inverter
        // emits at Q on every clock pulse.
        return {static_cast<long long>(spec.clockCount)};
    }
    Netlist nl;
    PulseTrace out;
    buildInverterProbe(spec, nl).q.connect(out.input());
    nl.queue().run();
    return {static_cast<long long>(out.count())};
}

std::uint64_t
countsChecksum(const std::vector<long long> &counts)
{
    std::uint64_t h = kFnvBasis;
    for (long long c : counts)
        h = fnvU64(h, static_cast<std::uint64_t>(c));
    return h;
}

void
writeFinding(JsonWriter &w, const LintFinding &f)
{
    w.beginObject();
    w.kv("rule", lintRuleName(f.rule));
    w.kv("subject", f.subject);
    w.kv("component", f.component);
    w.kv("message", f.message);
    w.kv("waived", f.waived);
    if (!f.waiverReason.empty())
        w.kv("waiver_reason", f.waiverReason);
    w.kv("margin_ticks", static_cast<std::int64_t>(f.margin));
    w.endObject();
}

// --- structural-hash records ---------------------------------------------

std::uint64_t
hashTimingModel(std::uint64_t h, const TimingModel &tm)
{
    h = fnvU64(h, tm.arcs.size());
    for (const TimingArc &a : tm.arcs) {
        h = fnvU64(h, a.from);
        h = fnvU64(h, a.to);
        h = fnvU64(h, static_cast<std::uint64_t>(a.minDelay));
        h = fnvU64(h, static_cast<std::uint64_t>(a.maxDelay));
        h = fnvU64(h, a.rateDiv);
    }
    h = fnvU64(h, tm.checks.size());
    for (const TimingCheck &c : tm.checks) {
        h = fnvU64(h, static_cast<std::uint64_t>(c.kind));
        h = fnvU64(h, c.data);
        h = fnvU64(h, c.ref);
        h = fnvU64(h, static_cast<std::uint64_t>(c.setup));
        h = fnvU64(h, static_cast<std::uint64_t>(c.hold));
        h = fnvU64(h, static_cast<std::uint64_t>(c.window));
    }
    h = fnvU64(h, tm.floors.size());
    for (const OutputFloor &f : tm.floors) {
        h = fnvU64(h, f.port);
        h = fnvU64(h, static_cast<std::uint64_t>(f.spacing));
    }
    h = fnvU64(h, static_cast<std::uint64_t>(tm.recovery));
    h = fnvU64(h, tm.absorbs ? 1 : 0);
    h = fnvU64(h, tm.registered ? 1 : 0);
    return h;
}

std::uint64_t
portKey(std::uint64_t h, const Component *owner, const std::string &port)
{
    h = fnvStr(h, owner != nullptr ? owner->name() : std::string());
    return fnvStr(h, port);
}

/**
 * Content record of one component: identity, area, timing, ports,
 * outgoing edges, aliases and stimulus schedule.  Everything that can
 * change what a simulation of the graph computes is in here; nothing
 * that depends on registration order is.
 */
std::uint64_t
componentRecord(const Component &c)
{
    std::uint64_t h = kFnvBasis;
    h = fnvStr(h, c.name());
    h = fnvU64(h, static_cast<std::uint64_t>(c.jjCount()));
    h = fnvU64(h, static_cast<std::uint64_t>(c.minInternalDelay()));
    h = hashTimingModel(h, c.timingModel());

    h = fnvU64(h, c.inputPorts().size());
    for (const InputPort *p : c.inputPorts())
        h = fnvStr(h, p->name());
    h = fnvU64(h, c.outputPorts().size());
    for (const OutputPort *p : c.outputPorts()) {
        h = fnvStr(h, p->name());
        h = fnvU64(h, p->connectionList().size());
        for (const OutputPort::Connection &e : p->connectionList()) {
            h = portKey(h, e.dst->owner(), e.dst->name());
            h = fnvU64(h, static_cast<std::uint64_t>(e.delay));
        }
    }
    h = fnvU64(h, c.portAliases().size());
    for (const Component::PortAlias &a : c.portAliases()) {
        h = portKey(h, a.outer->owner(), a.outer->name());
        h = portKey(h, a.inner->owner(), a.inner->name());
    }
    if (const PulseAnchor *anchor = c.stimulusAnchor();
        anchor != nullptr) {
        h = fnvU64(h, static_cast<std::uint64_t>(anchor->first));
        h = fnvU64(h, static_cast<std::uint64_t>(anchor->last));
        h = fnvU64(h, static_cast<std::uint64_t>(anchor->minSpacing));
        h = fnvU64(h, anchor->count);
        h = fnvU64(h, anchor->periodic ? 1 : 0);
    }
    return h;
}

/**
 * buildNetlist, also handing out a Gen spec's converged balancing pass
 * through @p balance.  The balancer's STA counters are compile-time
 * facts, not results: they land in a private registry, never in a
 * run's or the process-global one (which concurrent sessions share).
 */
bool
buildDesign(const NetlistSpec &spec, Netlist &nl, std::string *err,
            std::optional<gen::BalanceOutcome> *balance)
{
    std::string msg;
    if (!spec.validate(&msg)) {
        if (err != nullptr)
            *err = msg;
        return false;
    }
    switch (spec.kind) {
    case WorkloadKind::Dpu:
        nl.create<DotProductUnit>(spec.name, spec.taps, spec.mode);
        break;
    case WorkloadKind::Pe:
        nl.create<ProcessingElement>(spec.name,
                                     EpochConfig(spec.bits, kPeSlot));
        break;
    case WorkloadKind::Fir:
        buildFir(spec, nl);
        break;
    case WorkloadKind::NocMesh: {
        const noc::GridPlan plan = nocPlan(spec);
        noc::TileGrid grid(nl, plan);
        // Representative stimulus at a fixed seed: the structural
        // hash covers stimulus anchors, and per-run operand draws
        // must not move the cache key.
        grid.programOperands(noc::drawTileOperands(plan, 0x5eedULL));
        break;
    }
    case WorkloadKind::Inverter:
        buildInverterProbe(spec, nl).q.markOpen(
            "svc inverter probe: rate study output");
        break;
    case WorkloadKind::Gen: {
        obs::StatsRegistry compileStats;
        obs::ScopedStatsRegistry guard(compileStats);
        gen::BalanceOutcome bo = gen::balanceDesign(spec.gen);
        if (!bo.converged()) {
            if (err != nullptr)
                *err = std::string("gen: balancing ") +
                       gen::balanceStatusName(bo.status) + ": " +
                       bo.detail;
            return false;
        }
        auto &dp = nl.create<gen::StreamDatapath>(spec.name, spec.gen,
                                                  bo.plan);
        // Representative stimulus at the densest epoch: the structural
        // hash covers stimulus anchors, and per-run epoch draws must
        // not move the cache key (same rationale as NocMesh).
        dp.programEpoch({spec.gen.nmax(), {}});
        if (balance != nullptr)
            *balance = std::move(bo);
        break;
    }
    }
    if (spec.waiveUnwired && !selfDriven(spec.kind)) {
        nl.waive(LintRule::DanglingInput,
                 "svc spec: stimulus-less device under test");
        nl.waive(LintRule::OpenOutput,
                 "svc spec: stimulus-less device under test");
    }
    return true;
}

} // namespace

bool
buildNetlist(const NetlistSpec &spec, Netlist &nl, std::string *err)
{
    return buildDesign(spec, nl, err, nullptr);
}

std::uint64_t
structuralHash(Netlist &nl)
{
    nl.elaborate();
    // Wrapping sum of per-component records: two builds that register
    // the same components in a different order hash identically, while
    // any change to a name, parameter, timing number or edge changes
    // the record it lives in.
    std::uint64_t sum = 0;
    std::size_t n = 0;
    for (const Component *c : nl.graphComponents()) {
        sum += componentRecord(*c);
        ++n;
    }
    return fnvU64(fnvU64(kFnvBasis, sum), n);
}

RunResult
runWorkload(const NetlistSpec &spec, const RunParams &params)
{
    // The facts runWorkload reads (all but the structural hash, which
    // would need a lint-clean elaboration) from a scratch build.
    DesignFacts facts;
    {
        Netlist scratch;
        std::string err;
        if (!buildDesign(spec, scratch, &err, &facts.balance))
            fatal("runWorkload: %s", err.c_str());
        facts.totalJJ = scratch.totalJJs();
    }
    return runWorkload(spec, params, facts);
}

RunResult
runWorkload(const NetlistSpec &spec, const RunParams &params,
            const DesignFacts &facts)
{
    RunResult out;
    out.backend = params.backend;
    out.totalJJ = facts.totalJJ;
    obs::ScopedStatsRegistry guard(out.stats);

    switch (spec.kind) {
    case WorkloadKind::Dpu:
        out.counts = runDpu(spec, params);
        break;
    case WorkloadKind::Pe:
        out.counts = runPe(spec, params);
        break;
    case WorkloadKind::Fir:
        out.counts = params.backend == Backend::Functional
                         ? runFunctionalFir(spec, params)
                         : runPulseFir(spec, params);
        break;
    case WorkloadKind::Inverter:
        out.counts = runInverter(spec, params);
        break;
    case WorkloadKind::NocMesh:
        out.counts = runNocMesh(spec, params);
        break;
    case WorkloadKind::Gen:
        if (!facts.balance.has_value())
            fatal("runWorkload: gen design facts carry no balancing "
                  "outcome");
        out.counts = runGen(spec, params, *facts.balance);
        break;
    }
    out.checksum = countsChecksum(out.counts);

    long long pulses = 0;
    for (long long c : out.counts)
        pulses += c > 0 ? c : 0;
    out.stats.counter("svc/run/epochs")
        .inc(static_cast<std::uint64_t>(out.counts.size()));
    out.stats.counter("svc/run/pulses")
        .inc(static_cast<std::uint64_t>(pulses));
    return out;
}

std::string
resultToJson(const NetlistSpec &spec, const RunParams &params,
             const RunResult &result)
{
    obs::ArtifactPayload payload(std::string("svc_") +
                                 workloadKindName(spec.kind));
    payload.note("kind", workloadKindName(spec.kind));
    payload.note("name", spec.name);
    payload.note("backend", backendName(result.backend));
    payload.note("mode", spec.mode == DpuMode::Unipolar ? "unipolar"
                                                        : "bipolar");
    payload.note("seed", hexU64(params.seed));
    payload.note("checksum", hexU64(result.checksum));
    payload.metric("taps", spec.taps);
    payload.metric("bits", spec.bits);
    if (spec.kind == WorkloadKind::NocMesh) {
        payload.metric("grid_rows", spec.gridRows);
        payload.metric("grid_cols", spec.gridCols);
        payload.metric("tiles",
                       static_cast<double>(spec.gridRows) *
                           static_cast<double>(spec.gridCols));
    }
    payload.metric("epochs", static_cast<double>(result.counts.size()));
    payload.metric("total_jj", static_cast<double>(result.totalJJ),
                   "JJ");
    // batch/threads are deliberately absent: the wire format must be
    // byte-identical however the request was scheduled, so a cache hit
    // stored at one batch/thread setting serves any other verbatim.
    std::vector<double> series(result.counts.begin(),
                               result.counts.end());
    payload.series("counts", std::move(series));
    // Default (empty) host state: no wall-clock phases, no process log
    // counters -- the serialization is a pure function of the result.
    return payload.toJson(result.stats);
}

std::string
findingsToJson(const std::vector<LintFinding> &findings)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    std::size_t errors = 0;
    for (const LintFinding &f : findings)
        errors += f.waived ? 0 : 1;
    w.kv("errors", static_cast<std::uint64_t>(errors));
    w.key("findings").beginArray();
    for (const LintFinding &f : findings)
        writeFinding(w, f);
    w.endArray();
    w.endObject();
    return out;
}

std::string
staReportToJson(const StaReport &report)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    w.kv("errors", static_cast<std::uint64_t>(report.errors()));
    w.key("findings").beginArray();
    for (const LintFinding &f : report.findings)
        writeFinding(w, f);
    w.endArray();
    w.kv("required_stream_spacing_ticks",
         static_cast<std::int64_t>(report.requiredStreamSpacing));
    w.kv("max_stream_rate_hz", report.maxStreamRateHz());
    if (report.hasWorstSlack)
        w.kv("worst_slack_ticks",
             static_cast<std::int64_t>(report.worstSlack));
    w.key("critical_path").beginObject();
    w.kv("valid", report.criticalPath.valid);
    if (report.criticalPath.valid) {
        w.kv("startpoint", report.criticalPath.startpoint);
        w.kv("endpoint", report.criticalPath.endpoint);
        w.kv("length_ticks",
             static_cast<std::int64_t>(report.criticalPath.length));
        w.kv("hops", static_cast<std::uint64_t>(
                         report.criticalPath.hops.size()));
    }
    w.endObject();
    w.endObject();
    return out;
}

// --- Session -------------------------------------------------------------

Session::Session(NetlistSpec spec) : sp(std::move(spec)) {}

Session::~Session() = default;

Status
Session::failWith(Status status, std::string message)
{
    errMsg = std::move(message);
    return status;
}

template <typename Body>
Status
Session::armored(Status onFatal, Body &&body)
{
    ScopedFatalThrow guard;
    try {
        return body();
    } catch (const FatalError &e) {
        return failWith(onFatal, e.what());
    } catch (const std::exception &e) {
        return failWith(Status::Internal, e.what());
    }
}

Status
Session::build()
{
    if (nl != nullptr)
        return Status::Ok;
    std::string err;
    if (!sp.validate(&err))
        return failWith(Status::InvalidArg, err);
    return armored(Status::Internal, [&] {
        auto fresh = std::make_unique<Netlist>("svc");
        if (!buildDesign(sp, *fresh, &err, &balance))
            return failWith(Status::InvalidArg, err);
        nl = std::move(fresh);
        return Status::Ok;
    });
}

Status
Session::elaborate()
{
    if (const Status s = build(); s != Status::Ok)
        return s;
    if (elaborateOk)
        return Status::Ok;
    return armored(Status::LintError, [&] {
        lastFindings = nl->lint();
        if (std::string msg = unwaivedSummary(lastFindings, "lint");
            !msg.empty())
            return failWith(Status::LintError, std::move(msg));
        nl->elaborate();
        elaborateOk = true;
        return Status::Ok;
    });
}

Status
Session::analyzeTiming()
{
    if (const Status s = elaborate(); s != Status::Ok)
        return s;
    return armored(Status::StaError, [&] {
        // STA counters stay out of the process-global registry, which
        // sessions on other threads would share.
        obs::StatsRegistry staStats;
        obs::ScopedStatsRegistry statsGuard(staStats);
        StaOptions opts;
        opts.anchorMode = selfDriven(sp.kind)
                              ? StaOptions::AnchorMode::Stimulus
                              : StaOptions::AnchorMode::Zero;
        if (sp.kind == WorkloadKind::Gen) {
            // Generated datapaths pass the balancing pass's gated STA
            // before they ever reach a session (buildNetlist fails
            // otherwise), so the session view uses the same waiver set
            // the balancer certified (docs/synthesis.md).
            opts.waivers = gen::genStaOptions(sp.gen).waivers;
        }
        if (sp.kind == WorkloadKind::NocMesh)
            opts.waivers = noc::fabricStaOptions().waivers;
        if (opts.anchorMode == StaOptions::AnchorMode::Zero) {
            // Zero anchoring launches every input at t=0, so any two
            // reconvergent paths of equal depth "collide" by
            // construction; only the window/recovery structure is
            // meaningful, not pairwise pulse spacing.
            opts.waivers.emplace(
                LintRule::CollisionRisk,
                "zero-anchor STA: simultaneous launch makes pairwise "
                "spacing artificial");
            opts.waivers.emplace(
                LintRule::SetupHoldViolation,
                "zero-anchor STA: simultaneous launch makes capture "
                "alignment artificial");
        }
        sta = std::make_unique<StaReport>(runSta(*nl, opts));
        lastFindings = sta->findings;
        if (std::string msg = unwaivedSummary(sta->findings, "timing");
            !msg.empty())
            return failWith(Status::StaError, std::move(msg));
        return Status::Ok;
    });
}

Status
Session::run(const RunParams &params, RunResult &out,
             const DesignFacts *facts)
{
    std::string err;
    if (!sp.validate(&err))
        return failWith(Status::InvalidArg, err);
    if (!params.validate(&err))
        return failWith(Status::InvalidArg, err);
    if (params.backend == Backend::PulseLevel) {
        if (sp.kind == WorkloadKind::Dpu && sp.taps > 64)
            return failWith(Status::Unsupported,
                            "pulse-level DPU runs support up to 64 "
                            "(padded) taps; use the functional backend");
        if (sp.kind == WorkloadKind::Fir &&
            sp.mode != DpuMode::Unipolar)
            return failWith(Status::Unsupported,
                            "pulse-level FIR runs are unipolar-only; "
                            "use the functional backend");
        if (sp.kind == WorkloadKind::Fir && sp.bits > 8)
            return failWith(Status::Unsupported,
                            "pulse-level FIR runs support up to 8 "
                            "bits; use the functional backend");
        if (sp.kind == WorkloadKind::NocMesh &&
            sp.gridRows * sp.gridCols > 64)
            return failWith(Status::Unsupported,
                            "pulse-level NoC runs support up to 64 "
                            "tiles; use the functional backend");
    }
    return armored(Status::RunError, [&] {
        out = facts != nullptr ? runWorkload(sp, params, *facts)
                               : runWorkload(sp, params);
        return Status::Ok;
    });
}

Status
Session::contentHash(std::uint64_t &out)
{
    if (const Status s = elaborate(); s != Status::Ok)
        return s;
    return armored(Status::Internal, [&] {
        out = structuralHash(*nl);
        return Status::Ok;
    });
}

Status
Session::designFacts(DesignFacts &out)
{
    std::uint64_t structural = 0;
    if (const Status st = contentHash(structural); st != Status::Ok)
        return st;
    out.structural = structural;
    out.totalJJ = nl->totalJJs();
    out.balance = balance;
    return Status::Ok;
}

} // namespace usfq::api
