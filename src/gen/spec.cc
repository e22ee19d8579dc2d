#include "gen/spec.hh"

#include "util/hash.hh"
#include "util/random.hh"

namespace usfq::gen
{

namespace
{

bool
fail(std::string *err, const std::string &message)
{
    if (err != nullptr)
        *err = message;
    return false;
}

/** Per-lane generator of the Random shape: a lane's draws depend only
 *  on (shapeSeed, lane), never on the order lanes are profiled in. */
Rng
laneRng(const DesignSpec &spec, int lane)
{
    return Rng(spec.shapeSeed +
               0x9e3779b97f4a7c15ULL *
                   static_cast<std::uint64_t>(lane + 1));
}

} // namespace

const char *
treeKindName(TreeKind kind)
{
    switch (kind) {
    case TreeKind::Balancer:
        return "balancer";
    case TreeKind::Merger:
        return "merger";
    case TreeKind::Tff2:
        return "tff2";
    }
    return "?";
}

bool
parseTreeKind(const std::string &s, TreeKind &out)
{
    if (s == "balancer")
        out = TreeKind::Balancer;
    else if (s == "merger")
        out = TreeKind::Merger;
    else if (s == "tff2")
        out = TreeKind::Tff2;
    else
        return false;
    return true;
}

const char *
streamEncodingName(StreamEncoding encoding)
{
    return encoding == StreamEncoding::Unipolar ? "unipolar"
                                                : "bipolar";
}

bool
parseStreamEncoding(const std::string &s, StreamEncoding &out)
{
    if (s == "unipolar")
        out = StreamEncoding::Unipolar;
    else if (s == "bipolar")
        out = StreamEncoding::Bipolar;
    else
        return false;
    return true;
}

const char *
laneShapeName(LaneShape shape)
{
    switch (shape) {
    case LaneShape::Balanced:
        return "balanced";
    case LaneShape::Skewed:
        return "skewed";
    case LaneShape::Random:
        return "random";
    }
    return "?";
}

bool
parseLaneShape(const std::string &s, LaneShape &out)
{
    if (s == "balanced")
        out = LaneShape::Balanced;
    else if (s == "skewed")
        out = LaneShape::Skewed;
    else if (s == "random")
        out = LaneShape::Random;
    else
        return false;
    return true;
}

const char *
balanceStyleName(BalanceStyle style)
{
    return style == BalanceStyle::Jtl ? "jtl" : "register";
}

bool
parseBalanceStyle(const std::string &s, BalanceStyle &out)
{
    if (s == "jtl")
        out = BalanceStyle::Jtl;
    else if (s == "register")
        out = BalanceStyle::Register;
    else
        return false;
    return true;
}

int
DesignSpec::dividersOf(int lane) const
{
    switch (shape) {
    case LaneShape::Balanced:
        return 0;
    case LaneShape::Skewed:
        return lane % (maxDividers + 1);
    case LaneShape::Random:
        break;
    }
    Rng rng = laneRng(*this, lane);
    return static_cast<int>(rng.uniformInt(0, maxDividers));
}

int
DesignSpec::skewJtlsOf(int lane) const
{
    switch (shape) {
    case LaneShape::Balanced:
        return 0;
    case LaneShape::Skewed:
        return (lane % 4) * skewStep;
    case LaneShape::Random:
        break;
    }
    Rng rng = laneRng(*this, lane);
    (void)rng.uniformInt(0, maxDividers); // dividersOf draws first
    return static_cast<int>(rng.uniformInt(0, 3 * skewStep));
}

Tick
DesignSpec::slotPeriod() const
{
    return static_cast<Tick>(clockPeriodPs) * kPicosecond;
}

bool
DesignSpec::validate(std::string *err) const
{
    if (lanes < 2 || lanes > 64 || (lanes & (lanes - 1)) != 0)
        return fail(err, "gen: lanes must be a power of two in [2, 64]");
    if (bits < 1 || bits > 8)
        return fail(err, "gen: bits must be in [1, 8]");
    if (clockPeriodPs < 4 || clockPeriodPs > 200)
        return fail(err,
                    "gen: clock_period_ps must be in [4, 200]");
    if (maxDividers < 0 || maxDividers > 3)
        return fail(err, "gen: max_dividers must be in [0, 3]");
    if (skewStep < 0 || skewStep > 6)
        return fail(err, "gen: skew_step must be in [0, 6]");
    if (balanceBudgetJJ < 0 || balanceBudgetJJ > (1 << 20))
        return fail(err,
                    "gen: balance_budget_jj must be in [0, 2^20]");
    if (encoding == StreamEncoding::Bipolar &&
        balance == BalanceStyle::Register)
        return fail(err, "gen: bipolar lanes are already re-timed at "
                         "the complement inverter; use balance=jtl");
    return true;
}

void
designSpecToJson(const DesignSpec &spec, JsonWriter &w)
{
    w.beginObject();
    w.kv("lanes", spec.lanes);
    w.kv("bits", spec.bits);
    w.kv("clock_period_ps", spec.clockPeriodPs);
    w.kv("encoding", streamEncodingName(spec.encoding));
    w.kv("tree", treeKindName(spec.tree));
    w.kv("shape", laneShapeName(spec.shape));
    w.kv("balance", balanceStyleName(spec.balance));
    w.kv("max_dividers", spec.maxDividers);
    w.kv("skew_step", spec.skewStep);
    w.kv("shape_seed", spec.shapeSeed);
    w.kv("balance_budget_jj", spec.balanceBudgetJJ);
    w.endObject();
}

bool
designSpecFromJson(const JsonValue &obj, DesignSpec &out,
                   std::string *err)
{
    if (!obj.isObject())
        return fail(err, "gen: spec must be a JSON object");
    DesignSpec s;
    std::string enc = streamEncodingName(s.encoding);
    std::string tree = treeKindName(s.tree);
    std::string shape = laneShapeName(s.shape);
    std::string bal = balanceStyleName(s.balance);
    std::string bad;
    if (!obj.member("lanes", s.lanes, &bad) ||
        !obj.member("bits", s.bits, &bad) ||
        !obj.member("clock_period_ps", s.clockPeriodPs, &bad) ||
        !obj.member("encoding", enc, &bad) ||
        !obj.member("tree", tree, &bad) ||
        !obj.member("shape", shape, &bad) ||
        !obj.member("balance", bal, &bad) ||
        !obj.member("max_dividers", s.maxDividers, &bad) ||
        !obj.member("skew_step", s.skewStep, &bad) ||
        !obj.member("shape_seed", s.shapeSeed, &bad) ||
        !obj.member("balance_budget_jj", s.balanceBudgetJJ, &bad))
        return fail(err, "gen: " + bad);
    if (!parseStreamEncoding(enc, s.encoding))
        return fail(err, "gen: unknown encoding '" + enc + "'");
    if (!parseTreeKind(tree, s.tree))
        return fail(err, "gen: unknown tree '" + tree + "'");
    if (!parseLaneShape(shape, s.shape))
        return fail(err, "gen: unknown shape '" + shape + "'");
    if (!parseBalanceStyle(bal, s.balance))
        return fail(err, "gen: unknown balance '" + bal + "'");
    out = s;
    return true;
}

std::uint64_t
designSpecHash(std::uint64_t h, const DesignSpec &spec)
{
    h = fnvU64(h, static_cast<std::uint64_t>(spec.lanes));
    h = fnvU64(h, static_cast<std::uint64_t>(spec.bits));
    h = fnvU64(h, static_cast<std::uint64_t>(spec.clockPeriodPs));
    h = fnvU64(h, static_cast<std::uint64_t>(spec.encoding));
    h = fnvU64(h, static_cast<std::uint64_t>(spec.tree));
    h = fnvU64(h, static_cast<std::uint64_t>(spec.shape));
    h = fnvU64(h, static_cast<std::uint64_t>(spec.balance));
    h = fnvU64(h, static_cast<std::uint64_t>(spec.maxDividers));
    h = fnvU64(h, static_cast<std::uint64_t>(spec.skewStep));
    h = fnvU64(h, spec.shapeSeed);
    h = fnvU64(h, static_cast<std::uint64_t>(spec.balanceBudgetJJ));
    return h;
}

DesignSpec
randomDesignSpec(Rng &rng)
{
    DesignSpec s;
    s.lanes = 1 << rng.uniformInt(1, 4); // 2..16: fast to pulse-simulate
    s.bits = static_cast<int>(rng.uniformInt(2, 6));
    const int kind = static_cast<int>(rng.uniformInt(0, 2));
    s.tree = kind == 0   ? TreeKind::Balancer
             : kind == 1 ? TreeKind::Merger
                         : TreeKind::Tff2;
    // Period is drawn above the tree's slot-grid precondition
    // (docs/synthesis.md): the differential tier wants every spec to
    // converge; infeasible periods are fig20's job to explore.
    static const int kPeriods[] = {12, 16, 20, 24};
    static const int kSlowPeriods[] = {20, 24, 28, 32};
    s.clockPeriodPs =
        s.tree == TreeKind::Tff2
            ? kSlowPeriods[rng.uniformInt(0, 3)]
            : kPeriods[rng.uniformInt(0, 3)];
    s.encoding = rng.bernoulli(0.5) ? StreamEncoding::Unipolar
                                    : StreamEncoding::Bipolar;
    const int shape = static_cast<int>(rng.uniformInt(0, 2));
    s.shape = shape == 0   ? LaneShape::Balanced
              : shape == 1 ? LaneShape::Skewed
                           : LaneShape::Random;
    s.balance = s.encoding == StreamEncoding::Bipolar
                    ? BalanceStyle::Jtl
                : rng.bernoulli(0.5) ? BalanceStyle::Jtl
                                     : BalanceStyle::Register;
    s.maxDividers = static_cast<int>(rng.uniformInt(0, 2));
    s.skewStep = static_cast<int>(rng.uniformInt(0, 4));
    s.shapeSeed = rng.next();
    s.balanceBudgetJJ = 4096;
    return s;
}

} // namespace usfq::gen
