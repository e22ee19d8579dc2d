/**
 * @file
 * Generator differential tier (ctest label `gen`): an unbounded supply
 * of circuits nobody hand-wrote.  Seeded random DesignSpecs compile
 * through the balancing pass, must elaborate lint-clean, must pass the
 * checked STA gate under genStaOptions(), and their pulse-level
 * simulation must match the functional slot-algebra mirror exactly --
 * per-epoch counts and the order-sensitive digest.  A facade slice
 * re-runs a subset through the service layer and pins the scalar /
 * batched / multi-threaded engine contracts bit for bit, and every
 * spec's memoisable api::DesignFacts must equal a fresh compile.
 *
 * 500 specs is the documented floor (docs/synthesis.md); the spec
 * space is the randomDesignSpec() distribution, so every tree kind,
 * encoding, shape and balancing style appears many times.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "api/facade.hh"
#include "api/spec.hh"
#include "gen/balance.hh"
#include "gen/datapath.hh"
#include "gen/functional.hh"
#include "gen/spec.hh"
#include "sim/elaborate.hh"
#include "sim/netlist.hh"
#include "sta/sta.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace usfq::gen
{
namespace
{

constexpr int kSpecs = 500;
constexpr int kEpochsPerSpec = 2;
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::string
describe(const DesignSpec &s)
{
    return std::string("lanes=") + std::to_string(s.lanes) +
           " bits=" + std::to_string(s.bits) +
           " P=" + std::to_string(s.clockPeriodPs) +
           " tree=" + treeKindName(s.tree) +
           " enc=" + streamEncodingName(s.encoding) +
           " shape=" + laneShapeName(s.shape) +
           " bal=" + balanceStyleName(s.balance) +
           " seed=" + std::to_string(s.shapeSeed);
}

TEST(GenDifferential, RandomSpecsPulseVsFunctional)
{
    Rng rng(0x9e3779b9ULL);
    std::map<std::string, int> coverage;
    std::uint64_t pulseDigest = kFnvBasis;
    std::uint64_t funcDigest = kFnvBasis;
    long long insertedTotal = 0;

    for (int i = 0; i < kSpecs; ++i) {
        const DesignSpec spec = randomDesignSpec(rng);
        const std::string what =
            "spec " + std::to_string(i) + " (" + describe(spec) + ")";
        coverage[std::string(treeKindName(spec.tree)) + "/" +
                 streamEncodingName(spec.encoding) + "/" +
                 laneShapeName(spec.shape)]++;

        // Compile: every random spec is feasible by construction.
        const BalanceOutcome bo = balanceDesign(spec);
        ASSERT_TRUE(bo.converged())
            << what << ": " << balanceStatusName(bo.status) << ": "
            << bo.detail;
        EXPECT_EQ(bo.residualSkew, 0) << what;
        insertedTotal += bo.insertedJJ;

        // Lint-clean elaboration and the checked STA gate.  The
        // balancer certified both internally; this re-runs them from
        // the outside so a regression in either cannot hide behind a
        // stale Converged status.
        {
            Netlist nl("dut");
            auto &dp = nl.create<StreamDatapath>("dp", spec, bo.plan);
            dp.programEpoch({spec.nmax(), {}});
            for (const LintFinding &f : nl.lint())
                EXPECT_TRUE(f.waived)
                    << what << ": unwaived lint finding: " << f.message;
            ASSERT_NO_THROW({
                ScopedFatalThrow guard;
                runStaChecked(nl, genStaOptions(spec));
            }) << what;
        }

        // Pulse vs functional, exact per-epoch counts + digests.
        for (int e = 0; e < kEpochsPerSpec; ++e) {
            const std::uint64_t seed =
                0xabcdULL + 1000ULL * static_cast<std::uint64_t>(i) +
                static_cast<std::uint64_t>(e);
            const EpochInputs in = drawEpochInputs(spec, seed);
            const long long p = runPulseEpoch(spec, bo.plan, in);
            const EpochEval f = evalEpoch(spec, in);
            ASSERT_EQ(p, f.count)
                << what << " epoch " << e << " n=" << in.n;
            pulseDigest =
                hashFold(pulseDigest, static_cast<std::uint64_t>(p));
            funcDigest = hashFold(funcDigest,
                                  static_cast<std::uint64_t>(f.count));
        }
    }

    EXPECT_EQ(pulseDigest, funcDigest);
    // The random distribution must actually exercise the space: every
    // tree kind with at least two shapes and both encodings somewhere.
    EXPECT_GE(coverage.size(), 12u)
        << "random spec distribution collapsed";
    EXPECT_GT(insertedTotal, 0)
        << "no random spec ever needed balancing padding";
}

TEST(GenDifferential, DesignFactsMatchAFreshCompile)
{
    // The facts a service memoises per spec (api::DesignFacts) must be
    // exactly what a fresh compile gives, and running from them must be
    // bit-identical to the self-contained run -- on every random spec.
    Rng rng(0x9e3779b9ULL);
    for (int i = 0; i < kSpecs; ++i) {
        api::NetlistSpec sp;
        sp.kind = api::WorkloadKind::Gen;
        sp.name = "gfacts";
        sp.gen = randomDesignSpec(rng);
        const std::string what =
            "spec " + std::to_string(i) + " (" + describe(sp.gen) + ")";

        api::Session session(sp);
        api::DesignFacts facts;
        ASSERT_EQ(session.designFacts(facts), api::Status::Ok)
            << what << ": " << session.lastError();
        ASSERT_TRUE(facts.balance.has_value()) << what;
        EXPECT_TRUE(*facts.balance == balanceDesign(sp.gen)) << what;

        Netlist scratch;
        ASSERT_TRUE(api::buildNetlist(sp, scratch)) << what;
        EXPECT_EQ(facts.totalJJ, scratch.totalJJs()) << what;

        api::RunParams params;
        params.epochs = kEpochsPerSpec;
        params.seed = 0xfac7ULL + static_cast<std::uint64_t>(i);
        const api::RunResult direct = api::runWorkload(sp, params);
        const api::RunResult fromFacts =
            api::runWorkload(sp, params, facts);
        EXPECT_EQ(fromFacts.counts, direct.counts) << what;
        EXPECT_EQ(fromFacts.checksum, direct.checksum) << what;
        EXPECT_EQ(fromFacts.totalJJ, direct.totalJJ) << what;
    }
}

TEST(GenDifferential, FacadeBatchedAndThreadedBitIdentity)
{
    // A facade slice: scalar functional == batched == multi-threaded
    // == pulse-level, counts and checksum, through api::runWorkload.
    Rng rng(0x51f0ULL);
    for (int i = 0; i < 16; ++i) {
        api::NetlistSpec sp;
        sp.kind = api::WorkloadKind::Gen;
        sp.name = "gdiff";
        sp.gen = randomDesignSpec(rng);
        const std::string what =
            "spec " + std::to_string(i) + " (" + describe(sp.gen) + ")";

        api::RunParams params;
        params.epochs = 8;
        params.seed = 0xc0ffeeULL + static_cast<std::uint64_t>(i);

        params.backend = Backend::Functional;
        const api::RunResult scalar = api::runWorkload(sp, params);

        params.batch = 4;
        const api::RunResult batched = api::runWorkload(sp, params);

        params.threads = 4;
        const api::RunResult threaded = api::runWorkload(sp, params);

        params.batch = 1;
        params.threads = 1;
        params.backend = Backend::PulseLevel;
        const api::RunResult pulse = api::runWorkload(sp, params);

        ASSERT_EQ(scalar.counts, batched.counts) << what;
        ASSERT_EQ(scalar.counts, threaded.counts) << what;
        ASSERT_EQ(scalar.counts, pulse.counts) << what;
        EXPECT_EQ(scalar.checksum, pulse.checksum) << what;
        EXPECT_EQ(scalar.checksum, batched.checksum) << what;
        EXPECT_EQ(scalar.checksum, threaded.checksum) << what;
        EXPECT_EQ(scalar.totalJJ, pulse.totalJJ) << what;
        EXPECT_GT(scalar.totalJJ, 0) << what;
    }
}

TEST(GenDifferential, SpecHashMatchesStructuralIdentity)
{
    // Equal specs must hash equal and build structurally identical
    // netlists; a mutated spec must move the spec hash.
    Rng rng(0xd1ceULL);
    for (int i = 0; i < 8; ++i) {
        api::NetlistSpec sp;
        sp.kind = api::WorkloadKind::Gen;
        sp.name = "ghash";
        sp.gen = randomDesignSpec(rng);

        api::Session a(sp), b(sp);
        std::uint64_t ha = 0, hb = 0;
        ASSERT_EQ(a.contentHash(ha), api::Status::Ok) << a.lastError();
        ASSERT_EQ(b.contentHash(hb), api::Status::Ok) << b.lastError();
        EXPECT_EQ(ha, hb);
        EXPECT_EQ(api::specHash(sp), api::specHash(sp));

        api::NetlistSpec mut = sp;
        mut.gen.shapeSeed ^= 0x8000000000000000ULL;
        EXPECT_NE(api::specHash(mut), api::specHash(sp));
    }
}

} // namespace
} // namespace usfq::gen
