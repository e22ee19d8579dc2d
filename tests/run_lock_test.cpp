/**
 * @file
 * Run-path bit-identity lock (ctest label `svc`): digests of
 * api::resultToJson(runWorkload(...)) -- per-epoch counts, checksum,
 * JJ area and the run's whole stats registry (NoC fabric telemetry
 * included) -- over every usfq_serve request template on both engines.
 *
 * Each case folds, in a fixed order, the response documents of
 *  - the template's own epoch count and a scaled one (>= 192
 *    functional epochs, >= 18 pulse-level),
 *  - three seeds,
 * and asserts that every other schedule of the same run -- batch
 * widths 4 and 8 (functional only: RunParams::validate rejects batch
 * > 1 on the pulse engine) and 3 sweep threads -- produces the same
 * bytes.  Two extra cases sit at the engines' size limits: a
 * functional 8x8 NoC mesh and a pulse-level DPU with 64 taps.
 *
 * The pinned values lock what a run computes, independent of how the
 * engines are organised (per-epoch rebuilds or per-worker rigs,
 * per-epoch or per-sweep telemetry export).  A deliberate change to a
 * workload's outputs re-pins them; the failure message prints the new
 * value.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "api/facade.hh"
#include "api/spec.hh"
#include "gen/spec.hh"

namespace usfq
{
namespace
{

api::NetlistSpec
component(api::WorkloadKind kind, const char *name, int taps, int bits,
          DpuMode mode)
{
    api::NetlistSpec s;
    s.kind = kind;
    s.name = name;
    s.taps = taps;
    s.bits = bits;
    s.mode = mode;
    return s;
}

api::NetlistSpec
generated(const char *name, int lanes, int bits, int period,
          gen::TreeKind tree)
{
    api::NetlistSpec s = component(api::WorkloadKind::Gen, name, 16, 8,
                                   DpuMode::Bipolar);
    s.gen.lanes = lanes;
    s.gen.bits = bits;
    s.gen.clockPeriodPs = period;
    s.gen.tree = tree;
    s.gen.shape = gen::LaneShape::Skewed;
    return s;
}

api::NetlistSpec
mesh(const char *name, int side)
{
    api::NetlistSpec s = component(api::WorkloadKind::NocMesh, name, 2,
                                   4, DpuMode::Bipolar);
    s.gridRows = side;
    s.gridCols = side;
    return s;
}

api::NetlistSpec
inverter()
{
    api::NetlistSpec s = component(api::WorkloadKind::Inverter,
                                   "inv111", 16, 8, DpuMode::Bipolar);
    s.clockPeriodPs = 12.0;
    s.clockCount = 64;
    return s;
}

/** The usfq_serve request templates: spec and base epoch count. */
struct Template
{
    const char *tag;
    api::NetlistSpec spec;
    int epochs;
};

std::vector<Template>
serveTemplates()
{
    using K = api::WorkloadKind;
    const auto Bi = DpuMode::Bipolar;
    const auto Uni = DpuMode::Unipolar;
    return {
        {"dpu16", component(K::Dpu, "dpu16", 16, 6, Bi), 32},
        {"dpu8u", component(K::Dpu, "dpu8u", 8, 5, Uni), 24},
        {"pe5", component(K::Pe, "pe5", 16, 5, Bi), 24},
        {"fir4", component(K::Fir, "fir4", 4, 6, Uni), 24},
        {"inv111", inverter(), 16},
        {"mesh4x4", mesh("mesh4x4", 4), 8},
        {"gen8x5", generated("gen8x5", 8, 5, 20, gen::TreeKind::Merger),
         16},
        {"dpu4a", component(K::Dpu, "dpu4a", 4, 4, Bi), 4},
        {"pe4a", component(K::Pe, "pe4a", 16, 4, Bi), 3},
        {"fir3a", component(K::Fir, "fir3a", 3, 5, Uni), 6},
        {"gen4x4a",
         generated("gen4x4a", 4, 4, 24, gen::TreeKind::Balancer), 4},
        {"mesh2x2a", mesh("mesh2x2a", 2), 2},
    };
}

/** Pinned digests, one per design and engine. */
struct Pin
{
    const char *name;
    std::uint64_t digest;
};

constexpr Pin kPins[] = {
    {"dpu16_functional", 0x8e954ae06a3544caULL},
    {"dpu16_pulse", 0x8ee4e5f98b74c784ULL},
    {"dpu8u_functional", 0xf2f369273e33bd22ULL},
    {"dpu8u_pulse", 0x769ae32a4a0dce90ULL},
    {"pe5_functional", 0x74726e4f29892c31ULL},
    {"pe5_pulse", 0x42593c59707b6de3ULL},
    {"fir4_functional", 0x53afa126e4e9baddULL},
    {"fir4_pulse", 0x010077ba8f2acfb2ULL},
    {"inv111_functional", 0x654717b823db9dc5ULL},
    {"inv111_pulse", 0x83fc14bd403b956dULL},
    {"mesh4x4_functional", 0x53efae3532965e2bULL},
    {"mesh4x4_pulse", 0x79d5cae0009245d1ULL},
    {"gen8x5_functional", 0xe36465456a119976ULL},
    {"gen8x5_pulse", 0x6a5721607fbd35f9ULL},
    {"dpu4a_functional", 0xa62f7953e6d2762aULL},
    {"dpu4a_pulse", 0x6a2f93f40a87edf9ULL},
    {"pe4a_functional", 0x7643e3ee57492ec2ULL},
    {"pe4a_pulse", 0xc3c70e1246b01f64ULL},
    {"fir3a_functional", 0x2be11628325bae06ULL},
    {"fir3a_pulse", 0xf0468ae2529f3dcfULL},
    {"gen4x4a_functional", 0x2a460a95e113a469ULL},
    {"gen4x4a_pulse", 0x95fcdac3f458f059ULL},
    {"mesh2x2a_functional", 0xb52cff9d06120a20ULL},
    {"mesh2x2a_pulse", 0x981bd4e275b58df9ULL},
    {"mesh8x8_functional", 0xc928f16aac5f1631ULL},
    {"dpu64_pulse", 0x93dcda2c8221b0f9ULL},
};

std::uint64_t
pinFor(const std::string &name)
{
    for (const Pin &p : kPins)
        if (name == p.name)
            return p.digest;
    return 0;
}

constexpr std::uint64_t kSeeds[] = {0x5eedULL, 0xfeedULL,
                                    0x9e3779b97f4a7c15ULL};

std::uint64_t
fnvStr(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
runJson(const api::NetlistSpec &spec, const api::RunParams &params)
{
    return api::resultToJson(spec, params,
                             api::runWorkload(spec, params));
}

/**
 * Fold every response of one design on one engine and compare the
 * digest with its pin, asserting along the way that the other batch
 * widths and thread counts produce the same bytes.
 */
void
expectPinned(const std::string &tag, const api::NetlistSpec &spec,
             Backend backend, int base_epochs)
{
    const bool functional = backend == Backend::Functional;
    const std::string name =
        tag + (functional ? "_functional" : "_pulse");
    const int scaled = functional ? 192 : 18;
    const std::vector<int> batches =
        functional ? std::vector<int>{1, 4, 8} : std::vector<int>{1};

    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (const int epochs : {base_epochs, scaled}) {
        for (const std::uint64_t seed : kSeeds) {
            api::RunParams params;
            params.backend = backend;
            params.epochs = epochs;
            params.seed = seed;
            const std::string reference = runJson(spec, params);
            digest = fnvStr(digest, reference);
            for (const int batch : batches) {
                for (const int threads : {1, 3}) {
                    if (batch == 1 && threads == 1)
                        continue;
                    api::RunParams p = params;
                    p.batch = batch;
                    p.threads = threads;
                    EXPECT_TRUE(runJson(spec, p) == reference)
                        << name << ": epochs " << epochs << " seed "
                        << seed << " batch " << batch << " threads "
                        << threads << " differs from batch 1 threads 1";
                }
            }
        }
    }
    char hex[19];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, pinFor(name)) << name << ": run digest is now "
                                    << hex;
}

/** Both engines of one usfq_serve template. */
void
expectTemplatePinned(const std::string &tag)
{
    for (const Template &t : serveTemplates()) {
        if (tag == t.tag) {
            expectPinned(tag, t.spec, Backend::Functional, t.epochs);
            expectPinned(tag, t.spec, Backend::PulseLevel, t.epochs);
            return;
        }
    }
    FAIL() << "no serve template " << tag;
}

// The serve mix also repeats dpu16 at another batch width, thread
// count and seed; the matrix covers those, so one test per design.
TEST(RunLock, Dpu16) { expectTemplatePinned("dpu16"); }
TEST(RunLock, Dpu8u) { expectTemplatePinned("dpu8u"); }
TEST(RunLock, Pe5) { expectTemplatePinned("pe5"); }
TEST(RunLock, Fir4) { expectTemplatePinned("fir4"); }
TEST(RunLock, Inv111) { expectTemplatePinned("inv111"); }
TEST(RunLock, Mesh4x4) { expectTemplatePinned("mesh4x4"); }
TEST(RunLock, Gen8x5) { expectTemplatePinned("gen8x5"); }
TEST(RunLock, Dpu4a) { expectTemplatePinned("dpu4a"); }
TEST(RunLock, Pe4a) { expectTemplatePinned("pe4a"); }
TEST(RunLock, Fir3a) { expectTemplatePinned("fir3a"); }
TEST(RunLock, Gen4x4a) { expectTemplatePinned("gen4x4a"); }
TEST(RunLock, Mesh2x2a) { expectTemplatePinned("mesh2x2a"); }

TEST(RunLock, FunctionalMesh8x8)
{
    expectPinned("mesh8x8", mesh("mesh8x8", 8), Backend::Functional, 8);
}

TEST(RunLock, PulseDpuAtTheTapLimit)
{
    expectPinned("dpu64",
                 component(api::WorkloadKind::Dpu, "dpu64", 64, 4,
                           DpuMode::Bipolar),
                 Backend::PulseLevel, 4);
}

} // namespace
} // namespace usfq
