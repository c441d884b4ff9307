/**
 * @file
 * Differential proof that every compiled-and-runnable SIMD variant of
 * the tiered span kernels is bit-, stat- and energy-exact against the
 * legacy scalar datapath — the same guarantee test_datapath_tiered
 * establishes for the dispatcher's default pick, here swept across
 * every ISA this binary carries via force_simd_level. Also covers the
 * conv-table invalidation edges the SoA rewrite must preserve:
 * pristine rows are served from the shared tables, each mid-batch
 * LUT-row rewrite forces one private reseed (observable through
 * Bce::convTableSeeds), a stale generation is never served, and a
 * poisoned engine never leaks into another engine's shared tables.
 */

#include <gtest/gtest.h>

#include <barrier>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bce/bce.hh"
#include "bce/simd_kernels.hh"
#include "lut/datapath_table.hh"
#include "sim/cpuid.hh"

using namespace bfree;
using bce::BceMode;
using bce::ExecTier;

namespace {

/** One self-contained BCE rig at a chosen execution tier. */
struct Engine
{
    tech::CacheGeometry geom{};
    tech::TechParams tech{};
    mem::EnergyAccount account;
    mem::Subarray subarray{geom, tech, account};
    bce::Bce bce{subarray, tech, account};

    explicit Engine(ExecTier tier)
    {
        bce.setTier(tier);
        bce.loadMultLutImage();
    }
};

void
expect_stats_equal(const bce::BceStats &a, const bce::BceStats &b,
                   const std::string &ctx)
{
    EXPECT_EQ(a.cycles, b.cycles) << ctx;
    EXPECT_EQ(a.macs, b.macs) << ctx;
    EXPECT_EQ(a.counts.lutLookups, b.counts.lutLookups) << ctx;
    EXPECT_EQ(a.counts.romLookups, b.counts.romLookups) << ctx;
    EXPECT_EQ(a.counts.shifts, b.counts.shifts) << ctx;
    EXPECT_EQ(a.counts.adds, b.counts.adds) << ctx;
    EXPECT_EQ(a.counts.cycles, b.counts.cycles) << ctx;
    EXPECT_EQ(a.lutReadsPim, b.lutReadsPim) << ctx;
    EXPECT_EQ(a.lutReadsCache, b.lutReadsCache) << ctx;
}

/** Flush both engines and require bit-identical joules per category. */
void
expect_engines_identical(Engine &legacy, Engine &simd,
                         const std::string &ctx)
{
    expect_stats_equal(legacy.bce.stats(), simd.bce.stats(), ctx);
    legacy.bce.flushEnergy();
    simd.bce.flushEnergy();
    for (std::size_t c = 0; c < mem::num_energy_categories; ++c) {
        const auto cat = static_cast<mem::EnergyCategory>(c);
        EXPECT_EQ(legacy.account.joules(cat), simd.account.joules(cat))
            << ctx << " energy category " << c;
    }
}

/** Deterministic int8 test vector (no RNG dependence). */
std::vector<std::int8_t>
pattern(std::size_t n, int seed, int limit = 127)
{
    std::vector<std::int8_t> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        const int r = static_cast<int>((i * 37 + seed * 101) % 1000);
        v[i] = static_cast<std::int8_t>(r % (2 * limit + 1) - limit);
    }
    return v;
}

/**
 * Run @p body once per (SIMD level, tally strategy) pair this binary
 * carries and this CPU can execute, with both dispatchers pinned;
 * always restores the environment-resolved choices afterwards. The
 * tally sweep is what proves the gather-free histogram kernels and
 * the gather fallback byte-identical on every ISA — eligibility is a
 * per-table decision, so both strategies must hold on the same data.
 */
template <typename Body>
void
for_each_runnable_level(Body &&body)
{
    for (const sim::SimdLevel level :
         {sim::SimdLevel::Scalar, sim::SimdLevel::Avx2,
          sim::SimdLevel::Avx512}) {
        if (!sim::simd_level_compiled(level)
            || !sim::simd_level_supported(level))
            continue;
        sim::force_simd_level(level);
        for (const bce::simd::TallyMode tally :
             {bce::simd::TallyMode::Histogram,
              bce::simd::TallyMode::Gather}) {
            bce::simd::force_tally_mode(tally);
            body(level);
        }
    }
    bce::simd::reset_tally_mode();
    sim::reset_simd_level();
}

} // namespace

// ---------------------------------------------------------------------
// Full operand spaces, every runnable ISA
// ---------------------------------------------------------------------

TEST(SimdKernels, Conv8BitFullOperandSpaceExactAtEveryLevel)
{
    // All 256x256 int8 pairs laid out as one long span per operand
    // row: the exact workload the vector loop, its blocked tally and
    // its tail handling must reproduce.
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        Engine legacy(ExecTier::Legacy);
        Engine simd(ExecTier::Tiered);
        std::vector<std::int8_t> a(256), b(256);
        for (int row = -128; row <= 127; ++row) {
            for (int col = -128; col <= 127; ++col) {
                a[static_cast<std::size_t>(col + 128)] =
                    static_cast<std::int8_t>(row);
                b[static_cast<std::size_t>(col + 128)] =
                    static_cast<std::int8_t>(col);
            }
            ASSERT_EQ(
                legacy.bce.dotProductSpan(a.data(), b.data(), 256, 8),
                simd.bce.dotProductSpan(a.data(), b.data(), 256, 8))
                << ctx << " row " << row;
        }
        expect_engines_identical(legacy, simd, ctx);
    });
}

TEST(SimdKernels, Matmul8BitFullOperandSpaceExactAtEveryLevel)
{
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        Engine legacy(ExecTier::Legacy);
        Engine simd(ExecTier::Tiered);
        legacy.bce.setMode(BceMode::Matmul);
        simd.bce.setMode(BceMode::Matmul);
        std::vector<std::int8_t> a(256), b(256);
        for (int row = -128; row <= 127; ++row) {
            for (int col = -128; col <= 127; ++col) {
                a[static_cast<std::size_t>(col + 128)] =
                    static_cast<std::int8_t>(row);
                b[static_cast<std::size_t>(col + 128)] =
                    static_cast<std::int8_t>(col);
            }
            ASSERT_EQ(
                legacy.bce.matmulDotSpan(a.data(), b.data(), 256, 8),
                simd.bce.matmulDotSpan(a.data(), b.data(), 256, 8))
                << ctx << " row " << row;
        }
        expect_engines_identical(legacy, simd, ctx);
    });
}

TEST(SimdKernels, Conv4BitClampsOutOfRangeExactlyAtEveryLevel)
{
    // 4-bit conv spans clamp to [-8, 7]; feed well-out-of-range int8
    // values so every lane exercises the clamp.
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        Engine legacy(ExecTier::Legacy);
        Engine simd(ExecTier::Tiered);
        const std::vector<std::int8_t> a = pattern(777, 31, 127);
        const std::vector<std::int8_t> b = pattern(777, 32, 127);
        ASSERT_EQ(
            legacy.bce.dotProductSpan(a.data(), b.data(), a.size(), 4),
            simd.bce.dotProductSpan(a.data(), b.data(), a.size(), 4))
            << ctx;
        expect_engines_identical(legacy, simd, ctx);
    });
}

TEST(SimdKernels, Matmul4BitInDomainExactAtEveryLevel)
{
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        Engine legacy(ExecTier::Legacy);
        Engine simd(ExecTier::Tiered);
        legacy.bce.setMode(BceMode::Matmul);
        simd.bce.setMode(BceMode::Matmul);
        const std::vector<std::int8_t> a = pattern(513, 33, 7);
        const std::vector<std::int8_t> b = pattern(513, 34, 7);
        ASSERT_EQ(
            legacy.bce.matmulDotSpan(a.data(), b.data(), a.size(), 4),
            simd.bce.matmulDotSpan(a.data(), b.data(), a.size(), 4))
            << ctx;
        expect_engines_identical(legacy, simd, ctx);
    });
}

TEST(SimdKernels, RaggedTailLengthsExactAtEveryLevel)
{
    // Span lengths straddling every vector width and remainder shape,
    // so partial-vector tails can't hide a divergence.
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        Engine legacy(ExecTier::Legacy);
        Engine simd(ExecTier::Tiered);
        for (std::size_t len = 0; len <= 40; ++len) {
            const std::vector<std::int8_t> a =
                pattern(len, static_cast<int>(len) + 1, 127);
            const std::vector<std::int8_t> b =
                pattern(len, static_cast<int>(len) + 50, 127);
            ASSERT_EQ(
                legacy.bce.dotProductSpan(a.data(), b.data(), len, 8),
                simd.bce.dotProductSpan(a.data(), b.data(), len, 8))
                << ctx << " len " << len;
        }
        expect_engines_identical(legacy, simd, ctx);
    });
}

TEST(SimdKernels, LongSpanBlockedTallyExactAtEveryLevel)
{
    // Long enough to force multiple tally-block spills in both the
    // scalar (256-entry) and vector blocked accumulators.
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        Engine legacy(ExecTier::Legacy);
        Engine simd(ExecTier::Tiered);
        const std::vector<std::int8_t> a = pattern(65536, 41, 127);
        const std::vector<std::int8_t> b = pattern(65536, 42, 127);
        ASSERT_EQ(
            legacy.bce.dotProductSpan(a.data(), b.data(), a.size(), 8),
            simd.bce.dotProductSpan(a.data(), b.data(), a.size(), 8))
            << ctx;
        legacy.bce.setMode(BceMode::Matmul);
        simd.bce.setMode(BceMode::Matmul);
        ASSERT_EQ(
            legacy.bce.matmulDotSpan(a.data(), b.data(), a.size(), 8),
            simd.bce.matmulDotSpan(a.data(), b.data(), a.size(), 8))
            << ctx;
        expect_engines_identical(legacy, simd, ctx);
    });
}

// ---------------------------------------------------------------------
// Strict matmul domain: the legacy panic must survive vectorization
// ---------------------------------------------------------------------

namespace {

/** Mid-span out-of-domain 4-bit matmul at a pinned level: must die. */
void
run_out_of_range_matmul(sim::SimdLevel level)
{
    sim::force_simd_level(level);
    Engine e(ExecTier::Tiered);
    e.bce.setMode(BceMode::Matmul);
    // 9 overflows the 4-bit magnitude limit; it sits mid-span so the
    // kernel must detect it before any table gather could read out of
    // bounds.
    const std::int8_t a[12] = {1, 2, 3, 4, 5, 6, 9, 1, 2, 3, 4, 5};
    const std::int8_t b[12] = {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
    (void)e.bce.matmulDotSpan(a, b, 12, 4);
}

} // namespace

TEST(SimdKernelsDeath, Matmul4BitOutOfRangePanicsAtEveryLevel)
{
    for (const sim::SimdLevel level :
         {sim::SimdLevel::Scalar, sim::SimdLevel::Avx2,
          sim::SimdLevel::Avx512}) {
        if (!sim::simd_level_compiled(level)
            || !sim::simd_level_supported(level))
            continue;
        EXPECT_DEATH(run_out_of_range_matmul(level),
                     "exceeds 4-bit range: 9");
    }
    sim::reset_simd_level();
}

// ---------------------------------------------------------------------
// Poisoned tables: the widening-multiply fast path must stand down
// ---------------------------------------------------------------------

TEST(SimdKernels, PoisonedLutExactAtEveryLevel)
{
    // scratchWrite rewrites a LUT row byte, so the reseeded table's
    // product plane no longer equals a*b (productsExact drops) and the
    // kernels must gather poisoned products instead of multiplying.
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        Engine legacy(ExecTier::Legacy);
        Engine simd(ExecTier::Tiered);
        legacy.subarray.scratchWrite(0, 42);
        simd.subarray.scratchWrite(0, 42);

        const std::int8_t three = 3;
        const std::int32_t pl =
            legacy.bce.dotProductSpan(&three, &three, 1, 8);
        const std::int32_t pt =
            simd.bce.dotProductSpan(&three, &three, 1, 8);
        EXPECT_EQ(42, pl) << ctx; // the poisoned entry, shift 0
        EXPECT_EQ(pl, pt) << ctx;

        const std::vector<std::int8_t> a = pattern(1024, 51, 127);
        const std::vector<std::int8_t> b = pattern(1024, 52, 127);
        ASSERT_EQ(
            legacy.bce.dotProductSpan(a.data(), b.data(), a.size(), 8),
            simd.bce.dotProductSpan(a.data(), b.data(), a.size(), 8))
            << ctx;
        expect_engines_identical(legacy, simd, ctx);
    });
}

// ---------------------------------------------------------------------
// Conv-table invalidation edges
// ---------------------------------------------------------------------

TEST(SimdKernels, LutRowRewriteMidBatchForcesExactlyOneReseed)
{
    Engine e(ExecTier::Tiered);
    const std::vector<std::int8_t> a = pattern(64, 61, 127);
    const std::vector<std::int8_t> b = pattern(64, 62, 127);

    // Pristine rows: the shared process-wide table serves, so the
    // engine never seeds a private one.
    EXPECT_EQ(0u, e.bce.convTableSeeds());
    for (int i = 0; i < 5; ++i)
        (void)e.bce.dotProductSpan(a.data(), b.data(), a.size(), 8);
    EXPECT_EQ(0u, e.bce.convTableSeeds());

    // A LUT-row rewrite mid-batch moves the sub-array generation; the
    // very next span must seed a private table once, then settle.
    e.subarray.scratchWrite(0, 42);
    (void)e.bce.dotProductSpan(a.data(), b.data(), a.size(), 8);
    EXPECT_EQ(1u, e.bce.convTableSeeds());
    (void)e.bce.dotProductSpan(a.data(), b.data(), a.size(), 8);
    EXPECT_EQ(1u, e.bce.convTableSeeds());

    // Every further rewrite moves the generation and costs one reseed.
    e.subarray.scratchWrite(1, 7);
    (void)e.bce.dotProductSpan(a.data(), b.data(), a.size(), 8);
    EXPECT_EQ(2u, e.bce.convTableSeeds());
}

TEST(SimdKernels, EachPrecisionSeedsItsOwnConvTable)
{
    Engine e(ExecTier::Tiered);
    const std::vector<std::int8_t> a = pattern(32, 71, 7);
    const std::vector<std::int8_t> b = pattern(32, 72, 7);

    // Both precisions start on their shared pristine tables.
    (void)e.bce.dotProductSpan(a.data(), b.data(), a.size(), 8);
    (void)e.bce.dotProductSpan(a.data(), b.data(), a.size(), 4);
    EXPECT_EQ(0u, e.bce.convTableSeeds());

    // After a rewrite each precision seeds its own private table.
    e.subarray.scratchWrite(0, 42);
    (void)e.bce.dotProductSpan(a.data(), b.data(), a.size(), 8);
    EXPECT_EQ(1u, e.bce.convTableSeeds());
    (void)e.bce.dotProductSpan(a.data(), b.data(), a.size(), 4);
    EXPECT_EQ(2u, e.bce.convTableSeeds()); // 4-bit table is separate
    (void)e.bce.dotProductSpan(a.data(), b.data(), a.size(), 4);
    (void)e.bce.dotProductSpan(a.data(), b.data(), a.size(), 8);
    EXPECT_EQ(2u, e.bce.convTableSeeds()); // both now warm
}

TEST(SimdKernels, StaleGenerationIsNeverServed)
{
    // The dispatch-time staleness predicate the conv path relies on:
    // a table seeded against generation G must stop matching as soon
    // as the sub-array moves past G.
    Engine e(ExecTier::Tiered);
    const std::int8_t three = 3;
    (void)e.bce.dotProductSpan(&three, &three, 1, 8);

    const std::uint64_t gen = e.subarray.lutGeneration();
    e.subarray.scratchWrite(0, 42);
    EXPECT_NE(gen, e.subarray.lutGeneration());

    // Serving after the rewrite reflects the poisoned byte — proof the
    // stale table was rejected, not reused.
    EXPECT_EQ(42, e.bce.dotProductSpan(&three, &three, 1, 8));
}

TEST(SimdKernels, PoisonedEngineNeverLeaksIntoTheSharedTables)
{
    // Engine A rewrites a LUT row every round and reseeds privately
    // while engine B, on another thread, serves the same rounds from
    // the shared pristine tables. B must match a pristine Legacy run
    // exactly; A must match its Legacy twin given the same rewrites.
    const std::vector<std::int8_t> a = pattern(512, 81, 127);
    const std::vector<std::int8_t> b = pattern(512, 82, 127);
    constexpr int rounds = 6;

    const auto run_round = [&](Engine &e, std::vector<std::int32_t> &acc) {
        for (const unsigned bits : {8u, 4u})
            acc.push_back(e.bce.dotProductSpan(a.data(), b.data(),
                                               a.size(), bits));
    };
    const auto poison = [](Engine &e, int round) {
        e.subarray.scratchWrite(static_cast<std::size_t>(round) * 7,
                                static_cast<std::uint8_t>(round + 1));
    };

    Engine engA(ExecTier::Tiered), engB(ExecTier::Tiered);
    std::vector<std::int32_t> accA, accB;
    {
        std::barrier sync(2);
        std::thread ta([&] {
            for (int r = 0; r < rounds; ++r) {
                sync.arrive_and_wait();
                poison(engA, r);
                run_round(engA, accA);
            }
        });
        std::thread tb([&] {
            for (int r = 0; r < rounds; ++r) {
                sync.arrive_and_wait();
                run_round(engB, accB);
            }
        });
        ta.join();
        tb.join();
    }

    Engine twinA(ExecTier::Legacy), pristine(ExecTier::Legacy);
    std::vector<std::int32_t> wantA, wantB;
    for (int r = 0; r < rounds; ++r) {
        poison(twinA, r);
        run_round(twinA, wantA);
        run_round(pristine, wantB);
    }
    EXPECT_EQ(wantA, accA);
    EXPECT_EQ(wantB, accB);
    expect_engines_identical(twinA, engA, "poisoned engine A");
    expect_engines_identical(pristine, engB, "pristine engine B");
    EXPECT_EQ(0u, engB.bce.convTableSeeds());
    EXPECT_EQ(2u * rounds, engA.bce.convTableSeeds());
}

// ---------------------------------------------------------------------
// run_span contract details
// ---------------------------------------------------------------------

TEST(SimdKernels, RunSpanReportsFirstOutOfRangeIndex)
{
    Engine e(ExecTier::Tiered);
    e.bce.setMode(BceMode::Matmul);
    // Build the shared 4-bit ROM table through a benign span first.
    const std::int8_t ok[4] = {1, 2, 3, 4};
    (void)e.bce.matmulDotSpan(ok, ok, 4, 4);

    const lut::DatapathTable &t = lut::rom_datapath_table(4);
    const std::int8_t a[6] = {1, 2, 3, 9, 10, 1};
    const std::int8_t b[6] = {1, 1, 1, 1, 1, 1};
    const bce::simd::SpanSums s = bce::simd::run_span(
        t, a, b, 6, bce::simd::SpanSemantics::MatmulStrict);
    EXPECT_FALSE(s.inRange);
    EXPECT_EQ(3u, s.firstOutOfRange);

    const bce::simd::SpanSums in = bce::simd::run_span(
        t, a, b, 3, bce::simd::SpanSemantics::MatmulStrict);
    EXPECT_TRUE(in.inRange);
    EXPECT_EQ(6, in.acc); // 1 + 2 + 3
}

TEST(SimdKernels, ZeroLengthSpanIsANoOp)
{
    for_each_runnable_level([](sim::SimdLevel level) {
        Engine legacy(ExecTier::Legacy);
        Engine simd(ExecTier::Tiered);
        EXPECT_EQ(0, legacy.bce.dotProductSpan(nullptr, nullptr, 0, 8));
        EXPECT_EQ(0, simd.bce.dotProductSpan(nullptr, nullptr, 0, 8));
        expect_engines_identical(legacy, simd,
                                 sim::simd_level_name(level));
    });
}

// ---------------------------------------------------------------------
// Tally-strategy knob
// ---------------------------------------------------------------------

TEST(SimdKernels, HistogramAndGatherEnginesByteIdentical)
{
    // Head-to-head rather than each-vs-legacy: two tiered engines, one
    // pinned to the histogram fold and one to the delta-plane gather,
    // fed the same spans. Sums, stats and energy must be identical.
    for (const sim::SimdLevel level :
         {sim::SimdLevel::Avx2, sim::SimdLevel::Avx512}) {
        if (!sim::simd_level_compiled(level)
            || !sim::simd_level_supported(level))
            continue;
        sim::force_simd_level(level);
        const std::string ctx = sim::simd_level_name(level);
        Engine hist(ExecTier::Tiered);
        Engine gather(ExecTier::Tiered);
        for (std::size_t len : {std::size_t{7}, std::size_t{256},
                                std::size_t{9001}}) {
            const std::vector<std::int8_t> a =
                pattern(len, static_cast<int>(len), 127);
            const std::vector<std::int8_t> b =
                pattern(len, static_cast<int>(len) + 9, 127);
            bce::simd::force_tally_mode(bce::simd::TallyMode::Histogram);
            const std::int32_t rh =
                hist.bce.dotProductSpan(a.data(), b.data(), len, 8);
            bce::simd::force_tally_mode(bce::simd::TallyMode::Gather);
            const std::int32_t rg =
                gather.bce.dotProductSpan(a.data(), b.data(), len, 8);
            ASSERT_EQ(rh, rg) << ctx << " len " << len;
        }
        expect_engines_identical(hist, gather, ctx);
    }
    bce::simd::reset_tally_mode();
    sim::reset_simd_level();
}

TEST(SimdKernels, TallyEnvironmentKnobResolves)
{
    ASSERT_EQ(0, setenv("BFREE_TIERED_TALLY", "gather", 1));
    bce::simd::reset_tally_mode();
    EXPECT_EQ(bce::simd::TallyMode::Gather,
              bce::simd::active_tally_mode());

    ASSERT_EQ(0, setenv("BFREE_TIERED_TALLY", "histogram", 1));
    bce::simd::reset_tally_mode();
    EXPECT_EQ(bce::simd::TallyMode::Histogram,
              bce::simd::active_tally_mode());

    // Unset means the gather-free default.
    ASSERT_EQ(0, unsetenv("BFREE_TIERED_TALLY"));
    bce::simd::reset_tally_mode();
    EXPECT_EQ(bce::simd::TallyMode::Histogram,
              bce::simd::active_tally_mode());

    EXPECT_STREQ("histogram", bce::simd::tally_mode_name(
                                  bce::simd::TallyMode::Histogram));
    EXPECT_STREQ("gather", bce::simd::tally_mode_name(
                               bce::simd::TallyMode::Gather));
}

TEST(SimdKernelsDeath, UnknownTallyKnobIsFatal)
{
    ASSERT_EQ(0, setenv("BFREE_TIERED_TALLY", "turbo", 1));
    EXPECT_DEATH(
        {
            bce::simd::reset_tally_mode();
            (void)bce::simd::active_tally_mode();
        },
        "not a known tally");
    ASSERT_EQ(0, unsetenv("BFREE_TIERED_TALLY"));
    bce::simd::reset_tally_mode();
}
