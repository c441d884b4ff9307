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

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
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
 * Run @p body once per SIMD level this binary carries and this CPU can
 * execute, with the dispatcher pinned; always restores the
 * environment-resolved choice afterwards.
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
        body(level);
    }
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

namespace {

/** One span shape of the tail sweeps: precision, mode and the operand
 *  magnitude bound its patterns use. */
struct SpanCase
{
    unsigned bits;
    BceMode mode;
    int limit;
};

/** 4-bit conv operands run far outside [-8, 7] so the clamp acts in
 *  every lane, the padded ones included; 4-bit matmul operands stay in
 *  the strict domain [-8, +8]. */
constexpr SpanCase span_cases[] = {
    {8, BceMode::Conv, 127},
    {8, BceMode::Matmul, 127},
    {4, BceMode::Conv, 127},
    {4, BceMode::Matmul, 8},
};

std::int32_t
run_case(Engine &e, const SpanCase &c, const std::int8_t *a,
         const std::int8_t *b, std::size_t len)
{
    e.bce.setMode(c.mode);
    return c.mode == BceMode::Conv
               ? e.bce.dotProductSpan(a, b, len, c.bits)
               : e.bce.matmulDotSpan(a, b, len, c.bits);
}

std::string
case_name(const SpanCase &c)
{
    return std::to_string(c.bits)
           + (c.mode == BceMode::Conv ? "-bit conv" : "-bit matmul");
}

} // namespace

TEST(SimdKernels, RaggedTailLengthsExactAtEveryLevel)
{
    // Every remainder shape of both vector widths (and several whole
    // vectors before it), plus the LSTM gate row, at both precisions
    // and in both modes: the zero-padded final step must add nothing.
    std::vector<std::size_t> lens;
    for (std::size_t len = 0; len <= 200; ++len)
        lens.push_back(len);
    lens.push_back(1063);
    for_each_runnable_level([&](sim::SimdLevel level) {
        for (const SpanCase &c : span_cases) {
            const std::string ctx =
                std::string(sim::simd_level_name(level)) + " "
                + case_name(c);
            Engine legacy(ExecTier::Legacy);
            Engine simd(ExecTier::Tiered);
            for (const std::size_t len : lens) {
                const std::vector<std::int8_t> a =
                    pattern(len, static_cast<int>(len) + 1, c.limit);
                const std::vector<std::int8_t> b =
                    pattern(len, static_cast<int>(len) + 50, c.limit);
                ASSERT_EQ(run_case(legacy, c, a.data(), b.data(), len),
                          run_case(simd, c, a.data(), b.data(), len))
                    << ctx << " len " << len;
            }
            expect_engines_identical(legacy, simd, ctx);
        }
    });
}

TEST(SimdKernels, SpanTailsNeverReadPastTheirEnd)
{
    // Each operand span ends on the last byte of a page whose successor
    // is PROT_NONE: a tail load that strayed past len would fault.
    const std::size_t page =
        static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    struct Guarded
    {
        std::size_t bytes;
        void *map;
        bool guarded = false;

        explicit Guarded(std::size_t page)
            : bytes(2 * page),
              map(mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0))
        {
            guarded = map != MAP_FAILED
                      && mprotect(static_cast<char *>(map) + page, page,
                                  PROT_NONE)
                             == 0;
        }
        ~Guarded()
        {
            if (map != MAP_FAILED)
                munmap(map, bytes);
        }
    };
    Guarded ga(page), gb(page);
    ASSERT_TRUE(ga.guarded);
    ASSERT_TRUE(gb.guarded);
    auto *const endA = static_cast<std::int8_t *>(ga.map) + page;
    auto *const endB = static_cast<std::int8_t *>(gb.map) + page;

    for_each_runnable_level([&](sim::SimdLevel level) {
        for (const SpanCase &c : span_cases) {
            const std::string ctx =
                std::string(sim::simd_level_name(level)) + " "
                + case_name(c);
            Engine legacy(ExecTier::Legacy);
            Engine simd(ExecTier::Tiered);
            for (std::size_t len = 1; len <= 130; ++len) {
                const std::vector<std::int8_t> a =
                    pattern(len, static_cast<int>(len) + 3, c.limit);
                const std::vector<std::int8_t> b =
                    pattern(len, static_cast<int>(len) + 70, c.limit);
                std::int8_t *const spanA = endA - len;
                std::int8_t *const spanB = endB - len;
                std::copy(a.begin(), a.end(), spanA);
                std::copy(b.begin(), b.end(), spanB);
                ASSERT_EQ(run_case(legacy, c, a.data(), b.data(), len),
                          run_case(simd, c, spanA, spanB, len))
                    << ctx << " len " << len;
            }
            expect_engines_identical(legacy, simd, ctx);
        }
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
    // kernel must detect it before the fold or a table read could use
    // it.
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
    // product plane no longer equals a*b (productsExact drops) and
    // every level must read poisoned products from the table instead
    // of multiplying.
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

TEST(SimdKernels, StrictSpanReportsFirstOffenderAtEveryLevel)
{
    // One out-of-domain operand (+/-9, or an int8 extreme), in a or in
    // b, at every index of spans that straddle both vector widths: the
    // fold must stand down on the block holding it and the scalar walk
    // must name exactly that index, whether it sits in a whole vector
    // or in the ragged tail.
    const lut::DatapathTable &t = lut::rom_datapath_table(4);
    constexpr std::int8_t offenders[] = {9, -9, 127, -128};
    for_each_runnable_level([&](sim::SimdLevel level) {
        for (const std::size_t len :
             {1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1063}) {
            const std::vector<std::int8_t> base =
                pattern(len, static_cast<int>(len), 8);
            for (std::size_t at = 0; at < len; ++at) {
                for (const bool inA : {true, false}) {
                    std::vector<std::int8_t> a = base, b = base;
                    (inA ? a : b)[at] = offenders[at % 4];
                    const bce::simd::SpanSums s = bce::simd::run_span(
                        t, a.data(), b.data(), len,
                        bce::simd::SpanSemantics::MatmulStrict);
                    ASSERT_FALSE(s.inRange)
                        << sim::simd_level_name(level) << " len " << len
                        << " at " << at;
                    ASSERT_EQ(at, s.firstOutOfRange)
                        << sim::simd_level_name(level) << " len " << len
                        << (inA ? " in a" : " in b");
                }
            }
        }
    });
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
// Fold against the scalar table walk, head to head
// ---------------------------------------------------------------------

TEST(SimdKernels, HistogramFoldAndScalarEnginesByteIdentical)
{
    // Head-to-head rather than each-vs-legacy: two tiered engines, one
    // served by the histogram fold at each vector level and one pinned
    // to the scalar table walk, fed the same spans at both precisions.
    // Sums, stats and energy must be identical.
    for (const sim::SimdLevel level :
         {sim::SimdLevel::Avx2, sim::SimdLevel::Avx512}) {
        if (!sim::simd_level_compiled(level)
            || !sim::simd_level_supported(level))
            continue;
        const std::string ctx = sim::simd_level_name(level);
        Engine fold(ExecTier::Tiered);
        Engine scalar(ExecTier::Tiered);
        for (const SpanCase &c : span_cases) {
            for (std::size_t len : {std::size_t{7}, std::size_t{256},
                                    std::size_t{1063},
                                    std::size_t{9001}}) {
                const std::vector<std::int8_t> a =
                    pattern(len, static_cast<int>(len), c.limit);
                const std::vector<std::int8_t> b =
                    pattern(len, static_cast<int>(len) + 9, c.limit);
                sim::force_simd_level(level);
                const std::int32_t rf =
                    run_case(fold, c, a.data(), b.data(), len);
                sim::force_simd_level(sim::SimdLevel::Scalar);
                const std::int32_t rs =
                    run_case(scalar, c, a.data(), b.data(), len);
                ASSERT_EQ(rf, rs)
                    << ctx << " " << case_name(c) << " len " << len;
            }
        }
        expect_engines_identical(fold, scalar, ctx);
    }
    sim::reset_simd_level();
}
