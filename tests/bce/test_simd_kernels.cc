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
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bce/bce.hh"
#include "bce/simd_kernels.hh"
#include "lut/datapath_table.hh"
#include "lut/packing.hh"
#include "lut/pwl.hh"
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

/** A read-write page followed by a PROT_NONE page: operands copied to
 *  end at end() fault on any read past their last byte. */
struct Guarded
{
    std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    void *map = mmap(nullptr, 2 * page, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    bool guarded = map != MAP_FAILED
                   && mprotect(static_cast<char *>(map) + page, page,
                               PROT_NONE)
                          == 0;

    ~Guarded()
    {
        if (map != MAP_FAILED)
            munmap(map, 2 * page);
    }

    std::int8_t *
    end() const
    {
        return static_cast<std::int8_t *>(map) + page;
    }
};

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
    Guarded ga, gb;
    ASSERT_TRUE(ga.guarded);
    ASSERT_TRUE(gb.guarded);
    std::int8_t *const endA = ga.end();
    std::int8_t *const endB = gb.end();

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
// Matmul tiles: the factored tally against the Legacy walk
// ---------------------------------------------------------------------

namespace {

/** Run one m x k by n x k tile at @p bits on a fresh matmul engine;
 *  the outputs start non-zero so accumulation in place is covered. */
std::vector<std::int32_t>
run_tile(Engine &e, const std::int8_t *a, const std::int8_t *bt,
         std::size_t m, std::size_t k, std::size_t n, unsigned bits,
         const lut::ColumnFeatures *btFeatures = nullptr)
{
    e.bce.setMode(BceMode::Matmul);
    std::vector<std::int32_t> out(m * n);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<std::int32_t>(i * 7) - 11;
    e.bce.matmulTile(a, bt, out.data(), m, k, n, bits, btFeatures);
    return out;
}

/** One tile shape against Legacy at every runnable level: outputs,
 *  BceStats and per-category energy bitwise. */
void
expect_tile_exact(const std::vector<std::int8_t> &a,
                  const std::vector<std::int8_t> &bt, std::size_t m,
                  std::size_t k, std::size_t n, unsigned bits,
                  const std::string &ctx)
{
    Engine legacy(ExecTier::Legacy);
    const std::vector<std::int32_t> want =
        run_tile(legacy, a.data(), bt.data(), m, k, n, bits);
    for_each_runnable_level([&](sim::SimdLevel level) {
        const std::string where =
            ctx + " " + sim::simd_level_name(level);
        Engine twin(ExecTier::Legacy);
        run_tile(twin, a.data(), bt.data(), m, k, n, bits);
        Engine tiered(ExecTier::Tiered);
        ASSERT_EQ(want,
                  run_tile(tiered, a.data(), bt.data(), m, k, n, bits))
            << where;
        expect_engines_identical(twin, tiered, where);
    });
}

std::string
shape_name(std::size_t m, std::size_t k, std::size_t n, unsigned bits)
{
    return std::to_string(m) + "x" + std::to_string(k) + "x"
           + std::to_string(n) + "@" + std::to_string(bits);
}

} // namespace

TEST(MatmulTile, ShapesExactAgainstLegacyAtEveryLevel)
{
    // Every row count of A, every remainder of the four-row BT groups,
    // and reduction lengths straddling both vector widths plus the
    // LSTM gate row, over the whole int8 range at 8 bits (pattern()'s
    // +128 wraps to -128) and the whole analyzer domain [-8, 8] at
    // 4 bits.
    for (const unsigned bits : {8u, 4u}) {
        const int limit = bits == 8 ? 128 : 8;
        for (const std::size_t m : {1, 2, 3, 5})
            for (const std::size_t k :
                 {1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1063})
                for (const std::size_t n : {1, 3, 4, 5, 9}) {
                    const int seed = static_cast<int>(m * 131 + k + n);
                    expect_tile_exact(
                        pattern(m * k, seed, limit),
                        pattern(n * k, seed + 7, limit), m, k, n,
                        bits, shape_name(m, k, n, bits));
                    if (HasFatalFailure())
                        return;
                }
    }
}

TEST(MatmulTile, ColumnSumSpillBoundariesExactAtEveryLevel)
{
    // Column features are summed per block of 63 rows: row counts on
    // both sides of one, two and four block boundaries, on the A side
    // and on the BT side.
    for (const std::size_t rows :
         {62, 63, 64, 126, 127, 128, 252, 254, 255, 256}) {
        for (const unsigned bits : {8u, 4u}) {
            const int limit = bits == 8 ? 128 : 8;
            const int seed = static_cast<int>(rows);
            expect_tile_exact(pattern(rows * 65, seed, limit),
                              pattern(3 * 65, seed + 1, limit), rows,
                              65, 3, bits, shape_name(rows, 65, 3, bits));
            expect_tile_exact(pattern(2 * 65, seed + 2, limit),
                              pattern(rows * 65, seed + 3, limit), 2,
                              65, rows, bits,
                              shape_name(2, 65, rows, bits));
        }
    }
}

TEST(MatmulTile, TallColumnSumsPast16BitsExactAtEveryLevel)
{
    // 0x11 has two odd nibbles (p = o = 2 per entry), so 33000 BT rows
    // push every column's p and o totals past 65535, spread over 524
    // row blocks — enough block pairs for the vector folds to widen
    // their int32 lanes several times.
    const std::size_t m = 1, k = 64, n = 33000;
    std::vector<std::int8_t> bt(n * k, 0x11);
    for (std::size_t i = 0; i < bt.size(); i += 5)
        bt[i] = static_cast<std::int8_t>(-0x33);
    const std::vector<std::int8_t> a = pattern(m * k, 3, 128);
    lut::ColumnFeatures f;
    bce::simd::column_features(bt.data(), n, k, f);
    ASSERT_TRUE(f.describes(n, k));
    std::uint64_t column0 = 0;
    for (std::size_t b = 0; b < f.blocks(); ++b)
        column0 += f.sums[4 * b * lut::ColumnFeatures::stride(k)];
    EXPECT_GT(column0, 65535u);
    expect_tile_exact(a, bt, m, k, n, 8, shape_name(m, k, n, 8));
}

TEST(MatmulTile, FrozenFeaturesMatchPerCallFeatures)
{
    // Column features computed once (as plan compile does) and handed
    // in must book exactly what the per-call pass books, and a set
    // describing another shape must be refused.
    const std::size_t m = 3, k = 129, n = 9;
    const std::vector<std::int8_t> a = pattern(m * k, 11, 128);
    const std::vector<std::int8_t> bt = pattern(n * k, 12, 128);
    for_each_runnable_level([&](sim::SimdLevel level) {
        lut::ColumnFeatures frozen;
        bce::simd::column_features(bt.data(), n, k, frozen);
        EXPECT_EQ(n, frozen.rows);
        EXPECT_EQ(128u, frozen.maxMagnitude);
        Engine perCall(ExecTier::Tiered), given(ExecTier::Tiered);
        EXPECT_EQ(run_tile(perCall, a.data(), bt.data(), m, k, n, 8),
                  run_tile(given, a.data(), bt.data(), m, k, n, 8,
                           &frozen))
            << sim::simd_level_name(level);
        expect_engines_identical(perCall, given,
                                 sim::simd_level_name(level));
    });
    lut::ColumnFeatures other;
    bce::simd::column_features(bt.data(), n - 1, k, other);
    EXPECT_DEATH(
        {
            Engine e(ExecTier::Tiered);
            run_tile(e, a.data(), bt.data(), m, k, n, 8, &other);
        },
        "BT features describe 8 x 129, tile is 9 x 129");
}

TEST(MatmulTile, TileTailsNeverReadPastTheirEnd)
{
    // A and BT each end on the last byte of a page whose successor is
    // PROT_NONE: a tail load (or a column pass) that strayed past the
    // last row would fault.
    const std::size_t m = 2, n = 5;
    Guarded ga, gb;
    ASSERT_TRUE(ga.guarded);
    ASSERT_TRUE(gb.guarded);
    std::int8_t *const endA = ga.end();
    std::int8_t *const endB = gb.end();

    for (const unsigned bits : {8u, 4u}) {
        const int limit = bits == 8 ? 128 : 8;
        for (std::size_t k = 1; k <= 130; ++k) {
            const std::vector<std::int8_t> a =
                pattern(m * k, static_cast<int>(k), limit);
            const std::vector<std::int8_t> bt =
                pattern(n * k, static_cast<int>(k) + 70, limit);
            std::int8_t *const tileA = endA - a.size();
            std::int8_t *const tileB = endB - bt.size();
            std::copy(a.begin(), a.end(), tileA);
            std::copy(bt.begin(), bt.end(), tileB);
            Engine legacy(ExecTier::Legacy);
            const std::vector<std::int32_t> want =
                run_tile(legacy, a.data(), bt.data(), m, k, n, bits);
            for_each_runnable_level([&](sim::SimdLevel level) {
                Engine tiered(ExecTier::Tiered);
                ASSERT_EQ(want,
                          run_tile(tiered, tileA, tileB, m, k, n, bits))
                    << sim::simd_level_name(level) << " "
                    << shape_name(m, k, n, bits);
            });
        }
    }
}

// ---------------------------------------------------------------------
// Strict 4-bit tile domain: the legacy panic must survive the factoring
// ---------------------------------------------------------------------

namespace {

constexpr std::size_t strict_m = 3, strict_k = 65, strict_n = 5;

/** One planted out-of-domain operand: in A at (row, t) or in BT at
 *  (row, t). */
struct Offender
{
    bool inA;
    std::size_t row, t;
    std::int8_t value;
};

/** The 4-bit tile with @p plants applied, in-domain elsewhere. */
std::pair<std::vector<std::int8_t>, std::vector<std::int8_t>>
strict_tile(std::initializer_list<Offender> plants)
{
    auto a = pattern(strict_m * strict_k, 5, 8);
    auto bt = pattern(strict_n * strict_k, 6, 8);
    for (const Offender &o : plants)
        (o.inA ? a : bt)[o.row * strict_k + o.t] = o.value;
    return {a, bt};
}

/** The panic text the Legacy walk raises: the analyzer's message for
 *  the first pair in (i, j, t) order with an operand outside [-8, 8]. */
std::string
legacy_panic_text(const std::vector<std::int8_t> &a,
                  const std::vector<std::int8_t> &bt)
{
    const auto outside = [](int v) { return v < -8 || v > 8; };
    for (std::size_t i = 0; i < strict_m; ++i)
        for (std::size_t j = 0; j < strict_n; ++j)
            for (std::size_t t = 0; t < strict_k; ++t) {
                const int x = a[i * strict_k + t];
                const int y = bt[j * strict_k + t];
                if (outside(x) || outside(y))
                    return "exceeds 4-bit range: " + std::to_string(x)
                           + " x " + std::to_string(y) + " \\(";
            }
    return "";
}

/** Run the planted tile at @p tier, pinned to @p level: must die. */
void
run_strict_tile(ExecTier tier, sim::SimdLevel level,
                const std::vector<std::int8_t> &a,
                const std::vector<std::int8_t> &bt)
{
    sim::force_simd_level(level);
    Engine e(tier);
    run_tile(e, a.data(), bt.data(), strict_m, strict_k, strict_n, 4);
}

} // namespace

TEST(MatmulTileDeath, StrictTileReportsFirstOffenderAtEveryLevel)
{
    // One offender (+/-9 or an int8 extreme) in A or in BT at the
    // first element, at interior positions on either side of a vector
    // step, and at the last element; then two offenders, where BT's is
    // met first in (i, j, t) order although A's has the smaller flat
    // index, and where A's row-0 offender beats a BT one. Every level
    // must raise the Legacy walk's panic text.
    const std::initializer_list<Offender> cases[] = {
        {{true, 0, 0, 9}},
        {{true, 1, 33, -9}},
        {{true, 2, 31, 127}},
        {{true, strict_m - 1, strict_k - 1, -128}},
        {{false, 0, 0, -9}},
        {{false, 3, 40, 9}},
        {{false, 2, 63, -128}},
        {{false, strict_n - 1, strict_k - 1, 127}},
        {{true, 1, 2, 9}, {false, 2, 0, -9}},
        {{true, 0, 64, 127}, {false, 4, 1, 9}},
    };
    for (const auto &plants : cases) {
        const auto [a, bt] = strict_tile(plants);
        const std::string text = legacy_panic_text(a, bt);
        ASSERT_FALSE(text.empty());
        EXPECT_DEATH(run_strict_tile(ExecTier::Legacy,
                                     sim::SimdLevel::Scalar, a, bt),
                     text);
        for (const sim::SimdLevel level :
             {sim::SimdLevel::Scalar, sim::SimdLevel::Avx2,
              sim::SimdLevel::Avx512}) {
            if (!sim::simd_level_compiled(level)
                || !sim::simd_level_supported(level))
                continue;
            EXPECT_DEATH(run_strict_tile(ExecTier::Tiered, level, a, bt),
                         text)
                << sim::simd_level_name(level);
        }
    }
}

TEST(MatmulTile, FourBitDomainEndpointsAreAccepted)
{
    // +/-8 is the analyzer's 4-bit domain edge, inside, not outside.
    const auto [a, bt] = strict_tile({{true, 0, 0, 8}, {false, 1, 5, -8}});
    expect_tile_exact(a, bt, strict_m, strict_k, strict_n, 4,
                      "endpoints");
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

// ---------------------------------------------------------------------
// Packed 4-bit tiles: the nibble kernel against the int8 GEMM
// ---------------------------------------------------------------------

namespace {

/** The int8 scalar products of an m x k by n x k tile accumulated onto
 *  @p init: the reference every packed kernel must reproduce. */
std::vector<std::int32_t>
int8_scalar_products(const std::vector<std::int8_t> &a,
                     const std::vector<std::int8_t> &bt, std::size_t m,
                     std::size_t k, std::size_t n,
                     const std::vector<std::int32_t> &init)
{
    std::vector<std::int32_t> out = init;
    std::vector<std::int16_t> wide;
    sim::force_simd_level(sim::SimdLevel::Scalar);
    bce::simd::tile_products(a.data(), bt.data(), out.data(), m, k, n,
                             wide);
    sim::reset_simd_level();
    return out;
}

/** Packed products at every runnable level against the int8 scalar
 *  reference, the outputs starting from @p init. */
void
expect_packed_exact(const std::vector<std::int8_t> &a,
                    const std::vector<std::int8_t> &bt, std::size_t m,
                    std::size_t k, std::size_t n,
                    const std::vector<std::int32_t> &init,
                    const std::string &ctx)
{
    const std::vector<std::int32_t> want =
        int8_scalar_products(a, bt, m, k, n, init);
    lut::PackedTile packed;
    lut::pack_tile(bt.data(), n, k, packed);
    for_each_runnable_level([&](sim::SimdLevel level) {
        std::vector<std::int32_t> got = init;
        std::vector<std::int8_t> row;
        bce::simd::tile_products(a.data(), packed, got.data(), m, row);
        EXPECT_EQ(want, got) << ctx << " " << sim::simd_level_name(level);
    });
}

/** Weights in [-8, 7]. */
std::vector<std::int8_t>
nibble_pattern(std::size_t n, int seed)
{
    std::vector<std::int8_t> v = pattern(n, seed, 8);
    for (std::int8_t &x : v)
        x = static_cast<std::int8_t>(std::min<int>(x, 7));
    return v;
}

} // namespace

TEST(PackedTile, RowsRoundTripAtEveryWidth)
{
    // Every row length through two full groups and a half group, the
    // whole [-8, 7] range; the padding reads as zero weights.
    for (std::size_t k = 0; k <= 300; ++k) {
        const std::size_t n = 3;
        const std::vector<std::int8_t> m =
            nibble_pattern(n * k, static_cast<int>(k));
        lut::PackedTile t;
        lut::pack_tile(m.data(), n, k, t);
        ASSERT_EQ(n * lut::PackedTile::rowBytes(k), t.bytes.size());
        std::vector<std::int8_t> row(k);
        for (std::size_t r = 0; r < n; ++r) {
            lut::unpack_tile_row(t, r, row.data());
            ASSERT_TRUE(std::equal(row.begin(), row.end(),
                                   m.begin() + static_cast<long>(r * k)))
                << "k " << k << " row " << r;
        }
    }
    // The layout itself: +7 stores nibble 15 and -8 nibble 0; in a
    // full group byte b holds weights b and 64 + b, in a half group b
    // and 32 + b; padding stores 8.
    const std::vector<std::int8_t> sevens(128, 7);
    lut::PackedTile t;
    lut::pack_tile(sevens.data(), 1, 128, t);
    EXPECT_EQ(0xFF, t.bytes[0]);
    const std::vector<std::int8_t> low(100, -8);
    lut::pack_tile(low.data(), 1, 100, t);
    EXPECT_EQ(0x00, t.bytes[0]);
    EXPECT_EQ(0x80, t.bytes[36]); // weight 36 and padding weight 100
    const std::vector<std::int8_t> half(20, -8);
    lut::pack_tile(half.data(), 1, 20, t);
    ASSERT_EQ(32u, t.bytes.size());
    EXPECT_EQ(0x80, t.bytes[5]);  // weight 5 and padding weight 37
    EXPECT_EQ(0x88, t.bytes[25]); // padding weights 25 and 57
}

TEST(PackedTile, ProductsMatchInt8AtEveryLevel)
{
    // Ragged reduction lengths on both sides of every group and half
    // group boundary plus the LSTM gate row, 1, 3 and 8 A rows, and
    // every remainder of the four-row BT passes. A spans the whole
    // int8 range, -128 included.
    for (const std::size_t k : {1, 63, 64, 65, 127, 128, 129, 1063})
        for (const std::size_t m : {1, 3, 8})
            for (const std::size_t n : {1, 3, 4, 5, 9}) {
                const int seed = static_cast<int>(k * 7 + m * 3 + n);
                std::vector<std::int32_t> init(m * n);
                for (std::size_t i = 0; i < init.size(); ++i)
                    init[i] = static_cast<std::int32_t>(i * 13) - 40;
                expect_packed_exact(pattern(m * k, seed, 128),
                                    nibble_pattern(n * k, seed + 1), m, k,
                                    n, init, shape_name(m, k, n, 4));
                if (HasFatalFailure())
                    return;
            }
}

TEST(PackedTile, ExtremeOperandsWrapLikeInt8AtEveryLevel)
{
    // All-+7 and all--7 weights (nibbles 15 and 1), alternating ones,
    // and -8, against A = -128 everywhere (the largest maddubs pair
    // sums, 2 * 15 * 128 = 3840) and A = 127; outputs start next to
    // INT32_MAX / INT32_MIN so the accumulation wraps mod 2^32.
    const std::size_t m = 2, k = 1063, n = 6;
    const std::vector<std::int32_t> init = {
        INT32_MAX, INT32_MAX - 5, INT32_MIN, INT32_MIN + 3, 0, -1,
        INT32_MAX, INT32_MIN, 1, 2, 3, 4};
    for (const int av : {-128, 127}) {
        std::vector<std::int8_t> a(m * k, static_cast<std::int8_t>(av));
        a[k + 5] = -128; // the second row mixes both extremes
        std::vector<std::int8_t> bt(n * k);
        for (std::size_t t = 0; t < k; ++t) {
            bt[t] = 7;
            bt[k + t] = -7;
            bt[2 * k + t] = t % 2 ? 7 : -7;
            bt[3 * k + t] = -8;
            bt[4 * k + t] = t % 3 ? -8 : 7;
            bt[5 * k + t] = 0;
        }
        expect_packed_exact(a, bt, m, k, n, init,
                            "extremes A=" + std::to_string(av));
    }
}

// ---------------------------------------------------------------------
// PWL spans: the vector kernel against the scalar evaluate
// ---------------------------------------------------------------------

namespace {

/** Inputs that probe a table everywhere the scalar evaluate branches:
 *  both clamped tails (infinities included), every segment edge and
 *  its neighbours one ulp either side, signed zeros, and a sweep. */
std::vector<double>
pwl_probe_inputs(const lut::PwlTable &t)
{
    std::vector<double> x = {
        -1e300, -1e9, t.xmin() - 1.0, t.xmin(), t.xmax(), t.xmax() + 1.0,
        1e9, 1e300, 0.0, -0.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min()};
    for (unsigned s = 0; s <= t.segments(); ++s) {
        const double edge = t.xmin() + s * t.segmentWidth();
        x.push_back(edge);
        x.push_back(std::nextafter(edge, -1e300));
        x.push_back(std::nextafter(edge, 1e300));
    }
    for (int i = 0; i < 2000; ++i)
        x.push_back(-20.0 + 40.0 * i / 1999.0 + 1e-7 * (i % 13));
    return x;
}

/** Bitwise equality of two double vectors (memcmp; empty ones too). */
bool
same_bits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size()
           && (a.empty()
               || std::memcmp(a.data(), b.data(), a.size() * sizeof(double))
                      == 0);
}

} // namespace

TEST(PwlSpan, BitIdenticalToEvaluateAtEveryLevel)
{
    for (const lut::PwlTable &table :
         {lut::make_sigmoid_table(), lut::make_tanh_table(),
          lut::make_exp_table()}) {
        const std::vector<double> x = pwl_probe_inputs(table);
        std::vector<double> want(x.size());
        for (std::size_t i = 0; i < x.size(); ++i)
            want[i] = table.evaluate(x[i]);
        for_each_runnable_level([&](sim::SimdLevel level) {
            // Every start offset of the vector step, so each input is
            // met in a lane and in the scalar tail.
            for (std::size_t off = 0; off < 9; ++off) {
                std::vector<double> got(x.size() - off);
                bce::simd::pwl_span(table, x.data() + off, got.size(),
                                    got.data());
                ASSERT_EQ(0, std::memcmp(got.data(), want.data() + off,
                                         got.size() * sizeof(double)))
                    << table.name() << " offset " << off << " "
                    << sim::simd_level_name(level);
            }
        });
    }
}

TEST(PwlSpan, BceSpanBooksWhatPerElementCallsBook)
{
    // n in {0, 1, 7, 8, 9, 1024}: empty, scalar tail only, one short of
    // a vector step, exactly one, one past, and many. Outputs memcmp-
    // equal, BceStats and energy equal, in place and out of place.
    const lut::PwlTable table = lut::make_sigmoid_table();
    const std::vector<double> probe = pwl_probe_inputs(table);
    for_each_runnable_level([&](sim::SimdLevel level) {
        for (const std::size_t n : {0, 1, 7, 8, 9, 1024}) {
            const std::string ctx = std::string(sim::simd_level_name(level))
                                    + " n " + std::to_string(n);
            std::vector<double> x(probe.begin(),
                                  probe.begin() + static_cast<long>(n));
            Engine each(ExecTier::Tiered), span(ExecTier::Tiered);
            each.bce.setMode(BceMode::Special);
            span.bce.setMode(BceMode::Special);
            std::vector<double> want(n), got(n);
            for (std::size_t i = 0; i < n; ++i)
                want[i] = each.bce.evaluatePwl(table, x[i]);
            span.bce.evaluatePwlSpan(table, x.data(), n, got.data());
            EXPECT_TRUE(same_bits(want, got)) << ctx;
            EXPECT_EQ(each.bce.stats().specialLutEvents,
                      span.bce.stats().specialLutEvents)
                << ctx;
            EXPECT_EQ(each.bce.stats().cyclesByMode,
                      span.bce.stats().cyclesByMode)
                << ctx;
            expect_engines_identical(each, span, ctx);
            span.bce.evaluatePwlSpan(table, x.data(), n, x.data());
            EXPECT_TRUE(same_bits(want, x)) << ctx << " in place";
        }
    });
}
