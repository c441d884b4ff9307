/**
 * @file
 * Runtime SIMD dispatch: level naming, capability queries, forced
 * overrides and the environment resolution CI leans on.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "sim/cpuid.hh"

namespace {

using namespace bfree;

TEST(Cpuid, LevelNamesAreStable)
{
    EXPECT_STREQ("scalar", sim::simd_level_name(sim::SimdLevel::Scalar));
    EXPECT_STREQ("avx2", sim::simd_level_name(sim::SimdLevel::Avx2));
    EXPECT_STREQ("avx512",
                 sim::simd_level_name(sim::SimdLevel::Avx512));

    // Committed bench JSON and baselines record the level as a number.
    EXPECT_EQ(0, static_cast<int>(sim::SimdLevel::Scalar));
    EXPECT_EQ(3, static_cast<int>(sim::SimdLevel::Avx2));
    EXPECT_EQ(4, static_cast<int>(sim::SimdLevel::Avx512));
}

TEST(Cpuid, ScalarIsAlwaysCompiledAndSupported)
{
    EXPECT_TRUE(sim::simd_level_compiled(sim::SimdLevel::Scalar));
    EXPECT_TRUE(sim::simd_level_supported(sim::SimdLevel::Scalar));
}

TEST(Cpuid, ActiveLevelIsRunnable)
{
    const sim::SimdLevel level = sim::active_simd_level();
    EXPECT_TRUE(sim::simd_level_compiled(level));
    EXPECT_TRUE(sim::simd_level_supported(level));
}

TEST(Cpuid, ForceAndResetRoundTrip)
{
    // Scalar is runnable everywhere, so forcing it must stick.
    sim::force_simd_level(sim::SimdLevel::Scalar);
    EXPECT_EQ(sim::SimdLevel::Scalar, sim::active_simd_level());

    // Reset re-resolves from the environment; whatever comes back
    // must be runnable on this host.
    sim::reset_simd_level();
    const sim::SimdLevel level = sim::active_simd_level();
    EXPECT_TRUE(sim::simd_level_compiled(level));
    EXPECT_TRUE(sim::simd_level_supported(level));
}

TEST(Cpuid, EveryCompiledAndSupportedLevelCanBeForced)
{
    for (const sim::SimdLevel level :
         {sim::SimdLevel::Scalar, sim::SimdLevel::Avx2,
          sim::SimdLevel::Avx512}) {
        if (!sim::simd_level_compiled(level)
            || !sim::simd_level_supported(level))
            continue;
        sim::force_simd_level(level);
        EXPECT_EQ(level, sim::active_simd_level());
    }
    sim::reset_simd_level();
}

TEST(CpuidDeath, ForcingAnUncompiledLevelIsFatal)
{
    // An x86 binary carries every level; anywhere else AVX2 and
    // AVX-512 are missing, and forcing one must die loudly rather
    // than silently fall back to scalar.
    if (sim::simd_level_compiled(sim::SimdLevel::Avx2))
        GTEST_SKIP() << "every SIMD level is compiled into this binary";
    for (const sim::SimdLevel missing :
         {sim::SimdLevel::Avx2, sim::SimdLevel::Avx512})
        EXPECT_DEATH(sim::force_simd_level(missing),
                     "not built with kernels");
}

TEST(CpuidDeath, Avx512IsRunnableOrRejected)
{
    // This must hold on every host, with or without AVX-512: either
    // the trio is supported and the level can be forced, or forcing
    // it dies loudly — never a silent fallback.
    if (sim::simd_level_compiled(sim::SimdLevel::Avx512)
        && sim::simd_level_supported(sim::SimdLevel::Avx512)) {
        sim::force_simd_level(sim::SimdLevel::Avx512);
        EXPECT_EQ(sim::SimdLevel::Avx512, sim::active_simd_level());
        sim::reset_simd_level();
    } else {
        EXPECT_DEATH(sim::force_simd_level(sim::SimdLevel::Avx512),
                     "not built with kernels|does not support");
    }
}

TEST(CpuidDeath, ForceIsaAvx512ResolvesOrDies)
{
    // BFREE_FORCE_ISA=avx512 — the knob the simd-differential CI job
    // sets — must behave identically to the programmatic force.
    ASSERT_EQ(0, setenv("BFREE_FORCE_ISA", "avx512", 1));
    if (sim::simd_level_compiled(sim::SimdLevel::Avx512)
        && sim::simd_level_supported(sim::SimdLevel::Avx512)) {
        sim::reset_simd_level();
        EXPECT_EQ(sim::SimdLevel::Avx512, sim::active_simd_level());
    } else {
        EXPECT_DEATH(
            {
                sim::reset_simd_level();
                (void)sim::active_simd_level();
            },
            "not built with kernels|does not support");
    }
    ASSERT_EQ(0, unsetenv("BFREE_FORCE_ISA"));
    sim::reset_simd_level();
}

TEST(Cpuid, ForceIsaEnvironmentSelectsThatLevel)
{
    ASSERT_EQ(0, setenv("BFREE_FORCE_ISA", "scalar", 1));
    sim::reset_simd_level();
    EXPECT_EQ(sim::SimdLevel::Scalar, sim::active_simd_level());
    ASSERT_EQ(0, unsetenv("BFREE_FORCE_ISA"));
    sim::reset_simd_level();
}

TEST(CpuidDeath, UnknownForceIsaNameIsFatal)
{
    // Retired 128-bit level names included: a stale script naming
    // one must get the diagnostic, not a silent fallback.
    for (const char *name : {"avx1024", "sse42", "neon"}) {
        ASSERT_EQ(0, setenv("BFREE_FORCE_ISA", name, 1));
        EXPECT_DEATH(
            {
                sim::reset_simd_level();
                (void)sim::active_simd_level();
            },
            "not a known ISA")
            << name;
    }
    ASSERT_EQ(0, unsetenv("BFREE_FORCE_ISA"));
    sim::reset_simd_level();
}

} // namespace
