/**
 * @file
 * Runtime CPU-feature detection and SIMD dispatch policy.
 *
 * The tiered datapath's span kernels exist in three ISA variants
 * (scalar, AVX2, AVX-512), all compiled into one x86 binary via
 * function-level target attributes; other targets, and x86 CPUs
 * without AVX2, run the scalar kernels, which are the bit-exact
 * reference. This module decides, once per process, which variant the
 * dispatchers hand out:
 *
 *  - by default, the widest level both compiled in AND reported by the
 *    CPU at runtime;
 *  - `BFREE_FORCE_ISA=scalar|avx2|avx512` pins one specific level
 *    (CI uses `scalar` to differentially verify every SIMD variant
 *    against the scalar reference on one host). Requesting a level
 *    the binary lacks or the CPU cannot execute is a fatal
 *    configuration error — it fails loudly instead of silently
 *    degrading, so a CI matrix knows it exercised what it asked for.
 *
 * Tests may also pin the level programmatically (force_simd_level) to
 * compare several variants inside one process.
 */

#ifndef BFREE_SIM_CPUID_HH
#define BFREE_SIM_CPUID_HH

namespace bfree::sim {

/** SIMD instruction-set levels the span kernels are specialized for,
 *  in strictly increasing width/priority order. The numeric values
 *  are recorded in committed bench JSON and stay fixed; 1 and 2 belong
 *  to retired 128-bit levels. */
enum class SimdLevel
{
    Scalar = 0, ///< Portable fallback and bit-exact reference.
    Avx2 = 3,   ///< 256-bit x86 with hardware gather.
    Avx512 = 4, ///< 512-bit x86 (requires the F+BW+VL feature trio).
};

/** Human-readable name ("scalar", "avx2", "avx512"). */
const char *simd_level_name(SimdLevel level);

/** True when this binary carries kernels for @p level (compile-time). */
bool simd_level_compiled(SimdLevel level);

/** True when the running CPU can execute @p level (runtime probe). */
bool simd_level_supported(SimdLevel level);

/**
 * The level the dispatchers use: widest compiled+supported level,
 * after applying the BFREE_FORCE_ISA environment override. Resolved
 * once and cached; a malformed or unsatisfiable override is fatal at
 * first use.
 */
SimdLevel active_simd_level();

/**
 * Pin the active level programmatically (overrides the cached choice
 * and any environment override). Fatal when @p level is not compiled
 * in or not supported by the CPU. Intended for tests and benchmarks
 * that sweep every available variant in one process.
 */
void force_simd_level(SimdLevel level);

/** Drop a force_simd_level pin and re-resolve from the environment. */
void reset_simd_level();

} // namespace bfree::sim

#endif // BFREE_SIM_CPUID_HH
