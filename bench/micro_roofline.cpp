/**
 * @file
 * Roofline and scaling study of the SIMD tiered datapath.
 *
 * Measurements, one JSON document (default BENCH_micro_roofline.json):
 *
 *  - host: hardware threads and the ISA the dispatcher resolved, so
 *    every number downstream can be read in context.
 *
 *  - membw: a STREAM-triad pass (c[i] = a[i] + s * b[i] over arrays
 *    far larger than LLC) giving the memory bandwidth that bounds any
 *    streaming kernel on this host.
 *
 *  - kernel_<isa>: steady-state conv/matmul MAC/s of the tiered span
 *    kernels with the dispatcher pinned to each ISA variant this
 *    binary carries AND this CPU supports (scalar always; avx2/avx512
 *    on x86). The conv and matmul headline points run 8-bit over a
 *    512-byte span, a whole number of vectors at every width;
 *    speedup_vs_scalar compares the conv headline against the scalar
 *    tiered loop. Two reported-only matmul points run the LSTM gate
 *    row (k = 1063, a ragged length at every width): one at 4 bits,
 *    one at 8 bits, so the cost of the span tail and of the 4-bit
 *    domain handling shows next to the headline. Two reported-only
 *    tile points run whole matmulTile GEMVs against column features
 *    computed once up front, as a compiled plan freezes them: the LSTM
 *    gate shape (1 x 1063 by 1063 x 4096) at 4 bits and the BERT-base
 *    FFN shape (1 x 768 by 768 x 3072) at 8 bits. The reported-only
 *    tile_rows_m{1,2,4,8}_{8,4}bit points run the FFN tile with m A
 *    rows in one call at both widths: what a batch chunk of m requests
 *    gains from the row-blocked kernels.
 *
 *  - stages: whole-image wall time of one conv layer split into
 *    marshal (everything that produces int8 patches: plane quantize,
 *    zero-padded staging, span materialization) vs the tiered span
 *    kernels, at the resolved ISA, through the same elided front end
 *    core/functional.cc runs. The section also carries the modeled
 *    marshal traffic in bytes and the bandwidth that implies, so
 *    marshal cost can be cross-checked against the triad roof.
 *
 *  - roofline: the tiered MAC streams two int8 operands per multiply
 *    (the tables and tallies stay cache-resident), so the bandwidth
 *    roof is membw / 2 MAC/s. achieved_fraction locates the best
 *    measured kernel against that roof.
 *
 *  - scaling: aggregate MAC/s with 1/2/4/8 ThreadPool workers, each
 *    owning a private engine (the production batch-dispatch shape).
 *    The pool and the engines are built, and one untimed warm-up pass
 *    seeds each engine's tables, before the clock starts, so the
 *    figures are steady state only. Each point is bracketed by a
 *    host-ceiling probe on the same workers (a dependent integer
 *    chain, no memory traffic): ceiling_tN is that probe's N-thread
 *    speedup, efficiency_vs_ceiling_tN the point's speedup over it,
 *    and noisy_tN = 1 flags a ceiling below 0.8 min(N, hardware
 *    threads) — a window in which the host did not lend the cores it
 *    has, whose figures say nothing about the code. These are reported only. On a 1-hardware-thread host
 *    the efficiency figures could only measure oversubscription, so
 *    the section records skipped = 1 and nothing else is emitted or
 *    gated.
 *
 * With --check-baseline FILE the run exits 1 on a >5x collapse of any
 * kernel point present in both the run and the baseline, of the
 * stages images/s, or of the scaling t8_over_t1.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bce/bce.hh"
#include "bce/simd_kernels.hh"
#include "dnn/im2col.hh"
#include "dnn/layer.hh"
#include "dnn/quantize.hh"
#include "mem/energy_account.hh"
#include "mem/subarray.hh"
#include "sim/bench_json.hh"
#include "sim/cpuid.hh"
#include "sim/parallel.hh"
#include "tech/geometry.hh"
#include "tech/tech_params.hh"

namespace {

using namespace bfree;

/** A self-contained tiered BCE rig. */
struct Engine
{
    tech::CacheGeometry geom{};
    tech::TechParams tech{};
    mem::EnergyAccount account;
    mem::Subarray subarray{geom, tech, account};
    bce::Bce bce{subarray, tech, account};

    explicit Engine(bce::BceMode mode)
    {
        bce.setTier(bce::ExecTier::Tiered);
        bce.loadMultLutImage();
        bce.setMode(mode);
    }
};

/** Deterministic int8 operand pattern within [-limit, limit]. */
std::vector<std::int8_t>
pattern(std::size_t n, int seed, int limit)
{
    std::vector<std::int8_t> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        const int r = static_cast<int>((i * 37 + seed * 101) % 1000);
        v[i] = static_cast<std::int8_t>(r % (2 * limit + 1) - limit);
    }
    return v;
}

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - start)
        .count();
}

/**
 * STREAM-triad memory bandwidth: three float arrays well past any LLC,
 * best-of-3 timed passes, 3 streamed floats (2 loads + 1 store) per
 * element.
 */
double
measure_membw_bytes_per_s()
{
    const std::size_t n = 16u << 20; // 3 x 64 MiB of floats
    std::vector<float> a(n, 1.0f), b(n, 2.0f), c(n, 0.0f);
    const float s = 3.0f;

    double best = 0.0;
    for (int pass = 0; pass < 4; ++pass) {
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < n; ++i)
            c[i] = a[i] + s * b[i];
        const double secs = seconds_since(start);
        const double bytes = 3.0 * static_cast<double>(n) * sizeof(float);
        if (pass > 0 && secs > 0.0) // pass 0 is the page-fault warm-up
            best = std::max(best, bytes / secs);
        // Fold the result back in so the triad cannot be optimized out.
        a[0] += c[n - 1] * 1e-30f;
    }
    return best;
}

/** Steady-state MAC/s of one @p len span kernel on the active ISA. */
double
measure_kernel_macs_per_s(bce::BceMode mode, unsigned bits,
                          std::size_t len, std::size_t reps,
                          std::int64_t &checksum)
{
    const int limit = bits == 4 ? 7 : 127;
    const std::vector<std::int8_t> a = pattern(len, 1, limit);
    const std::vector<std::int8_t> b = pattern(len, 2, limit);

    Engine e(mode);
    auto pass = [&]() -> std::int64_t {
        if (mode == bce::BceMode::Conv)
            return e.bce.dotProductSpan(a.data(), b.data(), len, bits);
        return e.bce.matmulDotSpan(a.data(), b.data(), len, bits);
    };
    checksum += pass(); // warm-up: table seeding stays untimed

    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r)
        checksum += pass();
    const double secs = seconds_since(start);
    const double macs = static_cast<double>(reps) * len;
    return secs > 0.0 ? macs / secs : 0.0;
}

/**
 * Steady-state MAC/s of an m x k by n x k matmulTile on the active ISA
 * (m = 1 is a GEMV), tallied against BT column features computed once
 * up front (the frozen-weight shape every FC, LSTM and attention layer
 * runs); at 4 bits BT is nibble-packed once up front too, as a plan
 * freezes it.
 */
double
measure_tile_macs_per_s(unsigned bits, std::size_t m, std::size_t k,
                        std::size_t n, std::size_t reps,
                        std::int64_t &checksum)
{
    const int limit = bits == 4 ? 7 : 127;
    const std::vector<std::int8_t> a = pattern(m * k, 3, limit);
    const std::vector<std::int8_t> bt = pattern(n * k, 4, limit);
    lut::ColumnFeatures frozen;
    bce::simd::column_features(bt.data(), n, k, frozen);
    lut::PackedTile packed;
    lut::pack_tile(bt.data(), n, k, packed);
    std::vector<std::int32_t> out(m * n);

    Engine e(bce::BceMode::Matmul);
    auto pass = [&] {
        std::fill(out.begin(), out.end(), 0);
        if (bits == 4)
            e.bce.matmulTile(a.data(), packed, out.data(), m, frozen);
        else
            e.bce.matmulTile(a.data(), bt.data(), out.data(), m, k, n,
                             bits, &frozen);
        for (const std::int32_t v : out)
            checksum += v;
    };
    pass(); // warm-up: table seeding stays untimed

    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r)
        pass();
    const double secs = seconds_since(start);
    const double macs = static_cast<double>(reps) * m * k * n;
    return secs > 0.0 ? macs / secs : 0.0;
}

/** Per-image marshal cost of the conv front end. */
struct MarshalResult
{
    double quantize = 0.0; ///< Plane quantize share.
    double marshal = 0.0;  ///< Everything producing patches, quantize
                           ///< included.

    /** Modeled marshal traffic per image in bytes (reads + writes,
     *  padded taps counted as writes only on the read side — an upper
     *  bound within a few percent for padded layers). */
    double marshalBytes = 0.0;
};

/**
 * The stage-study rig: one conv layer (3x3 stride-1 pad-1, 32x16x16
 * -> 32 channels) with the front half of core/functional.cc
 * replicated — plane quantize, zero-padded staging and slack8 span
 * materialization — marshalling every output position's int8 patch
 * into one buffer.
 *
 * Marshal and kernel are timed SEPARATELY: the kernel loop reads only
 * the marshalled patch buffer, so its timing carries no marshal noise
 * and vice versa.
 */
struct StageRig
{
    dnn::Layer l = dnn::make_conv("stage", {32, 16, 16}, 32, 3, 1, 1);
    dnn::FeatureShape out = l.outputShape();
    std::size_t in_elems = l.input.elements();
    std::size_t patch_len =
        std::size_t(l.input.c) * l.kernelH * l.kernelW;
    std::size_t positions = std::size_t(out.h) * out.w;

    std::vector<float> in;
    dnn::SymQuant sq;
    std::vector<std::int8_t> qin, patches, staging, weights;
    std::vector<std::int32_t> offsets;
    dnn::ElisionLayout el;
    bce::simd::SpanView view;

    StageRig()
    {
        static constexpr std::size_t slack =
            bce::simd::SpanView::slackBytes;
        in.resize(in_elems);
        for (std::size_t i = 0; i < in_elems; ++i)
            in[i] = static_cast<float>(static_cast<int>(i * 13 % 255)
                                       - 127)
                    / 64.0f;
        sq.scale = 1.0 / 64.0;
        qin.resize(in_elems + slack);
        patches.resize(positions * patch_len + slack);
        weights = pattern(std::size_t(l.outChannels) * patch_len, 5,
                          127);
        el = dnn::elision_layout(l);
        staging.resize(el.staged ? el.stagingBytes + slack : 0);
        offsets.resize(el.nRuns);
        dnn::elided_offsets(l, offsets.data());
        view.offsets = offsets.data();
        view.nRuns = el.nRuns;
        view.runLen = el.runLen;
        view.slack8 = true;
    }

    /** One whole-image marshal pass; returns the quantize share of
     *  the pass's wall time. */
    double
    marshal_once()
    {
        const auto t0 = std::chrono::steady_clock::now();
        dnn::quantize_span(sq, in.data(), in_elems, qin.data());
        const double quantize = seconds_since(t0);
        const std::int8_t *plane = qin.data();
        if (el.staged) {
            dnn::stage_plane_i8(l, qin.data(), staging.data());
            plane = staging.data();
        }
        for (unsigned oh = 0; oh < out.h; ++oh) {
            view.base = plane + std::size_t(oh) * l.strideH * el.rowBytes;
            bce::simd::materialize_span_block(
                view, out.w, l.strideW,
                patches.data() + std::size_t(oh) * out.w * patch_len,
                patch_len);
        }
        return quantize;
    }

    /** Marshal timing: @p reps whole-image passes. */
    MarshalResult
    measure_marshal(std::size_t reps)
    {
        MarshalResult r;
        marshal_once(); // warm-up untimed
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < reps; ++i)
            r.quantize += marshal_once();
        r.marshal = seconds_since(t0);
        const double per = 1.0 / static_cast<double>(reps);
        r.quantize *= per;
        r.marshal *= per;

        // Modeled marshal traffic per image, all counted as touched
        // bytes: 4 B read + 1 B written per quantized tap; 1 B each
        // way per copied patch byte; staging writes the padded plane
        // and reads the quantized one.
        const double patch_bytes = static_cast<double>(positions)
                                   * static_cast<double>(patch_len);
        r.marshalBytes =
            5.0 * static_cast<double>(in_elems) + 2.0 * patch_bytes
            + (el.staged ? static_cast<double>(el.stagingBytes)
                               + static_cast<double>(in_elems)
                         : 0.0);
        return r;
    }

    /** Kernel timing: per-image seconds of the tiered span kernel
     *  over the marshalled patches. */
    double
    measure_kernel(std::size_t reps, std::int64_t &checksum)
    {
        Engine e(bce::BceMode::Conv);
        // Warm-up pass seeds the conv table untimed.
        for (std::size_t p = 0; p < positions; ++p)
            checksum += e.bce.dotProductSpan(
                patches.data() + p * patch_len, weights.data(),
                patch_len, 8);
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t r = 0; r < reps; ++r)
            for (std::size_t p = 0; p < positions; ++p)
                for (unsigned oc = 0; oc < l.outChannels; ++oc)
                    checksum += e.bce.dotProductSpan(
                        patches.data() + p * patch_len,
                        weights.data() + std::size_t(oc) * patch_len,
                        patch_len, 8);
        return seconds_since(t0) / static_cast<double>(reps);
    }
};

/**
 * The scaling rig at one thread count: a pool whose workers each own a
 * private engine running the conv_8bit span workload — the shape the
 * batch runner uses for batched inference — and, interleaved with it,
 * a host-ceiling probe: the same workers spinning a dependent integer
 * chain that touches no memory, so its aggregate rate measures how
 * many cores the host actually lends this process right now. Pool
 * start-up, engine construction and each engine's first-call table
 * seeding happen before any clock starts.
 */
class ScalingRig
{
  public:
    explicit ScalingRig(unsigned threads)
        : threads(threads), pool(threads), a(pattern(len, 1, 127)),
          b(pattern(len, 2, 127)), sink(threads, 0)
    {
        engines.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            engines.push_back(std::make_unique<Engine>(bce::BceMode::Conv));
        run([&](unsigned t) { // warm-up: table seeding stays untimed
            return engines[t]->bce.dotProductSpan(a.data(), b.data(), len,
                                                  8);
        });
    }

    /** Aggregate MAC/s of @p reps spans per worker. */
    double
    macs_per_s(std::size_t reps)
    {
        const double secs = run([&](unsigned t) {
            std::int64_t acc = 0;
            for (std::size_t r = 0; r < reps; ++r)
                acc += engines[t]->bce.dotProductSpan(a.data(), b.data(),
                                                      len, 8);
            return acc;
        });
        return secs > 0.0 ? static_cast<double>(threads)
                                * static_cast<double>(reps) * len / secs
                          : 0.0;
    }

    /** Aggregate steps/s of @p steps dependent LCG steps per worker. */
    double
    ceiling_steps_per_s(std::size_t steps)
    {
        const double secs = run([&](unsigned t) {
            std::uint64_t x = t + 1;
            for (std::size_t i = 0; i < steps; ++i)
                x = x * 6364136223846793005ull + 1442695040888963407ull;
            return static_cast<std::int64_t>(x >> 1);
        });
        return secs > 0.0 ? static_cast<double>(threads)
                                * static_cast<double>(steps) / secs
                          : 0.0;
    }

  private:
    static constexpr std::size_t len = 512;

    /** One task per worker; returns the wall seconds of the batch. */
    double
    run(const std::function<std::int64_t(unsigned)> &work)
    {
        std::vector<std::function<void()>> tasks;
        tasks.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            // Accumulate locally: adjacent sink slots share a cache
            // line, and a store per call would bounce it between cores.
            tasks.push_back([&, t] { sink[t] += work(t); });
        const auto start = std::chrono::steady_clock::now();
        pool.run(std::move(tasks));
        return seconds_since(start);
    }

    unsigned threads;
    sim::ThreadPool pool;
    std::vector<std::int8_t> a, b;
    std::vector<std::unique_ptr<Engine>> engines;
    std::vector<std::int64_t> sink;
};

std::string
kernel_section(sim::SimdLevel level)
{
    return std::string("kernel_") + sim::simd_level_name(level);
}

/** Reduction length of one LSTM-1024 gate row (1024 hidden + 39
 *  inputs): the 4-bit matvec of the LSTM workloads. */
constexpr std::size_t lstm_gate_k = 1063;

/** Gate rows of LSTM-1024 (four gates of 1024). */
constexpr std::size_t lstm_gate_n = 4096;

/** BERT-base feed-forward up-projection: d_model 768 -> 3072. */
constexpr std::size_t ffn_k = 768;
constexpr std::size_t ffn_n = 3072;

/** Whole GEMVs per tile point (each several million MACs); an m-row
 *  point runs tile_reps / m tiles, the same MACs. */
constexpr std::size_t tile_reps = 40;

/** A rows of the row-blocked tile points. */
constexpr std::size_t tile_rows[] = {1, 2, 4, 8};

constexpr sim::SimdLevel all_levels[] = {
    sim::SimdLevel::Scalar, sim::SimdLevel::Avx2, sim::SimdLevel::Avx512};

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_micro_roofline.json";
    std::string baseline_path;
    if (!sim::parse_bench_flags(argc, argv,
                                {{"--out", &out_path},
                                 {"--check-baseline", &baseline_path}}))
        return 1;

    const unsigned hw = sim::resolve_threads(0);
    const sim::SimdLevel dispatched = sim::active_simd_level();
    std::cout << "micro_roofline: host has " << hw
              << " hardware thread(s); dispatcher resolved "
              << sim::simd_level_name(dispatched) << "\n";

    sim::BenchJson json;
    json.set("host", "hardware_threads", static_cast<double>(hw));
    json.set("host", "simd_level", static_cast<double>(dispatched));

    // ---- Memory bandwidth roof -------------------------------------
    const double membw = measure_membw_bytes_per_s();
    json.set("membw", "triad_bytes_per_s", membw);
    std::cout << "triad bandwidth: " << membw / 1e9 << " GB/s\n";

    // ---- Per-ISA kernel points --------------------------------------
    const std::size_t reps = 20000;
    std::int64_t checksum0 = 0; // scalar reference checksums
    double scalar_conv = 0.0;
    double best_conv = 0.0;
    for (const sim::SimdLevel level : all_levels) {
        if (!sim::simd_level_compiled(level)
            || !sim::simd_level_supported(level))
            continue;
        sim::force_simd_level(level);
        std::int64_t checksum = 0;

        const double conv = measure_kernel_macs_per_s(
            bce::BceMode::Conv, 8, 512, reps, checksum);
        const double mm = measure_kernel_macs_per_s(
            bce::BceMode::Matmul, 8, 512, reps, checksum);
        const double mm4 = measure_kernel_macs_per_s(
            bce::BceMode::Matmul, 4, lstm_gate_k, reps, checksum);
        const double mm8_ragged = measure_kernel_macs_per_s(
            bce::BceMode::Matmul, 8, lstm_gate_k, reps, checksum);
        const double tile4 = measure_tile_macs_per_s(
            4, 1, lstm_gate_k, lstm_gate_n, tile_reps, checksum);
        const double tile8 = measure_tile_macs_per_s(
            8, 1, ffn_k, ffn_n, tile_reps, checksum);
        // The FFN tile at m A rows: a dispatch's chunk of requests
        // meets the weights in one row-blocked call.
        double rows8[std::size(tile_rows)], rows4[std::size(tile_rows)];
        for (std::size_t i = 0; i < std::size(tile_rows); ++i) {
            const std::size_t m = tile_rows[i];
            rows8[i] = measure_tile_macs_per_s(8, m, ffn_k, ffn_n,
                                               tile_reps / m, checksum);
            rows4[i] = measure_tile_macs_per_s(4, m, ffn_k, ffn_n,
                                               tile_reps / m, checksum);
        }

        if (level == sim::SimdLevel::Scalar) {
            scalar_conv = conv;
            checksum0 = checksum;
        } else if (checksum != checksum0) {
            std::cerr << kernel_section(level)
                      << ": checksum diverged from scalar\n";
            return 2;
        }
        const std::string sec = kernel_section(level);
        json.set(sec, "conv_8bit_macs_per_s", conv);
        json.set(sec, "matmul_8bit_macs_per_s", mm);
        json.set(sec, "matmul_4bit_macs_per_s", mm4);
        json.set(sec, "matmul_8bit_ragged_macs_per_s", mm8_ragged);
        json.set(sec, "tile_gemv_4bit_macs_per_s", tile4);
        json.set(sec, "tile_gemv_8bit_macs_per_s", tile8);
        for (std::size_t i = 0; i < std::size(tile_rows); ++i) {
            const std::string m = std::to_string(tile_rows[i]);
            json.set(sec, "tile_rows_m" + m + "_8bit_macs_per_s", rows8[i]);
            json.set(sec, "tile_rows_m" + m + "_4bit_macs_per_s", rows4[i]);
        }
        json.set(sec, "speedup_vs_scalar",
                 scalar_conv > 0.0 ? conv / scalar_conv : 0.0);
        best_conv = std::max(best_conv, conv);
        char line[320];
        std::snprintf(line, sizeof(line),
                      "%-14s conv %9.2f  matmul %9.2f  matmul4@%zu "
                      "%9.2f  matmul8@%zu %9.2f  tile4 %9.2f  tile8 "
                      "%9.2f MMAC/s  vs scalar %5.2fx\n",
                      sec.c_str(), conv / 1e6, mm / 1e6, lstm_gate_k,
                      mm4 / 1e6, lstm_gate_k, mm8_ragged / 1e6,
                      tile4 / 1e6, tile8 / 1e6,
                      scalar_conv > 0.0 ? conv / scalar_conv : 0.0);
        std::cout << line;
        std::cout << sec << " ffn tile rows m=1/2/4/8:";
        for (std::size_t i = 0; i < std::size(tile_rows); ++i) {
            std::snprintf(line, sizeof(line), "  %.0f/%.0f", rows8[i] / 1e6,
                          rows4[i] / 1e6);
            std::cout << line;
        }
        std::cout << " MMAC/s (8-bit/4-bit)\n";
    }
    sim::reset_simd_level();

    // ---- Front-half breakdown at the resolved ISA -------------------
    {
        const std::size_t marshal_reps = 400;
        const std::size_t kernel_reps = 40;

        StageRig rig;
        const MarshalResult s = rig.measure_marshal(marshal_reps);
        std::int64_t stage_checksum = 0;
        const double kernel =
            rig.measure_kernel(kernel_reps, stage_checksum);
        const double total = s.marshal + kernel;
        const double marshal_bw =
            s.marshal > 0.0 ? s.marshalBytes / s.marshal : 0.0;
        json.set("stages", "quantize_ms_per_image", 1e3 * s.quantize);
        json.set("stages", "marshal_ms_per_image", 1e3 * s.marshal);
        json.set("stages", "kernel_ms_per_image", 1e3 * kernel);
        json.set("stages", "total_ms_per_image", 1e3 * total);
        json.set("stages", "images_per_s",
                 total > 0.0 ? 1.0 / total : 0.0);
        json.set("stages", "front_half_fraction",
                 total > 0.0 ? s.marshal / total : 0.0);
        json.set("stages", "marshal_bytes_per_image", s.marshalBytes);
        json.set("stages", "marshal_bytes_per_s", marshal_bw);
        json.set("stages", "marshal_bw_fraction_of_triad",
                 membw > 0.0 ? marshal_bw / membw : 0.0);
        char line[200];
        std::snprintf(line, sizeof(line),
                      "stages: marshal %.4f ms  kernel %.3f ms  "
                      "front-half %4.1f%%  %6.1f im/s  marshal bw "
                      "%5.2f GB/s\n",
                      1e3 * s.marshal, 1e3 * kernel,
                      total > 0.0 ? 100.0 * s.marshal / total : 0.0,
                      total > 0.0 ? 1.0 / total : 0.0, marshal_bw / 1e9);
        std::cout << line;
    }

    // ---- Roofline placement -----------------------------------------
    // The steady-state tiered MAC streams exactly the two int8
    // operands; tables and tally state are cache-resident.
    const double bytes_per_mac = 2.0;
    const double roof = membw / bytes_per_mac;
    json.set("roofline", "stream_bytes_per_mac", bytes_per_mac);
    json.set("roofline", "roofline_macs_per_s", roof);
    json.set("roofline", "achieved_fraction",
             roof > 0.0 ? best_conv / roof : 0.0);
    std::cout << "bandwidth roof " << roof / 1e6
              << " MMAC/s; best kernel reaches "
              << (roof > 0.0 ? 100.0 * best_conv / roof : 0.0) << "%\n";

    // ---- Thread scaling ---------------------------------------------
    // On a 1-hardware-thread host every multi-worker point measures
    // oversubscription, not scaling: record the skip and emit no
    // efficiency figures at all rather than misleading ones.
    if (hw <= 1) {
        json.set("scaling", "skipped", 1.0);
        json.set("scaling", "hardware_threads", static_cast<double>(hw));
        std::cout << "scaling: skipped (1 hardware thread)\n";
    } else {
        // Each point sits between two host-ceiling probes in the same
        // window; its efficiency is also read against the ceiling those
        // probes measured, and a point whose ceiling came in below
        // 0.8 x min(N, hardware threads) (the host lent fewer cores
        // than it has) is flagged noisy; past the hardware threads a
        // point can only oversubscribe, so its bar is the core count.
        // The 1-thread figures are the reference for both.
        const std::size_t reps_per_thread = 20000;
        const std::size_t ceiling_steps = 2000000;
        double rate1 = 0.0, rate8 = 0.0, ceil1 = 0.0;
        json.set("scaling", "skipped", 0.0);
        for (const unsigned t : {1u, 2u, 4u, 8u}) {
            ScalingRig rig(t);
            const double before = rig.ceiling_steps_per_s(ceiling_steps);
            const double rate = rig.macs_per_s(reps_per_thread);
            const double after = rig.ceiling_steps_per_s(ceiling_steps);
            const double ceilRate = 0.5 * (before + after);
            if (t == 1) {
                rate1 = rate;
                ceil1 = ceilRate;
            }
            if (t == 8)
                rate8 = rate;
            const double n = static_cast<double>(t);
            const double eff = rate1 > 0.0 ? rate / (n * rate1) : 0.0;
            const double ceiling = ceil1 > 0.0 ? ceilRate / ceil1 : 0.0;
            const double effCeil =
                rate1 > 0.0 && ceiling > 0.0 ? rate / rate1 / ceiling : 0.0;
            const bool noisy =
                ceiling < 0.8 * std::min(n, static_cast<double>(hw));
            const std::string tn = "t" + std::to_string(t);
            json.set("scaling", "rate_" + tn + "_macs_per_s", rate);
            json.set("scaling", "efficiency_" + tn, eff);
            json.set("scaling", "ceiling_" + tn, ceiling);
            json.set("scaling", "efficiency_vs_ceiling_" + tn, effCeil);
            json.set("scaling", "noisy_" + tn, noisy ? 1.0 : 0.0);
            char line[160];
            std::snprintf(line, sizeof(line),
                          "threads %u: %10.2f MMAC/s  efficiency %5.2f  "
                          "host ceiling %4.2f  vs ceiling %5.2f%s\n",
                          t, rate / 1e6, eff, ceiling, effCeil,
                          noisy ? "  (noisy)" : "");
            std::cout << line;
        }
        json.set("scaling", "t8_over_t1",
                 rate1 > 0.0 ? rate8 / rate1 : 0.0);
        json.set("scaling", "hardware_threads", static_cast<double>(hw));
    }

    if (!json.save(out_path)) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    std::cout << "wrote " << out_path << "\n";

    if (!baseline_path.empty()) {
        sim::BenchJson baseline;
        if (!baseline.load(baseline_path)) {
            std::cerr << "cannot load baseline " << baseline_path << "\n";
            return 1;
        }
        bool ok = true;
        // Only a >5x collapse vs the committed baseline fails, and only
        // for kernel points this host actually measured: the gate
        // catches algorithmic regressions, not runner noise or a
        // narrower-ISA runner.
        for (const sim::SimdLevel level : all_levels) {
            const std::string sec = kernel_section(level);
            const double now = json.get(sec, "conv_8bit_macs_per_s",
                                        0.0);
            const double ref = baseline.get(sec, "conv_8bit_macs_per_s",
                                            0.0);
            if (now > 0.0 && ref > 0.0 && now < ref / 5.0) {
                std::cerr << sec << ": conv " << now
                          << " MAC/s is >5x below baseline " << ref
                          << "\n";
                ok = false;
            }
        }
        {
            // The front half must not regress: a >5x collapse of the
            // whole-image rate fails like a kernel collapse would.
            const double now = json.get("stages", "images_per_s", 0.0);
            const double ref =
                baseline.get("stages", "images_per_s", 0.0);
            if (now > 0.0 && ref > 0.0 && now < ref / 5.0) {
                std::cerr << "stages: images_per_s " << now
                          << " is >5x below baseline " << ref << "\n";
                ok = false;
            }
        }
        if (json.get("scaling", "skipped", 1.0) != 0.0) {
            std::cout << "note: scaling skipped on this host; points "
                         "not gated\n";
        } else {
            const double now = json.get("scaling", "t8_over_t1", 0.0);
            const double ref = baseline.get("scaling", "t8_over_t1",
                                            0.0);
            if (ref > 0.0 && now < ref / 5.0) {
                std::cerr << "scaling: t8_over_t1 " << now
                          << " is >5x below baseline " << ref << "\n";
                ok = false;
            }
        }
        if (!ok)
            return 1;
        std::cout << "baseline check passed (threshold: 5x)\n";
    }
    return 0;
}
