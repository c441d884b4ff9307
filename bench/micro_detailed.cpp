/**
 * @file
 * Full-cache detailed-timing engine throughput: wall-clock of the
 * sharded epoch-barrier engine at one worker and at --threads workers,
 * with inline bit-exactness checks, on two whole-cache GEMMs:
 *
 *   stream  k = 16, 42 filters (3 columns on each of the 14 slices),
 *           896 waves: long wave trains over short dot products — the
 *           baseline-gated workload
 *   heavy   k = 256, 448 filters (32 columns per slice), 64 waves:
 *           compute-heavy epochs in which several slices compute at
 *           once, where --threads shows the sharded win (reported
 *           only, no gate)
 *
 * Each GEMM runs under two configurations:
 *
 *   sharded_1t  per-slice queues on the epoch engine, 1 worker (the
 *               serial path and the speedup baseline)
 *   sharded_nt  per-slice queues, --threads workers
 *
 * Every run must produce the same int32 accumulators as a plain
 * integer GEMM and a cycle count equal to detailed_cache_formula (exit
 * 2 on divergence). Output: a BenchJson document (--out FILE, default
 * BENCH_micro_detailed.json) with seconds, events/s, waves/s and
 * speedup_vs_1t per configuration; the heavy GEMM's sections carry a "heavy_"
 * prefix. With --check-baseline FILE the run exits 1 when the stream
 * GEMM's sharded_nt waves/s collapsed more than 5x below the committed
 * baseline (the non-gating CI perf-smoke job).
 *
 * --dump-stats FILE skips the timed passes and writes one line of
 * deterministic statistics (checksum, cycles, events, epochs, messages,
 * energy with full double precision) per configuration of both GEMMs.
 * The CI determinism job runs it at --threads 1 and --threads 8 and
 * byte-diffs the two files.
 *
 * An unknown flag, or a flag without its value, exits 1.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "map/detailed_cache_sim.hh"
#include "sim/bench_json.hh"
#include "sim/parallel.hh"
#include "tech/geometry.hh"
#include "tech/tech_params.hh"

namespace {

using namespace bfree;
using map::DetailedCacheOptions;
using map::DetailedCacheResult;
using map::DetailedCacheSim;

/** Deterministic small int8 values. */
std::vector<std::vector<std::int8_t>>
make_matrix(unsigned rows, unsigned cols, int seed)
{
    std::vector<std::vector<std::int8_t>> m(rows);
    for (unsigned r = 0; r < rows; ++r) {
        m[r].resize(cols);
        for (unsigned c = 0; c < cols; ++c)
            m[r][c] = static_cast<std::int8_t>(
                ((seed + 3 * r + 7 * c) % 23) - 11);
    }
    return m;
}

/** Position-sensitive checksum over the accumulator matrix; the sum
 *  wraps modulo 2^64 instead of overflowing. */
std::int64_t
checksum(const std::vector<std::vector<std::int32_t>> &accs)
{
    std::uint64_t sum = 0;
    for (std::size_t f = 0; f < accs.size(); ++f)
        for (std::size_t w = 0; w < accs[f].size(); ++w)
            sum += static_cast<std::uint64_t>(std::int64_t(accs[f][w]))
                   * (f * 1315423911u + w * 2654435761u + 1);
    return static_cast<std::int64_t>(sum);
}

/** One whole-cache GEMM workload. */
struct Gemm
{
    const char *prefix; ///< BenchJson section / dump-line prefix.
    unsigned k;
    unsigned filters;
    unsigned waves;
};

/** One engine configuration under test. */
struct Config
{
    const char *name;
    unsigned threads;
};

struct Row
{
    DetailedCacheResult result;
    double seconds = 0.0;
};

/** Every configuration's run of one GEMM. */
struct GemmRun
{
    std::vector<Row> rows; ///< One per Config.
    std::uint64_t cycles = 0; ///< The closed-form drain time.
};

/**
 * Runs @p gemm @p reps times under each configuration. Returns nullopt
 * after a diagnostic when a run diverges from the integer reference or
 * from detailed_cache_formula.
 */
std::optional<GemmRun>
run_gemm(const Gemm &gemm, const std::vector<Config> &configs,
         std::size_t reps)
{
    const unsigned k = gemm.k, filters = gemm.filters, waves = gemm.waves;
    tech::CacheGeometry geom;
    tech::TechParams tech;
    const auto fbank = make_matrix(filters, k, 41);
    const auto inputs = make_matrix(waves, k, 5);

    // The ground truth every configuration must reproduce.
    const unsigned rows = DetailedCacheSim(geom, tech).rowsFor(k);
    const std::uint64_t cps =
        std::uint64_t((k + rows - 1) / rows) * (8 / 4);
    GemmRun run;
    run.cycles = map::detailed_cache_formula(
        rows, map::partition_filters(filters, geom.numSlices), waves, cps,
        tech.routerHopCycles, tech.interSliceHopCycles);
    const std::int64_t expected = [&] {
        std::vector<std::vector<std::int32_t>> ref(filters);
        for (unsigned f = 0; f < filters; ++f) {
            ref[f].resize(waves);
            for (unsigned w = 0; w < waves; ++w) {
                std::int32_t acc = 0;
                for (unsigned i = 0; i < k; ++i)
                    acc += std::int32_t(fbank[f][i]) *
                           std::int32_t(inputs[w][i]);
                ref[f][w] = acc;
            }
        }
        return checksum(ref);
    }();

    run.rows.resize(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const std::string name =
            std::string(gemm.prefix) + configs[i].name;
        DetailedCacheOptions opts;
        opts.threads = configs[i].threads;

        const auto start = std::chrono::steady_clock::now();
        for (std::size_t r = 0; r < reps; ++r) {
            DetailedCacheSim sim(geom, tech, opts);
            run.rows[i].result = sim.runGemm(fbank, inputs);
        }
        const auto stop = std::chrono::steady_clock::now();
        run.rows[i].seconds =
            std::chrono::duration<double>(stop - start).count();

        const auto &res = run.rows[i].result;
        if (checksum(res.accs) != expected) {
            std::cerr << name << ": accumulators diverged from the "
                      << "integer reference\n";
            return std::nullopt;
        }
        if (res.cycles != run.cycles) {
            std::cerr << name << ": " << res.cycles
                      << " cycles != formula " << run.cycles << "\n";
            return std::nullopt;
        }
    }
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned threads = sim::threads_from_args(argc, argv);
    std::string out_path = "BENCH_micro_detailed.json";
    std::string baseline_path;
    std::string dump_path;
    std::string threads_arg;
    if (!sim::parse_bench_flags(argc, argv,
                                {{"--out", &out_path},
                                 {"--check-baseline", &baseline_path},
                                 {"--dump-stats", &dump_path},
                                 {"--threads", &threads_arg}}))
        return 1;

    const std::vector<Gemm> gemms = {
        {"", 16, 42, 896},
        {"heavy_", 256, 448, 64},
    };
    const std::vector<Config> configs = {
        {"sharded_1t", 1},
        {"sharded_nt", threads},
    };
    const std::size_t reps = dump_path.empty() ? 3 : 1;

    std::vector<GemmRun> runs;
    for (const Gemm &gemm : gemms) {
        auto run = run_gemm(gemm, configs, reps);
        if (!run)
            return 2;
        runs.push_back(std::move(*run));
    }

    if (!dump_path.empty()) {
        // Deterministic statistics only: byte-identical for any
        // --threads, so CI can diff runs directly.
        std::ofstream out(dump_path);
        if (!out) {
            std::cerr << "cannot write " << dump_path << "\n";
            return 1;
        }
        for (std::size_t g = 0; g < gemms.size(); ++g) {
            for (std::size_t i = 0; i < configs.size(); ++i) {
                const auto &res = runs[g].rows[i].result;
                char line[256];
                std::snprintf(
                    line, sizeof(line),
                    "%s%s checksum=%lld cycles=%llu events=%llu "
                    "epochs=%llu messages=%llu energy=%.17g\n",
                    gemms[g].prefix, configs[i].name,
                    static_cast<long long>(checksum(res.accs)),
                    static_cast<unsigned long long>(res.cycles),
                    static_cast<unsigned long long>(res.events),
                    static_cast<unsigned long long>(res.epochs),
                    static_cast<unsigned long long>(res.crossMessages),
                    res.energy.total());
                out << line;
            }
        }
        std::cout << "wrote " << dump_path << "\n";
        return 0;
    }

    sim::BenchJson json;
    json.set("host", "hardware_threads",
             static_cast<double>(sim::resolve_threads(0)));
    for (std::size_t g = 0; g < gemms.size(); ++g) {
        const Gemm &gemm = gemms[g];
        const GemmRun &run = runs[g];
        std::cout << "micro_detailed: full-cache GEMM, " << gemm.filters
                  << " filters x " << gemm.waves << " waves, k=" << gemm.k
                  << ", " << reps << " reps\n";
        const std::string workload = std::string(gemm.prefix) + "workload";
        json.set(workload, "filters", gemm.filters);
        json.set(workload, "k", gemm.k);
        json.set(workload, "waves", gemm.waves);
        json.set(workload, "reps", double(reps));
        json.set(workload, "cycles", double(run.cycles));

        const double base_seconds = run.rows[0].seconds;
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const Row &row = run.rows[i];
            const std::string name =
                std::string(gemm.prefix) + configs[i].name;
            const double events_s =
                row.seconds > 0.0
                    ? double(row.result.events) * reps / row.seconds
                    : 0.0;
            const double waves_s =
                row.seconds > 0.0 ? double(gemm.waves) * reps / row.seconds
                                  : 0.0;
            const double speedup =
                row.seconds > 0.0 ? base_seconds / row.seconds : 0.0;
            char line[160];
            std::snprintf(line, sizeof(line),
                          "%-20s %8.4f s  %12.0f events/s  %8.1f waves/s  "
                          "speedup %6.2fx\n",
                          name.c_str(), row.seconds, events_s, waves_s,
                          speedup);
            std::cout << line;
            json.set(name, "seconds", row.seconds);
            json.set(name, "events", double(row.result.events));
            json.set(name, "events_per_s", events_s);
            json.set(name, "waves_per_s", waves_s);
            json.set(name, "speedup_vs_1t", speedup);
        }
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
        const double ref =
            baseline.get("sharded_nt", "waves_per_s", 0.0);
        const double now =
            json.get("sharded_nt", "waves_per_s", 0.0);
        // Only a >5x collapse vs the committed baseline fails: the gate
        // catches algorithmic regressions, not runner noise.
        if (ref > 0.0 && now < ref / 5.0) {
            std::cerr << "sharded_nt: " << now
                      << " waves/s is >5x below baseline " << ref << "\n";
            return 1;
        }
        std::cout << "baseline check passed (threshold: 5x)\n";
    }
    return 0;
}
