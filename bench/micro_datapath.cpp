/**
 * @file
 * Tiered-vs-legacy datapath throughput: steady-state MAC/s of the
 * scalar decomposition engine against the memoized-table engine, per
 * (BCE mode, precision) point, with inline bit-exactness verification.
 *
 * Each point is one SweepRunner job (--threads N, default hardware
 * concurrency) owning a private legacy/tiered engine pair, so stdout
 * and the JSON are laid out deterministically for any thread count
 * (the measured rates themselves are wall-clock, not deterministic).
 *
 * Output: a BenchJson document (--out FILE, default BENCH_pr3.json)
 * with one section per point carrying legacy_macs_per_s,
 * tiered_macs_per_s and speedup. With --check-baseline FILE the run
 * exits 1 when any point's tiered MAC/s regressed more than 5x below
 * the committed baseline (the non-gating CI perf-smoke job).
 */

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bce/bce.hh"
#include "mem/energy_account.hh"
#include "mem/subarray.hh"
#include "sim/bench_json.hh"
#include "sim/cpuid.hh"
#include "sim/parallel.hh"
#include "tech/geometry.hh"
#include "tech/tech_params.hh"

namespace {

using namespace bfree;

/** One benchmark point. */
struct Point
{
    const char *name;
    bce::BceMode mode;
    unsigned bits;
    std::size_t reps;
};

/** A self-contained BCE rig at one tier. */
struct Engine
{
    tech::CacheGeometry geom{};
    tech::TechParams tech{};
    mem::EnergyAccount account;
    mem::Subarray subarray{geom, tech, account};
    bce::Bce bce{subarray, tech, account};

    Engine(bce::ExecTier tier, bce::BceMode mode)
    {
        bce.setTier(tier);
        bce.loadMultLutImage();
        bce.setMode(mode);
    }
};

/** Deterministic int8 operand pattern. */
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

struct Measurement
{
    double macsPerSecond = 0.0;
    std::int64_t checksum = 0;
};

/**
 * Time @p reps passes of the point's span kernel on @p engine. One
 * untimed warm-up pass first, so the tiered engine's one-off table
 * seeding (and both engines' cache warm-up) stays out of the
 * steady-state rate.
 */
Measurement
measure(Engine &engine, const Point &p, const std::vector<std::int8_t> &a,
        const std::vector<std::int8_t> &b)
{
    const std::size_t len = a.size();
    auto pass = [&]() -> std::int64_t {
        if (p.mode == bce::BceMode::Conv)
            return engine.bce.dotProductSpan(a.data(), b.data(), len,
                                             p.bits);
        return engine.bce.matmulDotSpan(a.data(), b.data(), len, p.bits);
    };

    Measurement m;
    m.checksum = pass(); // warm-up: seeds memo tables, not timed

    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < p.reps; ++r)
        m.checksum += pass();
    const auto stop = std::chrono::steady_clock::now();

    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    const double macs = static_cast<double>(p.reps) * len;
    m.macsPerSecond = seconds > 0.0 ? macs / seconds : 0.0;
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned threads = sim::threads_from_args(argc, argv);
    std::string out_path = "BENCH_pr3.json";
    std::string baseline_path;
    std::string threads_arg;
    if (!sim::parse_bench_flags(argc, argv,
                                {{"--out", &out_path},
                                 {"--check-baseline", &baseline_path},
                                 {"--threads", &threads_arg}}))
        return 1;

    const std::vector<Point> points = {
        {"conv_8bit", bce::BceMode::Conv, 8, 4000},
        {"conv_4bit", bce::BceMode::Conv, 4, 4000},
        {"matmul_8bit", bce::BceMode::Matmul, 8, 4000},
        {"matmul_4bit", bce::BceMode::Matmul, 4, 4000},
    };
    const std::size_t span_len = 512;

    struct Row
    {
        Measurement legacy, tiered;
    };
    std::vector<Row> rows(points.size()); // pre-sized per-job slots

    std::vector<sim::SweepJob> jobs;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        jobs.push_back({p.name, [&, i, p](sim::SweepContext &ctx) {
            const int limit = p.bits == 4 ? 7 : 127;
            const std::vector<std::int8_t> a =
                pattern(span_len, int(i) * 2 + 1, limit);
            const std::vector<std::int8_t> b =
                pattern(span_len, int(i) * 2 + 2, limit);

            Engine legacy(bce::ExecTier::Legacy, p.mode);
            Engine tiered(bce::ExecTier::Tiered, p.mode);
            rows[i].legacy = measure(legacy, p, a, b);
            rows[i].tiered = measure(tiered, p, a, b);

            if (rows[i].legacy.checksum != rows[i].tiered.checksum) {
                std::cerr << p.name
                          << ": tiered checksum diverged from legacy\n";
                std::exit(2);
            }
            char line[160];
            std::snprintf(line, sizeof(line),
                          "%-12s legacy %10.2f MMAC/s  tiered %10.2f "
                          "MMAC/s  speedup %6.2fx\n",
                          p.name, rows[i].legacy.macsPerSecond / 1e6,
                          rows[i].tiered.macsPerSecond / 1e6,
                          rows[i].tiered.macsPerSecond
                              / rows[i].legacy.macsPerSecond);
            ctx.out << line;
        }});
    }

    sim::SweepRunner sweeper(threads);
    const sim::SweepReport report = sweeper.run(std::move(jobs));
    std::cout << "micro_datapath: steady-state MAC/s per (mode, bits)\n";
    std::cout << report.output();

    sim::BenchJson json;
    json.set("host", "hardware_threads",
             static_cast<double>(sim::resolve_threads(0)));
    json.set("host", "simd_level",
             static_cast<double>(sim::active_simd_level()));
    for (std::size_t i = 0; i < points.size(); ++i) {
        json.set(points[i].name, "legacy_macs_per_s",
                 rows[i].legacy.macsPerSecond);
        json.set(points[i].name, "tiered_macs_per_s",
                 rows[i].tiered.macsPerSecond);
        json.set(points[i].name, "speedup",
                 rows[i].tiered.macsPerSecond
                     / rows[i].legacy.macsPerSecond);
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
        for (std::size_t i = 0; i < points.size(); ++i) {
            const double ref = baseline.get(points[i].name,
                                            "tiered_macs_per_s", 0.0);
            const double now = rows[i].tiered.macsPerSecond;
            // Only a >5x collapse vs the committed baseline fails: the
            // gate catches algorithmic regressions, not runner noise.
            if (ref > 0.0 && now < ref / 5.0) {
                std::cerr << points[i].name << ": tiered " << now
                          << " MAC/s is >5x below baseline " << ref
                          << "\n";
                ok = false;
            }
        }
        if (!ok)
            return 1;
        std::cout << "baseline check passed (threshold: 5x)\n";
    }
    return 0;
}
