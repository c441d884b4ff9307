/**
 * @file
 * The abstract's headline numbers, regenerated in one run:
 *
 *   - 1.72x performance and 3.14x lower energy vs Neural Cache
 *     (Inception-v3, 35 MB LLC);
 *   - +5.6% cache area;
 *   - 3.97x vs iso-area systolic accelerator (VGG-16, one slice);
 *   - 101x / 3x speed and 91x / 11x energy vs CPU / GPU on BERT-base;
 *   - CNN ratios of Section V-D (259x/5.5x Inception, 193x/3x VGG at
 *     batch 16).
 *
 * Each comparison is an independent SweepRunner job (--threads N,
 * default: hardware concurrency). Jobs print to their private streams
 * and record their ratios as statistics; the join concatenates both in
 * job-index order, so stdout and the stats dump are bit-identical for
 * any thread count.
 */

#include <cstring>
#include <iostream>
#include <utility>

#include "core/bfree.hh"
#include "core/report.hh"
#include "sim/bench_json.hh"
#include "sim/parallel.hh"

int
main(int argc, char **argv)
{
    using namespace bfree;

    const unsigned threads = sim::threads_from_args(argc, argv);
    std::string json_path;
    for (int i = 1; i + 1 < argc; ++i)
        if (!std::strcmp(argv[i], "--json"))
            json_path = argv[i + 1];
    core::BFreeAccelerator acc;

    // Pre-sized per-job slots for the machine-readable export; jobs
    // write only their own slot, so the merge stays deterministic.
    std::vector<std::vector<std::pair<const char *, double>>> exported(6);

    std::vector<sim::SweepJob> jobs;

    jobs.push_back({"neural_cache", [&](sim::SweepContext &ctx) {
        map::ExecConfig cfg;
        cfg.mapper.forcedMode = map::ExecMode::ConvMode;
        const auto net = dnn::make_inception_v3();
        const auto bf = acc.run(net, cfg);
        const auto nc = acc.runNeuralCache(net, cfg);
        const double speed =
            nc.secondsPerInference() / bf.secondsPerInference();
        const double energy =
            nc.joulesPerInference() / bf.joulesPerInference();
        char line[128];
        std::snprintf(line, sizeof(line),
                      "vs Neural Cache (Inception-v3): %.2fx speed "
                      "(1.72x), %.2fx energy (3.14x)\n",
                      speed, energy);
        ctx.out << line;
        ctx.scalar("speedup", "speed vs baseline").set(speed);
        ctx.scalar("energy_ratio", "energy vs baseline").set(energy);
        exported[ctx.jobIndex] = {{"neural_cache_speedup", speed},
                                  {"neural_cache_energy_ratio", energy}};
    }});

    jobs.push_back({"area", [&](sim::SweepContext &ctx) {
        char line[64];
        const double overhead = 100.0 * acc.area().totalOverheadFraction;
        std::snprintf(line, sizeof(line),
                      "cache area overhead: %.2f%% (5.6%%)\n", overhead);
        ctx.out << line;
        ctx.scalar("area_overhead_pct", "added cache area %").set(overhead);
        exported[ctx.jobIndex] = {{"area_overhead_pct", overhead}};
    }});

    jobs.push_back({"eyeriss", [&](sim::SweepContext &ctx) {
        map::ExecConfig cfg;
        cfg.mapper.slices = 1;
        const auto vgg = dnn::make_vgg16();
        const double speed = acc.runEyeriss(vgg).secondsPerInference()
                             / acc.run(vgg, cfg).secondsPerInference();
        char line[80];
        std::snprintf(line, sizeof(line),
                      "vs iso-area Eyeriss (VGG-16): %.2fx (3.97x)\n",
                      speed);
        ctx.out << line;
        ctx.scalar("speedup", "speed vs baseline").set(speed);
        exported[ctx.jobIndex] = {{"eyeriss_speedup", speed}};
    }});

    jobs.push_back({"bert_cpu_gpu", [&](sim::SweepContext &ctx) {
        const auto bert = dnn::make_bert_base();
        const auto bf = acc.run(bert);
        const auto cpu = acc.runCpu(bert, 1);
        const auto gpu = acc.runGpu(bert, 1);
        char line[160];
        std::snprintf(line, sizeof(line),
                      "BERT-base vs CPU: %.0fx speed (101x), %.0fx "
                      "energy (91x)\n",
                      cpu.secondsPerInference / bf.secondsPerInference(),
                      cpu.joulesPerInference / bf.joulesPerInference());
        ctx.out << line;
        std::snprintf(line, sizeof(line),
                      "BERT-base vs GPU: %.1fx speed (3x), %.1fx energy "
                      "(11x)\n",
                      gpu.secondsPerInference / bf.secondsPerInference(),
                      gpu.joulesPerInference / bf.joulesPerInference());
        ctx.out << line;
        ctx.scalar("cpu_speedup", "speed vs CPU")
            .set(cpu.secondsPerInference / bf.secondsPerInference());
        ctx.scalar("gpu_speedup", "speed vs GPU")
            .set(gpu.secondsPerInference / bf.secondsPerInference());
        exported[ctx.jobIndex] = {
            {"bert_cpu_speedup",
             cpu.secondsPerInference / bf.secondsPerInference()},
            {"bert_gpu_speedup",
             gpu.secondsPerInference / bf.secondsPerInference()}};
    }});

    jobs.push_back({"cnn_batch16", [&](sim::SweepContext &ctx) {
        for (const dnn::Network &net :
             {dnn::make_inception_v3(), dnn::make_vgg16()}) {
            map::ExecConfig cfg;
            cfg.batch = 16;
            const auto bf = acc.run(net, cfg);
            const auto cpu = acc.runCpu(net, 16);
            const auto gpu = acc.runGpu(net, 16);
            char line[200];
            std::snprintf(
                line, sizeof(line),
                "%s (batch 16) vs CPU/GPU: %.0fx / %.1fx speed, "
                "%.0fx / %.1fx energy\n",
                net.name().c_str(),
                cpu.secondsPerInference / bf.secondsPerInference(),
                gpu.secondsPerInference / bf.secondsPerInference(),
                cpu.joulesPerInference / bf.joulesPerInference(),
                gpu.joulesPerInference / bf.joulesPerInference());
            ctx.out << line;
        }
    }});

    jobs.push_back({"functional_plan", [&](sim::SweepContext &ctx) {
        // The execution-plan layer end to end: compile once, amortize
        // across a batch on the pool. Everything printed here is
        // deterministic (counts and bytes, no wall clock), so the
        // 1-vs-N-thread determinism check covers this job too.
        const auto net = dnn::make_tiny_cnn();
        sim::Rng rng(12);
        const core::NetworkWeights weights =
            core::random_weights(net, rng);
        const core::NetworkPlan plan = acc.compilePlan(net, weights, 8);

        std::vector<dnn::FloatTensor> batch;
        for (int i = 0; i < 8; ++i) {
            dnn::FloatTensor in({1, 8, 8});
            in.fillUniform(rng, 0.0, 1.0);
            batch.push_back(std::move(in));
        }
        const core::BatchResult r = acc.runFunctionalBatch(plan, batch);

        char line[160];
        std::snprintf(line, sizeof(line),
                      "functional plan (tiny CNN): %zu layers frozen "
                      "once (%.1f KB), arena %zu B, %llu-input batch, "
                      "%.2f MMACs\n",
                      plan.layers().size(),
                      static_cast<double>(plan.stats().frozenWeightBytes)
                          / 1024.0,
                      plan.stats().arenaBytes,
                      static_cast<unsigned long long>(plan.runsServed()),
                      static_cast<double>(r.stats.macs) / 1e6);
        ctx.out << line;
        ctx.scalar("plan_arena_bytes", "steady-state scratch arena")
            .set(static_cast<double>(plan.stats().arenaBytes));
        ctx.scalar("plan_runs_served", "inferences amortized")
            .set(static_cast<double>(plan.runsServed()));
        exported[ctx.jobIndex] = {
            {"plan_arena_bytes",
             static_cast<double>(plan.stats().arenaBytes)},
            {"plan_frozen_values",
             static_cast<double>(plan.stats().frozenValues)},
            {"plan_batch_macs", static_cast<double>(r.stats.macs)}};
    }});

    sim::SweepRunner sweeper(threads);
    const sim::SweepReport report = sweeper.run(std::move(jobs));

    std::cout << "BFree headline summary (paper value in parentheses)\n";
    std::cout << "====================================================\n";
    std::cout << report.output();
    std::cout << "(paper: Inception 259x/5.5x speed & 307x/11.8x "
                 "energy; VGG-16 193x/3x & 253x/7x)\n";
    std::cout << "\nmerged sweep statistics (job-index order):\n";
    report.dumpStats(std::cout);

    if (!json_path.empty()) {
        // Append to an existing document (e.g. micro_datapath's
        // BENCH_micro_datapath.json) rather than clobbering it.
        sim::BenchJson json;
        json.load(json_path);
        for (const auto &slot : exported)
            for (const auto &kv : slot)
                json.set("headline_summary", kv.first, kv.second);
        if (!json.save(json_path)) {
            std::cerr << "cannot write " << json_path << "\n";
            return 1;
        }
        std::cout << "wrote " << json_path << "\n";
    }
    return 0;
}
