/**
 * @file
 * Ablation — fabric scaling.
 *
 * BFree's performance comes from sub-array-level parallelism: 4480
 * sub-arrays x 4 MACs/cycle at full cache. This ablation sweeps the
 * slice count (i.e. how much of the LLC is converted to PIM) and the
 * batch size, to show where compute parallelism stops paying because
 * the main-memory channel takes over — the system-level story behind
 * Fig. 13/14.
 *
 * All sweep points run on the parallel sweep engine (--threads N,
 * default: hardware concurrency); results are joined in job order, so
 * the output is bit-identical for any thread count. Each slice-count
 * point is additionally cross-validated through the event-driven
 * detailed model of one sub-bank chain (a one-column systolic grid),
 * which gives the sweep real per-job work and ties the analytic
 * numbers back to the cycle-accurate datapath.
 */

#include <cstdio>
#include <vector>

#include "core/bfree.hh"
#include "core/report.hh"
#include "map/detailed_slice_sim.hh"
#include "sim/parallel.hh"
#include "sim/random.hh"

namespace {

using namespace bfree;

/** One self-contained detailed chain run (weights + input waves). */
struct ChainJob
{
    unsigned nodes = 0;
    unsigned sliceLen = 0;
    unsigned bits = 0;
    std::vector<std::vector<std::int8_t>> weights; ///< [nodes][sliceLen]
    std::vector<std::vector<std::int8_t>> inputs;  ///< [waves][nodes*sliceLen]
};

/** Deterministic detailed-chain job for one sweep point. */
ChainJob
make_chain_job(unsigned nodes, unsigned slice_len, unsigned waves,
               unsigned bits, std::uint64_t seed)
{
    ChainJob job;
    job.nodes = nodes;
    job.sliceLen = slice_len;
    job.bits = bits;
    sim::Rng rng(seed);
    const std::int64_t lo = bits == 4 ? -8 : -128;
    const std::int64_t hi = bits == 4 ? 7 : 127;
    job.weights.assign(nodes, std::vector<std::int8_t>(slice_len));
    for (auto &slice : job.weights) {
        for (auto &w : slice)
            w = static_cast<std::int8_t>(rng.uniformInt(lo, hi));
    }
    job.inputs.assign(
        waves,
        std::vector<std::int8_t>(std::size_t(nodes) * slice_len));
    for (auto &wave : job.inputs) {
        for (auto &x : wave)
            x = static_cast<std::int8_t>(rng.uniformInt(lo, hi));
    }
    return job;
}

/** Reference dot product of wave @p wave against the job's weights. */
std::int32_t
reference_dot(const ChainJob &job, unsigned wave)
{
    std::int32_t sum = 0;
    for (unsigned n = 0; n < job.nodes; ++n) {
        for (unsigned i = 0; i < job.sliceLen; ++i) {
            sum += std::int32_t(job.weights[n][i])
                   * std::int32_t(
                         job.inputs[wave][std::size_t(n) * job.sliceLen
                                          + i]);
        }
    }
    return sum;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bfree;

    const unsigned threads = sim::threads_from_args(argc, argv);
    core::BFreeAccelerator acc;

    const std::vector<unsigned> slice_points = {1u, 2u, 4u, 7u, 14u};
    const std::vector<unsigned> batch_points = {1u, 2u, 4u, 8u, 16u, 32u};

    // One job list covers both sweeps; runMany shards it across the
    // work-stealing pool and returns results in job order.
    std::vector<map::ExecJob> jobs;
    for (unsigned slices : slice_points) {
        map::ExecConfig cfg;
        cfg.batch = 16;
        cfg.mapper.slices = slices;
        jobs.push_back({dnn::make_vgg16(), cfg});
    }
    for (unsigned batch : batch_points) {
        map::ExecConfig cfg;
        cfg.batch = batch;
        jobs.push_back({dnn::make_bert_base(), cfg});
    }
    const std::vector<map::RunResult> results = acc.runMany(jobs, threads);

    std::printf("Ablation — slice-count scaling (VGG-16, batch 16, "
                "DRAM)\n\n");
    std::printf("%7s %12s %14s %12s %12s\n", "slices", "subarrays",
                "latency(ms)", "compute(ms)", "speedup");
    const double base = results[0].secondsPerInference();
    for (std::size_t i = 0; i < slice_points.size(); ++i) {
        const map::RunResult &r = results[i];
        std::printf("%7u %12u %14.3f %12.3f %11.2fx\n", slice_points[i],
                    slice_points[i] * acc.geometry().subarraysPerSlice(),
                    r.secondsPerInference() * 1e3,
                    r.time.compute * 1e3,
                    base / r.secondsPerInference());
    }

    std::printf("\nAblation — batch scaling (BERT-base, DRAM)\n\n");
    std::printf("%7s %16s %16s %14s\n", "batch", "latency/inf(ms)",
                "weight-load(ms)", "energy/inf(mJ)");
    for (std::size_t i = 0; i < batch_points.size(); ++i) {
        const map::RunResult &r = results[slice_points.size() + i];
        std::printf("%7u %16.3f %16.3f %14.2f\n", batch_points[i],
                    r.secondsPerInference() * 1e3,
                    r.time.weightLoad * 1e3,
                    r.joulesPerInference() * 1e3);
    }

    // Cross-validate each slice point through the event-driven model:
    // one sub-bank chain (a one-column grid) per (point, precision),
    // exact LUT-datapath integers. These jobs carry the sweep's real
    // CPU work, so this is also where extra worker threads pay off.
    // Each job runs a private grid and writes only its own result slot.
    std::printf("\nDetailed cross-validation (8-node chains)\n\n");
    std::printf("%7s %6s %10s %8s %10s %8s\n", "point", "bits",
                "slice_len", "waves", "cycles", "exact");
    std::vector<ChainJob> detailed;
    const unsigned waves = 96;
    const unsigned slice_len = 128;
    for (std::size_t i = 0; i < slice_points.size(); ++i) {
        for (unsigned bits : {8u, 4u}) {
            detailed.push_back(make_chain_job(
                8, slice_len, waves, bits,
                0xab1a7e00ULL + 2 * slice_points[i] + bits));
        }
    }
    std::vector<map::DetailedGridResult> runs(detailed.size());
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < detailed.size(); ++i) {
        tasks.push_back([&acc, &detailed, &runs, i] {
            const ChainJob &job = detailed[i];
            map::DetailedSliceSim grid(acc.geometry(), acc.techParams(),
                                       job.nodes, 1, job.sliceLen,
                                       job.bits);
            grid.loadWeights({job.weights});
            runs[i] = grid.run(job.inputs);
        });
    }
    sim::ThreadPool(threads).run(std::move(tasks));
    bool all_exact = true;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const std::vector<std::int32_t> &out = runs[i].outputs[0];
        bool exact = out.size() == waves;
        for (unsigned w = 0; exact && w < waves; ++w)
            exact = out[w] == reference_dot(detailed[i], w);
        all_exact = all_exact && exact;
        std::printf("%7zu %6u %10u %8u %10llu %8s\n", i / 2,
                    detailed[i].bits, slice_len, waves,
                    static_cast<unsigned long long>(runs[i].cycles),
                    exact ? "yes" : "NO");
    }

    std::printf("\nCompute scales with slices until the channel "
                "dominates; batching amortizes the weight stream until "
                "intermediate spill traffic takes over.\n");
    return all_exact ? 0 : 1;
}
