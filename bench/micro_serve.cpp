/**
 * @file
 * Open-loop serving benchmark: sustained request throughput and the
 * latency distribution under Poisson and bursty arrivals.
 *
 * Closed-loop batch benches (micro_plan) measure how fast the engine
 * chews a batch it already has; this bench measures what the paper's
 * datapath delivers as a *service*: requests arrive on a virtual
 * clock whether or not the server is ready, the continuous batcher
 * merges them into in-flight batches, and the report is a latency
 * distribution (p50/p95/p99 in serve ticks) plus deadline misses —
 * not just images/s. The offered load is derived from a measured
 * capacity probe, so the Poisson section runs near saturation and the
 * bursty section deliberately overruns the admission bound.
 *
 * Output: a BenchJson document (--out FILE, default BENCH_pr6.json)
 * with serve_capacity / serve_poisson / serve_bursty sections. With
 * --check-baseline FILE the run exits 1 when a tracked rate collapsed
 * more than 5x below the committed baseline (non-gating CI smoke).
 *
 * With --dump-stats the bench instead prints the deterministic replay
 * record — the full batch log, the serve stats group (histograms
 * included) and the output checksum, with no wall-clock anywhere —
 * which the CI determinism job byte-compares at --threads 1 vs 8.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/network_plan.hh"
#include "dnn/layer.hh"
#include "dnn/network.hh"
#include "sim/bench_json.hh"
#include "sim/parallel.hh"
#include "sim/random.hh"

#include "serve/server.hh"
#include "serve/trace.hh"

namespace {

using namespace bfree;
using Clock = std::chrono::steady_clock;

/** The served model: a small MLP, heavy enough to batch usefully. */
dnn::Network
make_served_mlp()
{
    dnn::Network net("serve-mlp-256", {128, 1, 1});
    net.add(dnn::make_fc("fc1", 128, 256));
    net.add(dnn::make_activation("act1", dnn::LayerKind::Relu,
                                 {256, 1, 1}));
    net.add(dnn::make_fc("fc2", 256, 64));
    net.add(dnn::make_activation("act2", dnn::LayerKind::Sigmoid,
                                 {64, 1, 1}));
    net.add(dnn::make_fc("fc3", 64, 10));
    net.add(dnn::make_activation("prob", dnn::LayerKind::Softmax,
                                 {10, 1, 1}));
    return net;
}

/** Bit-pattern checksum over served outputs in id order. */
std::uint64_t
outputs_checksum(const serve::ReplayReport &rep)
{
    std::uint64_t sum = 0;
    for (const dnn::FloatTensor &t : rep.outputs) {
        for (std::size_t i = 0; i < t.size(); ++i) {
            std::uint32_t bits;
            std::memcpy(&bits, &t[i], sizeof bits);
            sum = sum * 1099511628211ull + bits;
        }
        sum = sum * 31 + t.size();
    }
    return sum;
}

void
emit_section(sim::BenchJson &json, const std::string &section,
             const serve::ServeEngine &engine,
             const serve::ReplayReport &rep, std::size_t offered,
             double wallSeconds)
{
    const serve::ServeStats &s = engine.stats();
    json.set(section, "offered_requests",
             static_cast<double>(offered));
    json.set(section, "served_requests",
             static_cast<double>(rep.served.size()));
    json.set(section, "rejected_queue_full", s.rejectedFull.value());
    json.set(section, "batches", s.batches.value());
    json.set(section, "mean_batch_occupancy",
             s.batches.value() > 0.0
                 ? s.batchedRequests.value() / s.batches.value()
                 : 0.0);
    json.set(section, "latency_p50_ticks", s.latencyPercentile(0.50));
    json.set(section, "latency_p95_ticks", s.latencyPercentile(0.95));
    json.set(section, "latency_p99_ticks", s.latencyPercentile(0.99));
    json.set(section, "queue_wait_p99_ticks",
             s.queueWaitPercentile(0.99));
    json.set(section, "deadline_miss_rate",
             s.completed.value() > 0.0
                 ? s.deadlineMisses.value() / s.completed.value()
                 : 0.0);
    json.set(section, "virtual_end_tick",
             static_cast<double>(rep.endTick));
    json.set(section, "sustained_req_per_s",
             wallSeconds > 0.0
                 ? static_cast<double>(rep.served.size()) / wallSeconds
                 : 0.0);
    std::printf("%-14s %5zu/%zu served  %4.0f batches  occ %5.2f  "
                "p50/p95/p99 %6.0f/%6.0f/%6.0f ticks  miss %5.1f%%  "
                "%8.1f req/s\n",
                section.c_str(), rep.served.size(), offered,
                s.batches.value(),
                json.get(section, "mean_batch_occupancy"),
                s.latencyPercentile(0.50), s.latencyPercentile(0.95),
                s.latencyPercentile(0.99),
                100.0 * json.get(section, "deadline_miss_rate"),
                json.get(section, "sustained_req_per_s"));
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned threads = sim::threads_from_args(argc, argv);
    std::string out_path = "BENCH_pr6.json";
    std::string baseline_path;
    bool dump_stats = false;
    std::string threads_arg;
    if (!sim::parse_bench_flags(argc, argv,
                                {{"--out", &out_path},
                                 {"--check-baseline", &baseline_path},
                                 {"--dump-stats", nullptr, &dump_stats},
                                 {"--threads", &threads_arg}}))
        return 1;

    const dnn::Network net = make_served_mlp();
    sim::Rng wrng(17);
    const core::NetworkWeights weights = core::random_weights(net, wrng);
    const core::NetworkPlan plan =
        core::NetworkPlan::compile(net, weights, 8);

    serve::ServeConfig cfg;
    cfg.queueDepth = 32;
    cfg.batcher.maxBatch = 8;
    cfg.batcher.windowTicks = 400;
    cfg.threads = threads;
    cfg.cyclesPerTick = 1000;
    cfg.stats.occupancyBins = cfg.batcher.maxBatch + 1;
    // Latencies here live in the hundreds-to-thousands of ticks;
    // tighten the histogram so a bin is 128 ticks, not the default 8k.
    cfg.stats.latencyHistMaxTicks = 32768;
    cfg.stats.latencyBins = 256;

    // --- capacity probe ---------------------------------------------
    // One full batch's modelled service time sets the offered load:
    // its per-request share is the saturation inter-arrival gap. The
    // probe is deterministic (BCE cycles), so the derived trace is
    // identical on every host.
    sim::Tick perRequestTicks = 0;
    {
        serve::ServeEngine probe(plan, cfg);
        serve::ArrivalTrace burst;
        for (std::size_t i = 0; i < cfg.batcher.maxBatch; ++i)
            burst.arrivals.push_back({.tick = 1, .inputSeed = 1000 + i,
                                      .deadlineTicks = serve::no_deadline});
        const serve::ReplayReport rep = probe.replay(burst);
        const sim::Tick service = rep.endTick - 1;
        perRequestTicks =
            std::max<sim::Tick>(1, service / cfg.batcher.maxBatch);
    }

    // --- offered loads ----------------------------------------------
    const std::size_t poisson_n = 256;
    const std::size_t bursty_n = 256;
    // Poisson at ~80% of saturation; deadline at 8 full-batch services.
    const double poissonGap =
        1.25 * static_cast<double>(perRequestTicks);
    const sim::Tick deadline =
        8 * perRequestTicks * cfg.batcher.maxBatch;
    sim::Rng prng(42);
    const serve::ArrivalTrace poisson =
        serve::poisson_trace(prng, poisson_n, poissonGap, deadline);
    // Bursts twice the queue bound with a tighter deadline: admission
    // control and deadline misses both engage.
    sim::Rng brng(43);
    const serve::ArrivalTrace bursty = serve::bursty_trace(
        brng, bursty_n, /*burstSize=*/2 * cfg.queueDepth,
        /*meanBurstGapTicks=*/static_cast<double>(perRequestTicks)
            * cfg.batcher.maxBatch * 12,
        deadline / 2);

    if (dump_stats) {
        // Deterministic block only: schedule, stats (histograms
        // included) and output checksums are byte-identical for any
        // --threads, so this output byte-compares across thread
        // counts. No wall-clock values anywhere.
        std::printf("micro_serve replay record: net=%s bits=8 "
                    "queue=%zu maxBatch=%zu window=%llu "
                    "cyclesPerTick=%llu\n",
                    net.name().c_str(), cfg.queueDepth,
                    cfg.batcher.maxBatch,
                    static_cast<unsigned long long>(
                        cfg.batcher.windowTicks),
                    static_cast<unsigned long long>(cfg.cyclesPerTick));
        for (const auto &[name, trace] :
             {std::pair<const char *, const serve::ArrivalTrace &>(
                  "poisson", poisson),
              std::pair<const char *, const serve::ArrivalTrace &>(
                  "bursty", bursty)}) {
            serve::ServeEngine engine(plan, cfg);
            const serve::ReplayReport rep = engine.replay(trace);
            std::printf("--- %s trace (%zu arrivals) ---\n", name,
                        trace.size());
            std::fputs(rep.batchLog.c_str(), stdout);
            std::ostringstream os;
            engine.stats().dumpAll(os);
            std::fputs(os.str().c_str(), stdout);
            std::printf("datapath_cycles %llu\n",
                        static_cast<unsigned long long>(
                            rep.datapathStats.cycles));
            std::printf("datapath_macs %llu\n",
                        static_cast<unsigned long long>(
                            rep.datapathStats.macs));
            std::printf("energy_total %.17g\n", rep.energyJoules);
            std::printf("output_checksum %016llx\n",
                        static_cast<unsigned long long>(
                            outputs_checksum(rep)));
        }
        return 0;
    }

    sim::BenchJson json;
    json.set("host", "hardware_threads",
             static_cast<double>(sim::resolve_threads(0)));
    json.set("serve_config", "queue_depth",
             static_cast<double>(cfg.queueDepth));
    json.set("serve_config", "max_batch",
             static_cast<double>(cfg.batcher.maxBatch));
    json.set("serve_config", "window_ticks",
             static_cast<double>(cfg.batcher.windowTicks));
    json.set("serve_config", "cycles_per_tick",
             static_cast<double>(cfg.cyclesPerTick));
    json.set("serve_capacity", "per_request_ticks",
             static_cast<double>(perRequestTicks));
    json.set("serve_capacity", "saturation_req_per_ktick",
             1000.0 / static_cast<double>(perRequestTicks));

    {
        serve::ServeEngine engine(plan, cfg);
        const auto t0 = Clock::now();
        const serve::ReplayReport rep = engine.replay(poisson);
        const auto t1 = Clock::now();
        emit_section(json, "serve_poisson", engine, rep, poisson.size(),
                     std::chrono::duration<double>(t1 - t0).count());
    }
    {
        serve::ServeEngine engine(plan, cfg);
        const auto t0 = Clock::now();
        const serve::ReplayReport rep = engine.replay(bursty);
        const auto t1 = Clock::now();
        emit_section(json, "serve_bursty", engine, rep, bursty.size(),
                     std::chrono::duration<double>(t1 - t0).count());
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
        const char *tracked[][2] = {
            {"serve_poisson", "sustained_req_per_s"},
            {"serve_bursty", "sustained_req_per_s"},
        };
        bool ok = true;
        for (const auto &key : tracked) {
            const double ref = baseline.get(key[0], key[1], 0.0);
            const double now = json.get(key[0], key[1], 0.0);
            // Only a >5x collapse vs the committed baseline fails: the
            // gate catches algorithmic regressions, not runner noise.
            if (ref > 0.0 && now < ref / 5.0) {
                std::cerr << key[0] << "." << key[1] << ": " << now
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
