/**
 * @file
 * serve-ffn: ServeEngine::replay of a Poisson trace, open-loop in
 * virtual time at about 80% of the modelled capacity, served to
 * BERT-base's feed-forward sublayer (fc 768->3072, the zoo's Tanh GELU
 * stand-in, fc 3072->768) at 8 bits. Per request the work is small, so
 * each dispatch's run_functional_batch set-up dominates: this is the
 * workload that exercises per-call set-up and bypasses conv.
 */

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/functional.hh"
#include "core/network_plan.hh"
#include "dnn/model_zoo.hh"
#include "serve/server.hh"
#include "serve/trace.hh"
#include "sim/random.hh"
#include "workloads.hh"

namespace perfbench {

using namespace bfree;

namespace {

constexpr std::uint64_t kSalt = 0xff17;
constexpr std::size_t kRequests = 512;
constexpr std::size_t kMaxBatch = 8;
/** Offered load as a share of the probed capacity. */
constexpr double kLoad = 0.8;
/** Re-issued dispatches per traced reconstruction, at least. */
constexpr std::size_t kCallSamples = 200;
/** Set-ups timed per run (each ~0.03 s); setup_s is their lower decile. */
constexpr int kSetupReps = 15;

/** BERT-base's feed-forward sublayer for one token, from the zoo. */
dnn::Network
make_ffn()
{
    const dnn::Network bert = dnn::make_bert_base(1);
    dnn::Network net("bert-base-ffn", {768, 1, 1});
    for (const dnn::Layer &l : bert.layers())
        if (l.name == "enc0.ff1" || l.name == "enc0.gelu"
            || l.name == "enc0.ff2")
            net.add(l);
    return net;
}

/** Everything set-up builds: plan, engine config and the trace. */
struct Served
{
    core::NetworkPlan plan;
    serve::ServeConfig cfg;
    serve::ArrivalTrace trace;
};

/**
 * Compile with verify, then the capacity probe (one full batch at
 * once; its modelled service time per request sets the load, the
 * deadline and the latency histogram's range), then the engine config
 * its audit accepts. Returns the seconds of set-up proper: the compile
 * and the engine construction. The probe and the trace define the
 * workload, like generating its inputs, so they are not set-up.
 */
double
set_up(const dnn::Network &net, const core::NetworkWeights &weights,
       const Options &opts, sim::Rng traceRng, Served &s)
{
    Clock::time_point t0 = Clock::now();
    s.plan = core::NetworkPlan::compile(net, weights, 8, true);
    double setupS = seconds_since(t0);
    serve::ServeConfig cfg;
    cfg.queueDepth = 64;
    cfg.batcher.maxBatch = kMaxBatch;
    cfg.threads = opts.threads;
    cfg.stats.occupancyBins = kMaxBatch + 1;

    serve::ServeEngine capacity(s.plan, cfg);
    serve::ArrivalTrace burst;
    for (std::size_t i = 0; i < kMaxBatch; ++i)
        burst.arrivals.push_back({.tick = 1, .inputSeed = 1000 + i,
                                  .deadlineTicks = serve::no_deadline});
    const sim::Tick fullBatch = capacity.replay(burst).endTick - 1;
    const sim::Tick perRequest =
        std::max<sim::Tick>(1, fullBatch / kMaxBatch);

    // A partial batch waits at most one full batch's service, so at
    // 80% load most dispatches fill up; the SLO is eight full batches,
    // and the histogram spans it in 1024 bins.
    cfg.batcher.windowTicks = 8 * perRequest;
    cfg.sloDeadlineTicks = 8 * fullBatch;
    cfg.stats.latencyHistMaxTicks =
        static_cast<double>(cfg.sloDeadlineTicks);
    cfg.stats.latencyBins = 1024;
    s.cfg = cfg;
    t0 = Clock::now();
    {
        serve::ServeEngine engine(s.plan, s.cfg); // audits the config
    }
    setupS += seconds_since(t0);
    s.trace = serve::poisson_trace(traceRng, kRequests,
                                   static_cast<double>(perRequest) / kLoad,
                                   cfg.sloDeadlineTicks);
    return setupS;
}

/** What one replay produced that must repeat exactly. */
struct ReplayFacts
{
    std::string batchLog;
    bce::BceStats stats;
    double energy = 0.0;
    double p50 = 0.0, p99 = 0.0;
    double batches = 0.0, occupancy = 0.0;
    std::uint64_t rejected = 0, misses = 0;
    std::size_t served = 0;

    bool
    operator==(const ReplayFacts &o) const
    {
        return batchLog == o.batchLog && same_stats(stats, o.stats)
               && energy == o.energy && p50 == o.p50 && p99 == o.p99
               && batches == o.batches && rejected == o.rejected
               && misses == o.misses && served == o.served;
    }
};

ReplayFacts
facts(const serve::ServeEngine &engine, const serve::ReplayReport &rep)
{
    const serve::ServeStats &st = engine.stats();
    ReplayFacts f;
    f.batchLog = rep.batchLog;
    f.stats = rep.datapathStats;
    f.energy = rep.energyJoules;
    f.p50 = st.latencyPercentile(0.50);
    f.p99 = st.latencyPercentile(0.99);
    f.batches = st.batches.value();
    f.occupancy = f.batches > 0.0 ? st.batchedRequests.value() / f.batches
                                  : 0.0;
    f.rejected = static_cast<std::uint64_t>(
        st.rejectedFull.value() + st.rejectedClosed.value()
        + st.rejectedZeroDeadline.value());
    f.misses = static_cast<std::uint64_t>(st.deadlineMisses.value());
    f.served = rep.served.size();
    return f;
}

/** Repeated replays of one timed loop. */
struct ReplayLoop
{
    Samples replays;
    ReplayFacts first;
    serve::ReplayReport firstReport;
    bool repeatable = true;
};

ReplayLoop
replay_loop(const Served &s, double seconds, Tracer &tracer,
            bool interleave)
{
    ReplayLoop loop;
    serve::ServeEngine engine(s.plan, s.cfg);
    Tracer off(false);
    const Clock::time_point t0 = Clock::now();
    do {
        const std::size_t i = loop.replays.size();
        const bool on = traced_iteration(tracer, interleave, i);
        Tracer &t = on ? tracer : off;
        engine.stats().resetAll();
        const Clock::time_point c0 = Clock::now();
        const int span = t.begin("serve.ServeEngine.replay", i);
        serve::ReplayReport rep = engine.replay(s.trace);
        t.end(span, "\"requests\":" + std::to_string(s.trace.size())
                        + ",\"cycles\":"
                        + std::to_string(rep.datapathStats.cycles));
        loop.replays.add(1e3 * seconds_since(c0), on);
        const ReplayFacts f = facts(engine, rep);
        if (i == 0) {
            loop.first = f;
            loop.firstReport = std::move(rep);
        } else {
            loop.repeatable = loop.repeatable && f == loop.first;
        }
    } while (loop_more(t0, seconds, tracer, interleave,
                       loop.replays.size()));
    return loop;
}

/** One served batch, rebuilt from ReplayReport::served. */
struct Dispatch
{
    sim::Tick tick = 0;
    std::vector<std::uint64_t> ids;
};

/** Group the served requests by dispatch tick (one batch in flight at
 *  a time, so a tick names one batch). */
std::vector<Dispatch>
dispatches(const serve::ReplayReport &rep)
{
    std::map<sim::Tick, Dispatch> byTick;
    for (const serve::Request &r : rep.served) {
        Dispatch &d = byTick[r.dispatchTick];
        d.tick = r.dispatchTick;
        d.ids.push_back(r.id);
    }
    std::vector<Dispatch> out;
    for (auto &[tick, d] : byTick)
        out.push_back(std::move(d));
    return out;
}

/** Result of re-issuing every dispatch @p passes times. */
struct Reissue
{
    std::vector<double> callMs; ///< Every re-issued call.
    double sumOfMedianMs = 0.0; ///< Sum over dispatches of medians.
};

/**
 * Re-issue each dispatch with inputs regenerated by make_request_input;
 * on the first pass, check every output against the one the replay
 * served and the summed stats against the replay's.
 */
Reissue
reissue(const Served &s, const serve::ReplayReport &rep,
        std::size_t passes, unsigned threads, Tracer &tracer,
        Report &report)
{
    const std::vector<Dispatch> ds = dispatches(rep);
    core::BatchOptions bo;
    bo.threads = threads;
    Reissue out;
    std::vector<std::vector<double>> perDispatch(ds.size());
    bce::BceStats total;
    for (std::size_t pass = 0; pass < passes; ++pass) {
        for (std::size_t i = 0; i < ds.size(); ++i) {
            std::vector<dnn::FloatTensor> inputs;
            for (std::uint64_t id : ds[i].ids)
                inputs.push_back(serve::make_request_input(
                    s.plan, s.trace.arrivals[id].inputSeed));
            core::BatchResult br;
            const double ms =
                tracer.timed("core.run_functional_batch", i, [&] {
                    br = core::run_functional_batch(s.plan, inputs, bo);
                });
            out.callMs.push_back(ms);
            perDispatch[i].push_back(ms);
            if (pass > 0)
                continue;
            total += br.stats;
            for (std::size_t k = 0; k < ds[i].ids.size(); ++k)
                report.check(same_bits(br.outputs[k],
                                       rep.outputs[ds[i].ids[k]]),
                             "serve-ffn: served output differs from its "
                             "re-issued dispatch");
        }
    }
    report.check(same_stats(total, rep.datapathStats),
                 "serve-ffn: re-issued dispatches' stats differ");
    for (const std::vector<double> &v : perDispatch)
        out.sumOfMedianMs += median(v);
    return out;
}

/** Per-layer probes on one request: compile/audit, cold/warm run,
 *  one-input batch overhead, the 8-bit matmul rate. */
void
probe(const Options &opts, const dnn::Network &net,
      const core::NetworkWeights &weights, const Served &s,
      Tracer &tracer, Report &report)
{
    const std::string w = "serve-ffn";
    probe_compile(net, weights, 8, w, tracer, report);

    const dnn::FloatTensor x = serve::make_request_input(
        s.plan, s.trace.arrivals[0].inputSeed);
    core::FunctionalExecutor exec;
    core::FunctionalResult cold, warm;
    report.perLayer("core.cold_run_ms." + w,
                    tracer.timed("core.FunctionalExecutor.run", 0,
                                 [&] { cold = exec.run(s.plan, x); }),
                    "ms");
    std::vector<double> warmMs, oneMs;
    const bce::BceStats before = exec.stats();
    for (int i = 0; i < 21; ++i)
        warmMs.push_back(
            tracer.timed("core.FunctionalExecutor.run", 0,
                         [&] { warm = exec.run(s.plan, x); }));
    const double warmMacs =
        static_cast<double>((exec.stats() - before).macs) / 21.0;
    report.perLayer("core.warm_run_ms." + w, median(warmMs), "ms");
    report.check(same_bits(cold.output, warm.output),
                 "serve-ffn: cold and warm runs differ");

    core::BatchOptions bo;
    bo.threads = opts.threads;
    const std::vector<const dnn::FloatTensor *> one{&x};
    core::BatchResult br;
    for (int i = 0; i < 21; ++i) {
        oneMs.push_back(tracer.timed("core.run_functional_batch", 0, [&] {
            br = core::run_functional_batch(s.plan, one, bo);
        }));
        report.check(same_bits(br.outputs[0], warm.output),
                     "serve-ffn: one-input batch differs from a run");
    }
    report.perLayer("core.batch_overhead_ms." + w,
                    median(oneMs) - median(warmMs), "ms");
    report.perLayer("bce.matmul8_mmac_per_s",
                    warmMacs / (1e3 * median(warmMs)), "MMAC/s");
}

} // namespace

void
run_serve_ffn(const Options &opts, bool primary, Tracer &tracer,
              Report &report)
{
    const dnn::Network net = make_ffn();
    sim::Rng rng(derive_seed(opts.seed, kSalt));
    const core::NetworkWeights weights = core::random_weights(net, rng);

    Served s;
    std::vector<double> setupS;
    const auto setUp = [&] {
        s = Served{}; // one plan alive: peak RSS counts one
        setupS.push_back(set_up(net, weights, opts, rng, s));
    };
    const int before = primary ? setup_reps_before(kSetupReps) : 1;
    for (int rep = 0; rep < before; ++rep)
        setUp();
    report.check(s.plan.diagnostics().ok(),
                 "serve-ffn: verify-on-compile found errors");

    // The own workload replays for the whole window (every other
    // replay traced in a traced run); a probe replays once, traced.
    const ReplayLoop loop =
        replay_loop(s, primary ? opts.seconds : 0.0, tracer, primary);
    report.check(loop.repeatable, "serve-ffn: repeated replays differ");

    // Every dispatch re-issued from regenerated inputs, outputs checked
    // on the first pass; a traced run repeats the passes until there
    // are enough call samples for a p95.
    const std::size_t perPass = dispatches(loop.firstReport).size();
    const std::size_t passes =
        opts.trace ? (kCallSamples + perPass - 1) / perPass : 1;
    const int span = tracer.begin("serve.reissue");
    const Reissue ri = reissue(s, loop.firstReport, passes, opts.threads,
                               tracer, report);
    tracer.end(span);

    if (primary) {
        const std::uint64_t replays = loop.replays.size();
        const ReplayFacts &f = loop.first;
        report.attempt(s.trace.size() * replays);
        report.fail(f.rejected * replays, "admission rejections");
        report.fail(f.misses * replays, "deadline misses");

        {
            // The same replay at 1 thread, outside the timed window.
            serve::ServeConfig one = s.cfg;
            one.threads = 1;
            serve::ServeEngine serial(s.plan, one);
            const serve::ReplayReport rep1 = serial.replay(s.trace);
            report.check(facts(serial, rep1) == f,
                         "serve-ffn: model metrics differ at 1 thread");
            for (std::size_t i = 0; i < rep1.outputs.size(); ++i)
                report.check(same_bits(rep1.outputs[i],
                                       loop.firstReport.outputs[i]),
                             "serve-ffn: 1-thread output differs");
        }

        const double perReq = 1.0 / static_cast<double>(f.served);
        const double reqPerS = 1e3 * static_cast<double>(f.served)
                               / lower_decile(loop.replays.ms);
        report.note("requests_per_s", reqPerS, "1/s");
        report.note("requests_per_s_median",
                    1e3 * static_cast<double>(f.served)
                        / median(loop.replays.ms),
                    "1/s");
        report.note("latency_ticks_p50", f.p50, "ticks");
        report.note("latency_ticks_p99", f.p99, "ticks");
        report.note("replays", static_cast<double>(replays), "count");
        for (int rep = before; rep < kSetupReps; ++rep)
            setUp();
        report.endToEnd("setup_s", lower_decile(setupS), "s");
        report.endToEnd("items_per_s", reqPerS, "1/s");
        report.endToEnd("model_cycles_per_item",
                        static_cast<double>(f.stats.cycles) * perReq,
                        "cycles");
        report.endToEnd("model_energy_uj_per_item", 1e6 * f.energy * perReq,
                        "uJ");
        if (opts.trace)
            report.perLayer("trace.overhead_pct", overhead_pct(loop.replays),
                            "%");
    }
    if (!opts.trace)
        return;

    const double replayMs = median(loop.replays.where(true));
    report.perLayer("core.batch_call_ms_p50", median(ri.callMs), "ms");
    report.perLayer("core.batch_call_ms_p95", percentile(ri.callMs, 0.95),
                    "ms");
    report.perLayer("core.batch_call_ms_sum", ri.sumOfMedianMs, "ms");
    report.perLayer("serve.replay_ms", replayMs, "ms");
    report.perLayer("serve.self_ms", replayMs - ri.sumOfMedianMs, "ms");
    report.perLayer("serve.batches", loop.first.batches, "count");
    report.perLayer("serve.mean_occupancy", loop.first.occupancy, "count");
    report.perLayer("serve.rejected",
                    static_cast<double>(loop.first.rejected), "count");
    probe(opts, net, weights, s, tracer, report);
}

} // namespace perfbench
