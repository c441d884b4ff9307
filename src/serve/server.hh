/**
 * @file
 * The serving front-end: trace replay over queue -> batcher -> plan.
 *
 * ServeEngine drives open-loop load (an ArrivalTrace) through the
 * admission-controlled RequestQueue and the ContinuousBatcher, and
 * dispatches each formed batch to the compiled core::NetworkPlan on
 * the engine's core::BatchWorkers, built on the first dispatch and kept
 * warm across dispatches and replays. Time is virtual
 * (serve/clock.hh): the engine advances its clock from event to event
 * — next arrival, in-flight completion, batch-window expiry — and a
 * batch's modelled service time is its deterministic BCE cycle count
 * scaled by cyclesPerTick. Nothing observable reads wall-clock or
 * scheduling order:
 *
 *  - batch compositions depend only on the trace and the config;
 *  - outputs are bit-identical to running the same inputs through
 *    run_functional_batch directly (the dispatch runs the same
 *    BatchWorkers code, and warm workers carry no state between
 *    batches that reaches a result);
 *  - stats and the batch log are byte-identical for any worker-thread
 *    count, because the only parallelism is inside the batch runner,
 *    whose totals are thread-count-invariant by construction (PR 5).
 *
 * The engine therefore doubles as its own test harness: replaying a
 * fixed-seed trace twice, or at --threads 1 vs 8, must produce the
 * same bytes, and CI diffs exactly that.
 */

#ifndef BFREE_SERVE_SERVER_HH
#define BFREE_SERVE_SERVER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bce/bce.hh"
#include "core/functional.hh"
#include "core/network_plan.hh"
#include "sim/types.hh"
#include "tech/geometry.hh"
#include "tech/tech_params.hh"

#include "serve/batcher.hh"
#include "serve/clock.hh"
#include "serve/queue.hh"
#include "serve/request.hh"
#include "serve/stats.hh"
#include "serve/trace.hh"

namespace bfree::serve {

/** Everything a serving run is parameterized by. */
struct ServeConfig
{
    /** Admission bound of the request queue. */
    std::size_t queueDepth = 64;

    /** Batch-forming policy. */
    BatcherConfig batcher;

    /** Worker threads of the batch dispatch pool (0 = hardware). */
    unsigned threads = 0;

    /**
     * Service-time scale: modelled BCE cycles per serve tick. The
     * service time of a batch is its summed per-input cycle count
     * divided by this (at least minServiceTicks), so the latency
     * distribution is a pure function of the workload.
     */
    std::uint64_t cyclesPerTick = 1000;

    /** Floor of any batch's service time. */
    sim::Tick minServiceTicks = 1;

    /**
     * Advertised SLO deadline in ticks (sim::max_tick = none). Only
     * read by the static serve-config audit: a batching window or
     * service floor that cannot fit inside it is rejected at engine
     * construction (rules serve-window / serve-service).
     */
    sim::Tick sloDeadlineTicks = sim::max_tick;

    /** Histogram shapes of the stats group. */
    ServeStatsConfig stats;

    /** Datapath construction knobs (forwarded to the batch runner). */
    tech::CacheGeometry geom{};
    tech::TechParams tech{};
    bce::ExecTier tier = bce::ExecTier::Tiered;
};

/** Everything one replay produced. */
struct ReplayReport
{
    /**
     * Completed requests in completion order, stamps filled in
     * (inputs still attached). Rejected requests appear in the batch
     * log and the stats, not here.
     */
    std::vector<Request> served;

    /**
     * Outputs indexed by request id (== trace index). A request that
     * was rejected or never completed leaves an empty tensor.
     */
    std::vector<dnn::FloatTensor> outputs;

    /**
     * The deterministic schedule record: one line per admission
     * rejection and per dispatched batch (composition, service time,
     * completion tick). Byte-identical across runs and thread counts
     * for the same trace + config.
     */
    std::string batchLog;

    /** Summed datapath activity across every dispatched batch. */
    bce::BceStats datapathStats;

    /** Summed datapath energy (joules) across every dispatched batch. */
    double energyJoules = 0.0;

    /** Virtual tick at which the last request completed. */
    sim::Tick endTick = 0;
};

/** Serves a compiled plan against arrival traces. */
class ServeEngine
{
  public:
    /** @p plan must outlive the engine; the config is copied. */
    ServeEngine(const core::NetworkPlan &plan, ServeConfig cfg = {});

    const ServeConfig &config() const { return cfg; }

    /**
     * Replay @p trace to completion (every admitted request served)
     * and return the schedule, outputs and datapath totals. Stats
     * accumulate into stats() across calls; reset with
     * stats().resetAll() for independent runs.
     */
    ReplayReport replay(const ArrivalTrace &trace);

    /** The engine's SLO accounting group. */
    ServeStats &stats() { return stats_; }
    const ServeStats &stats() const { return stats_; }

  private:
    const core::NetworkPlan &plan;
    const ServeConfig cfg;
    ServeStats stats_;
    /** The dispatch workers, built lazily so that constructing an
     *  engine (a config audit) spawns no threads. */
    std::unique_ptr<core::BatchWorkers> workers_;
};

} // namespace bfree::serve

#endif // BFREE_SERVE_SERVER_HH
