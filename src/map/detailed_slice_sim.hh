/**
 * @file
 * Event-driven detailed model of the full 2-D systolic pattern inside
 * a slice (Fig. 8 / Fig. 9(b)).
 *
 * Filters are distributed across columns of sub-arrays (one sub-bank
 * chain per filter) and input channels across the rows within each
 * column. Input waves stream horizontally: the slice of wave w for
 * row r enters column 0 and hops to column c+1 every router cycle.
 * Within a column, partial products reduce vertically down the
 * sub-bank chain of Fig. 8 (rows nodes joined by rows - 1 routers; a
 * one-column grid is exactly that chain). Column c therefore finishes
 * wave w at
 *
 *     (w + 1) * cps + c * hop + (rows - 1) * hop
 *
 * and the whole grid drains at
 *
 *     waves * cps + (cols - 1 + rows - 1) * hop.
 *
 * Every multiply goes through real Subarray + Bce objects, so the
 * functional outputs are exact and the wall clock cross-validates the
 * closed form used by the analytic model.
 *
 * Router traffic moves as wave trains: each link ships its whole train
 * as one Router::sendBurst, O(rows * cols) events per stream. Every
 * inter-wave gap is the same cps cycles and every quantity is a
 * multiple of the clock period, so flit arrival times are recovered
 * arithmetically from (first_arrival, cadence) with zero rounding. The
 * router charges one hop per flit.
 *
 * The streaming API (beginStreaming / injectAllWavesNow /
 * finishStreaming) lets a caller drive the grid from an external event
 * queue and energy account — the full-cache driver runs one grid per
 * LLC slice on per-shard queues this way.
 */

#ifndef BFREE_MAP_DETAILED_SLICE_SIM_HH
#define BFREE_MAP_DETAILED_SLICE_SIM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "bce/bce.hh"
#include "mem/subarray.hh"
#include "noc/router.hh"
#include "sim/clocked.hh"
#include "sim/event_queue.hh"

namespace bfree::map {

/** Result of a detailed grid run. */
struct DetailedGridResult
{
    /** outputs[column][wave]: one dot product per filter per wave. */
    std::vector<std::vector<std::int32_t>> outputs;
    std::uint64_t cycles = 0;
    std::uint64_t events = 0;
};

/** The closed-form cycle count of the grid. */
std::uint64_t detailed_grid_formula(unsigned rows, unsigned cols,
                                    unsigned waves, std::uint64_t cps,
                                    unsigned hop);

/**
 * The 2-D systolic grid simulation.
 */
class DetailedSliceSim
{
  public:
    /**
     * @param rows      Sub-arrays per column (input-channel slices).
     * @param cols      Columns (filters / sub-bank chains).
     * @param slice_len Dot-product elements each node owns.
     * @param ext_queue Event queue to schedule on; nullptr means the
     *                  grid owns a private queue (required for run()).
     * @param ext_account Energy account to charge; nullptr means a
     *                  private account.
     */
    DetailedSliceSim(const tech::CacheGeometry &geom,
                     const tech::TechParams &tech, unsigned rows,
                     unsigned cols, unsigned slice_len, unsigned bits,
                     sim::EventQueue *ext_queue = nullptr,
                     mem::EnergyAccount *ext_account = nullptr);

    ~DetailedSliceSim();

    /** Load weights[col][row] slices of slice_len int8 values. */
    void loadWeights(
        const std::vector<std::vector<std::vector<std::int8_t>>> &w);

    /**
     * Stream @p waves input vectors (each rows * slice_len elements;
     * every column sees the same inputs) and run to completion.
     * Convenience wrapper over the streaming API; only valid when the
     * grid owns its queue.
     */
    DetailedGridResult
    run(const std::vector<std::vector<std::int8_t>> &inputs);

    /**
     * Streaming API: arm the grid for @p inputs. The caller then
     * schedules one injectAllWavesNow on the grid's queue (wave w is
     * taken to enter column 0 at now + w * stepTicks()) and, once the
     * queue has drained, collects the result with finishStreaming().
     */
    void
    beginStreaming(const std::vector<std::vector<std::int8_t>> &inputs);

    /** All waves enter column 0 starting now, cps apart. */
    void injectAllWavesNow();

    /** Flush energy and collect the result of the current stream. */
    DetailedGridResult finishStreaming();

    /** Per-node compute interval in cycles. */
    std::uint64_t cyclesPerStep() const;

    /** Per-node compute interval in ticks. */
    sim::Tick stepTicks() const;

    /** Router hop latency in ticks. */
    sim::Tick hopTicks() const;

    /**
     * Tick at which the last output of the current/last stream drained
     * (valid after finishStreaming; includes any injection offset).
     */
    sim::Tick drainTick() const { return drain_tick; }

    /** The queue this grid schedules on (owned or external). */
    sim::EventQueue &eventQueue() { return *queue; }

    /** This grid's clock domain. */
    const sim::ClockDomain &clockDomain() const { return clock; }

    /** Energy account charged by this grid (owned or external). */
    const mem::EnergyAccount &energy() const { return *account; }

  private:
    struct Node;

    /**
     * The whole wave train has arrived at column @p col, wave 0 at
     * tick @p first and wave w at first + w * stepTicks().
     */
    void onWaveTrain(unsigned col, sim::Tick first);

    /**
     * A partial-sum train has arrived at (col, row), timed like
     * onWaveTrain. @p flits holds one partial per wave.
     */
    void onPartialTrain(unsigned col, unsigned row, sim::Tick first,
                        const noc::Flit *flits, std::size_t n);

    tech::CacheGeometry geom;
    tech::TechParams tech;
    unsigned numRows;
    unsigned numCols;
    unsigned sliceLen;
    unsigned bits;

    /** Owned instances when no external queue/account was supplied;
     *  declared before the grid so nodes can hold references. */
    std::unique_ptr<sim::EventQueue> owned_queue;
    std::unique_ptr<mem::EnergyAccount> owned_account;
    sim::EventQueue *queue;
    mem::EnergyAccount *account;

    sim::ClockDomain clock;
    /** nodes[col][row]. */
    std::vector<std::vector<std::unique_ptr<Node>>> grid;
    /** Vertical reduction routers per column (rows - 1 each). */
    std::vector<std::vector<std::unique_ptr<noc::Router>>> vertical;
    /** Horizontal streaming routers between columns (cols - 1). */
    std::vector<std::unique_ptr<noc::Router>> horizontal;

    std::vector<std::vector<std::int32_t>> completed;
    const std::vector<std::vector<std::int8_t>> *currentInputs = nullptr;
    unsigned numWaves = 0;
    sim::Tick drain_tick = 0;
    std::uint64_t events_at_begin = 0;
};

} // namespace bfree::map

#endif // BFREE_MAP_DETAILED_SLICE_SIM_HH
