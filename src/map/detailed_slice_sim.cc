#include "detailed_slice_sim.hh"

#include <algorithm>
#include <cstdio>

#include "sim/logging.hh"

namespace bfree::map {

namespace {

/**
 * Router-name helpers: one snprintf into a stack buffer and a single
 * (SSO-sized) string construction, instead of the four temporary
 * strings std::to_string-based concatenation costs per node.
 */
std::string
vertical_router_name(unsigned col, unsigned row)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "v%u_%u", col, row);
    return buf;
}

std::string
horizontal_router_name(unsigned col)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "h%u", col);
    return buf;
}

} // namespace

std::uint64_t
detailed_grid_formula(unsigned rows, unsigned cols, unsigned waves,
                      std::uint64_t cps, unsigned hop)
{
    if (rows == 0 || cols == 0 || waves == 0)
        return 0;
    return static_cast<std::uint64_t>(waves) * cps
           + static_cast<std::uint64_t>(cols - 1 + rows - 1) * hop;
}

/** One grid node: sub-array + BCE computing its channel slice. */
struct DetailedSliceSim::Node
{
    Node(DetailedSliceSim &parent, unsigned row)
        : parent(parent), row(row),
          subarray(parent.geom, parent.tech, *parent.account),
          bce(subarray, parent.tech, *parent.account)
    {
        bce.loadMultLutImage();
        bce.setMode(bce::BceMode::Conv);
    }

    std::int32_t
    localProduct(unsigned wave)
    {
        const std::vector<std::int8_t> &input =
            (*parent.currentInputs)[wave];
        const std::size_t base =
            static_cast<std::size_t>(row) * parent.sliceLen;
        return bce.dotProduct(0, input.data() + base, parent.sliceLen,
                              parent.bits);
    }

    DetailedSliceSim &parent;
    unsigned row;
    mem::Subarray subarray;
    bce::Bce bce;
};

DetailedSliceSim::DetailedSliceSim(const tech::CacheGeometry &geom,
                                   const tech::TechParams &tech,
                                   unsigned rows, unsigned cols,
                                   unsigned slice_len, unsigned bits,
                                   sim::EventQueue *ext_queue,
                                   mem::EnergyAccount *ext_account)
    : geom(geom), tech(tech), numRows(rows), numCols(cols),
      sliceLen(slice_len), bits(bits),
      owned_queue(ext_queue ? nullptr : new sim::EventQueue),
      owned_account(ext_account ? nullptr : new mem::EnergyAccount),
      queue(ext_queue ? ext_queue : owned_queue.get()),
      account(ext_account ? ext_account : owned_account.get()),
      clock(tech.subarrayClockHz)
{
    if (rows == 0 || rows > geom.subarraysPerSubBank)
        bfree_fatal("grid rows ", rows, " outside [1, ",
                    geom.subarraysPerSubBank, "]");
    if (cols == 0)
        bfree_fatal("grid needs at least one column");
    if (bits != 4 && bits != 8)
        bfree_fatal("detailed grid supports 4- or 8-bit operands");

    grid.resize(cols);
    vertical.resize(cols);
    for (unsigned c = 0; c < cols; ++c) {
        for (unsigned r = 0; r < rows; ++r)
            grid[c].push_back(std::make_unique<Node>(*this, r));
        for (unsigned r = 0; r + 1 < rows; ++r) {
            vertical[c].push_back(std::make_unique<noc::Router>(
                *queue, vertical_router_name(c, r), clock, tech,
                *account));
            const unsigned next_row = r + 1;
            vertical[c].back()->connectBurst(
                [this, c, next_row](const noc::Flit *flits, std::size_t n,
                                    sim::Tick first, sim::Tick) {
                    onPartialTrain(c, next_row, first, flits, n);
                });
        }
    }

    for (unsigned c = 0; c + 1 < cols; ++c) {
        horizontal.push_back(std::make_unique<noc::Router>(
            *queue, horizontal_router_name(c), clock, tech, *account));
        const unsigned next_col = c + 1;
        horizontal[c]->connectBurst(
            [this, next_col](const noc::Flit *, std::size_t,
                             sim::Tick first, sim::Tick) {
                onWaveTrain(next_col, first);
            });
    }
}

DetailedSliceSim::~DetailedSliceSim() = default;

void
DetailedSliceSim::loadWeights(
    const std::vector<std::vector<std::vector<std::int8_t>>> &w)
{
    if (w.size() != numCols)
        bfree_fatal("expected ", numCols, " weight columns");
    for (unsigned c = 0; c < numCols; ++c) {
        if (w[c].size() != numRows)
            bfree_fatal("column ", c, ": expected ", numRows,
                        " row slices");
        for (unsigned r = 0; r < numRows; ++r) {
            if (w[c][r].size() != sliceLen)
                bfree_fatal("weight slice (", c, ",", r, ") has ",
                            w[c][r].size(), " elements, expected ",
                            sliceLen);
            grid[c][r]->subarray.write(
                0,
                reinterpret_cast<const std::uint8_t *>(w[c][r].data()),
                sliceLen);
        }
    }
}

std::uint64_t
DetailedSliceSim::cyclesPerStep() const
{
    return static_cast<std::uint64_t>(sliceLen) * (bits / 4);
}

sim::Tick
DetailedSliceSim::stepTicks() const
{
    return clock.cyclesToTicks(sim::Cycles(cyclesPerStep()));
}

sim::Tick
DetailedSliceSim::hopTicks() const
{
    return clock.cyclesToTicks(sim::Cycles(tech.routerHopCycles));
}

void
DetailedSliceSim::onWaveTrain(unsigned col, sim::Tick first)
{
    // Forward the whole train to the next column first: the streaming
    // link runs concurrently with this column's compute.
    if (col + 1 < numCols) {
        std::vector<noc::Flit> train;
        train.reserve(numWaves);
        for (unsigned w = 0; w < numWaves; ++w)
            train.push_back(noc::Flit{0, w});
        horizontal[col]->sendBurst(std::move(train),
                                   sim::Cycles(cyclesPerStep()));
    }

    Node &head = *grid[col][0];
    std::vector<noc::Flit> sums;
    sums.reserve(numWaves);
    for (unsigned w = 0; w < numWaves; ++w) {
        const std::int32_t local = head.localProduct(w);
        sums.push_back(noc::Flit{
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(local)),
            w});
    }

    if (numRows == 1) {
        // Single-row column: wave w completes as it arrives.
        for (unsigned w = 0; w < numWaves; ++w) {
            if (w != completed[col].size())
                bfree_panic("column ", col, ": wave ", w,
                            " completed out of order");
            completed[col].push_back(
                static_cast<std::int32_t>(sums[w].payload));
        }
        if (numWaves > 0) {
            drain_tick = std::max(
                drain_tick, first + (numWaves - 1) * stepTicks());
        }
        return;
    }
    vertical[col][0]->sendBurst(std::move(sums),
                                sim::Cycles(cyclesPerStep()));
}

void
DetailedSliceSim::onPartialTrain(unsigned col, unsigned row,
                                 sim::Tick first, const noc::Flit *flits,
                                 std::size_t n)
{
    Node &node = *grid[col][row];
    if (row + 1 < numRows) {
        std::vector<noc::Flit> sums;
        sums.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            const auto incoming =
                static_cast<std::int32_t>(flits[i].payload);
            const std::int32_t sum = node.bce.accumulateIncoming(
                node.localProduct(flits[i].tag), incoming);
            sums.push_back(noc::Flit{
                static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(sum)),
                flits[i].tag});
        }
        vertical[col][row]->sendBurst(std::move(sums),
                                      sim::Cycles(cyclesPerStep()));
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        const auto incoming = static_cast<std::int32_t>(flits[i].payload);
        const std::int32_t sum = node.bce.accumulateIncoming(
            node.localProduct(flits[i].tag), incoming);
        if (flits[i].tag != completed[col].size())
            bfree_panic("column ", col, ": wave ", flits[i].tag,
                        " completed out of order");
        completed[col].push_back(sum);
    }
    if (n > 0) {
        drain_tick =
            std::max(drain_tick, first + (n - 1) * stepTicks());
    }
}

void
DetailedSliceSim::beginStreaming(
    const std::vector<std::vector<std::int8_t>> &inputs)
{
    for (const auto &wave : inputs) {
        if (wave.size() != std::size_t(numRows) * sliceLen)
            bfree_fatal("each input wave must carry rows * slice_len "
                        "elements");
    }
    currentInputs = &inputs;
    numWaves = static_cast<unsigned>(inputs.size());
    completed.assign(numCols, {});
    for (auto &col : completed)
        col.reserve(numWaves);
    drain_tick = 0;
    events_at_begin = queue->processed();
}

void
DetailedSliceSim::injectAllWavesNow()
{
    if (currentInputs == nullptr)
        bfree_panic("injectAllWavesNow outside a stream");
    if (numWaves > 0)
        onWaveTrain(0, queue->now());
}

DetailedGridResult
DetailedSliceSim::finishStreaming()
{
    if (currentInputs == nullptr)
        bfree_panic("finishStreaming outside a stream");
    for (unsigned c = 0; c < numCols; ++c) {
        if (completed[c].size() != numWaves)
            bfree_panic("column ", c, " drained ", completed[c].size(),
                        " of ", numWaves, " waves");
    }

    // Convert every node's integer micro-op tallies into joules before
    // the shared account is read; fixed grid order keeps the float
    // accumulation identical across thread counts.
    for (auto &column : grid)
        for (auto &node : column)
            node->bce.flushEnergy();

    DetailedGridResult result;
    result.outputs = completed;
    result.cycles = clock.ticksToCycles(drain_tick).value();
    result.events = queue->processed() - events_at_begin;
    currentInputs = nullptr;
    return result;
}

DetailedGridResult
DetailedSliceSim::run(const std::vector<std::vector<std::int8_t>> &inputs)
{
    if (!owned_queue) {
        bfree_panic("DetailedSliceSim::run needs an owned queue; use the "
                    "streaming API with an external one");
    }

    beginStreaming(inputs);
    if (numWaves > 0) {
        queue->scheduleCallback(queue->now() + stepTicks(),
                                [this] { injectAllWavesNow(); });
    }
    queue->run();
    return finishStreaming();
}

} // namespace bfree::map
