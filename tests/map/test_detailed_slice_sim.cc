/**
 * @file
 * The 2-D systolic grid: exact outputs per filter column, cycles match
 * the closed form, and the equivalence with a matrix multiply.
 */

#include <gtest/gtest.h>

#include <vector>

#include "map/detailed_slice_sim.hh"
#include "sim/random.hh"

using namespace bfree::map;
using bfree::tech::CacheGeometry;
using bfree::tech::TechParams;

namespace {

struct GridCase
{
    unsigned rows;
    unsigned cols;
    unsigned slice_len;
    unsigned waves;
    unsigned bits;
};

class GridSweep : public ::testing::TestWithParam<GridCase>
{};

using Weights = std::vector<std::vector<std::vector<std::int8_t>>>;

std::int32_t
reference_output(const Weights &w, const std::vector<std::int8_t> &wave,
                 unsigned col, unsigned slice_len)
{
    std::int32_t acc = 0;
    for (std::size_t r = 0; r < w[col].size(); ++r)
        for (unsigned i = 0; i < slice_len; ++i)
            acc += std::int32_t(w[col][r][i]) * wave[r * slice_len + i];
    return acc;
}

/** Random weights and input waves for one grid case. */
struct GridData
{
    Weights weights;
    std::vector<std::vector<std::int8_t>> inputs;
};

GridData
random_grid_data(const GridCase &p)
{
    bfree::sim::Rng rng(500 + p.rows * 10 + p.cols);
    const int lo = p.bits == 4 ? -8 : -128;
    const int hi = p.bits == 4 ? 7 : 127;

    GridData d;
    d.weights.resize(p.cols);
    for (auto &col : d.weights) {
        col.resize(p.rows);
        for (auto &slice : col) {
            slice.resize(p.slice_len);
            for (auto &w : slice)
                w = static_cast<std::int8_t>(rng.uniformInt(lo, hi));
        }
    }
    d.inputs.resize(p.waves);
    for (auto &wave : d.inputs) {
        wave.resize(std::size_t(p.rows) * p.slice_len);
        for (auto &x : wave)
            x = static_cast<std::int8_t>(rng.uniformInt(lo, hi));
    }
    return d;
}

} // namespace

TEST_P(GridSweep, OutputsAndCyclesMatchClosedForm)
{
    const GridCase p = GetParam();
    CacheGeometry geom;
    TechParams tech;
    DetailedSliceSim sim(geom, tech, p.rows, p.cols, p.slice_len,
                         p.bits);
    const auto [weights, inputs] = random_grid_data(p);
    sim.loadWeights(weights);

    const DetailedGridResult r = sim.run(inputs);

    ASSERT_EQ(r.outputs.size(), p.cols);
    for (unsigned c = 0; c < p.cols; ++c) {
        ASSERT_EQ(r.outputs[c].size(), p.waves) << "column " << c;
        for (unsigned w = 0; w < p.waves; ++w)
            EXPECT_EQ(r.outputs[c][w],
                      reference_output(weights, inputs[w], c,
                                       p.slice_len))
                << "column " << c << " wave " << w;
    }

    EXPECT_EQ(r.cycles,
              detailed_grid_formula(p.rows, p.cols, p.waves,
                                    sim.cyclesPerStep(),
                                    tech.routerHopCycles));
}

TEST_P(GridSweep, RouterEnergyMatchesHopCount)
{
    // Each wave crosses cols - 1 horizontal links and rows - 1 vertical
    // links per column; every crossing is one flit hop. Charging that
    // many scalar hops must reproduce the router joules bit for bit.
    const GridCase p = GetParam();
    CacheGeometry geom;
    TechParams tech;
    DetailedSliceSim sim(geom, tech, p.rows, p.cols, p.slice_len,
                         p.bits);
    const GridData d = random_grid_data(p);
    sim.loadWeights(d.weights);
    sim.run(d.inputs);

    bfree::mem::EnergyAccount expect;
    const std::uint64_t hops =
        (std::uint64_t(p.cols - 1) + std::uint64_t(p.cols) * (p.rows - 1))
        * p.waves;
    for (std::uint64_t i = 0; i < hops; ++i)
        expect.addPj(bfree::mem::EnergyCategory::Router, tech.routerHopPj);
    EXPECT_EQ(sim.energy().joules(bfree::mem::EnergyCategory::Router),
              expect.joules(bfree::mem::EnergyCategory::Router));
}

INSTANTIATE_TEST_SUITE_P(
    Grids, GridSweep,
    ::testing::Values(GridCase{1, 1, 8, 2, 8},  // degenerate
                      GridCase{2, 3, 4, 3, 8},
                      GridCase{4, 4, 8, 5, 8},
                      GridCase{8, 6, 8, 4, 8},  // full sub-bank column
                      GridCase{3, 10, 5, 6, 8}, // wide filter bank
                      GridCase{4, 4, 8, 5, 4},  // 4-bit operands
                      GridCase{8, 2, 16, 8, 8}));

// One column is the sub-bank reduction chain of Fig. 8/9(b): K nodes
// joined by K - 1 vertical routers, no horizontal link.
INSTANTIATE_TEST_SUITE_P(
    Chains, GridSweep,
    ::testing::Values(GridCase{1, 1, 8, 1, 8},  // degenerate chain
                      GridCase{2, 1, 4, 3, 8},
                      GridCase{4, 1, 8, 5, 8},
                      GridCase{8, 1, 8, 10, 8}, // full sub-bank
                      GridCase{8, 1, 16, 4, 8},
                      GridCase{8, 1, 8, 10, 4}, // 4-bit operands
                      GridCase{3, 1, 5, 7, 4},
                      GridCase{8, 1, 32, 20, 8}));

TEST(GridFormula, KnownValues)
{
    // 8 rows, 6 cols, 4 waves, 64 cps, 1-cycle hops:
    // 4*64 + (5 + 7) = 268.
    EXPECT_EQ(detailed_grid_formula(8, 6, 4, 64, 1), 268u);
    EXPECT_EQ(detailed_grid_formula(1, 1, 1, 10, 1), 10u);
    // One column, 8 rows, 10 waves, 64 cps: 10*64 + 7 = 647.
    EXPECT_EQ(detailed_grid_formula(8, 1, 10, 64, 1), 647u);
    EXPECT_EQ(detailed_grid_formula(1, 1, 5, 10, 1), 50u);
    EXPECT_EQ(detailed_grid_formula(0, 3, 1, 10, 1), 0u);
}

TEST(Grid, CyclesPerStepFollowsPrecision)
{
    CacheGeometry geom;
    TechParams tech;
    DetailedSliceSim sim8(geom, tech, 2, 1, 16, 8);
    DetailedSliceSim sim4(geom, tech, 2, 1, 16, 4);
    EXPECT_EQ(sim8.cyclesPerStep(), 32u); // 16 MACs x 2 cycles
    EXPECT_EQ(sim4.cyclesPerStep(), 16u); // 16 MACs x 1 cycle
}

TEST(Grid, EveryColumnProducesOneOutputPerWave)
{
    // The paper: "each column produces one element of output feature
    // map at every step".
    CacheGeometry geom;
    TechParams tech;
    DetailedSliceSim sim(geom, tech, 2, 4, 4, 8);

    Weights w(4, std::vector<std::vector<std::int8_t>>(
                     2, std::vector<std::int8_t>(4, 1)));
    sim.loadWeights(w);
    std::vector<std::vector<std::int8_t>> inputs(
        3, std::vector<std::int8_t>(8, 2));
    const DetailedGridResult r = sim.run(inputs);
    for (const auto &col : r.outputs) {
        ASSERT_EQ(col.size(), 3u);
        for (std::int32_t v : col)
            EXPECT_EQ(v, 16); // 8 ones x 2
    }
}

TEST(Grid, WiderGridTakesLongerOnlyByHops)
{
    CacheGeometry geom;
    TechParams tech;
    const std::uint64_t cps = 8; // slice_len 4, 8-bit -> 4*2

    auto run_grid = [&](unsigned cols) {
        DetailedSliceSim sim(geom, tech, 2, cols, 4, 8);
        Weights w(cols, std::vector<std::vector<std::int8_t>>(
                            2, std::vector<std::int8_t>(4, 1)));
        sim.loadWeights(w);
        std::vector<std::vector<std::int8_t>> inputs(
            4, std::vector<std::int8_t>(8, 1));
        return sim.run(inputs).cycles;
    };

    const std::uint64_t narrow = run_grid(2);
    const std::uint64_t wide = run_grid(6);
    EXPECT_EQ(wide - narrow, 4u); // 4 extra horizontal hops
    EXPECT_EQ(narrow, 4 * cps + 1 + 1);
}

TEST(Grid, ChargesRouterAndLutEnergy)
{
    CacheGeometry geom;
    TechParams tech;
    DetailedSliceSim sim(geom, tech, 3, 3, 4, 8);
    // 3 x 5 is odd x odd: it needs a sub-array LUT row (x1 would not).
    Weights w(3, std::vector<std::vector<std::int8_t>>(
                     3, std::vector<std::int8_t>(4, 3)));
    sim.loadWeights(w);
    std::vector<std::vector<std::int8_t>> inputs(
        2, std::vector<std::int8_t>(12, 5));
    sim.run(inputs);

    using bfree::mem::EnergyCategory;
    EXPECT_GT(sim.energy().joules(EnergyCategory::Router), 0.0);
    EXPECT_GT(sim.energy().joules(EnergyCategory::LutAccess), 0.0);
    EXPECT_GT(sim.energy().joules(EnergyCategory::SubarrayAccess), 0.0);
    EXPECT_GT(sim.energy().joules(EnergyCategory::BceCompute), 0.0);
}

TEST(GridDeath, BadShapes)
{
    CacheGeometry geom;
    TechParams tech;
    EXPECT_DEATH(DetailedSliceSim(geom, tech, 0, 2, 4, 8), "rows");
    EXPECT_DEATH(DetailedSliceSim(geom, tech, 9, 2, 4, 8), "rows");
    EXPECT_DEATH(DetailedSliceSim(geom, tech, 2, 0, 4, 8), "column");
}
