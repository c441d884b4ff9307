/**
 * @file
 * Systolic routers and the inter-slice ring.
 */

#include <gtest/gtest.h>

#include <vector>

#include "noc/ring.hh"
#include "noc/router.hh"

using namespace bfree::noc;
using namespace bfree::sim;
using bfree::mem::EnergyAccount;
using bfree::mem::EnergyCategory;
using bfree::tech::TechParams;

namespace {

struct RouterFixture
{
    TechParams tech;
    EventQueue queue;
    ClockDomain clock{1.5e9};
    EnergyAccount energy;
    Router router{queue, "r0", clock, tech, energy};
};

} // namespace

TEST(Router, ChargesHopEnergy)
{
    RouterFixture f;
    f.router.connectBurst([](const Flit *, std::size_t, Tick, Tick) {});
    f.router.sendBurst({Flit{}}, Cycles(1));
    f.queue.run();
    EXPECT_NEAR(f.energy.joules(EnergyCategory::Router),
                f.tech.routerHopPj * 1e-12, 1e-20);
}

TEST(Router, SendBurstDeliversExactTimingMetadata)
{
    RouterFixture f;
    const Tick hop = f.clock.cyclesToTicks(
        Cycles(f.tech.routerHopCycles));
    std::vector<Flit> got;
    Tick got_first = 0;
    Tick got_cadence = 0;
    f.router.connectBurst([&](const Flit *flits, std::size_t n,
                              Tick first, Tick cadence) {
        got.assign(flits, flits + n);
        got_first = first;
        got_cadence = cadence;
    });

    f.router.sendBurst({Flit{11, 0}, Flit{22, 1}, Flit{33, 2}},
                       Cycles(5));
    f.queue.run();

    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].payload, 11u);
    EXPECT_EQ(got[2].tag, 2u);
    // First flit arrives one hop after the send; the train is spaced
    // at the requested cadence, in ticks of the router's clock.
    EXPECT_EQ(got_first, hop);
    EXPECT_EQ(got_cadence, 5 * f.clock.period());
    EXPECT_EQ(f.router.flitsForwarded(), 3u);
    EXPECT_EQ(f.router.burstsForwarded(), 1u);
}

TEST(Router, BurstEnergyMatchesHopCount)
{
    // A burst of n flits charges exactly n hops — same count AND the
    // same float accumulation order as n single-hop charges, so the
    // joules compare bitwise equal.
    RouterFixture f;
    f.router.connectBurst([](const Flit *, std::size_t, Tick, Tick) {});
    std::vector<Flit> train;
    for (int i = 0; i < 7; ++i)
        train.push_back(Flit{static_cast<std::uint64_t>(i), 0});
    f.router.sendBurst(std::move(train), Cycles(1));
    f.queue.run();

    EnergyAccount expect;
    for (int i = 0; i < 7; ++i)
        expect.addPj(EnergyCategory::Router, f.tech.routerHopPj);
    EXPECT_EQ(f.energy.joules(EnergyCategory::Router),
              expect.joules(EnergyCategory::Router));
    EXPECT_EQ(f.router.flitsForwarded(), 7u);
}

TEST(Router, BurstChainsAccumulateOneHopPerRouter)
{
    // Two routers chained through burst sinks: the second burst leaves
    // when the first arrives, so the train reaches the end after two
    // hops with the cadence preserved.
    TechParams tech;
    EventQueue queue;
    ClockDomain clock(1.5e9);
    EnergyAccount energy;
    Router r0(queue, "r0", clock, tech, energy);
    Router r1(queue, "r1", clock, tech, energy);

    Tick end_first = 0;
    Tick end_cadence = 0;
    std::size_t end_count = 0;
    r0.connectBurst([&](const Flit *flits, std::size_t n, Tick,
                        Tick cadence) {
        r1.sendBurst(std::vector<Flit>(flits, flits + n),
                     clock.ticksToCycles(cadence));
    });
    r1.connectBurst([&](const Flit *, std::size_t n, Tick first,
                        Tick cadence) {
        end_count = n;
        end_first = first;
        end_cadence = cadence;
    });

    r0.sendBurst({Flit{1, 0}, Flit{2, 1}, Flit{3, 2}, Flit{4, 3}},
                 Cycles(8));
    queue.run();

    const Tick hop = clock.cyclesToTicks(Cycles(tech.routerHopCycles));
    EXPECT_EQ(end_count, 4u);
    EXPECT_EQ(end_first, 2 * hop);
    EXPECT_EQ(end_cadence, 8 * clock.period());
    // One delivery event per router, not one per flit.
    EXPECT_EQ(queue.processed(), 2u);
}

TEST(RouterDeath, EmptyBurstPanics)
{
    RouterFixture f;
    f.router.connectBurst(
        [](const Flit *, std::size_t, Tick, Tick) {});
    EXPECT_DEATH(f.router.sendBurst({}, Cycles(1)), "empty burst");
}

TEST(RouterDeath, BurstWithoutSinkPanics)
{
    RouterFixture f;
    EXPECT_DEATH(f.router.sendBurst({Flit{1, 0}}, Cycles(1)),
                 "burst sink");
}

TEST(Ring, BroadcastTimeScalesWithBytes)
{
    TechParams tech;
    EnergyAccount energy;
    RingInterconnect ring(14, tech, energy);
    const double t1 = ring.broadcast(1e6);
    const double t2 = ring.broadcast(2e6);
    EXPECT_GT(t2, t1);
    EXPECT_NEAR(t2 / t1, 2.0, 0.01);
    EXPECT_GT(energy.joules(EnergyCategory::Interconnect), 0.0);
}

TEST(Ring, BandwidthExceedsDram)
{
    // The ring must not bottleneck DRAM-rate weight broadcast: 32 B /
    // cycle at 1.5 GHz = 48 GB/s > 20 GB/s.
    TechParams tech;
    EnergyAccount energy;
    RingInterconnect ring(14, tech, energy);
    EXPECT_GT(ring.busBytesPerCycle() * ring.clockHz(), 20e9);
}

TEST(Ring, TransferChargesPerHop)
{
    TechParams tech;
    EnergyAccount e1;
    EnergyAccount e2;
    RingInterconnect ring1(14, tech, e1);
    RingInterconnect ring2(14, tech, e2);
    ring1.transfer(1e6, 1);
    ring2.transfer(1e6, 7);
    EXPECT_GT(e2.joules(EnergyCategory::Interconnect),
              e1.joules(EnergyCategory::Interconnect));
}

