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

TEST(Router, DeliversAfterOneHopCycle)
{
    RouterFixture f;
    std::vector<Flit> received;
    f.router.connect([&](const Flit &flit) { received.push_back(flit); });

    f.router.send(Flit{0xDEAD, 7});
    f.queue.run();

    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0].payload, 0xDEADu);
    EXPECT_EQ(received[0].tag, 7u);
    EXPECT_EQ(f.clock.ticksToCycles(f.queue.now()).value(), 1u);
}

TEST(Router, BurstDrainsOnePerCycle)
{
    RouterFixture f;
    std::vector<Tick> arrival_ticks;
    f.router.connect(
        [&](const Flit &) { arrival_ticks.push_back(f.queue.now()); });

    f.router.send(Flit{1, 0});
    f.router.send(Flit{2, 1});
    f.router.send(Flit{3, 2});
    f.queue.run();

    ASSERT_EQ(arrival_ticks.size(), 3u);
    EXPECT_LT(arrival_ticks[0], arrival_ticks[1]);
    EXPECT_LT(arrival_ticks[1], arrival_ticks[2]);
    EXPECT_EQ(f.router.flitsForwarded(), 3u);
}

TEST(Router, ChargesHopEnergy)
{
    RouterFixture f;
    f.router.connect([](const Flit &) {});
    f.router.send(Flit{});
    f.queue.run();
    EXPECT_NEAR(f.energy.joules(EnergyCategory::Router),
                f.tech.routerHopPj * 1e-12, 1e-20);
}

TEST(Router, ChainedRoutersAccumulateLatency)
{
    TechParams tech;
    EventQueue queue;
    ClockDomain clock(1.5e9);
    EnergyAccount energy;
    Router r0(queue, "r0", clock, tech, energy);
    Router r1(queue, "r1", clock, tech, energy);

    bool done = false;
    r0.connect([&](const Flit &flit) { r1.send(flit); });
    r1.connect([&](const Flit &) { done = true; });

    r0.send(Flit{42, 0});
    queue.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(clock.ticksToCycles(queue.now()).value(), 2u);
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

TEST(Router, BurstEnergyMatchesScalarSendsBitwise)
{
    // A burst of n flits must charge exactly what n scalar sends
    // charge — same count AND same float accumulation order, so the
    // joules compare bitwise equal.
    TechParams tech;
    ClockDomain clock(1.5e9);

    EnergyAccount scalar_energy;
    EventQueue q1;
    Router scalar_router(q1, "s", clock, tech, scalar_energy);
    scalar_router.connect([](const Flit &) {});
    for (int i = 0; i < 7; ++i)
        scalar_router.send(Flit{static_cast<std::uint64_t>(i), 0});
    q1.run();

    EnergyAccount burst_energy;
    EventQueue q2;
    Router burst_router(q2, "b", clock, tech, burst_energy);
    burst_router.connectBurst(
        [](const Flit *, std::size_t, Tick, Tick) {});
    std::vector<Flit> train;
    for (int i = 0; i < 7; ++i)
        train.push_back(Flit{static_cast<std::uint64_t>(i), 0});
    burst_router.sendBurst(std::move(train), Cycles(1));
    q2.run();

    EXPECT_EQ(burst_energy.joules(EnergyCategory::Router),
              scalar_energy.joules(EnergyCategory::Router));
    EXPECT_EQ(burst_router.flitsForwarded(),
              scalar_router.flitsForwarded());
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

TEST(Router, ScalarAndBurstTrafficInterleaveInOrder)
{
    RouterFixture f;
    std::vector<std::uint32_t> order;
    f.router.connect(
        [&](const Flit &flit) { order.push_back(flit.tag); });
    f.router.connectBurst([&](const Flit *flits, std::size_t n, Tick,
                              Tick) {
        for (std::size_t i = 0; i < n; ++i)
            order.push_back(flits[i].tag);
    });

    f.router.send(Flit{0, 100});
    f.router.sendBurst({Flit{0, 200}, Flit{0, 201}}, Cycles(1));
    f.queue.run();

    // Scalar was sent first, so it delivers first; the burst arrives
    // as one train at the same hop latency, after it in queue order.
    EXPECT_EQ(order,
              (std::vector<std::uint32_t>{100, 200, 201}));
    EXPECT_EQ(f.router.flitsForwarded(), 3u);
}

TEST(Router, BackToBackScalarSendsChargeEachFlit)
{
    RouterFixture f;
    f.router.connect([](const Flit &) {});
    for (int i = 0; i < 5; ++i)
        f.router.send(Flit{});
    f.queue.run();
    EXPECT_NEAR(f.energy.joules(EnergyCategory::Router),
                5 * f.tech.routerHopPj * 1e-12, 1e-19);
    EXPECT_EQ(f.router.flitsForwarded(), 5u);
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

TEST(SystolicChainFormula, KnownValues)
{
    // One stage: no hops, just the steps.
    EXPECT_EQ(systolic_chain_cycles(1, 10, 1), 10u);
    // Eight stages, one wave: 7 hops + 1 step.
    EXPECT_EQ(systolic_chain_cycles(8, 1, 1), 8u);
    // Paper sub-bank: 8 stages, 100 waves.
    EXPECT_EQ(systolic_chain_cycles(8, 100, 1), 107u);
    EXPECT_EQ(systolic_chain_cycles(0, 5, 1), 0u);
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

TEST(RouterDeath, UnconnectedRouterPanics)
{
    RouterFixture f;
    f.router.send(Flit{});
    EXPECT_DEATH(f.queue.run(), "no downstream");
}
