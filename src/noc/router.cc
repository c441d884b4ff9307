#include "router.hh"

#include <memory>
#include <utility>

#include "sim/logging.hh"

namespace bfree::noc {

Router::Router(sim::EventQueue &queue, std::string name,
               const sim::ClockDomain &domain,
               const tech::TechParams &tech, mem::EnergyAccount &energy)
    : sim::ClockedObject(queue, std::move(name), domain), tech(tech),
      energy(&energy)
{}

void
Router::sendBurst(std::vector<Flit> flits, sim::Cycles cadence)
{
    if (flits.empty())
        bfree_panic("router ", name(), " asked to send an empty burst");
    if (!burstDownstream)
        bfree_panic("router ", name(), " has no downstream burst sink");

    // Charge hop energy per flit (not one n*pj add), so the joules are
    // bitwise those of n single-hop charges in flit order.
    for (std::size_t i = 0; i < flits.size(); ++i)
        energy->addPj(mem::EnergyCategory::Router, tech.routerHopPj);
    numFlits += flits.size();
    ++numBursts;

    const sim::Tick arrival =
        clockEdge(sim::Cycles(tech.routerHopCycles));
    const sim::Tick cadence_ticks = cadence.value() * clockPeriod();
    auto train = std::make_shared<std::vector<Flit>>(std::move(flits));
    eventq().scheduleCallback(arrival,
                              [this, train, arrival, cadence_ticks] {
        burstDownstream(train->data(), train->size(), arrival,
                        cadence_ticks);
    });
}

} // namespace bfree::noc
