/**
 * @file
 * Sub-bank routers for the systolic dataflow (Section III-D, Fig. 8).
 *
 * BFree augments the conventional sub-array interconnect with simple
 * unidirectional routers: within a sub-bank, the data-out of one
 * sub-array connects to the data-in of its neighbour, forming the
 * partial-sum reduction chain; across sub-banks, the existing column
 * connectivity streams inputs. A router hop takes one sub-array clock
 * cycle and one flit's worth of wire/driver energy.
 */

#ifndef BFREE_NOC_ROUTER_HH
#define BFREE_NOC_ROUTER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mem/energy_account.hh"
#include "sim/clocked.hh"
#include "tech/tech_params.hh"

namespace bfree::noc {

/** A 64-bit payload moving through the systolic fabric. */
struct Flit
{
    std::uint64_t payload = 0;
    std::uint32_t tag = 0; ///< Free-form routing/sequence metadata.
};

/**
 * An event-driven unidirectional router: accepts a flit train and
 * delivers it to the downstream sink after routerHopCycles, charging
 * hop energy per flit.
 */
class Router : public sim::ClockedObject
{
  public:
    /**
     * Downstream consumer of a whole flit train. Receives the flits,
     * the arrival tick of the FIRST flit (= send tick + hop latency)
     * and the cadence in ticks between consecutive flits; flit i's
     * wire-level arrival is first_arrival + i * cadence, recovered
     * arithmetically instead of with one event per flit.
     */
    using BurstSink = std::function<void(
        const Flit *flits, std::size_t n, sim::Tick first_arrival,
        sim::Tick cadence)>;

    Router(sim::EventQueue &queue, std::string name,
           const sim::ClockDomain &domain, const tech::TechParams &tech,
           mem::EnergyAccount &energy);

    /** Connect the downstream burst consumer. */
    void connectBurst(BurstSink sink)
    { burstDownstream = std::move(sink); }

    /**
     * Inject a whole flit train spaced @p cadence cycles apart, costing
     * one scheduled event per hop instead of one per flit. Energy and
     * flit counts are those of one hop per flit. The burst sink fires
     * at the first flit's arrival with the exact (first_arrival,
     * cadence) timing metadata.
     */
    void sendBurst(std::vector<Flit> flits, sim::Cycles cadence);

    /** Flits forwarded so far. */
    std::uint64_t flitsForwarded() const { return numFlits; }

    /** Bursts forwarded so far. */
    std::uint64_t burstsForwarded() const { return numBursts; }

  private:
    tech::TechParams tech;
    mem::EnergyAccount *energy;
    BurstSink burstDownstream;
    std::uint64_t numFlits = 0;
    std::uint64_t numBursts = 0;
};

} // namespace bfree::noc

#endif // BFREE_NOC_ROUTER_HH
