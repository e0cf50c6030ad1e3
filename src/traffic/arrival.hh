/**
 * @file
 * Seeded open-loop arrival processes.
 *
 * An open-loop harness offers load on the clients' schedule, not the
 * server's: arrivals keep coming whether or not the machine has
 * caught up, which is exactly what exposes queueing delay and the
 * overload knee that a closed-loop (back-to-back) run structurally
 * cannot show.  Two processes are modelled:
 *
 *  - Poisson: i.i.d. exponential inter-arrival gaps around a mean --
 *    the classic memoryless client population;
 *  - Bursty: a two-state Markov-modulated Poisson process (MMPP).
 *    The process flips between a calm state (the nominal mean gap)
 *    and a burst state (mean gap divided by burstFactor) with
 *    probability pSwitch after each arrival, producing the clumped
 *    arrivals that hurt tails far more than their average rate
 *    suggests;
 *  - ClosedPool: a finite client pool per stream (the closed /
 *    hybrid half of the classic open-vs-closed contrast).  Each of
 *    poolSize clients thinks for a seeded exponential gap, issues
 *    its next transaction, and only thinks again once that
 *    transaction leaves the system -- so offered load is
 *    self-limiting and the knee sweep can contrast how open load
 *    diverges where closed load merely slows.  The per-transaction
 *    think gaps are drawn at build time (thinkGap()); the actual
 *    arrival stamps emerge in the replay, where completion times
 *    are known.
 *
 * Determinism: every draw comes from an explicitly seeded Rng, and
 * the accumulated arrival clock is quantized to integer cycles only
 * at the observation point, so a (spec, seed) pair always yields the
 * identical arrival sequence.
 */

#ifndef EDE_TRAFFIC_ARRIVAL_HH
#define EDE_TRAFFIC_ARRIVAL_HH

#include <string_view>

#include "common/fields.hh"
#include "common/random.hh"
#include "common/types.hh"

namespace ede {
namespace traffic {

/** The modelled arrival processes. */
enum class ArrivalKind { Poisson, Bursty, ClosedPool };

/** Printable process name (JSON / labels). */
constexpr std::string_view
arrivalKindName(ArrivalKind k)
{
    switch (k) {
      case ArrivalKind::Poisson: return "poisson";
      case ArrivalKind::Bursty: return "bursty";
      case ArrivalKind::ClosedPool: return "closed-pool";
    }
    return "<bad-arrival-kind>";
}

/** One offered-load point. */
struct ArrivalSpec
{
    ArrivalKind kind = ArrivalKind::Poisson;

    /** Mean inter-arrival gap per stream, in cycles (> 0). */
    double meanGap = 2000.0;

    /** @name Bursty (MMPP) only. */
    /// @{
    double burstFactor = 8.0;  ///< Burst-state rate multiplier (>= 1).
    double pSwitch = 0.05;     ///< Per-arrival state-flip probability.
    /// @}

    /** @name ClosedPool only. */
    /// @{
    unsigned poolSize = 4;      ///< Clients per stream (>= 1).
    double thinkTime = 2000.0;  ///< Mean think gap, cycles (>= 0).
    /// @}
};

void
visitFields(auto &v, FieldsOf<ArrivalSpec> auto &s)
{
    v("kind", s.kind, arrivalKindName);
    v("mean_gap", s.meanGap);
    v("burst_factor", s.burstFactor);
    v("p_switch", s.pSwitch);
    v("pool_size", s.poolSize);
    v("think_time", s.thinkTime);
}

/** A seeded generator of monotone arrival timestamps. */
class ArrivalProcess
{
  public:
    ArrivalProcess(const ArrivalSpec &spec, std::uint64_t seed)
        : spec_(spec), rng_(seed)
    {
    }

    /** The next arrival's cycle stamp (non-decreasing). */
    Cycle next();

    /**
     * An independent think-gap draw (ClosedPool): exponential around
     * thinkTime, quantized per draw -- no cumulative clock, since a
     * closed client's arrival stamp is completion + think and only
     * the replay knows the completion.
     */
    Cycle thinkGap();

  private:
    ArrivalSpec spec_;
    Rng rng_;
    double clock_ = 0.0;  ///< Continuous time; quantized on read.
    bool burst_ = false;  ///< MMPP state.
};

} // namespace traffic
} // namespace ede

#endif // EDE_TRAFFIC_ARRIVAL_HH
