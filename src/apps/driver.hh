/**
 * @file
 * Workload driver: the transaction loop of Section VI-B.
 */

#ifndef EDE_APPS_DRIVER_HH
#define EDE_APPS_DRIVER_HH

#include <cstddef>

#include "apps/app.hh"

namespace ede {

/** How much work to generate. */
struct RunSpec
{
    std::size_t txns = 100;        ///< Paper: 1,000.
    std::size_t opsPerTxn = 100;   ///< Paper: 100.
    std::uint64_t seed = 42;
};

void
visitFields(auto &v, FieldsOf<RunSpec> auto &s)
{
    v("txns", s.txns);
    v("ops_per_txn", s.opsPerTxn);
    v("seed", s.seed);
}

/**
 * Generate the full workload: setup, then @p spec.txns transactions
 * of @p spec.opsPerTxn operations each (Section VI-B).
 *
 * @return the trace index of the fence closing the setup phase; the
 *         initial structure is durable once that element completes.
 */
std::size_t generateWorkload(App &app, NvmFramework &fw,
                             const RunSpec &spec);

} // namespace ede

#endif // EDE_APPS_DRIVER_HH
