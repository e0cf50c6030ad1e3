/**
 * @file
 * YCSB-style operation mix with zipfian key skew.
 *
 * Request-serving workloads are never uniform: a few hot keys absorb
 * most of the traffic.  The generator follows the YCSB convention --
 * a read/update split plus a zipfian key-popularity distribution --
 * using the incremental Gray et al. sampler, which draws in O(1)
 * after an O(keys) zeta precomputation and needs no table of
 * cumulative weights.
 */

#ifndef EDE_TRAFFIC_OPMIX_HH
#define EDE_TRAFFIC_OPMIX_HH

#include <cstdint>

#include "common/fields.hh"
#include "common/random.hh"

namespace ede {
namespace traffic {

/** What one transaction does. */
enum class TxnKind { Read, Update };

/** The workload's operation mix and key-popularity skew. */
struct OpMix
{
    double readFraction = 0.5;  ///< P(read txn); rest are updates.

    /**
     * Zipfian skew parameter theta in [0, 1): 0 is uniform, 0.99 is
     * the YCSB default "hot" skew.  (theta = 1 is the divergent
     * harmonic case the incremental sampler cannot represent;
     * validation rejects it.)
     */
    double zipfTheta = 0.99;

    std::uint64_t keys = 256;   ///< Keyspace size per stream.
};

void
visitFields(auto &v, FieldsOf<OpMix> auto &m)
{
    v("read_fraction", m.readFraction);
    v("zipf_theta", m.zipfTheta);
    v("keys", m.keys);
}

/**
 * Incremental zipfian sampler over [0, keys): rank 0 is the hottest
 * key.  Deterministic given the caller's Rng stream.
 */
class ZipfGenerator
{
  public:
    ZipfGenerator(std::uint64_t keys, double theta);

    /** Draw one key rank in [0, keys). */
    std::uint64_t next(Rng &rng);

  private:
    std::uint64_t n_;
    double theta_;
    double zetan_;   ///< zeta(n, theta).
    double alpha_;   ///< 1 / (1 - theta).
    double eta_;
    double halfPowTheta_;  ///< 0.5^theta.
};

/** Draw the next transaction's kind from @p mix. */
inline TxnKind
drawTxnKind(const OpMix &mix, Rng &rng)
{
    return rng.chance(mix.readFraction) ? TxnKind::Read
                                        : TxnKind::Update;
}

} // namespace traffic
} // namespace ede

#endif // EDE_TRAFFIC_OPMIX_HH
