/**
 * @file
 * Content-addressed fingerprints for experiment points.
 *
 * The result cache keys a RunResult snapshot by a hash over *every
 * simulation input* -- the ExperimentPoint field table: application,
 * configuration, RunSpec, AppParams, the full SimParams tree and the
 * conc and traffic blocks -- plus a schema version.  Any parameter an
 * ablation can tweak is hashed by (name, value) pair, so adding,
 * reordering or changing a field changes the fingerprint and old
 * snapshots simply stop matching -- there is no explicit
 * invalidation step.
 *
 * kResultSchemaVersion must be bumped whenever the *simulator's
 * behaviour* or the snapshot layout changes, since the fingerprint
 * cannot see code.
 */

#ifndef EDE_EXP_FINGERPRINT_HH
#define EDE_EXP_FINGERPRINT_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "exp/plan.hh"

namespace ede {
namespace exp {

/**
 * Cached-result schema/behaviour version.  Bump on any change to the
 * simulator's timing behaviour, the statistics it reports, or a field
 * table (common/fields.hh) -- every snapshot, payload and JSON
 * artifact is written from those tables.
 *
 * v3: skip-ahead scheduler landed (cycle counts are bit-identical to
 * the reference loop by construction, but stale v2 snapshots predate
 * the differential harness) and BENCH_*.json artifacts gained the
 * per-cell "host_perf" object.  The ticking mode and the host-side
 * profile are deliberately NOT part of the fingerprint: they must not
 * affect simulated results, and caching host wall-clock times would
 * break the racing-writers-produce-identical-bytes invariant.
 *
 * v4: process-isolated workers landed.  BENCH_*.json gained the
 * top-level "failures" array (quarantined cells) and the "replayed"
 * cache tally; sweep journals embed this version through the sweep
 * id.  The isolation mode, limits and retry policy are NOT part of
 * the fingerprint: an isolated cell is bit-identical to an inline
 * one by construction (the snapshot serialization *is* the wire
 * format between worker and parent).
 *
 * v5: persist events carry the originating trace index, torn persists
 * generalized from "last accepted event" to any frontier event of the
 * durable set (seed-chosen), and the model-check artifacts landed
 * (BENCH_model_check.json with the durable-set lattice coverage).
 * Campaign classifications can differ from v4 at torn crash points,
 * so v4 journals/snapshots must not replay.
 *
 * v6: the machine became an N-core System (shared coherence point at
 * the L2, per-core private L1s / write buffers / EDMs, cross-core
 * WAIT counters).  SimParams gained coreCount, which is now hashed;
 * RunResult snapshots gained the per-core breakdown and the
 * coherence counters, and CacheStats gained the snoop tallies.  A
 * coreCount=1 machine is bit-identical to v5 timing by construction
 * (the differential gate in bench/fig_scaling enforces it), but the
 * snapshot layout changed, so v5 snapshots must not replay.
 *
 * v7: the open-loop traffic harness landed.  RunResult snapshots
 * gained the traffic section (aggregate + per-stream exact
 * p50/p99/p99.9 open and service latency records), BENCH_*.json
 * cells gained the "traffic" object, and ExperimentPoint gained the
 * gated traffic-plan fields.  Timing of non-traffic cells is
 * unchanged, but the snapshot layout grew, so v6 snapshots must not
 * replay.
 *
 * v8: the overload-control layer landed.  TrafficPlan gained the
 * exact-total/warmup/window knobs, the closed-pool arrival kind and
 * the full OverloadPolicy (admission, finite queue, retry budget,
 * degradation ladder) -- all hashed inside the gated traffic block.
 * Traffic snapshots gained the warmup/steady split, the per-window
 * series, per-stream shed/retry/failure counters and the overload
 * section, and BENCH_*.json traffic objects grew the same fields
 * (with count=0 summaries now emitting null percentiles).  Timing is
 * unchanged, but the traffic snapshot layout grew, so v7 snapshots
 * must not replay.
 *
 * v9: one field table per persisted record drives the cache
 * snapshot, the worker and journal payloads, the JSON artifacts and
 * the fingerprints (exp/fields.hh).  Snapshots and payloads are
 * keyed "<label> <value>" lines with nested records and counted lists
 * instead of positional vectors; every list length is bounded by the
 * input left, so a damaged count is a miss, not an allocation
 * failure.  Snapshots now carry every statistic (the per-core
 * breakdown on one core too, the whole traffic record), journal
 * quarantine records carry a JobFailure payload, and JSON cells gain
 * the point's full input tree and every counter under the tables'
 * snake_case keys (DESIGN.md §8 item 7 lists the moved keys).
 * Timing is unchanged, but every layout changed, so v8 snapshots and
 * journals must not replay.
 */
inline constexpr std::uint32_t kResultSchemaVersion = 9;

/**
 * Hash of every field table's labels and value types (the schema
 * test walks them).  Editing a table changes it: bump
 * kResultSchemaVersion and set this to the new hash.
 */
inline constexpr std::uint64_t kResultSchemaHash = 0xd0e1690d74fbd150ull;

/** FNV-1a over a stream of tagged fields. */
class FingerprintHasher
{
  public:
    /** Hash one named integer field. */
    void field(std::string_view name, std::uint64_t value);

    /** Hash one named boolean field. */
    void field(std::string_view name, bool value);

    /** Hash one named floating-point field (by bit pattern). */
    void field(std::string_view name, double value);

    /** Hash one named string field. */
    void field(std::string_view name, std::string_view value);

    /** The 64-bit digest so far. */
    std::uint64_t value() const { return hash_; }

  private:
    void bytes(const void *data, std::size_t len);

    std::uint64_t hash_ = 0xcbf29ce484222325ull;  // FNV offset basis.
};

/** Fingerprint of everything that determines a point's RunResult. */
std::uint64_t fingerprintPoint(const ExperimentPoint &point);

/** Fixed-width lowercase hex rendering (cache file names). */
std::string fingerprintHex(std::uint64_t fingerprint);

} // namespace exp
} // namespace ede

#endif // EDE_EXP_FINGERPRINT_HH
