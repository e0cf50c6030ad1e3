/**
 * @file
 * StreamMux: multiplex open-loop transaction streams onto the N-core
 * persistent heap and report exact per-transaction latency.
 *
 * The plan describes a request-serving service: `streams` concurrent
 * client streams, each issuing `txnsPerStream` transactions of
 * `opsPerTxn` operations against its own shard of the persistent
 * keyspace (zipfian-skewed within the shard, YCSB-style read/update
 * mix), with arrivals from a seeded Poisson or bursty (MMPP)
 * process.  Streams are assigned to cores round-robin; a core serves
 * its streams' transactions in a fixed round-robin schedule.
 *
 * Timing model -- run once, sweep arrivals for free:
 *
 * The machine executes each core's request schedule *closed-loop*
 * (back-to-back), with per-trace-index completion recording on.  The
 * schedule is deliberately independent of the arrival process, so
 * one timing simulation yields the exact per-transaction service
 * times S_i (differences of completion cycles over the transaction's
 * trace span).  Open-loop latency is then the Lindley recursion over
 * the fixed per-core schedule:
 *
 *     start_i  = max(A_i, depart_{i-1})
 *     depart_i = start_i + S_i
 *     open_i   = depart_i - A_i
 *
 * where A_i is the transaction's seeded arrival stamp.  Everything
 * is integer cycles, so the records are bit-identical across --jobs
 * counts and ticking modes; and because arrivals never perturb the
 * trace, the closed-loop cycle count is *identical* across offered
 * loads while the open-loop tail diverges past the overload knee --
 * the separation bench/fig_traffic gates on.
 *
 * Persistence lowering follows Table III exactly as the concurrent
 * kernels do (apps/concurrent.hh): every update persists its lines
 * with DC CVAP, orders the publishing store behind the persist (DSB
 * SY / DMB ST / EDE key operands / nothing), and ends with a durable
 * ack drain (WAIT on the core's key under EDE instead of a full
 * fence) -- the fence-elimination win lands directly in the service
 * times and therefore in the tail.
 */

#ifndef EDE_TRAFFIC_STREAM_MUX_HH
#define EDE_TRAFFIC_STREAM_MUX_HH

#include <cstdint>
#include <vector>

#include "pipeline/sim_error.hh"
#include "sim/config.hh"
#include "trace/trace.hh"
#include "traffic/arrival.hh"
#include "traffic/latency.hh"
#include "traffic/opmix.hh"
#include "traffic/policy.hh"

namespace ede {
namespace traffic {

/** The full description of one open-loop traffic run. */
struct TrafficPlan
{
    unsigned streams = 4;     ///< Concurrent client streams.
    int txnsPerStream = 64;   ///< Transactions per stream.

    /**
     * When > 0, overrides txnsPerStream with an exact run-wide
     * transaction count distributed round-robin (stream s gets
     * floor(total/streams) plus one of the remainder).  Must be >=
     * streams: a plan asking for more streams than transactions is
     * rejected with a RunRequestInvalid detail instead of silently
     * producing empty streams.
     */
    int totalTxns = 0;

    int opsPerTxn = 4;        ///< Key operations per transaction.
    OpMix mix;                ///< Read/update split + zipf skew.
    ArrivalSpec arrival;      ///< Offered-load point.

    /**
     * First fraction of each stream's transactions (by index,
     * permille) classified as warmup and excluded from the
     * steady-state headline summaries.
     */
    unsigned warmupPermille = 125;

    /** Progress windows in the per-window latency series (1..64). */
    unsigned latencyWindows = 8;

    OverloadPolicy policy;    ///< Overload control (inactive = none).

    std::uint64_t seed = 42;  ///< Master seed (keys, kinds, arrivals).
};

void
visitFields(auto &v, FieldsOf<TrafficPlan> auto &p)
{
    v("streams", p.streams);
    v("txns_per_stream", p.txnsPerStream);
    v("total_txns", p.totalTxns);
    v("ops_per_txn", p.opsPerTxn);
    v("mix", p.mix);
    v("arrival", p.arrival);
    v("warmup_permille", p.warmupPermille);
    v("latency_windows", p.latencyWindows);
    v("policy", p.policy);
    v("seed", p.seed);
}

/** Transactions stream @p s issues under @p plan. */
constexpr std::uint64_t
trafficTxnsOfStream(const TrafficPlan &plan, unsigned s)
{
    if (plan.totalTxns <= 0)
        return static_cast<std::uint64_t>(plan.txnsPerStream);
    const std::uint64_t total =
        static_cast<std::uint64_t>(plan.totalTxns);
    return total / plan.streams + (s < total % plan.streams ? 1 : 0);
}

/**
 * @name Shared NVM layout.
 *
 * Each stream owns a 1 MiB shard of the persistent heap well above
 * the concurrent kernels' arenas: its keyspace (64 B per key) plus a
 * publish record on its own 256 B media line, so two streams'
 * persist histories never entangle.  Sharding keys per stream keeps
 * the functional-first generation sound -- values are resolved
 * host-side per stream, so the timing interleave across cores can
 * never change an outcome.
 */
/// @{
inline constexpr Addr kTrafficNvmBase = 3ull << 30;
inline constexpr Addr kTrafficShardStride = 0x100000;
inline constexpr std::uint64_t kTrafficMaxKeys = 4096;

constexpr Addr
trafficShardBase(unsigned stream)
{
    return kTrafficNvmBase + stream * kTrafficShardStride;
}

/** Key @p rank of @p stream's shard (one 64 B line per key). */
constexpr Addr
trafficKeyAddr(unsigned stream, std::uint64_t rank)
{
    return trafficShardBase(stream) + 64ull * rank;
}

/** Stream @p stream's publish record (own 256 B media line). */
constexpr Addr
trafficPublishAddr(unsigned stream)
{
    return trafficShardBase(stream) + 0x80000;
}

/** The EDK key core @p core's persists define (EDE configs). */
constexpr Edk
trafficCoreKey(unsigned core)
{
    return static_cast<Edk>(1 + core);
}

/** Most cores an EDE configuration supports (one real key each). */
inline constexpr unsigned kMaxTrafficEdeCores = kNumEdks - 1;
/// @}

/** One transaction's schedule slot. */
struct TxnRecord
{
    unsigned stream = 0;      ///< Issuing stream.
    unsigned core = 0;        ///< Core it was multiplexed onto.
    std::uint32_t index = 0;  ///< Per-stream transaction index.
    TxnKind kind = TxnKind::Read;
    Cycle arrival = 0;        ///< Seeded arrival stamp (open kinds).
    Cycle think = 0;          ///< Preceding think gap (ClosedPool).
    std::size_t first = 0;    ///< First trace index on its core.
    std::size_t last = 0;     ///< One past its final trace index.
};

/** Per-core traces plus the transaction schedule that fills them. */
struct TrafficWorkload
{
    std::vector<Trace> traces;  ///< Index i binds to core i.

    /** Per core: trace index one past the warmup preamble. */
    std::vector<std::size_t> preambleEnd;

    /** All transactions; per-core subsequences are schedule order. */
    std::vector<TxnRecord> txns;
};

/** A plan-validation verdict (kind None means accepted). */
struct TrafficCheck
{
    SimErrorKind kind = SimErrorKind::None;
    const char *message = "";

    bool ok() const { return kind == SimErrorKind::None; }
};

/**
 * Validate @p plan against configuration @p cfg on @p coreCount
 * cores.  Returns RunRequestInvalid for malformed knobs and
 * CoreCountKeyExhausted when an EDE configuration asks for more
 * cores than the ISA has real keys; never asserts.
 */
TrafficCheck validateTrafficPlan(const TrafficPlan &plan, Config cfg,
                                 unsigned coreCount);

/**
 * Build the per-core traces and transaction schedule.  Deterministic
 * in (plan, cfg, coreCount) and independent of plan.arrival -- the
 * arrival stamps ride along in the records but never shape the
 * trace.  @pre validateTrafficPlan(...).ok().
 */
TrafficWorkload buildTrafficWorkload(const TrafficPlan &plan,
                                     Config cfg, unsigned coreCount);

// The arrival replay over measured completions lives in
// traffic/overload.hh (computeTrafficResult), where the plain
// Lindley recursion and the overload-control policies share one
// deterministic engine.

} // namespace traffic
} // namespace ede

#endif // EDE_TRAFFIC_STREAM_MUX_HH
