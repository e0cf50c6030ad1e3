#include "traffic/stream_mux.hh"

#include <algorithm>

#include "common/logging.hh"
#include "trace/builder.hh"
#include "trace/lowering.hh"

namespace ede {
namespace traffic {
namespace {

/** Decorrelate a stream's Rng lane from the master seed. */
std::uint64_t
streamSeed(std::uint64_t seed, unsigned stream, std::uint64_t lane)
{
    // Distinct odd multipliers per lane keep the key/kind draws and
    // the arrival draws on unrelated xoshiro streams, so changing
    // the arrival spec can never perturb the generated trace.
    return seed ^ ((stream + 1) * 0x9e3779b97f4a7c15ull) ^
           (lane * 0xbf58476d1ce4e5b9ull);
}

/** Per-core generation state (mirrors apps/concurrent.cc). */
struct CoreGen
{
    explicit CoreGen(Trace &t) : b(t) {}

    TraceBuilder b;
    TempRegPool temps;
};

/** Per-stream generation state. */
struct StreamGen
{
    StreamGen(const TrafficPlan &plan, unsigned stream)
        : rng(streamSeed(plan.seed, stream, 1)),
          zipf(plan.mix.keys, plan.mix.zipfTheta),
          arrivals(plan.arrival, streamSeed(plan.seed, stream, 2))
    {
    }

    Rng rng;
    ZipfGenerator zipf;
    ArrivalProcess arrivals;
    std::uint64_t nextValue = 1;
};

/** Zipf-keyed dependent load chain over the stream's shard. */
void
emitReadTxn(CoreGen &g, StreamGen &s, unsigned stream, int ops)
{
    RegIndex r_prev = g.temps.get();
    for (int op = 0; op < ops; ++op) {
        const std::uint64_t rank = s.zipf.next(s.rng);
        const RegIndex r_next = g.temps.get();
        // Dependent chain: base is the previous hop's destination,
        // so the transaction's memory time is serial, as a real
        // pointer-structured lookup's would be.
        g.b.ldr(r_next, r_prev, trafficKeyAddr(stream, rank));
        r_prev = r_next;
    }
}

/**
 * Write-ahead update: persist every dirtied key line with DC CVAP,
 * order the publishing store behind the persists (ordering token /
 * EDE key operands), then drain to make the commit durable.
 */
void
emitUpdateTxn(CoreGen &g, StreamGen &s, Config cfg, unsigned stream,
              unsigned core, int ops)
{
    const bool ede = configUsesEde(cfg);
    const Edk k = trafficCoreKey(core);

    std::uint64_t committed = 0;
    for (int op = 0; op < ops; ++op) {
        const std::uint64_t rank = s.zipf.next(s.rng);
        const Addr addr = trafficKeyAddr(stream, rank);
        const std::uint64_t val = s.nextValue++;
        const RegIndex r_v = g.temps.get();
        const RegIndex r_b = g.temps.get();
        g.b.movImm(r_v, static_cast<std::int64_t>(val));
        g.b.str(r_v, r_b, addr, val);
        g.b.cvap(r_b, addr, ede ? EdkOps{k, kZeroEdk} : EdkOps{});
        committed = val;
    }
    emitOrderingToken(g.b, cfg);

    // Publish the commit record behind the key persists.
    const RegIndex r_c = g.temps.get();
    const RegIndex r_p = g.temps.get();
    g.b.movImm(r_c, static_cast<std::int64_t>(committed));
    g.b.str(r_c, r_p, trafficPublishAddr(stream), committed, 0,
            ede ? EdkOps{kZeroEdk, k} : EdkOps{});
    g.b.cvap(r_p, trafficPublishAddr(stream),
             ede ? EdkOps{k, kZeroEdk} : EdkOps{});
    emitDrain(g.b, cfg, k);
}

/** Warm each resident stream's shard and close the setup phase. */
void
emitPreamble(CoreGen &g, const TrafficPlan &plan, unsigned core,
             unsigned coreCount)
{
    for (unsigned s = core; s < plan.streams; s += coreCount) {
        const RegIndex r_v = g.temps.get();
        const RegIndex r_b = g.temps.get();
        g.b.str(r_v, r_b, trafficPublishAddr(s), 0);
    }
    g.b.dsbSy();
}

} // namespace

TrafficCheck
validateTrafficPlan(const TrafficPlan &plan, Config cfg,
                    unsigned coreCount)
{
    const auto invalid = [](const char *msg) {
        return TrafficCheck{SimErrorKind::RunRequestInvalid, msg};
    };
    if (coreCount < 1)
        return invalid("traffic plan needs >= 1 core");
    if (plan.streams < 1)
        return invalid("traffic plan needs >= 1 stream");
    if (plan.txnsPerStream < 1)
        return invalid("traffic plan needs >= 1 txn per stream");
    if (plan.totalTxns < 0)
        return invalid("traffic total txn count must be >= 0");
    if (plan.totalTxns > 0 &&
        static_cast<unsigned>(plan.totalTxns) < plan.streams) {
        return invalid("traffic plan has more streams than "
                       "transactions: every stream must issue at "
                       "least one");
    }
    if (plan.opsPerTxn < 1)
        return invalid("traffic plan needs >= 1 op per txn");
    if (plan.warmupPermille > 999)
        return invalid("traffic warmup fraction must be < 1000 "
                       "permille");
    if (plan.latencyWindows < 1 || plan.latencyWindows > 64)
        return invalid("traffic latency windows must be in [1, 64]");
    if (plan.mix.keys < 1 || plan.mix.keys > kTrafficMaxKeys)
        return invalid("traffic keyspace must be in [1, 4096]");
    if (!(plan.mix.readFraction >= 0.0 &&
          plan.mix.readFraction <= 1.0))
        return invalid("traffic read fraction must be in [0, 1]");
    if (!(plan.mix.zipfTheta >= 0.0 && plan.mix.zipfTheta < 1.0))
        return invalid("traffic zipf theta must be in [0, 1)");
    if (!(plan.arrival.meanGap > 0.0))
        return invalid("traffic mean arrival gap must be > 0");
    if (!(plan.arrival.burstFactor >= 1.0))
        return invalid("traffic burst factor must be >= 1");
    if (!(plan.arrival.pSwitch >= 0.0 && plan.arrival.pSwitch <= 1.0))
        return invalid("traffic burst switch prob must be in [0, 1]");
    if (plan.arrival.kind == ArrivalKind::ClosedPool) {
        if (plan.arrival.poolSize < 1)
            return invalid("closed-pool arrivals need >= 1 client");
        if (!(plan.arrival.thinkTime >= 0.0))
            return invalid("closed-pool think time must be >= 0");
    }

    // Overload-policy knobs: validated only when an admission policy
    // gates the replay; retry/degrade knobs without one are a
    // contradiction worth a typed rejection rather than a silent
    // no-op.
    const OverloadPolicy &pol = plan.policy;
    if (!pol.active() && (pol.retryBudget > 0 || pol.degrade)) {
        return invalid("overload retry/degrade knobs need an "
                       "admission policy");
    }
    if (pol.active()) {
        if (pol.queueDepth < 1)
            return invalid("overload queue depth must be >= 1");
        if (pol.admission == AdmissionKind::Deadline &&
            pol.deadline < 1) {
            return invalid("deadline admission needs a deadline "
                           ">= 1 cycle");
        }
        if (pol.admission == AdmissionKind::TokenBucket &&
            (pol.tokenRatePerKCycle < 1 || pol.tokenBurst < 1)) {
            return invalid("token-bucket admission needs rate and "
                           "burst >= 1");
        }
        if (pol.retryBudget > 0 &&
            (pol.retryBackoffBase < 1 ||
             pol.retryBackoffCap < pol.retryBackoffBase)) {
            return invalid("retry backoff needs base >= 1 and "
                           "cap >= base");
        }
        if (pol.degrade) {
            if (pol.shedWindow < 1)
                return invalid("degrade shed window must be >= 1");
            if (pol.degradePermille < 1 || pol.degradePermille > 1000)
                return invalid("degrade threshold must be in "
                               "[1, 1000] permille");
            if (pol.recoverPermille >= pol.degradePermille)
                return invalid("degrade hysteresis needs recover "
                               "threshold < degrade threshold");
        }
    }
    if (configUsesEde(cfg) && coreCount > kMaxTrafficEdeCores) {
        return TrafficCheck{
            SimErrorKind::CoreCountKeyExhausted,
            "EDE traffic dedicates one real key per core"};
    }
    return {};
}

TrafficWorkload
buildTrafficWorkload(const TrafficPlan &plan, Config cfg,
                     unsigned coreCount)
{
    ede_assert(validateTrafficPlan(plan, cfg, coreCount).ok(),
               "buildTrafficWorkload requires a validated plan");

    TrafficWorkload wl;
    wl.traces.resize(coreCount);
    std::vector<CoreGen> gens;
    gens.reserve(coreCount);
    for (Trace &t : wl.traces)
        gens.emplace_back(t);

    std::vector<StreamGen> streams;
    streams.reserve(plan.streams);
    for (unsigned s = 0; s < plan.streams; ++s)
        streams.emplace_back(plan, s);

    wl.preambleEnd.resize(coreCount);
    for (unsigned c = 0; c < coreCount; ++c) {
        emitPreamble(gens[c], plan, c, coreCount);
        wl.preambleEnd[c] = wl.traces[c].size();
    }

    // Round-robin schedule: every round issues one transaction per
    // stream, streams in id order.  A core therefore serves its
    // resident streams in a fixed rotation that depends only on
    // (plan shape, coreCount) -- never on arrivals -- which is what
    // keeps the trace (and the machine's closed-loop cycles)
    // bit-identical across offered loads.  Stream 0 always carries
    // the largest per-stream share, so its count bounds the rounds.
    const bool closed = plan.arrival.kind == ArrivalKind::ClosedPool;
    std::uint64_t total = 0;
    for (unsigned s = 0; s < plan.streams; ++s)
        total += trafficTxnsOfStream(plan, s);
    wl.txns.reserve(total);
    const std::uint64_t rounds = trafficTxnsOfStream(plan, 0);
    for (std::uint64_t t = 0; t < rounds; ++t) {
        for (unsigned s = 0; s < plan.streams; ++s) {
            if (t >= trafficTxnsOfStream(plan, s))
                continue;
            const unsigned core = s % coreCount;
            StreamGen &sg = streams[s];

            TxnRecord rec;
            rec.stream = s;
            rec.core = core;
            rec.index = static_cast<std::uint32_t>(t);
            rec.kind = drawTxnKind(plan.mix, sg.rng);
            if (closed)
                rec.think = sg.arrivals.thinkGap();
            else
                rec.arrival = sg.arrivals.next();
            rec.first = wl.traces[core].size();
            if (rec.kind == TxnKind::Read)
                emitReadTxn(gens[core], sg, s, plan.opsPerTxn);
            else
                emitUpdateTxn(gens[core], sg, cfg, s, core,
                              plan.opsPerTxn);
            rec.last = wl.traces[core].size();
            wl.txns.push_back(rec);
        }
    }
    return wl;
}

} // namespace traffic
} // namespace ede
