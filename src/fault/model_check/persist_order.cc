#include "fault/model_check/persist_order.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <unordered_map>

#include "common/logging.hh"
#include "isa/edk.hh"

namespace ede {

namespace {

/** Sorted-unique insertion of @p add into @p set (small sets). */
void
mergeInto(std::vector<std::size_t> &set,
          const std::vector<std::size_t> &add)
{
    if (add.empty())
        return;
    set.insert(set.end(), add.begin(), add.end());
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
}

/** One gated store on a 64 B cache line. */
struct GateEntry
{
    std::vector<std::size_t> producers; ///< Persist events to follow.
    std::size_t storeIdx = 0;           ///< Trace index of the store.
    unsigned core = 0;                  ///< Core that ran the store.
};

/** One CVAP event naming a key, for the cross-core WAIT join. */
struct KeyedEvent
{
    Cycle completion = kNoCycle;  ///< The CVAP's completion cycle.
    std::size_t ev = 0;           ///< Its persist event index.
};

} // namespace

void
PersistOrderGraph::finalize()
{
    const std::size_t n = nodes.size();

    preSetupCount = 0;
    while (preSetupCount < n && nodes[preSetupCount].preSetup)
        ++preSetupCount;
    for (std::size_t i = preSetupCount; i < n; ++i) {
        ede_assert(!nodes[i].preSetup,
                   "setup persist events must form an accept-order "
                   "prefix");
    }

    // marks holds node i's distinct preds while i is processed.
    // Row j of ancestors holds every node some path of edges leads
    // from to j; every edge points backward, so a row is complete
    // before any later node reads it.  n^2/8 bytes, freed on return.
    const std::size_t words = (n + 63) / 64;
    std::vector<std::uint64_t> marks(words, 0);
    std::vector<std::uint64_t> ancestors(n * words, 0);
    std::vector<std::size_t> kept;

    minSucc.assign(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        PersistNode &node = nodes[i];
        for (std::size_t p : node.preds) {
            ede_assert(p < n, "persist-order edge names no event");
            marks[p / 64] |= std::uint64_t{1} << (p % 64);
        }

        // An edge must point backward in accept order; anything else
        // is a constraint the hardware never sequenced (see file
        // comment) and is dropped defensively.
        for (std::size_t w = i / 64; w < words; ++w) {
            std::uint64_t fwd = marks[w];
            if (w == i / 64)
                fwd &= ~std::uint64_t{0} << (i % 64);
            stats.nonmonotone += std::popcount(fwd);
            marks[w] &= ~fwd;
        }

        // Youngest pred first: a pred an already-kept younger pred
        // reaches imposes no order of its own.  A younger pred that
        // was dropped is reached through a kept one, so the kept
        // preds' ancestors cover it and whatever it reaches.
        std::uint64_t *row = &ancestors[i * words];
        kept.clear();
        for (std::size_t w = (i + 63) / 64; w-- > 0;) {
            while (marks[w]) {
                const std::size_t p =
                    64 * w + 63 - std::countl_zero(marks[w]);
                marks[w] &= ~(std::uint64_t{1} << (p % 64));
                if ((row[p / 64] >> (p % 64)) & 1)
                    continue;
                kept.push_back(p);
                const std::uint64_t *from = &ancestors[p * words];
                for (std::size_t k = 0; k <= p / 64; ++k)
                    row[k] |= from[k];
                row[p / 64] |= std::uint64_t{1} << (p % 64);
            }
        }

        // A fresh vector releases the implied edges' storage.
        node.preds = std::vector<std::size_t>(kept.rbegin(), kept.rend());
        node.postSetupPreds.clear();
        for (std::size_t p : node.preds) {
            if (p >= preSetupCount)
                node.postSetupPreds.push_back(p);
            minSucc[p] = std::min(minSucc[p], i);
        }
    }
}

PersistOrderGraph
assembleJointPersistOrder(
    std::span<const Trace> traces, const std::vector<PersistEvent> &events,
    const std::vector<MediaWriteEvent> &mediaWrites,
    std::span<const std::vector<Cycle>> completionCycles,
    Cycle setupCompleteCycle, std::uint32_t lineBytes)
{
    const auto cores = static_cast<unsigned>(traces.size());
    ede_assert(cores >= 1, "persist order needs >= 1 core");
    ede_assert(completionCycles.size() == cores,
               "one completion-cycle vector per core");

    PersistOrderGraph g;
    g.lineBytes = lineBytes;
    g.nodes.resize(events.size());

    // Per-media-line sorted completion cycles, for mediaCycle.
    std::unordered_map<Addr, std::vector<Cycle>> mediaByLine;
    for (const MediaWriteEvent &mw : mediaWrites)
        mediaByLine[mw.lineAddr].push_back(mw.cycle);
    for (auto &[line, cycles] : mediaByLine)
        std::sort(cycles.begin(), cycles.end());

    // Nodes, media cycles, and the *global* same-line accept chains:
    // the NVM buffer keeps one slot per 256 B line regardless of
    // which core's push accepted, so the chain crosses cores -- a
    // cross-core link is the dirty-handoff coherence edge.
    std::vector<unsigned> eventCore(events.size(), 0);
    std::vector<std::unordered_map<TraceIndex, std::size_t>>
        eventOfOrigin(cores);
    std::unordered_map<Addr, std::size_t> lastOfMediaLine;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const PersistEvent &ev = events[i];
        PersistNode &node = g.nodes[i];
        node.addr = ev.addr;
        node.size = ev.size;
        node.accept = ev.cycle;
        node.origin = ev.origin;
        node.preSetup = ev.cycle < setupCompleteCycle;
        eventCore[i] = ev.core;

        const Addr line = g.mediaLine(ev.addr);
        if (auto it = mediaByLine.find(line); it != mediaByLine.end()) {
            const auto up = std::upper_bound(it->second.begin(),
                                             it->second.end(), ev.cycle);
            if (up != it->second.end())
                node.mediaCycle = *up;
        }

        if (auto it = lastOfMediaLine.find(line);
            it != lastOfMediaLine.end()) {
            node.preds.push_back(it->second);
            if (eventCore[it->second] == ev.core)
                ++g.stats.sameLine;
            else
                ++g.stats.crossLine;
        }
        lastOfMediaLine[line] = i;

        if (ev.origin != kNoOrigin && ev.core < cores)
            eventOfOrigin[ev.core].emplace(ev.origin, i);
    }

    // Per-(core, key) CVAP events in completion order -- the
    // producers a *remote* WAIT on that key drains.  A CVAP enters
    // the shared counter file when it issues and leaves when it
    // completes, so a WAIT completing at cycle W is ordered behind
    // exactly the remote CVAPs naming its key with completion <= W.
    // A one-core run has no remote producer and builds none of this.
    std::vector<std::array<std::vector<KeyedEvent>, kNumEdks>> keyed;
    if (cores > 1) {
        keyed.resize(cores);
        for (unsigned c = 0; c < cores; ++c) {
            const Trace &trace = traces[c];
            const std::vector<Cycle> &done = completionCycles[c];
            ede_assert(done.size() == trace.size(),
                       "completion recording must cover every core");
            for (std::size_t t = 0; t < trace.size(); ++t) {
                const StaticInst &si = trace[t].si;
                if (si.op != Op::DcCvap)
                    continue;
                const auto it = eventOfOrigin[c].find(t);
                if (it == eventOfOrigin[c].end())
                    continue;
                if (edkIsReal(si.edkDef)) {
                    keyed[c][si.edkDef].push_back(
                        KeyedEvent{done[t], it->second});
                }
                if (edkIsReal(si.edkUse) && si.edkUse != si.edkDef) {
                    keyed[c][si.edkUse].push_back(
                        KeyedEvent{done[t], it->second});
                }
            }
            for (auto &list : keyed[c]) {
                std::sort(list.begin(), list.end(),
                          [](const KeyedEvent &a, const KeyedEvent &b) {
                              return a.completion < b.completion ||
                                     (a.completion == b.completion &&
                                      a.ev < b.ev);
                          });
            }
        }
    }

    // Per-core walk state: EDM key files, WAIT producer sets and
    // barrier roots are all private to a core, so a use operand only
    // ever resolves against a local producer.  Gated stores share one
    // global per-line map: the gate's data travels with the cache
    // line across cores.
    //
    // Two distinct producer notions per key:
    //  - keyProducers[k]: the NEWEST definition, the EDM mapping an
    //    EDK use operand resolves against;
    //  - waitProducers[k]: EVERY CVAP event naming k, the set the
    //    WAIT counter file tracks.  WAIT_KEY(k) retires only when all
    //    of them completed (WaitCounters::keyClear), so the wait
    //    barrier must not lean on keyProducers plus chain
    //    transitivity: the write buffer can accept successive
    //    definitions of one key OUT of program order (a hot line
    //    coalesces and accepts early), which severs the chain and
    //    would leave older producers unordered against the
    //    post-wait persists.
    struct CoreWalk
    {
        std::vector<std::size_t> keyProducers[kNumEdks];
        std::vector<std::size_t> waitProducers[kNumEdks];
        std::vector<std::size_t> barrierRoots;
        std::vector<std::size_t> cvapEventsSoFar;
    };
    std::unordered_map<Addr, std::vector<GateEntry>> lineGate;
    const Addr cacheMask = ~static_cast<Addr>(63);

    auto addPreds = [&](std::size_t ev,
                        const std::vector<std::size_t> &producers,
                        std::uint64_t &local, std::uint64_t &cross) {
        for (std::size_t p : producers) {
            if (p == ev)
                continue;
            g.nodes[ev].preds.push_back(p);
            if (eventCore[p] == eventCore[ev])
                ++local;
            else
                ++cross;
        }
    };

    // The WAIT at trace[t] of core c drains key k on every other core
    // too: join the remote producers of k that completed no later
    // than the WAIT into @p roots -- the cross-core WAIT edge sources.
    auto mergeRemote = [&](unsigned c, std::size_t t, Edk k,
                           std::vector<std::size_t> &roots) {
        if (keyed.empty())
            return;
        const Cycle upTo = completionCycles[c][t];
        ede_assert(upTo != kNoCycle,
                   "WAIT never completed in a completed run");
        for (unsigned rc = 0; rc < cores; ++rc) {
            if (rc == c)
                continue;
            std::vector<std::size_t> add;
            for (const KeyedEvent &ke : keyed[rc][k]) {
                if (ke.completion > upTo)
                    break;
                add.push_back(ke.ev);
            }
            mergeInto(roots, add);
        }
    };

    for (unsigned c = 0; c < cores; ++c) {
        const Trace &trace = traces[c];
        CoreWalk w;

        auto consumedSet = [&](const StaticInst &si) {
            std::vector<std::size_t> out;
            if (edkIsReal(si.edkUse))
                mergeInto(out, w.keyProducers[si.edkUse]);
            if (edkIsReal(si.edkUse2))
                mergeInto(out, w.keyProducers[si.edkUse2]);
            return out;
        };

        for (std::size_t t = 0; t < trace.size(); ++t) {
            const StaticInst &si = trace[t].si;
            switch (si.op) {
              case Op::DcCvap: {
                const auto it = eventOfOrigin[c].find(t);
                const std::size_t ev =
                    it != eventOfOrigin[c].end() ? it->second
                                                 : kNoEvent;
                if (ev != kNoEvent) {
                    if (edkIsReal(si.edkUse)) {
                        addPreds(ev, w.keyProducers[si.edkUse],
                                 g.stats.edk, g.stats.crossWait);
                    }
                    addPreds(ev, w.barrierRoots, g.stats.fence,
                             g.stats.crossWait);
                    if (edkIsReal(si.edkDef)) {
                        // Chain edge to the previous definition.  When
                        // accepts inverted, finalize() drops it
                        // (counted nonmonotone) -- correctly, since no
                        // stall sequenced the two lines; waitProducers
                        // keeps the WAIT barriers sound regardless.
                        addPreds(ev, w.keyProducers[si.edkDef],
                                 g.stats.keyChain, g.stats.crossWait);
                        w.keyProducers[si.edkDef] = {ev};
                        w.waitProducers[si.edkDef].push_back(ev);
                    }
                    if (edkIsReal(si.edkUse))
                        w.waitProducers[si.edkUse].push_back(ev);
                    w.cvapEventsSoFar.push_back(ev);
                } else if (edkIsReal(si.edkDef)) {
                    // A CVAP that never reached the NVM (shouldn't
                    // happen in a completed run): the key degenerates
                    // to the persists it consumed.
                    w.keyProducers[si.edkDef] = consumedSet(si);
                }
                break;
              }
              case Op::Str:
              case Op::Stp: {
                std::vector<std::size_t> producers = consumedSet(si);
                mergeInto(producers, w.barrierRoots);
                if (!producers.empty()) {
                    lineGate[trace[t].addr & cacheMask].push_back(
                        GateEntry{std::move(producers), t, c});
                }
                if (edkIsReal(si.edkDef))
                    w.keyProducers[si.edkDef] = consumedSet(si);
                break;
              }
              case Op::Ldr:
              case Op::Join:
                if (edkIsReal(si.edkDef))
                    w.keyProducers[si.edkDef] = consumedSet(si);
                break;
              case Op::WaitKey:
                if (edkIsReal(si.edkUse)) {
                    mergeInto(w.barrierRoots,
                              w.waitProducers[si.edkUse]);
                    mergeRemote(c, t, si.edkUse, w.barrierRoots);
                }
                break;
              case Op::WaitAllKeys:
                for (int k = 1; k < kNumEdks; ++k) {
                    mergeInto(w.barrierRoots, w.waitProducers[k]);
                    mergeRemote(c, t, static_cast<Edk>(k),
                                w.barrierRoots);
                }
                break;
              case Op::DsbSy:
                // Every prior CVAP of this core completed (persisted)
                // before anything younger executes; prior plain
                // stores carry their ordering through the line gates
                // below.
                mergeInto(w.barrierRoots, w.cvapEventsSoFar);
                break;
              case Op::DmbSt:
                // DMB ST does not order DC CVAP: the SU hole.  No
                // edges.
                break;
              default:
                break;
            }
        }
    }

    // Apply the store gates: every persist of a gated line accepted
    // at or after the gating store's completion contains that store's
    // data -- whichever core pushed it, the shared L2 handed the
    // dirty line over first -- and inherits its producers.  Earlier
    // persists of the line predate the store and are genuinely
    // unordered against it.
    if (!lineGate.empty()) {
        for (std::size_t i = 0; i < g.nodes.size(); ++i) {
            PersistNode &node = g.nodes[i];
            for (Addr line = node.addr & cacheMask;
                 line < node.addr + node.size; line += 64) {
                const auto it = lineGate.find(line);
                if (it == lineGate.end())
                    continue;
                for (const GateEntry &gate : it->second) {
                    const std::vector<Cycle> &done =
                        completionCycles[gate.core];
                    if (gate.storeIdx >= done.size())
                        continue;
                    const Cycle dc = done[gate.storeIdx];
                    if (dc == kNoCycle || node.accept < dc)
                        continue;
                    addPreds(i, gate.producers, g.stats.lineGate,
                             g.stats.crossLine);
                }
            }
        }
    }

    return g;
}

PersistOrderGraph
buildJointPersistOrder(std::span<const Trace> traces,
                       const std::vector<PersistEvent> &events,
                       const std::vector<MediaWriteEvent> &mediaWrites,
                       std::span<const std::vector<Cycle>> completionCycles,
                       Cycle setupCompleteCycle, std::uint32_t lineBytes)
{
    PersistOrderGraph g = assembleJointPersistOrder(
        traces, events, mediaWrites, completionCycles,
        setupCompleteCycle, lineBytes);
    g.finalize();
    return g;
}

} // namespace ede
