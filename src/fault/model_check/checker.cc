#include "fault/model_check/checker.hh"

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "audit/auditor.hh"
#include "common/logging.hh"
#include "exp/fields.hh"
#include "exp/scheduler.hh"
#include "nvm/undo_log.hh"

namespace ede {

namespace {

/** Write the surviving 8-byte chunks of a torn event. */
void
applyTornEvent(MemoryImage &image, const PersistEvent &ev,
               std::uint64_t mask)
{
    const std::size_t chunks = (ev.size + 7) / 8;
    for (std::size_t c = 0; c < chunks; ++c) {
        if (!(mask & (std::uint64_t{1} << c)))
            continue;
        const std::size_t off = 8 * c;
        const std::size_t len =
            std::min<std::size_t>(8, ev.size - off);
        image.write(ev.addr + off, ev.bytes.data() + off, len);
    }
}

constexpr std::size_t kLine = StateKey::kLineBytes;

/** The key line holding byte @p a. */
Addr
lineOf(Addr a)
{
    return a & ~static_cast<Addr>(kLine - 1);
}

/** murmur3's 64-bit finalizer: a bijection with full avalanche. */
std::uint64_t
fmix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

/**
 * One line's share of a StateKey: zero for an all-zero line, else a
 * 128-bit hash of (line address, bytes) from two differently seeded
 * and differently combined lanes.
 */
StateKey
lineTerm(Addr line, const std::uint8_t *bytes)
{
    std::uint64_t w[kLine / 8];
    std::memcpy(w, bytes, kLine);
    std::uint64_t any = 0;
    for (std::uint64_t x : w)
        any |= x;
    if (!any)
        return {};
    std::uint64_t a = fmix64(line ^ 0x9e3779b97f4a7c15ull);
    std::uint64_t b = fmix64(line + 0x632be59bd9b4e019ull);
    for (std::size_t i = 0; i < kLine / 8; ++i) {
        a = fmix64(a ^ w[i]);
        b = fmix64(b + w[i] * 0x9fb21c651e98df25ull + i);
    }
    return {a, b};
}

} // namespace

StateKey
StateKey::of(const MemoryImage &img)
{
    StateKey key;
    img.forEachPage([&](Addr page, std::span<const std::uint8_t> bytes) {
        for (std::size_t off = 0; off < bytes.size(); off += kLineBytes)
            key += lineTerm(page + off, bytes.data() + off);
    });
    return key;
}

PersistOrderGraph
buildPersistOrder(const WorkloadHarness &h)
{
    const System &sys = h.system();
    return buildJointPersistOrder(
        {&h.trace(), 1}, sys.persistEvents(), sys.mediaWriteEvents(),
        {&sys.completionCycles(), 1}, h.setupCompleteCycle(),
        sys.mem().controller().nvm().params().lineBytes);
}

std::size_t
seedMissingEdkBug(WorkloadHarness &h)
{
    const std::vector<PersistObligation> &obs =
        h.framework().obligations();
    ede_assert(!obs.empty(),
               "seedMissingEdkBug needs a generated workload with at "
               "least one transactional write");
    const std::size_t idx = obs.front().dataStrIdx;
    DynInst &di = h.trace().at(idx);
    if (!edkIsReal(di.si.edkUse))
        return kNoEvent;  // Fence-based config: nothing to delete.
    di.si.edkUse = kZeroEdk;
    return idx;
}

std::string
ModelCheckCounterexample::describe() const
{
    std::ostringstream os;
    os << "{invariant=" << invariant << ", durable=[";
    for (std::size_t i = 0; i < durable.size(); ++i)
        os << (i ? "," : "") << durable[i];
    os << "]";
    if (tornIdx != kNoEvent) {
        os << ", torn=" << tornIdx << " mask=0x" << std::hex
           << tornMask << std::dec;
    }
    os << ", imageHash=0x" << std::hex << imageHash << std::dec
       << ", rollbacks=" << rollbackTargets.size() << "}";
    return os.str();
}

DurableSetChecker::StateJudge
undoLogJudge(const WorkloadHarness &h)
{
    return [&h](MemoryImage &img) {
        DurableSetChecker::StateVerdict v;
        const RecoveryResult rec =
            recoverUndoLog(img, h.framework().logLayout());
        v.appOk = h.app().checkRecovered(img);
        v.entriesTorn = rec.entriesTorn;
        v.invariant = crashInvariantName(v.appOk, rec);
        v.rollbackTargets = rec.appliedTargets;
        return v;
    };
}

DurableSetChecker::DurableSetChecker(const WorkloadHarness &h,
                                     const PersistOrderGraph &graph)
    : DurableSetChecker(h.system().persistEvents(), h.baselineNvm(),
                        graph, undoLogJudge(h))
{
}

DurableSetChecker::DurableSetChecker(
    const std::vector<PersistEvent> &events,
    const MemoryImage &baselineNvm, const PersistOrderGraph &graph,
    StateJudge judge)
    : events_(events), graph_(graph), judge_(std::move(judge)),
      setupImage_(baselineNvm)
{
    ede_assert(events_.size() == graph_.nodes.size(),
               "graph does not match this run's persist events");
    for (std::size_t i = 0; i < graph_.preSetupCount; ++i) {
        const PersistEvent &ev = events_[i];
        ede_assert(ev.bytes.size() == ev.size,
                   "persist event without data; enable audit before "
                   "running");
        setupImage_.write(ev.addr, ev.bytes.data(), ev.size);
    }
    work_ = setupImage_;
    workKey_ = StateKey::of(work_);

    std::unordered_map<Addr, std::size_t> lines;
    lineId_.reserve(graph_.nodes.size());
    for (const PersistNode &node : graph_.nodes) {
        lineId_.push_back(
            lines.try_emplace(lineOf(node.addr), lines.size())
                .first->second);
    }
    succMark_.assign(graph_.nodes.size(), 0);
    lineMark_.assign(lines.size(), 0);
}

MemoryImage
DurableSetChecker::materialize(const std::vector<std::size_t> &postSetup,
                               std::size_t tornIdx,
                               std::uint64_t tornMask) const
{
    MemoryImage img = setupImage_;
    for (std::size_t i : postSetup) {
        const PersistEvent &ev = events_[i];
        ede_assert(ev.bytes.size() == ev.size,
                   "persist event without data; enable audit before "
                   "running");
        if (i == tornIdx)
            applyTornEvent(img, ev, tornMask);
        else
            img.write(ev.addr, ev.bytes.data(), ev.size);
    }
    return img;
}

DurableSetChecker::StateVerdict
DurableSetChecker::judge(MemoryImage &img) const
{
    return judge_(img);
}

void
DurableSetChecker::apply(Step step)
{
    const PersistEvent &ev = events_[step.event];
    ede_assert(ev.bytes.size() == ev.size,
               "persist event without data; enable audit before "
               "running");
    step.undoMark = undo_.size();
    applied_.push_back(step);

    // Save the pre-image of every line the event covers, write it the
    // way materialize() does, then move the key by each line's change.
    const Addr end = ev.addr + ev.size;
    for (Addr line = lineOf(ev.addr); line < end; line += kLine) {
        LineUndo &u = undo_.emplace_back();
        u.line = line;
        work_.read(line, u.bytes.data(), kLine);
    }
    if (step.torn)
        applyTornEvent(work_, ev, step.mask);
    else
        work_.write(ev.addr, ev.bytes.data(), ev.size);
    for (std::size_t k = step.undoMark; k < undo_.size(); ++k) {
        LineUndo &u = undo_[k];
        std::array<std::uint8_t, kLine> after;
        work_.read(u.line, after.data(), kLine);
        u.delta = lineTerm(u.line, after.data());
        u.delta -= lineTerm(u.line, u.bytes.data());
        workKey_ += u.delta;
    }
}

void
DurableSetChecker::undoTo(std::size_t depth)
{
    if (depth >= applied_.size())
        return;
    const std::size_t mark = applied_[depth].undoMark;
    while (undo_.size() > mark) {
        const LineUndo &u = undo_.back();
        work_.write(u.line, u.bytes.data(), kLine);
        workKey_ -= u.delta;
        undo_.pop_back();
    }
    applied_.resize(depth);
}

DurableSetChecker::StateVerdict
DurableSetChecker::check(const std::vector<std::size_t> &postSetup,
                         std::size_t tornIdx, std::uint64_t tornMask)
{
    auto stepAt = [&](std::size_t k) {
        Step s;
        s.event = postSetup[k];
        s.torn = s.event == tornIdx;
        s.mask = s.torn ? tornMask : 0;
        return s;
    };
    std::size_t keep = 0;
    while (keep < applied_.size() && keep < postSetup.size() &&
           applied_[keep].same(stepAt(keep)))
        ++keep;
    undoTo(keep);
    for (std::size_t k = keep; k < postSetup.size(); ++k)
        apply(stepAt(k));

    StateVerdict v;
    if (seenKeys_.insert(workKey_).second) {
        ++uniqueImages_;
        MemoryImage img = work_;
        v = judge(img);
        if (v.invariant)
            v.imageHash = work_.canonicalContentHash();
    } else {
        v.duplicate = true;
    }
    v.key = workKey_;
    return v;
}

std::vector<std::size_t>
DurableSetChecker::tornCandidates(
    const std::vector<std::size_t> &postSetup, std::size_t cap)
{
    std::vector<std::size_t> out;
    if (postSetup.empty() || cap == 0)
        return out;

    // Earliest legal crash cycle for this set: everything included
    // must be accepted, so c = max accept.  An event can tear only
    // while its line is still pending then.
    Cycle maxAcc = 0;
    for (std::size_t i : postSetup)
        maxAcc = std::max(maxAcc, graph_.nodes[i].accept);

    // An event with a successor inside the set is fully ordered
    // before that successor's accept -- it was not the in-flight
    // write when power died.  Same for an older event of a cache
    // line the set updates again: the tear would be overwritten.
    // Successors and later updates of a line both sit later in the
    // ascending set, so a youngest-first walk has marked them by the
    // time it reaches an event.
    if (++epoch_ == 0) {
        std::fill(succMark_.begin(), succMark_.end(), 0);
        std::fill(lineMark_.begin(), lineMark_.end(), 0);
        epoch_ = 1;
    }
    for (auto it = postSetup.rbegin();
         it != postSetup.rend() && out.size() < cap; ++it) {
        const std::size_t i = *it;
        const PersistNode &node = graph_.nodes[i];
        const bool lastOfLine = lineMark_[lineId_[i]] != epoch_;
        lineMark_[lineId_[i]] = epoch_;
        const bool onMedia =
            node.mediaCycle != kNoCycle && node.mediaCycle <= maxAcc;
        // Wider than one chunk (else nothing to tear), maximal, and
        // not already on media at every legal crash cycle.
        if (node.size > 8 && succMark_[i] != epoch_ && lastOfLine &&
            !onMedia)
            out.push_back(i);
        for (std::size_t p : node.postSetupPreds)
            succMark_[p] = epoch_;
    }
    return out;
}

std::vector<std::size_t>
DurableSetChecker::shrink(const std::vector<std::size_t> &postSetup,
                          std::size_t &tornIdx,
                          std::uint64_t &tornMask,
                          std::uint32_t drainLines,
                          const std::string &invariant)
{
    auto stillFails = [&](const std::vector<std::size_t> &set,
                          std::size_t torn, std::uint64_t mask) {
        MemoryImage img = materialize(set, torn, mask);
        const StateVerdict v = judge(img);
        return v.invariant && invariant == v.invariant;
    };

    std::vector<std::size_t> cur = postSetup;
    if (tornIdx != kNoEvent && stillFails(cur, kNoEvent, 0)) {
        tornIdx = kNoEvent;  // The tear was not load-bearing.
        tornMask = 0;
    }

    bool changed = true;
    while (changed) {
        changed = false;
        // Youngest-first removal peels dependents before the events
        // they require, so downward closure rarely rejects a probe.
        for (std::size_t k = cur.size(); k-- > 0;) {
            if (cur[k] == tornIdx)
                continue;
            std::vector<std::size_t> cand = cur;
            cand.erase(cand.begin() +
                       static_cast<std::ptrdiff_t>(k));
            if (!isLegalDurableSet(graph_, drainLines, cand))
                continue;
            if (stillFails(cand, tornIdx, tornMask)) {
                cur = std::move(cand);
                changed = true;
                break;
            }
        }
    }
    return cur;
}

namespace {

/** Simulate one configuration's workload for the model check. */
struct SimulatedConfig
{
    std::unique_ptr<WorkloadHarness> harness;
    std::size_t seededBugTraceIdx = kNoEvent;
};

SimulatedConfig
simulateConfig(const ModelCheckOptions &options, Config cfg,
               bool checked)
{
    const LogJobTag tag("model-check/" +
                        std::string(configName(cfg)));
    SimulatedConfig sim;
    sim.harness = std::make_unique<WorkloadHarness>(
        options.app, cfg, options.spec, options.appParams);
    sim.harness->enableAudit();
    sim.harness->generate();
    if (options.seedBug)
        sim.seededBugTraceIdx = seedMissingEdkBug(*sim.harness);
    if (checked)
        sim.harness->simulateChecked();
    else
        sim.harness->simulate();
    return sim;
}

/**
 * Enumerate and check every durable state of one simulated
 * configuration.  Inherently serial within a configuration (the
 * dedup cache is shared across states); configurations themselves
 * fan out through the scheduler or the isolated workers.
 */
ModelCheckConfigResult
checkConfig(const ModelCheckOptions &options, Config cfg,
            const SimulatedConfig &sim)
{
    const WorkloadHarness &h = *sim.harness;
    ModelCheckConfigResult result;
    result.config = cfg;
    result.cycles = h.system().core().stats().cycles;
    result.seededBugTraceIdx = sim.seededBugTraceIdx;

    const PersistOrderGraph graph = buildPersistOrder(h);
    DurableSetChecker checker(h, graph);
    checkDurableSets(options,
                     mixSeed(options.seed, 0x7042 ^ configSalt(cfg)),
                     graph, checker, result);
    return result;
}

constexpr const char *kModelCheckResultMagic =
    "ede-modelcheck-config";

} // namespace

bool
ModelCheckReport::ok() const
{
    if (!quarantined.empty())
        return false;
    for (const ModelCheckConfigResult &c : configs) {
        const bool planted =
            options.seedBug && c.seededBugTraceIdx != kNoEvent;
        if (planted) {
            // A checker that cannot see its own seeded bug proves
            // nothing; non-detection fails the run.
            if (c.violations == 0)
                return false;
        } else if (c.violations != 0) {
            return false;
        }
    }
    return true;
}

std::string
ModelCheckReport::describe() const
{
    std::ostringstream os;
    os << "model check: app=" << appName(options.app) << " seed="
       << options.seed << " txns=" << options.spec.txns << " ops/txn="
       << options.spec.opsPerTxn << " drainLines=";
    if (options.drainLines == FaultPlan::kDrainAll)
        os << "all";
    else
        os << options.drainLines;
    os << " maxStates=" << options.maxStates
       << (options.seedBug ? " SEEDED-BUG" : "") << "\n";
    for (const ModelCheckConfigResult &c : configs) {
        os << "  " << configName(c.config) << ": " << c.states
           << " durable sets";
        if (c.truncated)
            os << " (TRUNCATED)";
        os << " + " << c.tornVariants << " torn -> "
           << c.uniqueImages << " unique images, "
           << c.recoveredClean << " clean ("
           << c.tornLogDetected << " torn-log-detected), "
           << c.violations << " violating  (" << c.freeEvents
           << " free events, " << c.orderStats.total() << " edges)\n";
        if (options.seedBug && c.seededBugTraceIdx != kNoEvent) {
            os << "    seeded bug at trace[" << c.seededBugTraceIdx
               << "]: "
               << (c.violations ? "DETECTED" : "NOT DETECTED")
               << "\n";
        }
        for (const ModelCheckCounterexample &cex : c.counterexamples)
            os << "    COUNTEREXAMPLE " << cex.describe() << "\n";
    }
    for (const QuarantinedConfig &q : quarantined) {
        os << "  " << configName(q.config) << ": QUARANTINED ("
           << q.failure.describe() << ")\n";
    }
    os << (ok() ? "  model check ok\n" : "  MODEL CHECK FAILED\n");
    return os.str();
}

std::string
serializeModelCheckResult(const ModelCheckConfigResult &result)
{
    return exp::toWire(kModelCheckResultMagic, result);
}

std::optional<ModelCheckConfigResult>
deserializeModelCheckResult(const std::string &text)
{
    return exp::fromWire<ModelCheckConfigResult>(text,
                                                 kModelCheckResultMagic);
}

std::uint64_t
modelCheckSweepId(const ModelCheckOptions &options)
{
    return exp::fingerprintOf("modelcheck", options);
}

std::string
modelCheckToJson(const ModelCheckReport &report)
{
    return exp::jsonDocument("model_check", report, /*blockDepth=*/2);
}

ModelCheckReport
runModelCheck(const ModelCheckOptions &options)
{
    return runConfigSweep<ModelCheckReport>(
        {"model-check", "model-check", "modelcheck"}, options,
        modelCheckSweepId(options), deserializeModelCheckResult,
        [&](Config cfg) {
            const SimulatedConfig sim =
                simulateConfig(options, cfg, /*checked=*/true);
            return serializeModelCheckResult(
                checkConfig(options, cfg, sim));
        },
        [&] {
            const exp::Scheduler sched(options.jobs);
            return sched.map<ModelCheckConfigResult>(
                options.configs.size(), [&](std::size_t i) {
                    const SimulatedConfig sim = simulateConfig(
                        options, options.configs[i], /*checked=*/false);
                    return checkConfig(options, options.configs[i], sim);
                });
        });
}

} // namespace ede
