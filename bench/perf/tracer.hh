/**
 * @file
 * In-memory span recorder for the ede_perf benchmark program.
 *
 * One span per call into a simulator layer, recorded from the
 * benchmark's own code around the public entry points -- nothing
 * inside src/ is instrumented.  A span is named "<layer>.<call>"; the
 * layer prefix is the src/ module the call enters.  Spans nest through
 * an open-span stack, carry the id of the cell they belong to, and
 * probe spans (extra calls made only in a traced run to time a step
 * the in-path call hides) are flagged so they can be left out of the
 * measured wall time.
 */

#ifndef EDE_BENCH_PERF_TRACER_HH
#define EDE_BENCH_PERF_TRACER_HH

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perf {

/** One recorded call. Times are seconds since the tracer started. */
struct SpanRecord
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  ///< Index of the enclosing span, -1 at the root.
    std::string cell;
    bool probe = false;

    double seconds() const { return end - start; }

    /** The layer: the name up to its first '.'. */
    std::string layer() const { return name.substr(0, name.find('.')); }
};

class Tracer
{
  public:
    Tracer() : t0_(std::chrono::steady_clock::now()) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Cell id attached to spans opened from now on. */
    void setCell(std::string cell) { cell_ = std::move(cell); }

    int
    open(std::string name, bool probe)
    {
        SpanRecord s;
        s.name = std::move(name);
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.cell = cell_;
        s.probe = probe;
        s.start = now();
        spans_.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    /** Close span @p id, which must be the innermost open span. */
    double
    close(int id)
    {
        SpanRecord &s = spans_.at(static_cast<std::size_t>(id));
        s.end = now();
        if (!stack_.empty() && stack_.back() == id)
            stack_.pop_back();
        return s.seconds();
    }

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** Summed duration of probe spans not nested in another probe. */
    double
    probeSeconds() const
    {
        double t = 0.0;
        for (const SpanRecord &s : spans_) {
            if (s.probe &&
                (s.parent < 0 ||
                 !spans_[static_cast<std::size_t>(s.parent)].probe))
                t += s.seconds();
        }
        return t;
    }

    /**
     * Self time per layer: each span's duration minus the part its
     * direct children cover, summed by layer.
     */
    std::map<std::string, double>
    selfSeconds() const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const SpanRecord &s : spans_) {
            if (s.parent >= 0)
                child[static_cast<std::size_t>(s.parent)] += s.seconds();
        }
        std::map<std::string, double> self;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[spans_[i].layer()] += spans_[i].seconds() - child[i];
        return self;
    }

    /**
     * Span @p root's time split into units: each direct child (minus
     * the probe spans nested in it; probe children are dropped), keyed
     * "<name>|<cell>" and numbered when a key repeats, plus the time
     * no child covers as "bench.self".  The units sum to the root's
     * duration less its probe time.
     */
    std::vector<std::pair<std::string, double>>
    units(int root) const
    {
        std::vector<double> probe(spans_.size(), 0.0);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            if (!spans_[i].probe)
                continue;
            // Charge the probe to its ancestor directly below root.
            int top = static_cast<int>(i);
            while (top >= 0 && spans_[static_cast<std::size_t>(top)]
                                       .parent != root)
                top = spans_[static_cast<std::size_t>(top)].parent;
            if (top >= 0 && top != static_cast<int>(i))
                probe[static_cast<std::size_t>(top)] += spans_[i].seconds();
        }
        std::vector<std::pair<std::string, double>> out;
        std::map<std::string, int> seen;
        double covered = 0.0;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const SpanRecord &s = spans_[i];
            if (s.parent != root)
                continue;
            covered += s.seconds();
            if (s.probe)
                continue;
            std::string key = s.name + "|" + s.cell;
            if (const int n = seen[key]++)
                key += "#" + std::to_string(n);
            out.emplace_back(key, s.seconds() - probe[i]);
        }
        out.emplace_back(
            "bench.self",
            spans_.at(static_cast<std::size_t>(root)).seconds() - covered);
        return out;
    }

    /** Write the spans as Chrome trace-event JSON; false on I/O error. */
    bool
    writeChromeTrace(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\": [\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const SpanRecord &s = spans_[i];
            std::fprintf(f,
                         "  {\"name\": \"%s\", \"cat\": \"%s\", "
                         "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                         "\"pid\": 1, \"tid\": 1, \"args\": {\"id\": %zu, "
                         "\"parent\": %d, \"cell\": \"%s\", "
                         "\"probe\": %s}}%s\n",
                         s.name.c_str(), s.layer().c_str(),
                         s.start * 1e6, s.seconds() * 1e6, i, s.parent,
                         s.cell.c_str(), s.probe ? "true" : "false",
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "], \"displayTimeUnit\": \"ms\"}\n");
        return std::fclose(f) == 0;
    }

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0_)
            .count();
    }

    std::chrono::steady_clock::time_point t0_;
    std::vector<SpanRecord> spans_;
    std::vector<int> stack_;
    std::string cell_;
};

/** Scoped span; close() early to read the duration. */
class Span
{
  public:
    Span(Tracer &tracer, std::string name, bool probe = false)
        : tracer_(tracer), id_(tracer.open(std::move(name), probe))
    {
    }

    ~Span() { close(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    int id() const { return id_; }

    /** End the span (idempotent); @return its duration in seconds. */
    double
    close()
    {
        if (!closed_) {
            seconds_ = tracer_.close(id_);
            closed_ = true;
        }
        return seconds_;
    }

  private:
    Tracer &tracer_;
    int id_;
    bool closed_ = false;
    double seconds_ = 0.0;
};

} // namespace perf

#endif // EDE_BENCH_PERF_TRACER_HH
