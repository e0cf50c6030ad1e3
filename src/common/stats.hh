/**
 * @file
 * Statistics toolkit used by the simulator and the benchmark harness.
 *
 * The paper reports three kinds of data we need to regenerate:
 *  - scalar counters (cycles, instructions, stalls),
 *  - small integer histograms (instructions issued per cycle, Fig. 11),
 *  - occupancy distributions (pending NVM writes, Fig. 10).
 */

#ifndef EDE_COMMON_STATS_HH
#define EDE_COMMON_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.hh"
#include "common/types.hh"

namespace ede {

/**
 * Histogram over a small dense integer domain [0, size).
 *
 * Samples above the top bucket are clamped into it (with a saturation
 * count kept so tests can detect unexpected clamping).
 */
class Histogram
{
  public:
    /** @param size number of buckets; domain is [0, size). */
    explicit Histogram(std::size_t size = 0) : buckets_(size, 0) {}

    /** Record one observation of @p value. */
    void
    sample(std::uint64_t value)
    {
        if (buckets_.empty())
            return;
        if (value >= buckets_.size()) {
            ++saturated_;
            value = buckets_.size() - 1;
        }
        ++buckets_[value];
    }

    /**
     * Record @p weight observations of @p value at once.  Identical
     * to calling sample(value) @p weight times; the skip-ahead cycle
     * loop uses this to replay the issue-width-0 samples of cycles it
     * jumped over.
     */
    void
    sample(std::uint64_t value, std::uint64_t weight)
    {
        if (buckets_.empty() || weight == 0)
            return;
        if (value >= buckets_.size()) {
            saturated_ += weight;
            value = buckets_.size() - 1;
        }
        buckets_[value] += weight;
    }

    /** Raw count in bucket @p i. */
    std::uint64_t count(std::size_t i) const { return buckets_.at(i); }

    /** Fraction of all samples that fell in bucket @p i. */
    double fraction(std::size_t i) const;

    /** Mean of the recorded values. */
    double mean() const;

    /** Total number of samples. */
    std::uint64_t totalSamples() const;

    /** Number of samples clamped into the top bucket. */
    std::uint64_t saturated() const { return saturated_; }

    /** Number of buckets. */
    std::size_t size() const { return buckets_.size(); }

    /** Reset all counts. */
    void reset();

    /** Accumulate another histogram of the same shape into this one. */
    void merge(const Histogram &other);

    /** The persisted state; the bucket count is fixed by construction. */
    friend void
    visitFields(auto &v, FieldsOf<Histogram> auto &h)
    {
        v("counts", h.buckets_);
        v("saturated", h.saturated_);
    }

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t saturated_ = 0;
};

/**
 * Distribution over a wider integer range, bucketed by a fixed width.
 *
 * Used for the Fig. 10 pending-NVM-writes distribution: domain
 * [0, 128], bucket width selectable for presentation.
 */
class Distribution
{
  public:
    /**
     * @param max_value largest representable value (inclusive)
     * @param bucket_width values per bucket
     */
    Distribution(std::uint64_t max_value = 0, std::uint64_t bucket_width = 1);

    /** Record one observation. Values above max_value are clamped. */
    void sample(std::uint64_t value);

    /** Number of buckets. */
    std::size_t numBuckets() const { return buckets_.size(); }

    /** Inclusive lower bound of bucket @p i. */
    std::uint64_t bucketLo(std::size_t i) const { return i * width_; }

    /** Inclusive upper bound of bucket @p i (clamped to max). */
    std::uint64_t bucketHi(std::size_t i) const;

    /** Raw count in bucket @p i. */
    std::uint64_t count(std::size_t i) const { return buckets_.at(i); }

    /** Fraction of samples in bucket @p i. */
    double fraction(std::size_t i) const;

    /** Mean of the recorded values. */
    double mean() const;

    /** Total samples. */
    std::uint64_t totalSamples() const;

    /** Reset all counts. */
    void reset();

    /** Sum of every recorded value. */
    std::uint64_t sampleSum() const { return sum_; }

    /** The persisted state; the geometry is fixed by construction. */
    friend void
    visitFields(auto &v, FieldsOf<Distribution> auto &d)
    {
        v("counts", d.buckets_);
        v("sum", d.sum_);
    }

  private:
    std::uint64_t max_ = 0;
    std::uint64_t width_ = 1;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t sum_ = 0;
};

/** Geometric mean of a list of strictly positive values. */
double geomean(const std::vector<double> &values);

/** Arithmetic mean; zero for an empty list. */
double mean(const std::vector<double> &values);

/**
 * Minimal fixed-width text table used by the bench binaries so every
 * reproduced figure/table prints in a uniform, diffable format.
 */
class TextTable
{
  public:
    /** @param header column titles */
    explicit TextTable(std::vector<std::string> header);

    /** Append a row; must have as many cells as the header. */
    void addRow(std::vector<std::string> row);

    /** Render with aligned columns. */
    std::string str() const;

  private:
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed precision (default 3 digits). */
std::string fmtDouble(double v, int digits = 3);

/** Format a fraction as a percentage string, e.g. "12.3%". */
std::string fmtPercent(double fraction, int digits = 1);

} // namespace ede

#endif // EDE_COMMON_STATS_HH
