#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/logging.hh"

namespace ede {

std::uint64_t
Histogram::totalSamples() const
{
    return std::accumulate(buckets_.begin(), buckets_.end(),
                           std::uint64_t{0});
}

double
Histogram::fraction(std::size_t i) const
{
    const std::uint64_t total = totalSamples();
    return total ? static_cast<double>(buckets_.at(i)) / total : 0.0;
}

double
Histogram::mean() const
{
    const std::uint64_t total = totalSamples();
    if (!total)
        return 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        sum += static_cast<double>(i) * buckets_[i];
    return sum / total;
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    saturated_ = 0;
}

void
Histogram::merge(const Histogram &other)
{
    ede_assert(buckets_.size() == other.buckets_.size(),
               "histogram shape mismatch");
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    saturated_ += other.saturated_;
}

Distribution::Distribution(std::uint64_t max_value,
                           std::uint64_t bucket_width)
    : max_(max_value), width_(bucket_width ? bucket_width : 1),
      buckets_(max_value / (bucket_width ? bucket_width : 1) + 1, 0)
{
}

void
Distribution::sample(std::uint64_t value)
{
    value = std::min(value, max_);
    ++buckets_[value / width_];
    sum_ += value;
}

std::uint64_t
Distribution::bucketHi(std::size_t i) const
{
    return std::min(max_, (i + 1) * width_ - 1);
}

std::uint64_t
Distribution::totalSamples() const
{
    return std::accumulate(buckets_.begin(), buckets_.end(),
                           std::uint64_t{0});
}

double
Distribution::fraction(std::size_t i) const
{
    const std::uint64_t total = totalSamples();
    return total ? static_cast<double>(buckets_.at(i)) / total : 0.0;
}

double
Distribution::mean() const
{
    const std::uint64_t total = totalSamples();
    return total ? static_cast<double>(sum_) / total : 0.0;
}

void
Distribution::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    sum_ = 0;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        ede_assert(v > 0.0, "geomean requires positive values, got ", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / values.size());
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / values.size();
}

TextTable::TextTable(std::vector<std::string> header)
{
    rows_.push_back(std::move(header));
}

void
TextTable::addRow(std::vector<std::string> row)
{
    ede_assert(row.size() == rows_.front().size(),
               "row width ", row.size(), " != header width ",
               rows_.front().size());
    rows_.push_back(std::move(row));
}

std::string
TextTable::str() const
{
    std::vector<std::size_t> widths(rows_.front().size(), 0);
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream os;
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        for (std::size_t c = 0; c < rows_[r].size(); ++c) {
            if (c)
                os << "  ";
            os << rows_[r][c];
            for (std::size_t pad = rows_[r][c].size(); pad < widths[c];
                 ++pad) {
                os << ' ';
            }
        }
        os << '\n';
        if (r == 0) {
            std::size_t line = 0;
            for (std::size_t c = 0; c < widths.size(); ++c)
                line += widths[c] + (c ? 2 : 0);
            os << std::string(line, '-') << '\n';
        }
    }
    return os.str();
}

std::string
fmtDouble(double v, int digits)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(digits);
    os << v;
    return os.str();
}

std::string
fmtPercent(double fraction, int digits)
{
    return fmtDouble(fraction * 100.0, digits) + "%";
}

} // namespace ede
