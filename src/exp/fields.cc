#include "exp/fields.hh"

#include <cctype>
#include <cstdio>

namespace ede {
namespace exp {

bool
WireReader::done()
{
    return ok_ && in_.find_first_not_of(" \t\n\v\f\r", pos_) ==
                      std::string_view::npos;
}

bool
WireReader::skip(std::string_view t)
{
    const std::size_t at = pos_;
    if (next() == t)
        return true;
    pos_ = at;
    ok_ = true;
    return false;
}

std::string_view
WireReader::next()
{
    if (!ok_)
        return {};
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_])))
        ++pos_;
    const std::size_t start = pos_;
    while (pos_ < in_.size() &&
           !std::isspace(static_cast<unsigned char>(in_[pos_])))
        ++pos_;
    ok_ = pos_ > start;
    return in_.substr(start, pos_ - start);
}

std::size_t
WireReader::count()
{
    std::uint64_t n = 0;
    number(n);
    // n elements are at least n tokens, which take 2n - 1 bytes.
    ok_ = ok_ && n <= (in_.size() - pos_ + 1) / 2;
    return ok_ ? static_cast<std::size_t>(n) : 0;
}

void
JsonWriter::open(char bracket, bool block)
{
    out_ += bracket;
    if (bracket == '{')
        ++objects_;
    else
        block = block && levels_.back().block;
    levels_.push_back({block, true});
}

void
JsonWriter::close(char bracket)
{
    const Level l = levels_.back();
    levels_.pop_back();
    objects_ -= bracket == '}' ? 1 : 0;
    if (l.block && !l.first) {
        out_ += '\n';
        out_.append(2 * levels_.size(), ' ');
    }
    out_ += bracket;
}

void
JsonWriter::separator()
{
    Level &l = levels_.back();
    if (l.block) {
        out_ += l.first ? "\n" : ",\n";
        out_.append(2 * levels_.size(), ' ');
    } else if (!l.first) {
        out_ += ", ";
    }
    l.first = false;
}

void
JsonWriter::number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);  // Round-trip precision.
    out_ += buf;
}

void
JsonWriter::text(std::string_view s)
{
    out_ += '"';
    for (char c : s) {
        switch (c) {
          case '"': out_ += "\\\""; break;
          case '\\': out_ += "\\\\"; break;
          case '\n': out_ += "\\n"; break;
          case '\t': out_ += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out_ += buf;
            } else {
                out_ += c;
            }
        }
    }
    out_ += '"';
}

} // namespace exp
} // namespace ede
