/**
 * @file
 * The encoders of every persisted record, as visitors of its field
 * table (common/fields.hh).
 *
 * The wire format -- result-cache snapshots, worker payloads, journal
 * records, and hashed, the fingerprints -- is a
 * "<magic> <kResultSchemaVersion>" line and then one "<label> <value>"
 * line per field.  A nested record is "{" ... "}", a list its length
 * and then its elements; numbers are decimal (doubles by bit pattern),
 * strings percent-escaped (journalEscape), enumerations by name, and
 * an omitted field is "-".  The reader checks every label, name and
 * number, bounds every list length by the input left, holds a list
 * that a default record already fills (a histogram's buckets) to its
 * length, and requires the input to end with the record, so damaged
 * input is rejected, never half-read.
 */

#ifndef EDE_EXP_FIELDS_HH
#define EDE_EXP_FIELDS_HH

#include <charconv>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/fields.hh"
#include "exp/fingerprint.hh"
#include "exp/journal.hh"

namespace ede {
namespace exp {

template <class T>
inline constexpr bool kIsText =
    std::is_convertible_v<const T &, std::string_view>;

/**
 * The enumerator of E that @p nameOf calls @p name, if any.  Relies on
 * the table contract: enumerators are dense from zero and every other
 * value has one fallback name.
 */
template <class E, class NameOf>
std::optional<E>
enumFromName(std::string_view name, NameOf nameOf)
{
    const std::string_view fallback = nameOf(static_cast<E>(255));
    for (int i = 0; i < 255; ++i) {
        const std::string_view n = nameOf(static_cast<E>(i));
        if (n == fallback)
            break;
        if (n == name)
            return static_cast<E>(i);
    }
    return std::nullopt;
}

/** Writes a record's fields in the wire format. */
class WireWriter
{
  public:
    /** Start a payload with the line "<magic> <kResultSchemaVersion>". */
    explicit WireWriter(std::string_view magic) : out_(magic)
    {
        out_ += ' ';
        number(kResultSchemaVersion);
    }

    template <class T, class... NameOf>
    void
    operator()(std::string_view label, const T &x, NameOf... nameOf)
    {
        out_.append(label);
        out_ += ' ';
        value(x, nameOf...);
    }

    void derived(std::string_view, const auto &) {}

    const std::string &str() const { return out_; }

  private:
    template <class T, class... NameOf>
    void
    value(const T &x, NameOf... nameOf)
    {
        if constexpr (kIsPresence<T>) {
            if (x.omit && !x.present)
                token("-");
            else
                value(x.value, nameOf...);
        } else if constexpr (std::is_enum_v<T>) {
            token(std::string_view(nameOf(x)...));
        } else if constexpr (std::is_same_v<T, bool>) {
            token(x ? "1" : "0");
        } else if constexpr (std::is_integral_v<T>) {
            number(x);
        } else if constexpr (std::is_same_v<T, double>) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &x, sizeof(bits));
            number(bits);
        } else if constexpr (kIsText<T>) {
            token(journalEscape(std::string(x)));
        } else if constexpr (kIsVector<T> || kIsArray<T>) {
            number(x.size());
            for (const auto &e : x)
                value(e, nameOf...);
        } else {
            token("{");
            visitFields(*this, x);
            token("}");
        }
    }

    template <class I>
    void
    number(I v)
    {
        char buf[24];
        const char *end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
        token(std::string_view(buf, static_cast<std::size_t>(end - buf)));
    }

    void
    token(std::string_view t)
    {
        out_.append(t);
        out_ += '\n';
    }

    std::string out_;
};

/** Reads a record's fields back from the wire format. */
class WireReader
{
  public:
    /** Read @p text, which must open with "<magic> <kResultSchemaVersion>". */
    WireReader(std::string_view text, std::string_view magic) : in_(text)
    {
        std::uint32_t version = 0;
        ok_ = next() == magic;
        number(version);
        ok_ = ok_ && version == kResultSchemaVersion;
    }

    template <class T, class... NameOf>
    void
    operator()(std::string_view label, T &&x, NameOf... nameOf)
    {
        ok_ = ok_ && next() == label;
        value(x, nameOf...);
    }

    void derived(std::string_view, const auto &) {}

    /** True when nothing failed and only whitespace is left. */
    bool done();

  private:
    template <class T, class... NameOf>
    void
    value(T &x, NameOf... nameOf)
    {
        if (!ok_)
            return;
        if constexpr (kIsPresence<T>) {
            if (!x.omit || !skip("-"))
                value(x.value, nameOf...);
        } else if constexpr (std::is_enum_v<T>) {
            const std::optional<T> e = enumFromName<T>(next(), nameOf...);
            ok_ = ok_ && e.has_value();
            x = e.value_or(x);
        } else if constexpr (std::is_same_v<T, bool>) {
            std::uint8_t v = 0;
            number(v);
            ok_ = ok_ && v <= 1;
            x = v == 1;
        } else if constexpr (std::is_integral_v<T>) {
            number(x);
        } else if constexpr (std::is_same_v<T, double>) {
            std::uint64_t bits = 0;
            number(bits);
            std::memcpy(&x, &bits, sizeof(x));
        } else if constexpr (std::is_same_v<T, std::string>) {
            x = journalUnescape(std::string(next()));
        } else if constexpr (kIsVector<T> || kIsArray<T>) {
            // A list a default record already fills keeps its length.
            const std::size_t n = count();
            ok_ = ok_ && (x.empty() || n == x.size());
            for (std::size_t i = 0; ok_ && i < n; ++i) {
                if constexpr (kIsVector<T>) {
                    if (i == x.size())
                        x.emplace_back();
                }
                value(x[i], nameOf...);
            }
        } else {
            ok_ = ok_ && next() == "{";
            visitFields(*this, x);
            ok_ = ok_ && next() == "}";
        }
    }

    template <class I>
    void
    number(I &v)
    {
        const std::string_view t = next();
        const auto r = std::from_chars(t.data(), t.data() + t.size(), v);
        ok_ = ok_ && r.ec == std::errc() && r.ptr == t.data() + t.size();
    }

    /** The next token; empty (and a failed read) at the end. */
    std::string_view next();

    /** Consume the next token if it is @p t. */
    bool skip(std::string_view t);

    /** A list length, rejected when the input left cannot hold it. */
    std::size_t count();

    std::string_view in_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/** @p r in the wire format, headed "<magic> <kResultSchemaVersion>". */
template <class R>
std::string
toWire(std::string_view magic, const R &r)
{
    WireWriter w(magic);
    visitFields(w, r);
    return w.str();
}

/**
 * Hash of @p r's wire form under @p label: every field's label and
 * value, and the schema version.
 */
template <class R>
std::uint64_t
fingerprintOf(std::string_view label, const R &r)
{
    FingerprintHasher h;
    h.field(label, std::string_view(toWire(label, r)));
    return h.value();
}

/** Inverse of toWire; nullopt on any damage or mismatch. */
template <class R>
std::optional<R>
fromWire(std::string_view text, std::string_view magic)
{
    R r;
    WireReader in(text, magic);
    visitFields(in, r);
    if (!in.done())
        return std::nullopt;
    return r;
}

/**
 * Writes one JSON object.  Objects nested fewer than blockDepth
 * objects deep print one field per line, as does a list of objects
 * inside them; deeper ones print on one line.
 */
class JsonWriter
{
  public:
    /** Open an object in @p out. */
    JsonWriter(std::string &out, int blockDepth)
        : out_(out), blockDepth_(blockDepth)
    {
        open('{', true);
    }

    template <class T, class... NameOf>
    void
    operator()(std::string_view label, const T &x, NameOf... nameOf)
    {
        if constexpr (kIsPresence<T>) {
            if (x.omit && !x.present)
                return;
        }
        separator();
        out_ += '"';
        out_.append(label);
        out_ += "\": ";
        value(x, nameOf...);
    }

    void derived(std::string_view label, const auto &x) { (*this)(label, x); }

    /** Close the object. */
    void finish() { close('}'); }

  private:
    template <class T, class... NameOf>
    void
    value(const T &x, NameOf... nameOf)
    {
        if constexpr (kIsPresence<T>) {
            if (x.present)
                value(x.value, nameOf...);
            else
                out_ += "null";
        } else if constexpr (std::is_enum_v<T>) {
            text(std::string_view(nameOf(x)...));
        } else if constexpr (std::is_same_v<T, bool>) {
            out_ += x ? "true" : "false";
        } else if constexpr (std::is_integral_v<T>) {
            out_ += std::to_string(x);
        } else if constexpr (std::is_same_v<T, double>) {
            number(x);
        } else if constexpr (kIsText<T>) {
            text(x);
        } else if constexpr (kIsVector<T> || kIsArray<T>) {
            open('[', Record<const typename T::value_type>);
            for (const auto &e : x) {
                separator();
                value(e, nameOf...);
            }
            close(']');
        } else {
            open('{', objects_ < blockDepth_);
            visitFields(*this, x);
            close('}');
        }
    }

    /**
     * Open a nested '{' or '['.  A list asked for @p block prints one
     * element per line only inside a block object.
     */
    void open(char bracket, bool block);
    void close(char bracket);
    void separator();
    void number(double v);
    void text(std::string_view s);

    struct Level
    {
        bool block;
        bool first;
    };

    std::string &out_;
    int blockDepth_;
    int objects_ = 0;  ///< Objects open, the root included.
    std::vector<Level> levels_;
};

/**
 * A JSON artifact: {"bench": @p bench, "schema": <version>, then the
 * fields of @p doc}, newline-terminated.
 */
template <class Doc>
std::string
jsonDocument(std::string_view bench, const Doc &doc, int blockDepth)
{
    std::string out;
    JsonWriter w(out, blockDepth);
    w("bench", bench);
    w("schema", kResultSchemaVersion);
    visitFields(w, doc);
    w.finish();
    out += '\n';
    return out;
}

} // namespace exp
} // namespace ede

#endif // EDE_EXP_FIELDS_HH
