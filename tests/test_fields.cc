/**
 * @file
 * The field tables and their encoders (common/fields.hh,
 * exp/fields.hh).
 *
 * Every persisted record is filled with a distinct non-default value
 * in every field; the wire round trip must restore each value exactly
 * and the JSON must name each field.  A name-and-type walk of every
 * table must hash to the constant pinned next to kResultSchemaVersion,
 * so a table edited without a version bump fails here.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "exp/fields.hh"
#include "exp/fingerprint.hh"
#include "exp/result.hh"
#include "fault/campaign.hh"
#include "fault/conc_campaign.hh"
#include "fault/conc_check.hh"
#include "fault/model_check/checker.hh"
#include "verify/fuzz.hh"

namespace ede {
namespace {

using exp::kIsText;

/** Every enumerator of E, by the table contract (dense from zero). */
template <class E, class NameOf>
std::vector<E>
enumValues(NameOf nameOf)
{
    std::vector<E> out;
    const std::string_view fallback = nameOf(static_cast<E>(255));
    for (int i = 0; i < 255 && nameOf(static_cast<E>(i)) != fallback; ++i)
        out.push_back(static_cast<E>(i));
    return out;
}

/** Gives every field a distinct value no default has. */
class Filler
{
  public:
    template <class T, class... NameOf>
    void
    operator()(std::string_view, T &&x, NameOf... nameOf)
    {
        fill(x, nameOf...);
    }

    template <class T>
    void
    derived(std::string_view, const T &)
    {
    }

  private:
    template <class T, class... NameOf>
    void
    fill(T &x, NameOf... nameOf)
    {
        if constexpr (kIsPresence<T>) {
            fill(x.value, nameOf...);
        } else if constexpr (std::is_enum_v<T>) {
            // Any enumerator but the current (default) one.
            const std::vector<T> all = enumValues<T>(nameOf...);
            ASSERT_GE(all.size(), 2u);
            const auto cur = static_cast<std::size_t>(x);
            x = all[(cur + 1 + next_++ % (all.size() - 1)) % all.size()];
        } else if constexpr (std::is_same_v<T, bool>) {
            x = !x;
        } else if constexpr (std::is_same_v<T, double>) {
            x = static_cast<double>(next_++) + 0.25;
        } else if constexpr (std::is_signed_v<T>) {
            x = static_cast<T>(-static_cast<std::int64_t>(next_++));
        } else if constexpr (std::is_integral_v<T>) {
            x = static_cast<T>(next_++);
        } else if constexpr (std::is_same_v<T, std::string>) {
            // Spaces, percent signs and newlines exercise the escaping.
            x = "s" + std::to_string(next_++) + " a%b\nc";
        } else if constexpr (kIsVector<T>) {
            // Lists a default record fills (histogram buckets) keep
            // their length.
            if (x.empty())
                x.resize(2);
            for (auto &e : x)
                fill(e, nameOf...);
        } else if constexpr (kIsArray<T>) {
            for (auto &e : x)
                fill(e, nameOf...);
        } else {
            visitFields(*this, x);
        }
    }

    std::uint64_t next_ = 100001;
};

/** The JSON key of every field and derived value, walked. */
class KeyCollector
{
  public:
    template <class T, class... NameOf>
    void
    operator()(std::string_view label, const T &x, NameOf...)
    {
        keys.insert(std::string(label));
        walk(x);
    }

    template <class T>
    void
    derived(std::string_view label, const T &)
    {
        keys.insert(std::string(label));
    }

    std::set<std::string> keys;

  private:
    template <class T>
    void
    walk(const T &x)
    {
        if constexpr (kIsPresence<T>) {
            walk(x.value);
        } else if constexpr (kIsVector<T> || kIsArray<T>) {
            for (const auto &e : x)
                walk(e);
        } else if constexpr (Record<const T>) {
            visitFields(*this, x);
        }
    }
};

template <class R>
void
expectFullRoundTrip()
{
    R r{};
    Filler fill;
    visitFields(fill, r);
    const std::string wire = exp::toWire("test", r);
    const std::optional<R> back = exp::fromWire<R>(wire, "test");
    ASSERT_TRUE(back.has_value()) << wire;
    EXPECT_EQ(exp::toWire("test", *back), wire);
    EXPECT_NE(wire, exp::toWire("test", R{}));

    const std::string json = exp::jsonDocument("test", r, 2);
    KeyCollector keys;
    visitFields(keys, r);
    for (const std::string &key : keys.keys) {
        EXPECT_NE(json.find("\"" + key + "\": "), std::string::npos)
            << key << " missing from\n" << json;
    }
}

TEST(Fields, EveryRecordRoundTripsEveryField)
{
    expectFullRoundTrip<exp::ExperimentCell>();
    expectFullRoundTrip<exp::ExperimentPoint>();
    expectFullRoundTrip<HostProfile>();
    expectFullRoundTrip<exp::JobFailure>();
    expectFullRoundTrip<CampaignReport>();
    expectFullRoundTrip<ModelCheckReport>();
    expectFullRoundTrip<ConcCheckReport>();
    expectFullRoundTrip<ConcCampaignReport>();
    expectFullRoundTrip<ProgResult>();
}

/** Hashes every table's labels and value types, never values. */
class SchemaHasher
{
  public:
    template <class T, class... NameOf>
    void
    operator()(std::string_view label, const T &x, NameOf... nameOf)
    {
        h.field("field", label);
        type(x, nameOf...);
    }

    template <class T>
    void
    derived(std::string_view label, const T &x)
    {
        h.field("derived", label);
        type(x);
    }

    exp::FingerprintHasher h;

  private:
    template <class T, class... NameOf>
    void
    type(const T &x, NameOf... nameOf)
    {
        if constexpr (kIsPresence<T>) {
            h.field(x.omit ? "omitted" : "nullable", true);
            type(x.value, nameOf...);
        } else if constexpr (std::is_enum_v<T>) {
            for (T e : enumValues<T>(nameOf...))
                h.field("enumerator", std::string_view(nameOf(e)...));
        } else if constexpr (std::is_same_v<T, bool> ||
                             std::is_same_v<T, double>) {
            h.field(std::is_same_v<T, bool> ? "bool" : "double", true);
        } else if constexpr (std::is_integral_v<T>) {
            h.field(std::is_signed_v<T> ? "int" : "uint",
                    static_cast<std::uint64_t>(sizeof(T)));
        } else if constexpr (kIsText<T>) {
            h.field("text", true);
        } else if constexpr (kIsVector<T>) {
            h.field("list", true);
            type(typename T::value_type{}, nameOf...);
        } else if constexpr (kIsArray<T>) {
            h.field("array", static_cast<std::uint64_t>(x.size()));
            type(typename T::value_type{}, nameOf...);
        } else {
            h.field("{", true);
            visitFields(*this, x);
            h.field("}", true);
        }
    }
};

TEST(Fields, TablesMatchTheSchemaVersion)
{
    SchemaHasher s;
    s("point", exp::ExperimentPoint{});
    s("cell", exp::ExperimentCell{});
    s("hostProfile", HostProfile{});
    s("jobFailure", exp::JobFailure{});
    s("campaign", CampaignReport{});
    s("modelCheck", ModelCheckReport{});
    s("concCheck", ConcCheckReport{});
    s("concCampaign", ConcCampaignReport{});
    s("fuzz", ProgResult{});
    EXPECT_EQ(s.h.value(), exp::kResultSchemaHash)
        << "the field tables hash to 0x" << exp::fingerprintHex(s.h.value())
        << " but kResultSchemaHash is 0x"
        << exp::fingerprintHex(exp::kResultSchemaHash)
        << " for kResultSchemaVersion " << exp::kResultSchemaVersion
        << ": bump kResultSchemaVersion and set kResultSchemaHash to "
           "the new hash (exp/fingerprint.hh)";
}

TEST(Fields, ReaderRejectsWhatTheWriterNeverWrites)
{
    exp::JobFailure f;
    f.message = "m";
    const std::string wire = exp::toWire("test", f);
    ASSERT_TRUE(exp::fromWire<exp::JobFailure>(wire, "test"));
    // Another magic, another schema version, a wrong label, an
    // unknown enumerator, trailing tokens.
    EXPECT_FALSE(exp::fromWire<exp::JobFailure>(wire, "other"));
    std::string v = wire;
    v.replace(v.find(' ') + 1, 1, "8");
    EXPECT_FALSE(exp::fromWire<exp::JobFailure>(v, "test"));
    std::string label = wire;
    label.replace(label.find("signal"), 6, "signaL");
    EXPECT_FALSE(exp::fromWire<exp::JobFailure>(label, "test"));
    std::string outcome = wire;
    outcome.replace(outcome.find("crashed"), 7, "exploded");
    EXPECT_FALSE(exp::fromWire<exp::JobFailure>(outcome, "test"));
    EXPECT_FALSE(exp::fromWire<exp::JobFailure>(wire + "extra\n", "test"));
}

} // namespace
} // namespace ede
