/**
 * @file
 * Field tables: every persisted record lists its fields once.
 *
 * A record type T declares, next to its definition and in its own
 * namespace,
 *
 *     void visitFields(auto &v, FieldsOf<T> auto &r)
 *     { v("label", r.member); ... }
 *
 * and every encoder is a visitor v walking that list (exp/fields.hh):
 * the wire writer and bounds-checked reader behind cache snapshots,
 * worker payloads and journals, the JSON writer, and through the wire
 * form the fingerprint.  r is a T or a const T, so one list serves
 * the writers and the reader.  A table calls
 *
 *  - v(label, member) for a number, bool, string, list or nested
 *    record, and v(label, member, nameOf) for an enumeration, nameOf
 *    being its printable-name function.  Enumerators must be dense
 *    from zero, and nameOf must give every other value one fallback
 *    name;
 *  - v(label, nullUnless(member, cond)) for a value JSON prints as
 *    null unless cond holds, and v(label, omitUnless(member, cond))
 *    for one that the wire, the fingerprint and JSON leave out unless
 *    cond holds;
 *  - v.derived(label, value) for a JSON-only value: one computed from
 *    the fields, or context the wire does not persist;
 *  - visitFields(v, r.part) to splice a nested record's fields in.
 *
 * A label is the field's one external name: the snake_case JSON key
 * and the wire label.  The call order is the wire order, and what a
 * table visits never depends on the values it visits.
 */

#ifndef EDE_COMMON_FIELDS_HH
#define EDE_COMMON_FIELDS_HH

#include <array>
#include <concepts>
#include <type_traits>
#include <vector>

namespace ede {

/** R is the record type T, const or not. */
template <class R, class T>
concept FieldsOf = std::same_as<std::remove_const_t<R>, T>;

/** A field JSON prints as null, or encoders leave out, unless present. */
template <class T>
struct Presence
{
    T &value;
    bool present;
    bool omit;
};

template <class T>
Presence<T>
nullUnless(T &value, bool present)
{
    return {value, present, false};
}

template <class T>
Presence<T>
omitUnless(T &value, bool present)
{
    return {value, present, true};
}

/** @name Type classes the visitors dispatch on. */
/// @{
template <class T>
inline constexpr bool kIsPresence = false;
template <class T>
inline constexpr bool kIsPresence<Presence<T>> = true;

template <class T>
inline constexpr bool kIsVector = false;
template <class T, class A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;

template <class T>
inline constexpr bool kIsArray = false;
template <class T, std::size_t N>
inline constexpr bool kIsArray<std::array<T, N>> = true;

/** Stand-in visitor type for the Record concept's probe. */
struct FieldProbe
{
};

/** A type with a field table. */
template <class T>
concept Record = requires(FieldProbe &v, T &r) { visitFields(v, r); };
/// @}

} // namespace ede

#endif // EDE_COMMON_FIELDS_HH
