//===- support/Json.h - The one JSON value, parser and writer ---*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every JSON byte cundef reads or writes goes through JsonValue: the
/// kcc --json and --catalog-coverage documents (pretty layout) and every
/// cundef-kcc-v1 wire frame (compact layout).
///
/// Strings are byte strings. The writer escapes every byte outside
/// printable ASCII (as \u00XX unless a short escape exists), so output
/// is pure ASCII. The parser is strict RFC 8259 plus the inverse
/// convention: \u00XX decodes to the raw byte XX, so any byte string
/// round-trips; higher code points (surrogate pairs combined) decode
/// to UTF-8. Integers are exact over [-(2^64-1), 2^64-1]; other
/// numbers are doubles, written with a fixed number of decimals.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_SUPPORT_JSON_H
#define CUNDEF_SUPPORT_JSON_H

#include "support/Strings.h"

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace cundef {

/// A JSON value. Object member order is preserved (the writer emits
/// members in insertion order) but lookups are by key; duplicate keys
/// keep the last occurrence (RFC 8259 leaves this undefined;
/// last-wins matches common parsers).
class JsonValue {
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

public:
  JsonValue() = default;
  JsonValue(bool V) : K(Kind::Bool), BoolV(V) {}
  JsonValue(const char *V) : K(Kind::String), StringV(V) {}
  JsonValue(std::string V) : K(Kind::String), StringV(std::move(V)) {}
  template <typename T, std::enable_if_t<std::is_integral_v<T> &&
                                             !std::is_same_v<T, bool>,
                                         int> = 0>
  JsonValue(T V)
      : K(Kind::Number), IsInt(true), IntV(static_cast<uint64_t>(V)),
        NumberV(static_cast<double>(V)) {
    if constexpr (std::is_signed_v<T>)
      if (V < 0) {
        Neg = true;
        IntV = 0 - IntV;
      }
  }
  /// A double written with exactly \p Decimals digits after the point.
  JsonValue(double V, int Decimals)
      : K(Kind::Number), Decimals(Decimals), NumberV(V) {}
  /// Doubles must name their decimals (and must not decay to bool).
  JsonValue(double) = delete;

  static JsonValue array() { return JsonValue(Kind::Array); }
  static JsonValue object() { return JsonValue(Kind::Object); }

  /// Builders (no duplicate-key check); both return *this.
  JsonValue &push(JsonValue V) {
    ArrayV.push_back(std::move(V));
    return *this;
  }
  JsonValue &set(std::string Key, JsonValue V) {
    ObjectV.emplace_back(std::move(Key), std::move(V));
    return *this;
  }

  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Stores the number in \p Out when it is an integer that \p T holds
  /// exactly; otherwise (not a number, a fraction or exponent form, out
  /// of range) returns false and leaves \p Out alone.
  template <typename T> bool toInt(T &Out) const {
    const auto Max = static_cast<uint64_t>(std::numeric_limits<T>::max());
    if (K != Kind::Number || !IsInt)
      return false;
    if (!Neg || IntV == 0) {
      if (IntV > Max)
        return false;
      Out = static_cast<T>(IntV);
      return true;
    }
    // A negative T fits when |value| <= |min| = max + 1.
    if (!std::is_signed_v<T> || IntV - 1 > Max)
      return false;
    Out = static_cast<T>(-static_cast<T>(IntV - 1) - 1);
    return true;
  }

  /// Value accessors; each returns the fallback when the kind does not
  /// match or (integers) the number is not one that fits, so wire
  /// messages treat absent, mistyped and out-of-range fields alike.
  uint64_t asU64(uint64_t Fallback = 0) const {
    uint64_t V = Fallback;
    toInt(V);
    return V;
  }
  const std::string &asString() const {
    static const std::string Empty;
    return isString() ? StringV : Empty;
  }

  const std::vector<JsonValue> &items() const {
    static const std::vector<JsonValue> Empty;
    return isArray() ? ArrayV : Empty;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue *get(const std::string &Key) const;

  /// Typed member conveniences (fallback when absent or mistyped).
  bool getBool(const std::string &Key, bool Fallback = false) const;
  double getDouble(const std::string &Key, double Fallback = 0.0) const;
  uint64_t getU64(const std::string &Key, uint64_t Fallback = 0) const;
  const std::string &getString(const std::string &Key) const;

  /// Reads member \p Key into \p Field when present. False when it is
  /// present but not an integer \p Field holds exactly (the field is
  /// left alone); an absent key keeps the field's value.
  template <typename T> bool getInt(const std::string &Key, T &Field) const {
    const JsonValue *V = get(Key);
    return !V || V->toInt(Field);
  }

  /// Strictly parses \p Text as one JSON value with nothing but
  /// whitespace after it. On failure returns false and sets \p Err to a
  /// byte-offset diagnostic.
  static bool parse(const std::string &Text, JsonValue &Out,
                    std::string &Err);

  /// The wire layout: no whitespace at all.
  std::string compact() const;

  /// The document layout, ending in a newline. Objects and arrays put
  /// one member per line, indented two spaces per level, with ": "
  /// after keys — except that an array of scalars prints inline as
  /// `[1, 0]` (an empty array as `[]`), and an object that is an array
  /// element with no nested object prints on one line.
  std::string pretty() const;

private:
  friend class JsonParser;
  friend class JsonWriter;

  explicit JsonValue(Kind K) : K(K) {}

  Kind K = Kind::Null;
  bool BoolV = false;
  /// Integers keep sign and magnitude exactly; NumberV always holds the
  /// double value. Decimals < 0 writes a double with 17 digits.
  bool IsInt = false;
  bool Neg = false;
  int Decimals = -1;
  uint64_t IntV = 0;
  double NumberV = 0.0;
  std::string StringV;
  std::vector<JsonValue> ArrayV;
  std::vector<std::pair<std::string, JsonValue>> ObjectV;
};

/// Field lists. A struct's codec is one overload
/// `template <typename Visit> void visitFields(S &, Visit &&V)` in
/// namespace cundef calling V(key, field) for each member,
/// V(key, field, names) for an enum spelled through its name table,
/// and V(key, value, decimals) for a double. fieldsJson and readFields
/// below run it with a JsonFieldWriter or a JsonFieldReader, so the key
/// list exists once for both directions.
struct JsonFieldWriter {
  JsonValue Obj = JsonValue::object();

  template <typename T> void operator()(const char *Key, const T &Field) {
    if constexpr (std::is_enum_v<T>)
      Obj.set(Key, static_cast<std::underlying_type_t<T>>(Field));
    else
      Obj.set(Key, Field);
  }
  template <typename E, size_t N>
  void operator()(const char *Key, const E &Field,
                  const EnumName<E> (&Names)[N]) {
    Obj.set(Key, enumName(Names, Field));
  }
  void operator()(const char *Key, double Field, int Decimals) {
    Obj.set(Key, JsonValue(Field, Decimals));
  }
};

/// Reads a field list back with the wire's rules: an absent key keeps
/// the field's value, a mistyped boolean or string reads as absent, and
/// an integer that does not fit its field exactly or an unknown enum
/// name marks the object bad (ok() then reports the first such key).
class JsonFieldReader {
public:
  explicit JsonFieldReader(const JsonValue &Obj) : Obj(Obj) {}

  void operator()(const char *Key, bool &Field) {
    Field = Obj.getBool(Key, Field);
  }
  void operator()(const char *Key, std::string &Field) {
    if (const JsonValue *V = Obj.get(Key))
      Field = V->asString();
  }
  /// Integers, and enums carried as their underlying integer.
  template <typename T> void operator()(const char *Key, T &Field) {
    if constexpr (std::is_enum_v<T>) {
      auto Raw = static_cast<std::underlying_type_t<T>>(Field);
      if (check(Key, Obj.getInt(Key, Raw)))
        Field = static_cast<T>(Raw);
    } else {
      check(Key, Obj.getInt(Key, Field));
    }
  }
  template <typename E, size_t N>
  void operator()(const char *Key, E &Field, const EnumName<E> (&Names)[N]) {
    if (const JsonValue *V = Obj.get(Key))
      check(Key, enumFromName(Names, V->asString(), Field));
  }
  void operator()(const char *Key, double &Field, int /*Decimals*/) {
    Field = Obj.getDouble(Key, Field);
  }
  /// A derived value (passed as an rvalue) is written, never read.
  void operator()(const char *, double &&, int) {}

  /// False with a diagnostic naming \p What and the first bad key.
  bool ok(const char *What, std::string &Err) const;

private:
  const JsonValue &Obj;
  const char *BadKey = nullptr;

  bool check(const char *Key, bool Ok) {
    if (!Ok && !BadKey)
      BadKey = Key;
    return Ok;
  }
};

/// The object \p Value's field list describes. Field lists take their
/// struct mutably for the reader's sake; the writer only reads it.
template <typename S> JsonValue fieldsJson(const S &Value) {
  JsonFieldWriter W;
  visitFields(const_cast<S &>(Value), W);
  return std::move(W.Obj);
}

/// Reads \p V into \p Out through its field list; false with a
/// diagnostic naming \p What and the first bad key.
template <typename S>
bool readFields(const JsonValue &V, S &Out, const char *What,
                std::string &Err) {
  JsonFieldReader R(V);
  visitFields(Out, R);
  return R.ok(What, Err);
}

} // namespace cundef

#endif // CUNDEF_SUPPORT_JSON_H
