//===- support/Json.cpp - The one JSON value, parser and writer -----------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

using namespace cundef;

const JsonValue *JsonValue::get(const std::string &Key) const {
  // Last occurrence wins (see header); objects here are tiny, so a
  // linear scan beats a map's allocations.
  const JsonValue *Found = nullptr;
  for (const auto &Member : ObjectV)
    if (Member.first == Key)
      Found = &Member.second;
  return Found;
}

bool JsonValue::getBool(const std::string &Key, bool Fallback) const {
  const JsonValue *V = get(Key);
  return V && V->K == Kind::Bool ? V->BoolV : Fallback;
}

double JsonValue::getDouble(const std::string &Key, double Fallback) const {
  const JsonValue *V = get(Key);
  return V && V->K == Kind::Number ? V->NumberV : Fallback;
}

uint64_t JsonValue::getU64(const std::string &Key, uint64_t Fallback) const {
  const JsonValue *V = get(Key);
  return V ? V->asU64(Fallback) : Fallback;
}

const std::string &JsonValue::getString(const std::string &Key) const {
  static const std::string Empty;
  const JsonValue *V = get(Key);
  return V ? V->asString() : Empty;
}

bool JsonFieldReader::ok(const char *What, std::string &Err) const {
  if (BadKey)
    Err = strFormat("%s field '%s' is out of range: not an integer that "
                    "fits the field, or an unknown name",
                    What, BadKey);
  return !BadKey;
}

namespace cundef {

/// The short string escapes as (letter, byte) pairs, shared by the
/// parser and the writer ('/' is only ever read).
constexpr char ShortEscapes[][2] = {{'"', '"'},  {'\\', '\\'}, {'/', '/'},
                                    {'b', '\b'}, {'f', '\f'},   {'n', '\n'},
                                    {'r', '\r'}, {'t', '\t'}};

/// Recursive-descent parser over a byte buffer. Depth is bounded so a
/// hostile frame of ten thousand '[' cannot blow the daemon's stack.
class JsonParser {
public:
  JsonParser(const std::string &Text, std::string &Err)
      : Text(Text), Err(Err) {}

  bool run(JsonValue &Out) {
    if (!value(Out, 0))
      return false;
    skipSpace();
    return Pos == Text.size() || fail("trailing bytes after the JSON value");
  }

private:
  static constexpr unsigned MaxDepth = 64;

  const std::string &Text;
  std::string &Err;
  size_t Pos = 0;

  bool fail(const char *Message) {
    Err = strFormat("JSON parse error at byte %zu: %s", Pos, Message);
    return false;
  }

  bool at(char C) const { return Pos < Text.size() && Text[Pos] == C; }
  bool eat(char C) { return at(C) && ++Pos; }
  bool digit() const {
    return Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9';
  }
  void digits() {
    while (digit())
      ++Pos;
  }
  void skipSpace() {
    while (at(' ') || at('\t') || at('\n') || at('\r'))
      ++Pos;
  }

  bool literal(const char *Word, JsonValue V, JsonValue &Out) {
    size_t Len = std::strlen(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return fail("invalid literal");
    Pos += Len;
    Out = std::move(V);
    return true;
  }

  bool value(JsonValue &Out, unsigned Depth) {
    skipSpace();
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    switch (Text[Pos]) {
    case '{':
    case '[':
      return container(Out, Depth);
    case '"':
      Out.K = JsonValue::Kind::String;
      return string(Out.StringV);
    case 't':
      return literal("true", true, Out);
    case 'f':
      return literal("false", false, Out);
    case 'n':
      return literal("null", JsonValue(), Out);
    default:
      return number(Out);
    }
  }

  /// An object or array: members separated by ',' up to the closer.
  bool container(JsonValue &Out, unsigned Depth) {
    bool IsObject = Text[Pos++] == '{';
    char Close = IsObject ? '}' : ']';
    Out.K = IsObject ? JsonValue::Kind::Object : JsonValue::Kind::Array;
    skipSpace();
    if (eat(Close))
      return true;
    do {
      JsonValue *Slot = nullptr;
      if (IsObject) {
        std::string Key;
        skipSpace();
        if (!at('"'))
          return fail("expected object key");
        if (!string(Key))
          return false;
        skipSpace();
        if (!eat(':'))
          return fail("expected ':' after object key");
        Out.ObjectV.emplace_back(std::move(Key), JsonValue());
        Slot = &Out.ObjectV.back().second;
      } else {
        Slot = &Out.ArrayV.emplace_back();
      }
      if (!value(*Slot, Depth + 1))
        return false;
      skipSpace();
    } while (eat(','));
    return eat(Close) || fail(IsObject ? "expected ',' or '}' in object"
                                       : "expected ',' or ']' in array");
  }

  bool hex4(unsigned &Code) {
    const char *First = Text.data() + Pos;
    const char *Last = First + std::min<size_t>(4, Text.size() - Pos);
    if (Last - First < 4 || std::from_chars(First, Last, Code, 16).ptr != Last)
      return fail("invalid \\u escape");
    Pos += 4;
    return true;
  }

  /// \uXXXX after the "\u": the byte-transparent convention maps
  /// \u00XX to the raw byte XX (the writer's inverse); higher code
  /// points, surrogate pairs combined, become UTF-8.
  bool unicodeEscape(std::string &Out) {
    unsigned Code = 0, Low = 0;
    if (!hex4(Code))
      return false;
    if (Code <= 0xFF) {
      Out += static_cast<char>(Code);
      return true;
    }
    if (Code >= 0xDC00 && Code <= 0xDFFF)
      return fail("unpaired low surrogate");
    if (Code >= 0xD800 && Code <= 0xDBFF) {
      if (Text.compare(Pos, 2, "\\u") != 0)
        return fail("unpaired high surrogate");
      Pos += 2;
      if (!hex4(Low))
        return false;
      if (Low < 0xDC00 || Low > 0xDFFF)
        return fail("unpaired high surrogate");
      Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
    }
    // Lead byte, then six payload bits per continuation byte.
    int Tail = Code < 0x800 ? 1 : Code < 0x10000 ? 2 : 3;
    static const unsigned char Lead[] = {0, 0xC0, 0xE0, 0xF0};
    Out += static_cast<char>(Lead[Tail] | (Code >> (6 * Tail)));
    for (int I = Tail - 1; I >= 0; --I)
      Out += static_cast<char>(0x80 | ((Code >> (6 * I)) & 0x3F));
    return true;
  }

  bool string(std::string &Out) {
    ++Pos; // '"'
    Out.clear();
    while (true) {
      // Copy the run of plain bytes up to the next quote, backslash or
      // control byte in one append.
      size_t Run = Pos;
      while (Run < Text.size() && Text[Run] != '"' && Text[Run] != '\\' &&
             static_cast<unsigned char>(Text[Run]) >= 0x20)
        ++Run;
      Out.append(Text, Pos, Run - Pos);
      Pos = Run;
      if (Pos >= Text.size())
        return fail("unterminated string");
      if (eat('"'))
        return true;
      if (!eat('\\'))
        return fail("raw control character in string");
      if (eat('u')) {
        if (!unicodeEscape(Out))
          return false;
        continue;
      }
      const char *Byte = nullptr;
      for (const auto &Escape : ShortEscapes)
        if (at(Escape[0]))
          Byte = &Escape[1];
      if (!Byte)
        return fail("invalid escape character");
      Out += *Byte;
      ++Pos;
    }
  }

  /// RFC 8259 numbers: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?.
  /// Integer forms that fit 64 bits keep their exact magnitude.
  bool number(JsonValue &Out) {
    size_t Start = Pos;
    bool Neg = eat('-');
    if (!digit())
      return fail("invalid number");
    if (!eat('0'))
      digits();
    size_t IntEnd = Pos;
    if (eat('.')) {
      if (!digit())
        return fail("missing digits after the decimal point");
      digits();
    }
    if (eat('e') || eat('E')) {
      if (!eat('+'))
        eat('-');
      if (!digit())
        return fail("missing exponent digits");
      digits();
    }
    Out.K = JsonValue::Kind::Number;
    const char *Last = Text.data() + IntEnd;
    std::from_chars_result Int =
        std::from_chars(Text.data() + Start + (Neg ? 1 : 0), Last, Out.IntV);
    if (Pos == IntEnd && Int.ec == std::errc() && Int.ptr == Last) {
      Out.IsInt = true;
      Out.Neg = Neg;
      Out.NumberV = Neg ? -static_cast<double>(Out.IntV)
                        : static_cast<double>(Out.IntV);
      return true;
    }
    Out.NumberV = std::strtod(Text.substr(Start, Pos - Start).c_str(),
                              nullptr);
    return std::isfinite(Out.NumberV) || fail("number out of range");
  }
};

class JsonWriter {
public:
  explicit JsonWriter(std::string &Out) : Out(Out) {}

  /// Writes \p V at \p Indent in the document layout (see
  /// JsonValue::pretty), or on one line when \p Indent < 0 — with
  /// \p Spaced picking ", " / ": " over the wire's bare "," / ":".
  void write(const JsonValue &V, int Indent, bool Spaced, bool ArrayItem) {
    bool IsArray = V.K == JsonValue::Kind::Array;
    if (!IsArray && V.K != JsonValue::Kind::Object)
      return scalar(V);
    if (Indent >= 0 && !nests(V, /*ObjectsOnly=*/!IsArray && ArrayItem))
      Indent = -1;
    size_t N = IsArray ? V.ArrayV.size() : V.ObjectV.size();
    Out += IsArray ? '[' : '{';
    for (size_t I = 0; I < N; ++I) {
      if (I)
        Out += Spaced && Indent < 0 ? ", " : ",";
      if (Indent >= 0) {
        Out += '\n';
        Out.append(Indent + 2, ' ');
      }
      if (!IsArray) {
        string(V.ObjectV[I].first);
        Out += Spaced ? ": " : ":";
      }
      write(IsArray ? V.ArrayV[I] : V.ObjectV[I].second,
            Indent < 0 ? -1 : Indent + 2, Spaced, IsArray);
    }
    if (Indent >= 0) {
      Out += '\n';
      Out.append(Indent, ' ');
    }
    Out += IsArray ? ']' : '}';
  }

private:
  std::string &Out;

  /// Whether a document-layout container needs lines of its own: an
  /// array that holds a container, or an object that holds one — only
  /// an object below it when \p ObjectsOnly (an array item).
  static bool nests(const JsonValue &V, bool ObjectsOnly) {
    auto Nested = [&](const JsonValue &C) {
      return C.K == JsonValue::Kind::Object ||
             (C.K == JsonValue::Kind::Array &&
              (!ObjectsOnly || nests(C, true)));
    };
    for (const JsonValue &Item : V.ArrayV)
      if (Nested(Item))
        return true;
    for (const auto &Member : V.ObjectV)
      if (!ObjectsOnly || Nested(Member.second))
        return true;
    return false;
  }

  void scalar(const JsonValue &V) {
    switch (V.K) {
    case JsonValue::Kind::String:
      return string(V.StringV);
    case JsonValue::Kind::Bool:
      Out += V.BoolV ? "true" : "false";
      return;
    case JsonValue::Kind::Number:
      if (V.IsInt) {
        if (V.Neg && V.IntV)
          Out += '-';
        Out += std::to_string(V.IntV);
      } else if (!std::isfinite(V.NumberV)) {
        Out += "null"; // JSON has no spelling for NaN or infinity
      } else if (V.Decimals >= 0) {
        Out += strFormat("%.*f", V.Decimals, V.NumberV);
      } else {
        Out += strFormat("%.17g", V.NumberV);
      }
      return;
    default:
      Out += "null";
    }
  }

  /// Byte-transparent escaping: subject programs of a UB checker emit
  /// arbitrary bytes, and a raw non-UTF-8 byte would make the whole
  /// document unparseable (RFC 8259 mandates UTF-8). Every non-ASCII
  /// byte becomes \u00XX, so output is pure ASCII and consumers
  /// recover the exact bytes by latin-1-encoding the decoded string
  /// (documented in docs/JSON_OUTPUT.md).
  void string(const std::string &S) {
    static const char Hex[] = "0123456789abcdef";
    Out += '"';
    size_t Run = 0;
    for (size_t I = 0; I < S.size(); ++I) {
      unsigned char C = static_cast<unsigned char>(S[I]);
      if (C >= 0x20 && C < 0x7f && C != '"' && C != '\\')
        continue;
      Out.append(S, Run, I - Run);
      Run = I + 1;
      char Letter = 0;
      for (const auto &Escape : ShortEscapes)
        if (static_cast<unsigned char>(Escape[1]) == C)
          Letter = Escape[0];
      if (Letter) {
        Out += '\\';
        Out += Letter;
      } else {
        Out += "\\u00";
        Out += Hex[C >> 4];
        Out += Hex[C & 0xF];
      }
    }
    Out.append(S, Run, S.size() - Run);
    Out += '"';
  }
};

} // namespace cundef

bool JsonValue::parse(const std::string &Text, JsonValue &Out,
                      std::string &Err) {
  Out = JsonValue();
  return JsonParser(Text, Err).run(Out);
}

std::string JsonValue::compact() const {
  std::string Out;
  JsonWriter(Out).write(*this, -1, /*Spaced=*/false, false);
  return Out;
}

std::string JsonValue::pretty() const {
  std::string Out;
  JsonWriter(Out).write(*this, 0, /*Spaced=*/true, false);
  Out += '\n';
  return Out;
}
