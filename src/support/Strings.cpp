//===- support/Strings.cpp - String helpers ------------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "support/Strings.h"

#include <cstdio>

using namespace cundef;

std::string cundef::strFormat(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::string Result = strFormatV(Fmt, Args);
  va_end(Args);
  return Result;
}

std::string cundef::strFormatV(const char *Fmt, va_list Args) {
  va_list Copy;
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  if (Needed <= 0)
    return std::string();
  std::string Result(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, Args);
  return Result;
}

bool cundef::startsWith(const std::string &Text, const std::string &Prefix) {
  return Text.size() >= Prefix.size() &&
         Text.compare(0, Prefix.size(), Prefix) == 0;
}

std::string cundef::escapeForDisplay(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (unsigned char C : Text) {
    switch (C) {
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '"':
      Out += "\\\"";
      break;
    default:
      if (C < 0x20 || C >= 0x7f)
        Out += strFormat("\\x%02x", C);
      else
        Out += static_cast<char>(C);
    }
  }
  return Out;
}

std::string cundef::padRight(const std::string &Text, size_t Width) {
  if (Text.size() >= Width)
    return Text.substr(0, Width);
  return Text + std::string(Width - Text.size(), ' ');
}

std::string cundef::padLeft(const std::string &Text, size_t Width) {
  if (Text.size() >= Width)
    return Text.substr(0, Width);
  return std::string(Width - Text.size(), ' ') + Text;
}

bool cundef::parseUnsigned(const char *Text, unsigned &Out) {
  if (!Text || !*Text)
    return false;
  unsigned long long Value = 0;
  for (const char *P = Text; *P; ++P) {
    if (*P < '0' || *P > '9')
      return false;
    Value = Value * 10 + static_cast<unsigned long long>(*P - '0');
    if (Value > 0xffffffffull)
      return false;
  }
  Out = static_cast<unsigned>(Value);
  return true;
}
