//===- libc/Headers.cpp - Virtual standard headers ----------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "libc/Headers.h"

using namespace cundef;

// The sizes and limits below are those of the default LP64 TargetConfig,
// and every target includes these same headers. Under --target=ilp32 or
// --target=wideint they contradict the machine's type widths, and
// verdicts change: with 8-byte ints (wideint) `INT_MAX + 1` no longer
// overflows, and under ilp32 `(long)LONG_MAX` is -1 because the macro is
// a `long long` constant there. Translated header preludes
// (frontend/Prelude.h) are keyed by the target fingerprint as well as
// the header names, so per-target header texts compose with them.

static const char StddefH[] = R"(
#ifndef _CUNDEF_STDDEF_H
#define _CUNDEF_STDDEF_H
typedef unsigned long size_t;
typedef long ptrdiff_t;
#define NULL ((void*)0)
#define offsetof(T, member) ((size_t)&(((T*)0)->member))
#endif
)";

static const char StdlibH[] = R"(
#ifndef _CUNDEF_STDLIB_H
#define _CUNDEF_STDLIB_H
#include <stddef.h>
void *malloc(size_t size);
void *calloc(size_t count, size_t size);
void *realloc(void *ptr, size_t size);
void free(void *ptr);
void abort(void);
void exit(int status);
int abs(int value);
long labs(long value);
int rand(void);
void srand(unsigned int seed);
int atoi(const char *text);
void qsort(void *base, size_t count, size_t size,
           int (*compare)(const void *, const void *));
void *bsearch(const void *key, const void *base, size_t count,
              size_t size, int (*compare)(const void *, const void *));
#define RAND_MAX 32767
#define EXIT_SUCCESS 0
#define EXIT_FAILURE 1
#endif
)";

static const char StringH[] = R"(
#ifndef _CUNDEF_STRING_H
#define _CUNDEF_STRING_H
#include <stddef.h>
void *memcpy(void *dst, const void *src, size_t len);
void *memmove(void *dst, const void *src, size_t len);
void *memset(void *dst, int value, size_t len);
int memcmp(const void *a, const void *b, size_t len);
size_t strlen(const char *s);
char *strcpy(char *dst, const char *src);
char *strncpy(char *dst, const char *src, size_t len);
int strcmp(const char *a, const char *b);
int strncmp(const char *a, const char *b, size_t len);
char *strchr(const char *s, int c);
char *strcat(char *dst, const char *src);
#endif
)";

static const char StdioH[] = R"(
#ifndef _CUNDEF_STDIO_H
#define _CUNDEF_STDIO_H
#include <stddef.h>
int printf(const char *format, ...);
int sprintf(char *dst, const char *format, ...);
int snprintf(char *dst, size_t limit, const char *format, ...);
int putchar(int c);
int puts(const char *s);
#define EOF (-1)
#endif
)";

static const char LimitsH[] = R"(
#ifndef _CUNDEF_LIMITS_H
#define _CUNDEF_LIMITS_H
#define CHAR_BIT 8
#define SCHAR_MIN (-128)
#define SCHAR_MAX 127
#define UCHAR_MAX 255
#define CHAR_MIN SCHAR_MIN
#define CHAR_MAX SCHAR_MAX
#define SHRT_MIN (-32768)
#define SHRT_MAX 32767
#define USHRT_MAX 65535
#define INT_MIN (-INT_MAX - 1)
#define INT_MAX 2147483647
#define UINT_MAX 4294967295u
#define LONG_MIN (-LONG_MAX - 1L)
#define LONG_MAX 9223372036854775807L
#define ULONG_MAX 18446744073709551615ul
#define LLONG_MIN (-LLONG_MAX - 1LL)
#define LLONG_MAX 9223372036854775807LL
#define ULLONG_MAX 18446744073709551615ull
#endif
)";

static const char StdboolH[] = R"(
#ifndef _CUNDEF_STDBOOL_H
#define _CUNDEF_STDBOOL_H
#define bool _Bool
#define true 1
#define false 0
#endif
)";

// va_list is an index into the active call's variadic tail; va_arg
// materializes the next argument into a cell typed with the argument's
// *actual* (promoted) type, so reading it with an incompatible type
// trips the effective-type rule -- C11 7.16.1.1p2's undefinedness.
static const char AssertH[] = R"(
#ifndef _CUNDEF_ASSERT_H
#define _CUNDEF_ASSERT_H
#include <stdlib.h>
#ifdef NDEBUG
#define assert(ignored) ((void)0)
#else
#define assert(condition) ((condition) ? (void)0 : abort())
#endif
#endif
)";

static const char CtypeH[] = R"(
#ifndef _CUNDEF_CTYPE_H
#define _CUNDEF_CTYPE_H
#define isdigit(c) ((c) >= '0' && (c) <= '9')
#define isupper(c) ((c) >= 'A' && (c) <= 'Z')
#define islower(c) ((c) >= 'a' && (c) <= 'z')
#define isalpha(c) (isupper(c) || islower(c))
#define isalnum(c) (isalpha(c) || isdigit(c))
#define isspace(c) ((c) == ' ' || (c) == '\t' || (c) == '\n' || \
                    (c) == '\r' || (c) == '\v' || (c) == '\f')
#define toupper(c) (islower(c) ? (c) - 'a' + 'A' : (c))
#define tolower(c) (isupper(c) ? (c) - 'A' + 'a' : (c))
#endif
)";

static const char StdargH[] = R"(
#ifndef _CUNDEF_STDARG_H
#define _CUNDEF_STDARG_H
typedef int va_list;
void *__cundef_va_arg(int index);
#define va_start(ap, last) ((ap) = 0)
#define va_arg(ap, type) (*(type*)__cundef_va_arg((ap)++))
#define va_end(ap) ((void)(ap))
#define va_copy(dst, src) ((dst) = (src))
#endif
)";

void cundef::registerStandardHeaders(HeaderRegistry &Registry) {
  Registry.add("stddef.h", StddefH);
  Registry.add("stdlib.h", StdlibH);
  Registry.add("string.h", StringH);
  Registry.add("stdio.h", StdioH);
  Registry.add("limits.h", LimitsH);
  Registry.add("stdbool.h", StdboolH);
  Registry.add("stdarg.h", StdargH);
  Registry.add("assert.h", AssertH);
  Registry.add("ctype.h", CtypeH);
}
