// Command-line flag helpers shared by the tools (magicrecsd,
// magicrecs_scrape): "--name=value" matching, one strict integer parser and
// one strict floating-point parser. Every numeric flag goes through them,
// so a malformed or out-of-range value is a usage error instead of a
// silently truncated number: "--port=70000" must not listen on 4464,
// "--max-inflight-per-conn=4k" must not mean 4, and
// "--mean-followees=nan" must not reach the graph generator.

#ifndef MAGICRECS_UTIL_FLAGS_H_
#define MAGICRECS_UTIL_FLAGS_H_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace magicrecs {

/// Parses "--name=value" into *value; false if arg is not --name=...
inline bool FlagValue(const char* arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

/// Parses all of `text` as a base-10 integer in [min, max]. No whitespace,
/// no '+', no suffix, no '-' for an unsigned T; a value the type cannot
/// hold is out of range, never wrapped. On failure *out is untouched.
template <typename T>
bool ParseInteger(std::string_view text, T* out,
                  std::type_identity_t<T> min = std::numeric_limits<T>::min(),
                  std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) {
    return false;
  }
  *out = value;
  return true;
}

/// Parses all of `text` as a finite decimal floating-point number. No
/// whitespace, no '+', no suffix; "inf", "nan" and values that overflow a
/// double are rejected. On failure *out is untouched.
inline bool ParseFiniteDouble(std::string_view text, double* out) {
  double value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

/// Prints "TOOL: invalid value for --FLAG: 'TEXT'" to stderr; returns
/// false so a flag parser can end with `|| InvalidFlag(...)`.
inline bool InvalidFlag(const char* tool, const char* flag,
                        const std::string& text) {
  std::fprintf(stderr, "%s: invalid value for --%s: '%s'\n", tool, flag,
               text.c_str());
  return false;
}

/// ParseInteger for a tool's flag: a bad value is reported by InvalidFlag.
template <typename T>
bool ParseIntegerFlag(
    const char* tool, const char* flag, const std::string& text, T* out,
    std::type_identity_t<T> min = std::numeric_limits<T>::min(),
    std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
  return ParseInteger(text, out, min, max) || InvalidFlag(tool, flag, text);
}

/// ParseFiniteDouble for a tool's flag: a bad value is reported by
/// InvalidFlag.
inline bool ParseFiniteDoubleFlag(const char* tool, const char* flag,
                                  const std::string& text, double* out) {
  return ParseFiniteDouble(text, out) || InvalidFlag(tool, flag, text);
}

}  // namespace magicrecs

#endif  // MAGICRECS_UTIL_FLAGS_H_
