#ifndef CLASSMINER_UTIL_PARSE_H_
#define CLASSMINER_UTIL_PARSE_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "util/status.h"

namespace classminer::util {

// Strict base-10 parsing for command-line and request arguments: the whole
// text must be the number (no trailing characters), and the value must lie
// in [min_value, max_value]. Junk, empty text and out-of-range values yield
// kInvalidArgument "bad <what> '<text>'" instead of throwing or silently
// reading as 0.
StatusOr<int> ParseIntArg(const std::string& text, const std::string& what,
                          int min_value = -1000000, int max_value = 1000000);

// Unsigned 64-bit variant (seeds, byte counts). A leading sign or space is
// rejected, so "-1" cannot wrap around to 2^64 - 1.
StatusOr<uint64_t> ParseUint64Arg(const std::string& text,
                                  const std::string& what);

// Command-line glue for the binaries: stores a parsed flag value in *out,
// or prints the error to stderr and returns false so the caller answers
// with its usage instead of aborting or running on a default.
template <typename T, typename Out>
bool ParseFlag(const StatusOr<T>& parsed, Out* out) {
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().message().c_str());
    return false;
  }
  *out = static_cast<Out>(*parsed);
  return true;
}

}  // namespace classminer::util

#endif  // CLASSMINER_UTIL_PARSE_H_
