#include "util/parse.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace classminer::util {
namespace {

Status BadArg(const std::string& text, const std::string& what) {
  return Status::InvalidArgument("bad " + what + " '" + text + "'");
}

}  // namespace

StatusOr<int> ParseIntArg(const std::string& text, const std::string& what,
                          int min_value, int max_value) {
  // strtol would skip leading whitespace and stop at an embedded NUL; the
  // whole text must be the number.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return BadArg(text, what);
  }
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size() ||
      value < min_value || value > max_value) {
    return BadArg(text, what);
  }
  return static_cast<int>(value);
}

StatusOr<uint64_t> ParseUint64Arg(const std::string& text,
                                  const std::string& what) {
  if (text.empty() || text[0] < '0' || text[0] > '9') {
    return BadArg(text, what);
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) {
    return BadArg(text, what);
  }
  return static_cast<uint64_t>(value);
}

}  // namespace classminer::util
