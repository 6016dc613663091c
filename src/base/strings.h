// String utilities shared across the library.
//
// Plan 9 code leans heavily on a small set of string helpers (getfields,
// tokenize) for parsing ASCII control messages, ndb entries, and network
// addresses.  These are faithful ports with C++ types.
#ifndef SRC_BASE_STRINGS_H_
#define SRC_BASE_STRINGS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace plan9 {

// Split `s` at any rune in `delims`.  Like Plan 9 getfields(): when
// `collapse` is true adjacent delimiters produce no empty fields (the
// tokenize() behaviour); when false every delimiter separates two fields.
std::vector<std::string> GetFields(std::string_view s, std::string_view delims,
                                   bool collapse = true);

// Split on unquoted whitespace, honouring Plan 9 rc-style '' quoting.  Used
// for ctl messages such as `connect 135.104.9.31!564`.
std::vector<std::string> Tokenize(std::string_view s);

// Leading+trailing whitespace removed.
std::string_view TrimSpace(std::string_view s);

bool HasPrefix(std::string_view s, std::string_view prefix);

// Parse an unsigned/signed decimal number; nullopt on any trailing garbage.
std::optional<uint64_t> ParseU64(std::string_view s);
std::optional<int64_t> ParseI64(std::string_view s);

// printf into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Join `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Path cleaning in the style of Plan 9 cleanname(): collapses //, resolves
// "." and "..", preserves a leading '/' or '#'.
std::string CleanName(std::string_view path);

}  // namespace plan9

#endif  // SRC_BASE_STRINGS_H_
