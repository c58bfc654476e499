#ifndef HERMES_COMMON_STRINGS_H_
#define HERMES_COMMON_STRINGS_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace hermes {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> SplitString(const std::string& text, char sep);

/// Joins `parts` with `sep`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        const std::string& sep);

/// Strips leading and trailing ASCII whitespace.
std::string TrimString(const std::string& text);

/// ASCII lower-casing.
std::string ToLower(const std::string& text);

/// True when `text` begins with `prefix`.
bool StartsWith(const std::string& text, const std::string& prefix);

/// Converts all of `text` with std::from_chars (no leading whitespace or
/// '+'). False, leaving `*out` unspecified, when `text` is not a number of
/// that type, has trailing characters, or is out of the type's range.
template <typename Number>
bool ParseNumber(std::string_view text, Number* out) {
  const char* last = text.data() + text.size();
  const std::from_chars_result converted =
      std::from_chars(text.data(), last, *out);
  return converted.ec == std::errc() && converted.ptr == last;
}

}  // namespace hermes

#endif  // HERMES_COMMON_STRINGS_H_
