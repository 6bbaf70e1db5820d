#include "core/strings.hpp"

#include <cctype>

namespace mcsd {

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string_view> split_whitespace(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  const std::size_t n = text.size();
  while (i < n) {
    while (i < n && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    const std::size_t start = i;
    while (i < n && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) out.push_back(text.substr(start, i - start));
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string to_lower(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::size_t find_substring(std::string_view text, std::string_view needle,
                           std::size_t from) noexcept {
  const std::size_t n = text.size();
  const std::size_t m = needle.size();
  if (m == 0) return from <= n ? from : std::string_view::npos;
  if (m > n || from > n - m) return std::string_view::npos;
  const char* const data = text.data();
  const char* const nd = needle.data();
  // Bytes 0 and m-1 are tested by the block compare; memcmp confirms the
  // ones between.
  const auto confirm = [&](std::size_t at) {
    return m <= 2 || std::memcmp(data + at + 1, nd + 1, m - 2) == 0;
  };

  const swar::u8x16 first = swar::u8x16{} + static_cast<std::uint8_t>(nd[0]);
  const swar::u8x16 last =
      swar::u8x16{} + static_cast<std::uint8_t>(nd[m - 1]);
  std::size_t i = from;
  // A block tests starts i..i+15, so it reads up to data[i + m + 14].
  for (; i + m + 15 <= n; i += 16) {
    const auto cand = reinterpret_cast<swar::u8x16>(
        (swar::load16(data + i) == first) &
        (swar::load16(data + i + m - 1) == last));
    // Most blocks hold no candidate; skip the gather for them.
    std::uint64_t half[2];
    std::memcpy(half, &cand, sizeof(half));
    if ((half[0] | half[1]) == 0) continue;
    std::uint32_t hits = swar::movemask16(cand);
    while (hits != 0) {
      const std::size_t at =
          i + static_cast<std::size_t>(std::countr_zero(hits));
      if (confirm(at)) return at;
      hits &= hits - 1;
    }
  }
  for (; i + m <= n; ++i) {
    if (data[i] == nd[0] && data[i + m - 1] == nd[m - 1] && confirm(i)) {
      return i;
    }
  }
  return std::string_view::npos;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace mcsd
