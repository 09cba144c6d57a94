#include "util/content_hash.hpp"

#include <cstdint>

namespace ifsyn {

namespace {

/// FNV-1a over `text`, starting from `h`.
std::uint64_t fnv1a(std::uint64_t h, std::string_view text) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void append_hex64(std::string& out, std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += digits[(v >> shift) & 0xF];
  }
}

}  // namespace

std::string content_hash(std::string_view text) {
  std::string out;
  append_hex64(out, fnv1a(14695981039346656037ull, text));
  append_hex64(out, fnv1a(0x9e3779b97f4a7c15ull, text));
  out += '-';
  out += std::to_string(text.size());
  return out;
}

}  // namespace ifsyn
