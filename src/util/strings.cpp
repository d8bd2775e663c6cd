#include "util/strings.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace hs {
namespace {

template <typename T>
bool parse_whole(std::string_view text, T& out) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) return false;
  out = v;
  return true;
}

}  // namespace

std::string format_fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string format_clock(SimTime t) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%02d:%02d", hour_of_day(t), minute_of_hour(t));
  return buf;
}

std::string format_mission_time(SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%dd %02d:%02d", mission_day(t), hour_of_day(t), minute_of_hour(t));
  return buf;
}

std::string join(const std::vector<std::string>& items, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s.substr(0, width);
  return s + std::string(width - s.size(), ' ');
}

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s.substr(0, width);
  return std::string(width - s.size(), ' ') + s;
}

bool parse_number(std::string_view text, int& out) { return parse_whole(text, out); }
bool parse_number(std::string_view text, std::int64_t& out) { return parse_whole(text, out); }
bool parse_number(std::string_view text, std::uint64_t& out) { return parse_whole(text, out); }

bool parse_number(std::string_view text, double& out) {
  double v = 0.0;
  if (!parse_whole(text, v) || !std::isfinite(v)) return false;
  out = v;
  return true;
}

}  // namespace hs
