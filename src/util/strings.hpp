// String helpers: formatting for the ASCII reports the bench harnesses
// print, and the strict numeric field parser the text DSLs share.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace hs {

/// Fixed-point decimal, e.g. format_fixed(0.6312, 2) == "0.63".
std::string format_fixed(double value, int decimals);

/// "HH:MM" for the time-of-day of a SimTime instant.
std::string format_clock(SimTime t);

/// "Xd HH:MM" mission timestamp (1-based day).
std::string format_mission_time(SimTime t);

/// Join items with a separator.
std::string join(const std::vector<std::string>& items, const std::string& sep);

/// Left/right padding to a given width (truncates if longer).
std::string pad_right(const std::string& s, std::size_t width);
std::string pad_left(const std::string& s, std::size_t width);

/// Strict whole-token decimal parse (std::from_chars): `text` must be
/// exactly one number in range of the target type — no whitespace, no
/// trailing junk, no sign on an unsigned, and a finite double. On failure
/// returns false and leaves `out` untouched. The fault-plan and campaign
/// DSLs read every numeric field through these.
bool parse_number(std::string_view text, int& out);
bool parse_number(std::string_view text, std::int64_t& out);
bool parse_number(std::string_view text, std::uint64_t& out);
bool parse_number(std::string_view text, double& out);

}  // namespace hs
