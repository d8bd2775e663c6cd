#include "faults/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <sstream>

#include "util/strings.hpp"

namespace hs::faults {
namespace {

using dsl::format_duration;
using dsl::format_number;
using dsl::format_time;
using dsl::parse_duration;
using dsl::parse_time;

constexpr FaultKind kAllKinds[] = {
    FaultKind::kBatteryDeath,     FaultKind::kSdWriteFailure, FaultKind::kBinlogTruncation,
    FaultKind::kBeaconOutage,     FaultKind::kRadioDegradation, FaultKind::kClockStep,
    FaultKind::kBadgeSwap,        FaultKind::kPartition,
};
static_assert(std::size(kAllKinds) == kFaultKindCount,
              "every FaultKind needs a DSL entry in kAllKinds");

/// "0,1,2|3,4" — the two node groups of a partition.
std::string format_groups(const std::vector<int>& a, const std::vector<int>& b) {
  return dsl::format_int_list(a) + '|' + dsl::format_int_list(b);
}

bool parse_groups(std::string_view text, std::vector<int>& a, std::vector<int>& b) {
  const auto bar = text.find('|');
  if (bar == std::string_view::npos) return false;
  return dsl::parse_int_list(text.substr(0, bar), a) &&
         dsl::parse_int_list(text.substr(bar + 1), b);
}

}  // namespace

namespace dsl {

std::string format_time(SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%dd%02d:%02d", mission_day(t), hour_of_day(t),
                minute_of_hour(t));
  return buf;
}

std::string format_duration(SimDuration d) {
  const auto secs = d / kSecond;
  char buf[32];
  if (secs % 3600 == 0) {
    std::snprintf(buf, sizeof(buf), "%lldh", static_cast<long long>(secs / 3600));
  } else if (secs % 60 == 0) {
    std::snprintf(buf, sizeof(buf), "%lldm", static_cast<long long>(secs / 60));
  } else {
    std::snprintf(buf, sizeof(buf), "%llds", static_cast<long long>(secs));
  }
  return buf;
}

std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string format_int_list(const std::vector<int>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(v[i]);
  }
  return out;
}

bool parse_time(std::string_view text, SimTime& out) {
  // The last day whose 23:59 still fits in a SimTime.
  constexpr std::int64_t kLastDay = std::numeric_limits<SimTime>::max() / kDay;
  const auto d = text.find('d');
  const auto colon = text.find(':');
  if (d == std::string_view::npos || colon == std::string_view::npos || colon < d) return false;
  int day = 0;
  int hh = 0;
  int mm = 0;
  if (!parse_number(text.substr(0, d), day) ||
      !parse_number(text.substr(d + 1, colon - d - 1), hh) ||
      !parse_number(text.substr(colon + 1), mm)) {
    return false;
  }
  if (day < 1 || day > kLastDay || hh < 0 || hh > 23 || mm < 0 || mm > 59) return false;
  out = day_start(day) + hours(hh) + minutes(mm);
  return true;
}

bool parse_duration(std::string_view text, SimDuration& out) {
  if (text.empty()) return false;
  SimDuration unit = 0;
  switch (text.back()) {
    case 'h': unit = kHour; break;
    case 'm': unit = kMinute; break;
    case 's': unit = kSecond; break;
    default: return false;
  }
  std::int64_t n = 0;
  if (!parse_number(text.substr(0, text.size() - 1), n) || n < 0 ||
      n > std::numeric_limits<SimDuration>::max() / unit) {
    return false;
  }
  out = n * unit;
  return true;
}

bool parse_int_list(std::string_view text, std::vector<int>& out) {
  out.clear();
  std::size_t from = 0;
  while (true) {
    const auto comma = text.find(',', from);
    int v = 0;
    if (!parse_number(text.substr(from, comma - from), v) || v < 0) return false;
    out.push_back(v);
    if (comma == std::string_view::npos) return true;
    from = comma + 1;
  }
}

}  // namespace dsl

const char* kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kBatteryDeath:
      return "battery-death";
    case FaultKind::kSdWriteFailure:
      return "sd-write-failure";
    case FaultKind::kBinlogTruncation:
      return "binlog-truncation";
    case FaultKind::kBeaconOutage:
      return "beacon-outage";
    case FaultKind::kRadioDegradation:
      return "radio-degradation";
    case FaultKind::kClockStep:
      return "clock-step";
    case FaultKind::kBadgeSwap:
      return "badge-swap";
    case FaultKind::kPartition:
      return "partition";
  }
  return "?";
}

void FaultPlan::apply_to_script(crew::MissionScript& script) const {
  for (const auto& f : faults_) {
    if (f.kind != FaultKind::kBadgeSwap) continue;
    script.badge_swap_day = f.day;
    script.badge_swap_a = f.astronaut_a;
    script.badge_swap_b = f.astronaut_b;
  }
}

std::string FaultPlan::to_string() const {
  std::ostringstream out;
  if (!name_.empty()) out << "plan " << name_ << "\n";
  for (const auto& f : faults_) {
    out << kind_name(f.kind);
    switch (f.kind) {
      case FaultKind::kBatteryDeath:
      case FaultKind::kSdWriteFailure:
        out << " badge=" << f.badge << " at=" << format_time(f.start);
        if (f.duration > 0) out << " for=" << format_duration(f.duration);
        break;
      case FaultKind::kBinlogTruncation:
        out << " badge=" << f.badge << " frac=" << format_number(f.magnitude);
        break;
      case FaultKind::kBeaconOutage:
        out << " beacon=" << f.beacon << " at=" << format_time(f.start);
        if (f.duration > 0) out << " for=" << format_duration(f.duration);
        break;
      case FaultKind::kRadioDegradation:
        out << " band=" << (f.band == io::Band::kBle24 ? "ble" : "subghz")
            << " at=" << format_time(f.start);
        if (f.duration > 0) out << " for=" << format_duration(f.duration);
        out << " db=" << format_number(f.magnitude);
        break;
      case FaultKind::kClockStep:
        out << " badge=" << f.badge << " at=" << format_time(f.start)
            << " ms=" << format_number(f.magnitude);
        break;
      case FaultKind::kBadgeSwap:
        out << " day=" << f.day << " a=" << f.astronaut_a << " b=" << f.astronaut_b;
        break;
      case FaultKind::kPartition:
        out << " at=" << format_time(f.start);
        if (f.duration > 0) out << " for=" << format_duration(f.duration);
        out << " groups=" << format_groups(f.group_a, f.group_b);
        break;
    }
    out << "\n";
  }
  return out.str();
}

Expected<FaultPlan> FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  const auto fail = [&](const std::string& why) {
    return Error{"faults: line " + std::to_string(line_no) + ": " + why};
  };
  while (std::getline(lines, line)) {
    ++line_no;
    std::istringstream tokens(line);
    std::string head;
    if (!(tokens >> head) || head[0] == '#') continue;
    if (head == "plan") {
      std::string extra;
      if (!(tokens >> plan.name_)) return fail("plan needs a name");
      if (tokens >> extra) return fail("trailing tokens after 'plan " + plan.name_ + "'");
      continue;
    }
    FaultSpec spec;
    bool known = false;
    for (const FaultKind k : kAllKinds) {
      if (head == kind_name(k)) {
        spec.kind = k;
        known = true;
        break;
      }
    }
    if (!known) return fail("unknown fault kind '" + head + "'");

    std::string kv;
    while (tokens >> kv) {
      const auto eq = kv.find('=');
      if (eq == std::string::npos) return fail("expected key=value, got '" + kv + "'");
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      const auto bad_number = [&] { return fail("bad " + key + " '" + value + "'"); };
      if (key == "badge" || key == "beacon") {
        // The injector addresses devices by 8-bit id (io::BadgeId,
        // io::BeaconId): a wider value would wrap onto another device.
        int id = 0;
        if (!parse_number(value, id)) return bad_number();
        if (id < 0 || id > 255) return fail(key + " " + value + " out of [0, 255]");
        (key == "badge" ? spec.badge : spec.beacon) = id;
      } else if (key == "at") {
        if (!parse_time(value, spec.start)) return fail("bad time '" + value + "'");
      } else if (key == "for") {
        if (!parse_duration(value, spec.duration)) return fail("bad duration '" + value + "'");
      } else if (key == "db" || key == "ms" || key == "frac") {
        if (!parse_number(value, spec.magnitude)) return bad_number();
      } else if (key == "band") {
        if (value == "ble") {
          spec.band = io::Band::kBle24;
        } else if (value == "subghz") {
          spec.band = io::Band::kSubGhz868;
        } else {
          return fail("bad band '" + value + "'");
        }
      } else if (key == "groups") {
        if (!parse_groups(value, spec.group_a, spec.group_b)) {
          return fail("bad groups '" + value + "'");
        }
      } else if (key == "day") {
        if (!parse_number(value, spec.day)) return bad_number();
      } else if (key == "a" || key == "b") {
        std::uint64_t astronaut = 0;
        if (!parse_number(value, astronaut)) return bad_number();
        (key == "a" ? spec.astronaut_a : spec.astronaut_b) = astronaut;
      } else {
        return fail("unknown key '" + key + "'");
      }
    }
    if (spec.kind == FaultKind::kBinlogTruncation &&
        (spec.magnitude < 0.0 || spec.magnitude > 1.0)) {
      return fail("frac must be in [0,1]");
    }
    if (spec.kind == FaultKind::kPartition) {
      if (spec.group_a.empty() || spec.group_b.empty()) {
        return fail("partition needs groups=<ids>|<ids>");
      }
      // A node on both sides of a severed link is contradictory; reject it
      // here rather than letting the injector partition a node from itself.
      std::vector<int> a = spec.group_a;
      std::vector<int> b = spec.group_b;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      std::vector<int> both;
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(both));
      if (!both.empty()) {
        return fail("partition groups overlap (node " + std::to_string(both.front()) + ")");
      }
    }
    plan.faults_.push_back(spec);
  }
  return plan;
}

FaultPlan FaultPlan::day9_badge_swap() {
  FaultPlan plan("day9-badge-swap");
  FaultSpec swap;
  swap.kind = FaultKind::kBadgeSwap;
  swap.day = 9;
  swap.astronaut_a = 0;
  swap.astronaut_b = 1;
  return plan.add(swap);
}

FaultPlan FaultPlan::battery_stress() {
  FaultPlan plan("battery-stress");
  FaultSpec death;
  death.kind = FaultKind::kBatteryDeath;
  death.badge = 3;
  death.start = day_start(3) + hours(14);
  death.duration = hours(36);
  return plan.add(death);
}

FaultPlan FaultPlan::storage_stress() {
  FaultPlan plan("storage-stress");
  FaultSpec blackout;
  blackout.kind = FaultKind::kSdWriteFailure;
  blackout.badge = 1;
  blackout.start = day_start(5) + hours(6);
  blackout.duration = hours(18);
  plan.add(blackout);
  FaultSpec truncation;
  truncation.kind = FaultKind::kBinlogTruncation;
  truncation.badge = 4;
  truncation.magnitude = 0.25;
  return plan.add(truncation);
}

FaultPlan FaultPlan::infrastructure_stress() {
  FaultPlan plan("infrastructure-stress");
  FaultSpec outage;
  outage.kind = FaultKind::kBeaconOutage;
  outage.beacon = 12;
  outage.start = day_start(4) + hours(10);
  outage.duration = hours(6);
  plan.add(outage);
  FaultSpec degradation;
  degradation.kind = FaultKind::kRadioDegradation;
  degradation.band = io::Band::kBle24;
  degradation.start = day_start(7) + hours(12);
  degradation.duration = hours(8);
  degradation.magnitude = 15.0;
  return plan.add(degradation);
}

FaultPlan FaultPlan::clock_anomalies() {
  FaultPlan plan("clock-anomalies");
  FaultSpec step;
  step.kind = FaultKind::kClockStep;
  step.badge = 2;
  step.start = day_start(7) + hours(3);
  step.magnitude = 5000.0;
  return plan.add(step);
}

FaultPlan FaultPlan::mesh_partition() {
  FaultPlan plan("mesh-partition");
  FaultSpec split;
  split.kind = FaultKind::kPartition;
  split.start = day_start(6) + hours(9);
  split.duration = hours(8);
  for (int id = 0; id < 14; ++id) split.group_a.push_back(id);
  for (int id = 14; id < 28; ++id) split.group_b.push_back(id);
  return plan.add(split);
}

FaultPlan FaultPlan::combined(std::uint64_t seed) {
  Rng rng(seed);
  FaultPlan plan("combined-" + std::to_string(seed));

  FaultSpec death;
  death.kind = FaultKind::kBatteryDeath;
  death.badge = static_cast<int>(rng.uniform_int(0, 5));
  death.start = day_start(static_cast<int>(rng.uniform_int(3, 10))) +
                hours(rng.uniform_int(8, 18));
  death.duration = hours(rng.uniform_int(12, 48));
  plan.add(death);

  FaultSpec blackout;
  blackout.kind = FaultKind::kSdWriteFailure;
  blackout.badge = static_cast<int>(rng.uniform_int(0, 5));
  blackout.start = day_start(static_cast<int>(rng.uniform_int(3, 12))) +
                   hours(rng.uniform_int(0, 12));
  blackout.duration = hours(rng.uniform_int(4, 24));
  plan.add(blackout);

  FaultSpec truncation;
  truncation.kind = FaultKind::kBinlogTruncation;
  truncation.badge = static_cast<int>(rng.uniform_int(0, 5));
  // Magnitudes quantize to what the DSL prints (%g, 6 significant
  // digits) so seeded plans round-trip byte-for-byte.
  truncation.magnitude = std::round((0.05 + 0.25 * rng.uniform()) * 100.0) / 100.0;
  plan.add(truncation);

  FaultSpec outage;
  outage.kind = FaultKind::kBeaconOutage;
  outage.beacon = static_cast<int>(rng.uniform_int(0, 26));
  outage.start = day_start(static_cast<int>(rng.uniform_int(2, 13))) +
                 hours(rng.uniform_int(0, 18));
  outage.duration = hours(rng.uniform_int(2, 12));
  plan.add(outage);

  FaultSpec degradation;
  degradation.kind = FaultKind::kRadioDegradation;
  degradation.band = rng.bernoulli(0.5) ? io::Band::kBle24 : io::Band::kSubGhz868;
  degradation.start = day_start(static_cast<int>(rng.uniform_int(2, 13))) +
                      hours(rng.uniform_int(0, 18));
  degradation.duration = hours(rng.uniform_int(2, 12));
  degradation.magnitude = std::round((8.0 + 12.0 * rng.uniform()) * 10.0) / 10.0;
  plan.add(degradation);

  FaultSpec step;
  step.kind = FaultKind::kClockStep;
  step.badge = static_cast<int>(rng.uniform_int(0, 5));
  step.start = day_start(static_cast<int>(rng.uniform_int(4, 11))) +
               hours(rng.uniform_int(0, 20));
  step.magnitude = std::round(2000.0 + 8000.0 * rng.uniform());
  plan.add(step);

  FaultSpec swap;
  swap.kind = FaultKind::kBadgeSwap;
  swap.day = 9;
  swap.astronaut_a = 0;
  swap.astronaut_b = 1;
  plan.add(swap);

  // Appended after the original kinds with fixed groups (no extra rng
  // draws), so seeded plans from before the partition kind existed keep
  // their exact fault schedules.
  FaultSpec split;
  split.kind = FaultKind::kPartition;
  split.start = day_start(8) + hours(10);
  split.duration = hours(6);
  for (int id = 0; id < 14; ++id) split.group_a.push_back(id);
  for (int id = 14; id < 28; ++id) split.group_b.push_back(id);
  plan.add(split);

  return plan;
}

}  // namespace hs::faults
