#include "fleet/campaign.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string_view>

#include "scenario/scenario.hpp"
#include "util/strings.hpp"

namespace hs::fleet {
namespace {

using faults::dsl::format_int_list;
using faults::dsl::parse_int_list;

/// Every fault-preset name with the plan it denotes: fault_preset()
/// resolves through this table and validate() reads it.
struct FaultPreset {
  std::string_view name;
  faults::FaultPlan (*build)(std::uint64_t seed);
};

constexpr FaultPreset kFaultPresets[] = {
    {"none", [](std::uint64_t) { return faults::FaultPlan{}; }},
    {"day9-badge-swap", [](std::uint64_t) { return faults::FaultPlan::day9_badge_swap(); }},
    {"battery-stress", [](std::uint64_t) { return faults::FaultPlan::battery_stress(); }},
    {"storage-stress", [](std::uint64_t) { return faults::FaultPlan::storage_stress(); }},
    {"infrastructure-stress",
     [](std::uint64_t) { return faults::FaultPlan::infrastructure_stress(); }},
    {"clock-anomalies", [](std::uint64_t) { return faults::FaultPlan::clock_anomalies(); }},
    {"mesh-partition", [](std::uint64_t) { return faults::FaultPlan::mesh_partition(); }},
    {"combined", &faults::FaultPlan::combined},
};

const FaultPreset* find_fault_preset(std::string_view name) {
  const auto it = std::find_if(std::begin(kFaultPresets), std::end(kFaultPresets),
                               [name](const FaultPreset& p) { return p.name == name; });
  return it == std::end(kFaultPresets) ? nullptr : &*it;
}

Error parse_error(std::size_t line, const std::string& what) {
  return Error{"campaign line " + std::to_string(line) + ": " + what};
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t from = 0;
  while (from <= s.size()) {
    const std::size_t at = s.find(',', from);
    if (at == std::string::npos) {
      out.push_back(s.substr(from));
      break;
    }
    out.push_back(s.substr(from, at - from));
    from = at + 1;
  }
  return out;
}

}  // namespace

Status CampaignSpec::validate() const {
  if (name.empty()) return Error{"campaign: name must not be empty"};
  if (habitats < 1) return Error{"campaign: habitats must be >= 1"};
  if (days.empty() || crew.empty() || beacons.empty() || faults.empty() || cascade.empty() ||
      trace_sample.empty()) {
    return Error{"campaign: axes must be non-empty"};
  }
  for (const int d : days) {
    if (d < 1) return Error{"campaign: days must be >= 1, got " + std::to_string(d)};
  }
  for (const int c : crew) {
    if (c != 5 && c != 6) {
      return Error{"campaign: crew must be 5 or 6, got " + std::to_string(c)};
    }
  }
  for (const int b : beacons) {
    if (b < 1 || b > 27) {
      return Error{"campaign: beacons must be in [1, 27], got " + std::to_string(b)};
    }
  }
  for (const int s : trace_sample) {
    if (s < 0 || s > 100) {
      return Error{"campaign: trace_sample must be in [0, 100], got " + std::to_string(s)};
    }
  }
  if (replication < 1) return Error{"campaign: replication must be >= 1"};
  for (const auto& f : faults) {
    if (find_fault_preset(f) == nullptr) {
      return Error{"campaign: unknown fault preset '" + f + "'"};
    }
  }
  for (const auto& c : cascade) {
    if (!scenario::is_scenario_preset(c)) {
      return Error{"campaign: unknown cascade scenario '" + c + "'"};
    }
  }
  return Status::success();
}

std::vector<HabitatSpec> CampaignSpec::expand() const {
  std::vector<HabitatSpec> out;
  out.reserve(static_cast<std::size_t>(habitats));
  for (int i = 0; i < habitats; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    HabitatSpec h;
    h.index = idx;
    h.seed = habitat_seed(base_seed, idx);
    h.days = days[idx % days.size()];
    h.crew = crew[idx % crew.size()];
    h.beacons = beacons[idx % beacons.size()];
    h.mesh = mesh;
    h.replication = replication;
    h.fault_preset = faults[idx % faults.size()];
    h.cascade = cascade[idx % cascade.size()];
    h.trace_sample = trace_sample[idx % trace_sample.size()];
    out.push_back(std::move(h));
  }
  return out;
}

std::string CampaignSpec::to_string() const {
  std::string out;
  out += "campaign " + name + "\n";
  out += "habitats " + std::to_string(habitats) + "\n";
  out += "seed " + std::to_string(base_seed) + "\n";
  out += "days " + format_int_list(days) + "\n";
  out += "crew " + format_int_list(crew) + "\n";
  out += "beacons " + format_int_list(beacons) + "\n";
  out += "faults " + join(faults, ",") + "\n";
  out += "cascade " + join(cascade, ",") + "\n";
  out += "trace_sample " + format_int_list(trace_sample) + "\n";
  out += std::string("mesh ") + (mesh ? "on" : "off") + "\n";
  out += "replication " + std::to_string(replication) + "\n";
  return out;
}

Expected<CampaignSpec> CampaignSpec::parse(const std::string& text) {
  CampaignSpec spec;
  bool named = false;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    std::string value;
    fields >> key >> value;
    std::string extra;
    if (fields >> extra) return parse_error(lineno, "trailing tokens after '" + value + "'");
    if (value.empty()) return parse_error(lineno, "'" + key + "' needs a value");
    if (key == "campaign") {
      spec.name = value;
      named = true;
    } else if (key == "habitats") {
      if (!parse_number(value, spec.habitats)) {
        return parse_error(lineno, "bad count '" + value + "'");
      }
    } else if (key == "seed") {
      if (!parse_number(value, spec.base_seed)) {
        return parse_error(lineno, "bad seed '" + value + "'");
      }
    } else if (key == "days") {
      if (!parse_int_list(value, spec.days)) return parse_error(lineno, "bad list '" + value + "'");
    } else if (key == "crew") {
      if (!parse_int_list(value, spec.crew)) return parse_error(lineno, "bad list '" + value + "'");
    } else if (key == "beacons") {
      if (!parse_int_list(value, spec.beacons)) {
        return parse_error(lineno, "bad list '" + value + "'");
      }
    } else if (key == "faults") {
      spec.faults = split_list(value);
    } else if (key == "cascade") {
      spec.cascade = split_list(value);
    } else if (key == "trace_sample") {
      if (!parse_int_list(value, spec.trace_sample)) {
        return parse_error(lineno, "bad list '" + value + "'");
      }
    } else if (key == "mesh") {
      if (value == "on") {
        spec.mesh = true;
      } else if (value == "off") {
        spec.mesh = false;
      } else {
        return parse_error(lineno, "mesh wants on|off, got '" + value + "'");
      }
    } else if (key == "replication") {
      if (!parse_number(value, spec.replication)) {
        return parse_error(lineno, "bad count '" + value + "'");
      }
    } else {
      return parse_error(lineno, "unknown key '" + key + "'");
    }
  }
  if (!named) return Error{"campaign: missing 'campaign <name>' line"};
  if (auto ok = spec.validate(); !ok.ok()) return ok.error();
  return spec;
}

std::uint64_t habitat_seed(std::uint64_t base, std::size_t index) {
  // splitmix64 of (base + golden-ratio stride * (index + 1)): consecutive
  // indices land far apart, and index 0 does not collapse to the base.
  std::uint64_t z = base + 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(index) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Expected<faults::FaultPlan> fault_preset(const std::string& name, std::uint64_t seed) {
  const FaultPreset* preset = find_fault_preset(name);
  if (preset == nullptr) return Error{"unknown fault preset '" + name + "'"};
  return preset->build(seed);
}

core::MissionConfig make_mission_config(const HabitatSpec& spec) {
  core::MissionConfig config;
  config.seed = spec.seed;
  config.beacon_count = spec.beacons;
  config.script.mission_days = spec.days;
  // Campaign missions are instrumented from day 1: a 1-day habitat with the
  // default badge_start_day = 2 would record nothing.
  config.script.badge_start_day = 1;
  if (spec.crew == 5) {
    // Five effective crew: C departs at mission start, before any badge data.
    config.script.c_death_enabled = true;
    config.script.c_death_day = 1;
    config.script.c_death_time = 0;
  } else {
    // Six crew for the whole run, regardless of mission length.
    config.script.c_death_enabled = false;
  }
  config.mesh.enabled = spec.mesh;
  config.mesh.replication_factor = spec.replication;
  config.collect_from_mesh = spec.mesh;
  // Percentage -> parts-per-million keep threshold; the tracer's keep/drop
  // decision hashes only the trace id, so this stays thread-count pure.
  config.trace_keep_millionths = static_cast<std::uint32_t>(spec.trace_sample) * 10'000U;
  if (auto plan = fault_preset(spec.fault_preset, spec.seed); plan.has_value()) {
    config.fault_plan = std::move(*plan);
  }
  // The cascade's device faults ride the same injector as the preset's:
  // expansion is a pure function of (seed, scenario), so appending here
  // keeps the whole mission a pure function of the habitat spec.
  if (spec.cascade != "none") {
    if (auto scen = scenario::scenario_preset(spec.cascade, spec.seed); scen.has_value()) {
      if (auto expanded = scenario::expand_scenario(*scen, spec.seed); expanded.has_value()) {
        for (const auto& fault : expanded->cascade.plan.faults()) {
          config.fault_plan.add(fault);
        }
      }
    }
  }
  return config;
}

}  // namespace hs::fleet
