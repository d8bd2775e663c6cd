// Deterministic fault plans: what breaks, when, and for how long.
//
// Section V of the paper is a catalog of things that went wrong in the
// real deployment — the day-9 badge swap, badges left off their chargers,
// drifting clocks, storage pressure. A FaultPlan turns that catalog into
// a reproducible script: a list of FaultSpecs with absolute simulation
// times, serializable to a small line-based text format so scenarios can
// be stored, diffed and replayed. Plans are data only; FaultInjector
// schedules them onto a running mission. docs/RESILIENCE.md documents the
// taxonomy, the DSL and each consumer's degradation contract.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "crew/script.hpp"
#include "io/records.hpp"
#include "util/expected.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace hs::faults {

enum class FaultKind : std::uint8_t {
  kBatteryDeath,     ///< cell sags, then dies; charging inhibited for `duration`
  kSdWriteFailure,   ///< records dropped on the floor for `duration`
  kBinlogTruncation, ///< final `magnitude` fraction of the card unreadable at collection
  kBeaconOutage,     ///< one beacon dark for `duration`
  kRadioDegradation, ///< `magnitude` dB extra path loss on `band` for `duration`
  kClockStep,        ///< local counter jumps by `magnitude` ms at `start`
  kBadgeSwap,        ///< astronauts `astronaut_a`/`astronaut_b` trade badges on `day`
  kPartition,        ///< mesh radio partition between `group_a` and `group_b` for `duration`
};

/// Number of FaultKind values; keep in sync with the enum (the DSL's kind
/// table static_asserts against it, and faults_test round-trips every kind).
inline constexpr std::size_t kFaultKindCount = 8;

/// Canonical kebab-case name ("battery-death", ...), used by the DSL.
const char* kind_name(FaultKind kind);

/// One scheduled fault. Which fields matter depends on `kind`; unused
/// fields keep their defaults and round-trip through the DSL untouched.
struct FaultSpec {
  FaultKind kind = FaultKind::kBatteryDeath;
  /// Activation instant (ignored by kBadgeSwap, which is day-scoped).
  SimTime start = 0;
  /// Window length for windowed kinds; 0 means instantaneous (one-shot
  /// kinds) or "never recovers" (kBatteryDeath with no recharge).
  SimDuration duration = 0;
  int badge = -1;   ///< target badge id (battery/sd/binlog/clock kinds)
  int beacon = -1;  ///< target beacon id (kBeaconOutage)
  io::Band band = io::Band::kBle24;  ///< target channel (kRadioDegradation)
  /// Kind-dependent size: dB of extra loss, ms of clock step, or the
  /// truncated tail fraction in [0,1].
  double magnitude = 0.0;
  // kBadgeSwap: the day-long mix-up between two crew members.
  int day = 0;
  std::size_t astronaut_a = 0;
  std::size_t astronaut_b = 1;
  // kPartition: mesh node ids on each side of the severed radio link
  // (nodes in neither group keep gossiping with both sides).
  std::vector<int> group_a{};
  std::vector<int> group_b{};

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::string name) : name_(std::move(name)) {}

  FaultPlan& add(FaultSpec spec) {
    faults_.push_back(spec);
    return *this;
  }

  [[nodiscard]] const std::vector<FaultSpec>& faults() const { return faults_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool empty() const { return faults_.empty(); }

  /// Fold script-level faults into a mission script before the crew
  /// simulator is built: kBadgeSwap sets the swap day and the pair (the
  /// ownership schedules are deployment facts fixed at construction).
  void apply_to_script(crew::MissionScript& script) const;

  /// Serialize to the line-based DSL (round-trips through parse()).
  [[nodiscard]] std::string to_string() const;

  /// Parse the DSL. Lines: `plan <name>`, `#` comments, blank lines, and
  /// one fault per line: `<kind> key=value ...` with keys badge=, beacon=
  /// (device ids in [0, 255]), at=<day>d<hh>:<mm>, for=<n><h|m|s>, db=,
  /// ms=, frac=, band=<ble|subghz>, day=, a=, b=. Unknown kinds, malformed
  /// or out-of-range values and a plan line without exactly one name are
  /// errors naming their line.
  [[nodiscard]] static Expected<FaultPlan> parse(const std::string& text);

  // --- preset scenarios (the resilience bench runs all of these) ----------
  /// The paper's day-9 incident as a plan: A and B swap badges for a day.
  [[nodiscard]] static FaultPlan day9_badge_swap();
  /// Badge 3's cell dies mid-duty on day 3; the cradle slot is flaky, so
  /// recharge is delayed ~36 h (the "taken off chargers" incident class).
  [[nodiscard]] static FaultPlan battery_stress();
  /// Storage failures: an 18 h write blackout on badge 1 plus a quarter of
  /// badge 4's binlog lost in transfer.
  [[nodiscard]] static FaultPlan storage_stress();
  /// Infrastructure: a beacon dark for six hours and 15 dB of BLE-band
  /// interference over an afternoon.
  [[nodiscard]] static FaultPlan infrastructure_stress();
  /// A +5 s counter step on badge 2 halfway through the mission.
  [[nodiscard]] static FaultPlan clock_anomalies();
  /// The habitat mesh splits for eight hours on day 6: half the nodes
  /// lose radio contact with the other half (a sealed bulkhead door),
  /// then the split heals and the sides re-converge by anti-entropy.
  [[nodiscard]] static FaultPlan mesh_partition();
  /// Seeded kitchen-sink plan: one fault of every kind at randomized
  /// targets/times. Same seed => same plan, byte for byte.
  [[nodiscard]] static FaultPlan combined(std::uint64_t seed);

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

 private:
  std::string name_;
  std::vector<FaultSpec> faults_;
};

/// The DSL's value syntax, shared with the campaign DSL so both read and
/// print times, durations, numbers and id lists the same way. Parses are
/// strict: the whole token must match, and a value out of range is
/// rejected, never wrapped.
namespace dsl {

/// "3d07:30" — 1-based mission day plus habitat wall-clock time.
std::string format_time(SimTime t);
/// Durations print with the largest exact unit (36h, 90m, 45s).
std::string format_duration(SimDuration d);
/// `%g`: six significant digits, which seeded magnitudes quantize to.
std::string format_number(double v);
/// "0,1,2".
std::string format_int_list(const std::vector<int>& v);

/// `<day>d<hh>:<mm>` with day >= 1, inside SimTime's range.
bool parse_time(std::string_view text, SimTime& out);
/// `<n><h|m|s>` with n >= 0 and n units inside SimDuration's range.
bool parse_duration(std::string_view text, SimDuration& out);
/// A non-empty comma list of non-negative ints.
bool parse_int_list(std::string_view text, std::vector<int>& out);

}  // namespace dsl

}  // namespace hs::faults
