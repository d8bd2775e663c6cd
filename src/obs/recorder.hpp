// Deterministic observability: the flight recorder.
//
// A bounded ring buffer of structured, sim-time-stamped events — the
// on-board "what just happened" log an autonomous habitat can consult
// without Earth in the loop, and the substrate tests assert against
// (e.g. "every armed fault spec left an arming event"). The ring grows on
// demand up to `capacity` events (a mission that records a handful pays
// for a handful), then record() overwrites the oldest: an index increment
// and a struct store, never an allocation. The recorder keeps the most
// recent `capacity` events and counts what it overwrote.
//
// Only rare, meaningful transitions belong here (fault lifecycle, alerts,
// offload deferrals) — per-record or per-round traffic goes in counters,
// not events, or the ring wraps before anyone reads it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/units.hpp"

namespace hs::obs {

/// Which layer emitted an event.
enum class Subsys : std::uint8_t {
  kSim = 0,
  kBadge,
  kMesh,
  kSupport,
  kFaults,
  kPipeline,
};
const char* subsys_name(Subsys s);

/// What happened. One flat enum across subsystems: codes are cheap and a
/// flat table keeps export/name lookup trivial.
enum class EventCode : std::uint16_t {
  kFaultArmed = 1,    ///< a = plan index, b = FaultKind
  kFaultActivated,    ///< a = plan index, b = FaultKind
  kFaultCleared,      ///< a = plan index, b = FaultKind
  kAlertRaised,       ///< a = AlertKind, b = astronaut (-1: habitat-wide)
  kProposalOpened,    ///< a = proposal id
  kVoteTallied,       ///< a = proposal id, b = voter
  kOffloadDeferred,   ///< a = badge id (no reachable mesh node)
  kChunkAcked,        ///< a = origin, b = seq (reached replication_factor)
};
const char* event_name(EventCode code);

struct FlightEvent {
  SimTime t = 0;
  Subsys subsys = Subsys::kSim;
  EventCode code = EventCode::kFaultArmed;
  std::int64_t a = 0;
  std::int64_t b = 0;

  friend bool operator==(const FlightEvent&, const FlightEvent&) = default;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  void record(SimTime t, Subsys subsys, EventCode code, std::int64_t a = 0, std::int64_t b = 0) {
    const FlightEvent event{t, subsys, code, a, b};
    if (ring_.size() < capacity_) {
      ring_.push_back(event);
    } else {
      if (dropped_counter_ != nullptr) dropped_counter_->inc();
      ring_[static_cast<std::size_t>(total_ % capacity_)] = event;
    }
    ++total_;
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events recorded over the recorder's lifetime, including overwritten.
  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }
  /// Events currently held (== min(total_recorded, capacity)).
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  /// Events lost to wraparound.
  [[nodiscard]] std::uint64_t dropped() const { return total_ - size(); }
  /// Counter (`hs.obs.flight_dropped_total`) bumped every time record()
  /// overwrites an event nobody read — silent wraparound loss made
  /// visible in the metrics dump. Null detaches. docs/OBSERVABILITY.md
  /// has the sizing rule this counter polices.
  void set_dropped_counter(Counter* counter) { dropped_counter_ = counter; }

  /// The held events, oldest first (cold path; copies out of the ring).
  [[nodiscard]] std::vector<FlightEvent> events() const;
  /// Held events matching a code, oldest first.
  [[nodiscard]] std::vector<FlightEvent> events(EventCode code) const;
  [[nodiscard]] std::size_t count(EventCode code) const;

  /// CSV dump: `t_us,subsys,event,a,b` per line, oldest first.
  [[nodiscard]] std::string to_csv() const;

 private:
  std::size_t capacity_;
  /// Grows by push_back until it holds capacity_ events; event i of the
  /// lifetime then lives at i % capacity_.
  std::vector<FlightEvent> ring_;
  std::uint64_t total_ = 0;
  Counter* dropped_counter_ = nullptr;
};

}  // namespace hs::obs
