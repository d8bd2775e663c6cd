#include "obs/recorder.hpp"

namespace hs::obs {

const char* subsys_name(Subsys s) {
  switch (s) {
    case Subsys::kSim:
      return "sim";
    case Subsys::kBadge:
      return "badge";
    case Subsys::kMesh:
      return "mesh";
    case Subsys::kSupport:
      return "support";
    case Subsys::kFaults:
      return "faults";
    case Subsys::kPipeline:
      return "pipeline";
  }
  return "?";
}

const char* event_name(EventCode code) {
  switch (code) {
    case EventCode::kFaultArmed:
      return "fault-armed";
    case EventCode::kFaultActivated:
      return "fault-activated";
    case EventCode::kFaultCleared:
      return "fault-cleared";
    case EventCode::kAlertRaised:
      return "alert-raised";
    case EventCode::kProposalOpened:
      return "proposal-opened";
    case EventCode::kVoteTallied:
      return "vote-tallied";
    case EventCode::kOffloadDeferred:
      return "offload-deferred";
    case EventCode::kChunkAcked:
      return "chunk-acked";
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::vector<FlightEvent> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t first = total_ - n;
  for (std::uint64_t i = first; i < total_; ++i) {
    out.push_back(ring_[static_cast<std::size_t>(i % capacity_)]);
  }
  return out;
}

std::vector<FlightEvent> FlightRecorder::events(EventCode code) const {
  std::vector<FlightEvent> out;
  for (const auto& e : events()) {
    if (e.code == code) out.push_back(e);
  }
  return out;
}

std::size_t FlightRecorder::count(EventCode code) const {
  std::size_t n = 0;
  const std::size_t held = size();
  const std::uint64_t first = total_ - held;
  for (std::uint64_t i = first; i < total_; ++i) {
    if (ring_[static_cast<std::size_t>(i % capacity_)].code == code) ++n;
  }
  return n;
}

std::string FlightRecorder::to_csv() const {
  std::string out = "t_us,subsys,event,a,b\n";
  for (const auto& e : events()) {
    out += std::to_string(e.t);
    out += ',';
    out += subsys_name(e.subsys);
    out += ',';
    out += event_name(e.code);
    out += ',';
    out += std::to_string(e.a);
    out += ',';
    out += std::to_string(e.b);
    out += '\n';
  }
  return out;
}

}  // namespace hs::obs
