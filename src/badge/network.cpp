#include "badge/network.hpp"

#include <algorithm>
#include <cassert>

#include "habitat/propagation.hpp"

namespace hs::badge {

BadgeNetwork::BadgeNetwork(const habitat::Habitat& habitat, std::vector<beacon::Beacon> beacons,
                           Vec2 charging_station, habitat::ChannelParams ble,
                           habitat::ChannelParams subghz)
    : habitat_(&habitat),
      beacons_(std::move(beacons)),
      station_(charging_station),
      ble_(habitat, ble),
      subghz_(habitat, subghz),
      ir_(habitat) {
  // Precompute per-room audible-beacon candidate lists (same or adjacent
  // room; anything further is shielded far below sensitivity).
  candidates_.resize(habitat::kRoomCount + 1);
  for (const auto room_id : habitat::all_rooms()) {
    auto& list = candidates_[habitat::room_index(room_id)];
    for (const auto& b : beacons_) {
      if (b.room == room_id || habitat_->adjacent(b.room, room_id)) list.push_back(&b);
    }
  }
  // Index kRoomCount: unknown position -> consider everything (rare).
  for (const auto& b : beacons_) candidates_[habitat::kRoomCount].push_back(&b);
}

Badge* BadgeNetwork::add_badge(io::BadgeId id, timesync::DriftingClock clock, BadgeParams params) {
  badges_.push_back(std::make_unique<Badge>(id, clock, params));
  Badge* b = badges_.back().get();
  b->dock(station_, 0);  // badges start on the charger
  return b;
}

Badge* BadgeNetwork::add_reference_badge(timesync::DriftingClock clock, BadgeParams params) {
  Badge* b = add_badge(io::kReferenceBadge, clock, params);
  b->set_external_power(true);
  b->undock(0);  // active at the station, permanently powered
  reference_ = b;
  return b;
}

Badge* BadgeNetwork::badge(io::BadgeId id) {
  for (auto& b : badges_) {
    if (b->id() == id) return b.get();
  }
  return nullptr;
}

const Badge* BadgeNetwork::badge(io::BadgeId id) const {
  for (const auto& b : badges_) {
    if (b->id() == id) return b.get();
  }
  return nullptr;
}

const std::vector<const beacon::Beacon*>& BadgeNetwork::candidates_for(habitat::RoomId room) const {
  const auto idx =
      room == habitat::RoomId::kNone ? habitat::kRoomCount : habitat::room_index(room);
  return candidates_[idx];
}

std::span<const double> BadgeNetwork::link_means(
    std::size_t slot, Vec2 rx, const std::vector<const beacon::Beacon*>& beacons) {
  double* mean = link_mean_.data() + slot * beacon_ids_;
  std::uint8_t* known = link_known_.data() + slot * beacon_ids_;
  if (!(scan_at_[slot] == rx)) {
    std::fill_n(known, beacon_ids_, std::uint8_t{0});
    scan_at_[slot] = rx;
  }
  for (const beacon::Beacon* bc : beacons) {
    if (known[bc->id] != 0) continue;
    mean[bc->id] = ble_.mean_rssi(bc->position, rx);
    known[bc->id] = 1;
  }
  return {mean, beacon_ids_};
}

void BadgeNetwork::tick(SimTime now, Rng& rng) {
  assert(env_ != nullptr && "set_environment() before ticking");
  if (scan_at_.size() != badges_.size()) {
    beacon_ids_ = 0;
    for (const auto& bc : beacons_) beacon_ids_ = std::max<std::size_t>(beacon_ids_, bc.id + 1u);
    scan_at_.assign(badges_.size(), Vec2{});
    link_mean_.assign(badges_.size() * beacon_ids_, 0.0);
    link_known_.assign(badges_.size() * beacon_ids_, 0);
  }

  // 1. Sensor frames + battery for every badge.
  for (auto& b : badges_) b->tick_frames(now, *env_, rng);

  // 2. BLE beacon scans.
  for (std::size_t slot = 0; slot < badges_.size(); ++slot) {
    Badge& b = *badges_[slot];
    if (!b.active() || !b.due(now, b.params().scan_period_s)) continue;
    const Vec2 rx = b.position();
    const auto& all = candidates_for(habitat_->room_at(rx));
    if (beacons_down_ == 0) {
      b.scan_beacons(now, all, link_means(slot, rx, all), ble_, rng);
    } else {
      // Outage active somewhere: scan over the audible, still-alive set.
      scan_scratch_.clear();
      for (const beacon::Beacon* bc : all) {
        if (!beacon_down(bc->id)) scan_scratch_.push_back(bc);
      }
      b.scan_beacons(now, scan_scratch_, link_means(slot, rx, scan_scratch_), ble_, rng);
    }
  }

  // 3. 868 MHz proximity pings: sender broadcasts, every other active badge
  //    tries to decode.
  for (auto& sender : badges_) {
    if (!sender->active() || !sender->due(now, sender->params().ping_period_s)) continue;
    for (auto& receiver : badges_) {
      if (receiver.get() == sender.get() || !receiver->active()) continue;
      if (const auto rssi = subghz_.try_receive(sender->position(), receiver->position(), rng)) {
        receiver->receive_ping(now, sender->id(), *rssi, io::Band::kSubGhz868);
      }
    }
  }

  // 4. IR handshakes between worn badges facing each other.
  for (auto& a : badges_) {
    if (!a->worn() || !a->due(now, a->params().ir_period_s)) continue;
    for (auto& b : badges_) {
      if (b.get() == a.get() || !b->worn()) continue;
      if (ir_.try_contact(a->position(), a->facing(), b->position(), b->facing(), rng)) {
        b->receive_ir(now, a->id());
      }
    }
  }

  // 5. Opportunistic time sync against the reference badge.
  if (reference_ != nullptr) {
    for (auto& b : badges_) {
      if (b.get() == reference_ || !b->due(now, b->params().sync_period_s)) continue;
      if (b->battery().depleted()) continue;
      // Docked badges sit next to the reference; roaming badges need an
      // 868 MHz link to it.
      const bool in_range =
          b->docked() || subghz_.try_receive(reference_->position(), b->position(), rng).has_value();
      if (in_range) b->record_sync(now, reference_->clock());
    }
  }
}

void BadgeNetwork::set_beacon_down(io::BeaconId id, bool down) {
  if (beacon_down_.size() <= id) beacon_down_.resize(static_cast<std::size_t>(id) + 1, 0);
  if (static_cast<bool>(beacon_down_[id]) == down) return;
  beacon_down_[id] = down ? 1 : 0;
  beacons_down_ += down ? 1 : -1;
}

bool BadgeNetwork::beacon_down(io::BeaconId id) const {
  return id < beacon_down_.size() && beacon_down_[id] != 0;
}

void BadgeNetwork::add_channel_loss(io::Band band, double db) {
  (band == io::Band::kBle24 ? ble_ : subghz_).add_extra_loss_db(db);
}

const radio::Channel& BadgeNetwork::channel(io::Band band) const {
  return band == io::Band::kBle24 ? ble_ : subghz_;
}

std::int64_t BadgeNetwork::total_bytes() const {
  std::int64_t total = 0;
  for (const auto& b : badges_) total += b->sd().bytes_written();
  return total;
}

}  // namespace hs::badge
