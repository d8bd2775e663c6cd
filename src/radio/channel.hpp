// Packet-reception model on top of the habitat propagation model.
//
// A Channel answers one question: given transmitter and receiver positions,
// was this transmission decoded, and at what RSSI? Reception combines
// log-normal shadowing with a sensitivity floor and a small residual frame
// error rate near the floor (real BLE/sub-GHz links are not a hard cliff).
#pragma once

#include <optional>

#include "habitat/propagation.hpp"
#include "util/rng.hpp"
#include "util/vec2.hpp"

namespace hs::radio {

class Channel {
 public:
  Channel(const habitat::Habitat& habitat, habitat::ChannelParams params)
      : prop_(habitat, params) {}

  /// Attempt to receive a single transmission. Returns the measured RSSI
  /// (dBm, quantized to integer as real radios report) or nullopt if the
  /// frame was not decodable.
  std::optional<int> try_receive(Vec2 tx, Vec2 rx, Rng& rng) const {
    return try_receive_mean(mean_rssi(tx, rx), rng);
  }

  /// The same reception for a link whose mean RSSI (mean_rssi(tx, rx)) the
  /// caller already holds, so a receiver that stands still pays for the
  /// propagation model once. Makes exactly the draws try_receive makes.
  std::optional<int> try_receive_mean(double mean_dbm, Rng& rng) const;

  /// Mean RSSI without fading: the link mean try_receive_mean takes.
  [[nodiscard]] double mean_rssi(Vec2 tx, Vec2 rx) const { return prop_.mean_rssi(tx, rx); }

  [[nodiscard]] const habitat::ChannelParams& params() const { return prop_.params(); }

  /// Extra path loss applied to every frame on the channel (dB), on top of
  /// the propagation model. Fault hook (hs::faults radio degradation:
  /// interference, antenna damage, a mis-seated connector); additive so
  /// overlapping fault windows compose and unwind cleanly.
  void add_extra_loss_db(double db) { extra_loss_db_ += db; }
  [[nodiscard]] double extra_loss_db() const { return extra_loss_db_; }

 private:
  habitat::Propagation prop_;
  double extra_loss_db_ = 0.0;
};

}  // namespace hs::radio
