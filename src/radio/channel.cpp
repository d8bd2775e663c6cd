#include "radio/channel.hpp"

#include <algorithm>
#include <cmath>

namespace hs::radio {

std::optional<int> Channel::try_receive_mean(double mean_dbm, Rng& rng) const {
  // One fading realization (Propagation::sample_rssi's expression), then
  // the fault loss on top.
  const double faded = mean_dbm + rng.normal(0.0, prop_.params().shadow_sigma_db);
  const double rssi = faded - extra_loss_db_;
  const double floor = prop_.params().sensitivity_dbm;
  if (rssi < floor) return std::nullopt;
  // Soft edge: frames within 3 dB of the floor still drop sometimes.
  const double margin = rssi - floor;
  if (margin < 3.0) {
    const double drop_prob = 0.5 * (1.0 - margin / 3.0);
    if (rng.bernoulli(drop_prob)) return std::nullopt;
  }
  const double clamped = std::clamp(rssi, -127.0, 0.0);
  return static_cast<int>(std::lround(clamped));
}

}  // namespace hs::radio
