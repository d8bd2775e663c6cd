// Shared helpers for the bench harnesses.
//
// The mission harnesses take the seed as argv[1] (default 42) and read
// every number on their command line through parse_arg; icares_replay
// and perf_pipeline run the canonical 14-day ICAres-1 mission. The perf
// and determinism harnesses time with seconds_since and explain a dump
// mismatch with report_diff, and the two throughput gates read their
// checked-in baseline with baseline_rate and judge it with
// gate_on_baseline, so every gate times, diffs and gates the same way.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "core/analysis.hpp"
#include "core/runner.hpp"
#include "util/strings.hpp"

namespace hs::bench {

/// argv[i] read strictly (hs::parse_number): exactly one number of T's
/// type, in [min, max]. Anything else stops the process with status 1 and
/// a message naming the argument; harnesses read their arguments before
/// any mission runs or any baseline is read.
template <typename T>
T parse_arg(char** argv, int i, const char* name, T min, T max = std::numeric_limits<T>::max()) {
  T value{};
  if (!parse_number(argv[i], value) || value < min || value > max) {
    const std::string_view path(argv[0]);
    const std::string prog(path.substr(path.find_last_of('/') + 1));
    const std::string range = max == std::numeric_limits<T>::max()
                                  ? ">= " + std::to_string(min)
                                  : "in [" + std::to_string(min) + ", " + std::to_string(max) + "]";
    std::fprintf(stderr, "%s: %s wants an integer %s, got '%s'\n", prog.c_str(), name,
                 range.c_str(), argv[i]);
    std::exit(1);
  }
  return value;
}

inline std::uint64_t seed_from_args(int argc, char** argv) {
  return argc > 1 ? parse_arg<std::uint64_t>(argv, 1, "seed", 0) : 42;
}

inline core::Dataset run_mission(int argc, char** argv) {
  const auto seed = seed_from_args(argc, argv);
  std::printf("# ICAres-1 mission simulation, seed %llu (pass a seed as argv[1])\n",
              static_cast<unsigned long long>(seed));
  return core::run_icares_mission(seed);
}

/// Wall-clock seconds elapsed since `start` on the steady clock.
inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Extract `"key": <number>` after `from` in a flat JSON text read from
/// `file`. The checked-in BENCH_*.json baselines are flat, so substring
/// extraction is deliberate — no JSON library in the bench layer. Returns
/// false when the key is absent: there is no baseline for this run. A key
/// whose value is not exactly one finite number (hs::parse_number) stops
/// the process with status 1, naming the file and the key, so a malformed
/// baseline never reads as 0 and silently removes a gate's floor.
inline bool find_number(const std::string& text, const std::string& key, std::size_t from,
                        double& out, const std::string& file) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return false;
  const std::size_t begin =
      std::min(text.size(), text.find_first_not_of(" \t\r\n", at + needle.size()));
  const std::size_t end = std::min(text.size(), text.find_first_of(",}] \t\r\n", begin));
  const std::string_view value(text.data() + begin, end - begin);
  if (!parse_number(value, out)) {
    std::fprintf(stderr, "%s: \"%s\" is not a number: '%.*s'\n", file.c_str(), key.c_str(),
                 static_cast<int>(value.size()), value.data());
    std::exit(1);
  }
  return true;
}

/// A throughput gate fails below this fraction of its recorded baseline:
/// the same 25 % bound as BENCHMARK.json, since identical work moves
/// 10-30 % between processes on a shared host.
constexpr double kGateFloor = 0.75;

/// The serial rate that the flat baseline file `path` in the working
/// directory records under `rate_key`, when each `match` key records this
/// run's value; 0 (not gated, and a line saying why) when there is no
/// file, a key is absent, a match key records another run, or the rate is
/// not positive. `run` names the run in that line. Every key is read with
/// find_number, so call this before any mission runs: a malformed value
/// exits 1.
inline double baseline_rate(const char* path, const char* rate_key,
                            std::initializer_list<std::pair<const char*, double>> match,
                            const std::string& run) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::printf("# no %s in the working directory; not gating\n", path);
    return 0.0;
  }
  std::ostringstream text;
  text << in.rdbuf();
  bool found = true;
  bool same_run = true;
  for (const auto& [key, value] : match) {
    double recorded = 0.0;
    found = found && find_number(text.str(), key, 0, recorded, path);
    same_run = same_run && recorded == value;
  }
  double rate = 0.0;
  if (!found || !find_number(text.str(), rate_key, 0, rate, path) || !same_run || rate <= 0.0) {
    std::printf("# %s has no baseline for %s; not gating\n", path, run.c_str());
    return 0.0;
  }
  return rate;
}

/// Gate a serial `rate` (in `unit`) against the `base_rate` read from
/// `path`: 2 when it falls below kGateFloor x the baseline, else 0 (also
/// when base_rate is 0, an ungated run). `what` names the measured layer.
inline int gate_on_baseline(double base_rate, double rate, const char* path, const char* unit,
                            const char* what) {
  if (base_rate <= 0.0) return 0;
  const double ratio = rate / base_rate;
  std::printf("# serial %.3f %s vs %s %.3f: %.2fx (floor %.2fx)\n", rate, unit, path, base_rate,
              ratio, kGateFloor);
  if (ratio < kGateFloor) {
    std::printf("# REGRESSION: serial %s more than %.0f%% below the baseline\n", what,
                100.0 * (1.0 - kGateFloor));
    return 2;
  }
  return 0;
}

/// Print to stderr the first line where the serial dump `a` and the
/// hardware-thread dump `b` differ, or that their lengths differ.
inline void report_diff(const std::string& a, const std::string& b) {
  std::istringstream ia(a);
  std::istringstream ib(b);
  std::string la;
  std::string lb;
  std::size_t line = 1;
  while (std::getline(ia, la) && std::getline(ib, lb)) {
    if (la != lb) {
      std::fprintf(stderr, "first diff at line %zu:\n  threads=1:  %s\n  threads=hw: %s\n", line,
                   la.c_str(), lb.c_str());
      return;
    }
    ++line;
  }
  std::fprintf(stderr, "dumps diverge in length (%zu vs %zu bytes)\n", a.size(), b.size());
}

}  // namespace hs::bench
