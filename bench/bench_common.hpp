// Shared helpers for the bench harnesses.
//
// Every figure harness runs the canonical ICAres-1 mission (seed from
// argv[1], default 42), feeds the dataset through the AnalysisPipeline,
// and prints the same rows/series the paper's figure or table reports,
// with the paper's reference values alongside. The perf and determinism
// harnesses time with seconds_since and explain a dump mismatch with
// report_diff, so every gate times and diffs the same way.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

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
