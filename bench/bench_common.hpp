// Shared helpers for the bench harnesses.
//
// Every figure harness runs the canonical ICAres-1 mission (seed from
// argv[1], default 42), feeds the dataset through the AnalysisPipeline,
// and prints the same rows/series the paper's figure or table reports,
// with the paper's reference values alongside. The perf and determinism
// harnesses time with seconds_since and explain a dump mismatch with
// report_diff, so every gate times and diffs the same way.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "core/analysis.hpp"
#include "core/runner.hpp"

namespace hs::bench {

inline std::uint64_t seed_from_args(int argc, char** argv) {
  return argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
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

/// Extract `"key": <number>` after `from` in a flat JSON text. The
/// checked-in BENCH_*.json baselines are flat, so substring extraction
/// is deliberate — no JSON library in the bench layer.
inline bool find_number(const std::string& text, const std::string& key, std::size_t from,
                        double& out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return false;
  out = std::strtod(text.c_str() + at + needle.size(), nullptr);
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
