// Shared by the determinism suites: the analysis of one mission at one
// thread count, run into copies of the mission's metrics registry and
// tracer, and byte equality of the deterministic text dumps.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "core/analysis.hpp"
#include "core/runner.hpp"

namespace hs::test {

/// Everything a mission dumps as deterministic text: the metrics
/// snapshot (dumped by its to_csv), the flight recorder's event log, and
/// the causal trace.
struct MissionDumps {
  obs::MetricsSnapshot metrics;
  std::string flight_log_csv;
  std::string trace_csv;
};

/// Byte equality of two dumps. On a mismatch it reports the first line
/// that differs and both sizes: gtest's own string diff is quadratic in
/// the line count, which a mission-sized trace dump turns into gigabytes.
inline ::testing::AssertionResult same_dump(const std::string& a, const std::string& b) {
  if (a == b) return ::testing::AssertionSuccess();
  const auto at = static_cast<std::size_t>(
      std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first - a.begin());
  const std::size_t line_start = at == 0 ? 0 : a.rfind('\n', at - 1) + 1;
  const auto line_of = [line_start](const std::string& s) {
    return s.substr(line_start, s.find('\n', line_start) - line_start);
  };
  return ::testing::AssertionFailure()
         << "dumps differ from line " << std::count(a.begin(), a.begin() + line_start, '\n') + 1
         << " (" << a.size() << " vs " << b.size() << " bytes):\n  " << line_of(a) << "\n  "
         << line_of(b);
}

inline void expect_same_dumps(const MissionDumps& a, const MissionDumps& b) {
  EXPECT_TRUE(same_dump(a.metrics.to_csv(), b.metrics.to_csv())) << "metrics";
  EXPECT_TRUE(same_dump(a.flight_log_csv, b.flight_log_csv)) << "flight log";
  EXPECT_TRUE(same_dump(a.trace_csv, b.trace_csv)) << "trace";
}

/// The analysis at one thread count, run into copies of the post-mission
/// registry and tracer (which fold the pipeline.* metrics and spans into
/// the mission's): every thread count starts from the same mission state,
/// so the mission is simulated once. MissionRunner never reads
/// PipelineOptions::threads.
struct Analysis {
  Analysis(const core::MissionRunner& runner, const core::Dataset& data, unsigned threads)
      : metrics(runner.metrics()), tracer(runner.tracer()), flight_log(runner.flight_recorder()) {
    tracer.set_drop_metrics(&metrics);  // drops count into the copy
    core::PipelineOptions opts;
    opts.threads = threads;
    opts.metrics = &metrics;
    opts.tracer = &tracer;
    pipeline.emplace(data, opts);
  }
  Analysis(const Analysis&) = delete;
  Analysis& operator=(const Analysis&) = delete;

  /// The pipeline writes no flight-recorder events, so the flight log is
  /// the mission's: it can differ only between fresh runs.
  [[nodiscard]] MissionDumps dumps() const {
    return MissionDumps{metrics.snapshot(), flight_log.to_csv(), tracer.to_csv()};
  }

  obs::Registry metrics;
  obs::Tracer tracer;
  const obs::FlightRecorder& flight_log;
  std::optional<core::AnalysisPipeline> pipeline;
};

}  // namespace hs::test
