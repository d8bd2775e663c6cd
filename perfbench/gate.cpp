// perfbench_gate: the untraced end-to-end run of one workload.
//
//   perfbench_gate --workload calm-fleet|storm-fleet|icares-replay
//                  --seed N --seconds S [--perturb]
//
// One workload, one process, one thread. It calls only the public entry
// points a user of the system calls: fleet::CampaignSpec with
// fleet::run_campaign for the two fleets, core::MissionRunner::run_days
// and core::AnalysisPipeline with its artifact methods for the ICAres-1
// replay. It sets no option that only exists for comparison (the
// row-wise analysis path, the flight recorder, the observability
// compile-out), so those can be deleted without touching this gate.
//
// The first stdout line is the number of operations the run attempts;
// the last is a JSON object: the end-to-end metrics, one entry per
// operation (its digest and structural check, or the error that stopped
// it), and the fleets' gossip digest bytes per exchange. run.py compares
// the digests with digests.json.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {
namespace {

/// Set-up is timed this many times per run; setup_s is the median.
constexpr int kSetupReps = 21;

[[noreturn]] void fail(const std::string& what) {
  std::fprintf(stderr, "perfbench_gate: %s\n", what.c_str());
  std::exit(1);
}

JsonLine run_fleet(const Args& args, std::vector<JsonLine>& ops, JsonLine& info) {
  const std::string text = campaign_text(args.workload, args.seed, args.seconds);

  // Set-up: parse, validate and expand the campaign, then resolve and
  // construct every habitat's mission (the construction each habitat
  // does before its first tick).
  std::vector<double> setups;
  hs::fleet::CampaignSpec spec;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    auto parsed = hs::fleet::CampaignSpec::parse(text);
    if (!parsed.has_value()) fail("campaign spec: " + parsed.error().message);
    if (auto ok = parsed->validate(); !ok.ok()) fail("campaign spec: " + ok.error().message);
    for (const auto& habitat : parsed->expand()) {
      const hs::core::MissionRunner runner(hs::fleet::make_mission_config(habitat));
    }
    setups.push_back(seconds_between(start, Clock::now()));
    spec = std::move(*parsed);
  }

  // An error or an exception fails every habitat of the campaign.
  hs::fleet::FleetReport report;
  const auto start = Clock::now();
  std::string problem = caught([&] {
    auto result = hs::fleet::run_campaign(spec, campaign_options());
    if (!result.has_value()) throw std::runtime_error("run_campaign: " + result.error().message);
    report = std::move(*result);
  });
  const double campaign_s = seconds_between(start, Clock::now());

  if (args.perturb) report.alerts_total += 1;
  if (problem.empty()) problem = check_report(report, spec.habitats, spec.days.front());
  ops.push_back(op_line(campaign_op(spec), static_cast<std::uint64_t>(spec.habitats),
                        report_digest(report), problem));

  const std::uint64_t digest_bytes = counter_value(report.metrics, "mesh.digest_bytes");
  const std::uint64_t exchanges = counter_value(report.metrics, "mesh.gossip_exchanges");
  info.field("habitats", static_cast<std::uint64_t>(spec.habitats))
      .field("mesh.digest_bytes_per_exchange",
             exchanges == 0 ? 0.0
                            : static_cast<double>(digest_bytes) / static_cast<double>(exchanges));

  JsonLine metrics;
  metrics.field("habitat_days_per_s", static_cast<double>(report.habitat_days) / campaign_s)
      .field("analysis_records_per_s", static_cast<double>(report.records_analyzed) / campaign_s)
      .field("setup_s", median(setups));
  return metrics;
}

JsonLine run_icares(const Args& args, std::vector<JsonLine>& ops) {
  const hs::core::MissionConfig config = icares_config(args.seed);
  const int days = icares_days(args.seconds);

  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    const hs::core::MissionRunner runner(config);
    setups.push_back(seconds_between(start, Clock::now()));
  }

  // An exception fails its own operation; a failed mission fails every
  // variant too, as they have no dataset to run on.
  hs::core::MissionRunner runner(config);
  hs::core::Dataset dataset;
  const auto mission_start = Clock::now();
  std::string mission_problem = caught([&] { dataset = runner.run_days(days); });
  const double mission_s = seconds_between(mission_start, Clock::now());

  const std::uint64_t records = dataset_records(dataset);
  if (mission_problem.empty() && records == 0) mission_problem = "no records";
  if (args.perturb) dataset.total_bytes += 1;
  ops.push_back(op_line("mission-d" + std::to_string(days), 1, dataset_digest(dataset),
                        mission_problem));
  if (args.perturb) dataset.total_bytes -= 1;

  double analysis_s = 0.0;
  const std::vector<SweepVariant> variants = sweep_variants(args.seconds);
  for (const auto& variant : variants) {
    VariantOutput out;
    std::string problem = mission_problem.empty() ? "" : "mission failed";
    if (problem.empty()) {
      const auto start = Clock::now();
      problem = caught([&] { out = run_variant(dataset, variant.options); });
      analysis_s += seconds_between(start, Clock::now());
    }
    if (problem.empty()) problem = check_variant(out);
    ops.push_back(op_line("variant-d" + std::to_string(days) + "-" + variant.name, 1,
                          variant_digest(out), problem));
  }

  JsonLine metrics;
  metrics.field("habitat_days_per_s", static_cast<double>(days) / mission_s)
      .field("analysis_records_per_s",
             static_cast<double>(records) * static_cast<double>(variants.size()) / analysis_s)
      .field("setup_s", median(setups));
  return metrics;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  print_planned(args);
  std::vector<JsonLine> ops;
  JsonLine info;
  JsonLine metrics = args.workload == Workload::kIcaresReplay ? run_icares(args, ops)
                                                              : run_fleet(args, ops, info);
  metrics.field("peak_rss_mib", peak_rss_mib());

  JsonLine out;
  out.field("workload", workload_name(args.workload))
      .field("seed", args.seed)
      .object("metrics", metrics)
      .array("ops", ops)
      .object("info", info);
  std::printf("%s\n", out.str().c_str());
  return 0;
}
