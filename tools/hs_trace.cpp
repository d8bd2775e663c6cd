// hs_trace: query a deterministic causal trace dump.
//
// Two input modes:
//   --input trace.csv            parse a dump written earlier (report()
//                                .trace_csv saved to disk), or
//   --scenario mesh-partition    run the canonical partitioned-mesh
//                                mission in-process and query its trace
//                                (the dump round-trips through CSV first,
//                                so both modes exercise the same parser).
//
// Queries (any combination; default --summarize):
//   --summarize                  span census per layer
//   --follow-chunk ORIGIN:SEQ    badge -> node -> replicas -> read-view
//   --follow-chunk auto          ... for the first durably acked chunk
//   --critical-path INDEX|auto   sensor record -> evidence -> alert ->
//                                deliveries -> mesh publish
//   --export-perfetto out.json   Chrome trace-event JSON (open in
//                                Perfetto / chrome://tracing)
//
// --seed, --days and --sample take one whole number each (hs::parse_number:
// no trailing junk, no sign on the seed); --days is at least 1.
// --follow-chunk takes two whole numbers joined by a colon and
// --critical-path one; both also take `auto`. A malformed value exits 1,
// naming the flag, before any mission runs.
//
// Exit status: 0 on success; 1 on usage/parse errors, a lineage that is
// not durably complete, or a missing alert — so CI can assert causality
// end-to-end by just running the tool (tests/CMakeLists.txt does).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/runner.hpp"
#include "faults/fault_plan.hpp"
#include "fleet/fleet_runner.hpp"
#include "obs/obs.hpp"
#include "support/system.hpp"
#include "util/strings.hpp"

namespace {

using namespace hs;

struct Options {
  std::string input;
  std::string scenario;
  std::uint64_t seed = 42;
  int days = 7;
  int sample_percent = 100;  ///< --scenario trace sampling (0..100)
  bool summarize = false;
  bool follow_chunk = false;       ///< --follow-chunk given
  std::int64_t chunk_origin = -1;  ///< with chunk_seq; -1 = auto
  std::int64_t chunk_seq = -1;
  bool critical_path = false;      ///< --critical-path given
  std::int64_t alert = -1;         ///< -1 = auto
  std::string perfetto_out;
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: hs_trace (--input trace.csv | --scenario mesh-partition|baseline)\n"
               "                [--seed N] [--days D] [--sample PERCENT] [--summarize]\n"
               "                [--follow-chunk ORIGIN:SEQ|auto] [--critical-path INDEX|auto]\n"
               "                [--export-perfetto out.json]\n");
}

/// "ORIGIN:SEQ", each a whole number.
bool parse_chunk(std::string_view text, std::int64_t& origin, std::int64_t& seq) {
  const std::size_t colon = text.find(':');
  return colon != std::string_view::npos && parse_number(text.substr(0, colon), origin) &&
         parse_number(text.substr(colon + 1), seq) && origin >= 0 && seq >= 0;
}

bool parse_args(int argc, char** argv, Options& opt) {
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "hs_trace: %s needs a value\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    if (std::strcmp(arg, "--input") == 0) {
      if ((v = value(i)) == nullptr) return false;
      opt.input = v;
    } else if (std::strcmp(arg, "--scenario") == 0) {
      if ((v = value(i)) == nullptr) return false;
      opt.scenario = v;
    } else if (std::strcmp(arg, "--seed") == 0) {
      if ((v = value(i)) == nullptr) return false;
      if (!parse_number(v, opt.seed)) {
        std::fprintf(stderr, "hs_trace: --seed wants an unsigned integer, got '%s'\n", v);
        return false;
      }
    } else if (std::strcmp(arg, "--days") == 0) {
      if ((v = value(i)) == nullptr) return false;
      if (!parse_number(v, opt.days) || opt.days < 1) {
        std::fprintf(stderr, "hs_trace: --days wants an integer >= 1, got '%s'\n", v);
        return false;
      }
    } else if (std::strcmp(arg, "--sample") == 0) {
      if ((v = value(i)) == nullptr) return false;
      if (!parse_number(v, opt.sample_percent) || opt.sample_percent < 0 ||
          opt.sample_percent > 100) {
        std::fprintf(stderr, "hs_trace: --sample wants a percentage in [0, 100], got '%s'\n", v);
        return false;
      }
    } else if (std::strcmp(arg, "--summarize") == 0) {
      opt.summarize = true;
    } else if (std::strcmp(arg, "--follow-chunk") == 0) {
      if ((v = value(i)) == nullptr) return false;
      opt.follow_chunk = true;
      opt.chunk_origin = opt.chunk_seq = -1;
      if (std::strcmp(v, "auto") != 0 && !parse_chunk(v, opt.chunk_origin, opt.chunk_seq)) {
        std::fprintf(stderr,
                     "hs_trace: --follow-chunk wants ORIGIN:SEQ (two whole numbers) or auto, "
                     "got '%s'\n",
                     v);
        return false;
      }
    } else if (std::strcmp(arg, "--critical-path") == 0) {
      if ((v = value(i)) == nullptr) return false;
      opt.critical_path = true;
      opt.alert = -1;
      if (std::strcmp(v, "auto") != 0 && (!parse_number(v, opt.alert) || opt.alert < 0)) {
        std::fprintf(stderr, "hs_trace: --critical-path wants an alert index or auto, got '%s'\n",
                     v);
        return false;
      }
    } else if (std::strcmp(arg, "--export-perfetto") == 0) {
      if ((v = value(i)) == nullptr) return false;
      opt.perfetto_out = v;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "hs_trace: unknown argument %s\n", arg);
      return false;
    }
  }
  if (opt.input.empty() == opt.scenario.empty()) {
    std::fprintf(stderr, "hs_trace: exactly one of --input / --scenario is required\n");
    return false;
  }
  if (!opt.summarize && !opt.follow_chunk && !opt.critical_path && opt.perfetto_out.empty()) {
    opt.summarize = true;
  }
  return true;
}

/// Run the named scenario and return its trace dump (CSV). The support
/// system is wired as every habitat runs it (fleet::attach_support): fed
/// from the mesh read view every five minutes, alerts published back over
/// the mesh.
bool run_scenario(const Options& opt, std::string& trace_csv, int& replication_factor) {
  core::MissionConfig config;
  config.seed = opt.seed;
  config.mesh.enabled = true;
  config.collect_from_mesh = true;
  config.trace_keep_millionths =
      static_cast<std::uint32_t>(opt.sample_percent) * 10'000U;
  if (opt.scenario == "mesh-partition") {
    config.fault_plan = faults::FaultPlan::mesh_partition();
  } else if (opt.scenario != "baseline") {
    std::fprintf(stderr, "hs_trace: unknown scenario %s (mesh-partition|baseline)\n",
                 opt.scenario.c_str());
    return false;
  }
  replication_factor = config.mesh.replication_factor;

  core::MissionRunner runner(config);
  support::SupportSystem support;
  fleet::attach_support(runner, support, fleet::CampaignOptions{});
  std::fprintf(stderr, "hs_trace: running %s, seed %llu, days 1-%d...\n", opt.scenario.c_str(),
               static_cast<unsigned long long>(opt.seed), opt.days);
  (void)runner.run_days(opt.days);
  trace_csv = runner.report().trace_csv;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage(stderr);
    return 1;
  }

  // Expected storage-span count per durable chunk (root + replicas). In
  // --input mode the dump itself tells us: the ack span's `c` argument is
  // the replica count at ack time.
  int replication_factor = 0;
  std::string csv;
  if (!opt.input.empty()) {
    std::ifstream in(opt.input, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "hs_trace: cannot read %s\n", opt.input.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    csv = text.str();
  } else if (!run_scenario(opt, csv, replication_factor)) {
    return 1;
  }

  auto parsed = obs::Tracer::parse_dump(csv);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "hs_trace: %s\n", parsed.error().message.c_str());
    return 1;
  }
  const obs::TraceMeta meta = std::move(parsed->meta);
  const obs::TraceIndex index(std::move(parsed->spans));

  int status = 0;

  if (opt.summarize) {
    std::fputs(obs::format_summary(index.summarize()).c_str(), stdout);
    // Sampling/budget census: the dump's own metadata, so it works on
    // files written by other runs, not just --scenario mode.
    std::fputs(obs::format_trace_meta(meta).c_str(), stdout);
  }

  if (opt.follow_chunk) {
    std::int64_t origin = opt.chunk_origin;
    std::int64_t seq = opt.chunk_seq;
    if (origin < 0) {
      if (const auto first = index.first_acked_chunk()) {
        origin = first->first;
        seq = first->second;
      } else {
        std::fprintf(stderr, "hs_trace: no acked chunk in the trace\n");
        return 1;
      }
    }
    const obs::ChunkLineage lineage = index.follow_chunk(origin, seq);
    std::fputs(obs::format_lineage(lineage).c_str(), stdout);
    const std::size_t expect = replication_factor > 0 ? static_cast<std::size_t>(replication_factor)
                              : lineage.ack != nullptr ? static_cast<std::size_t>(lineage.ack->c)
                                                       : 1;
    if (!lineage.complete(expect)) {
      std::fprintf(stderr, "hs_trace: lineage incomplete (want %zu storage spans)\n", expect);
      status = 1;
    }
  }

  if (opt.critical_path) {
    std::int64_t alert = opt.alert;
    if (alert < 0) {
      // Prefer an alert with chunk evidence (a badge-health raise): it has
      // the full record -> raise chain worth printing.
      const auto indices = index.alert_indices();
      for (const std::int64_t i : indices) {
        if (!index.critical_path(i).evidence.empty()) {
          alert = i;
          break;
        }
      }
      if (alert < 0 && !indices.empty()) alert = indices.front();
      if (alert < 0) {
        // The metadata tells apart "mission raised nothing" from "every
        // alert story hashed outside the keep threshold".
        std::uint64_t raised_dropped = 0;
        for (const obs::TraceKindStats& k : meta.kinds) {
          if (k.kind == obs::SpanKind::kAlertRaised) raised_dropped = k.dropped;
        }
        if (raised_dropped > 0) {
          std::fprintf(stderr,
                       "hs_trace: no alert survived sampling (%llu raise span(s) dropped at "
                       "keep threshold %u/1000000); re-run with --sample 100 to capture them\n",
                       static_cast<unsigned long long>(raised_dropped), meta.keep_millionths);
        } else {
          std::fprintf(stderr, "hs_trace: no alert in the trace\n");
        }
        return 1;
      }
    }
    const obs::AlertPath path = index.critical_path(alert);
    std::fputs(obs::format_alert_path(path, &meta).c_str(), stdout);
    if (!path.found) {
      // Not silently empty: with the dump's seed + threshold on record
      // the keep/drop decision is reproducible, so say which of "sampled
      // out" / "never raised" it was.
      const bool sampled = meta.present && meta.keep_millionths < obs::Tracer::kSampleScale;
      if (sampled) {
        obs::Tracer probe(meta.seed);
        probe.set_sampling(meta.keep_millionths);
        const obs::TraceId trace = probe.alert_trace(static_cast<std::uint64_t>(alert));
        if (!probe.sampled_in(trace)) {
          std::fprintf(stderr,
                       "hs_trace: alert %lld's trace was sampled out (keep threshold "
                       "%u/1000000); re-run with --sample 100 to capture it\n",
                       static_cast<long long>(alert), meta.keep_millionths);
        } else {
          std::fprintf(stderr,
                       "hs_trace: alert %lld has no raise span (its trace is inside the "
                       "%u/1000000 sample, so it was never raised or hit a budget/cap)\n",
                       static_cast<long long>(alert), meta.keep_millionths);
        }
      } else {
        std::fprintf(stderr, "hs_trace: alert %lld has no raise span\n",
                     static_cast<long long>(alert));
      }
      status = 1;
    }
  }

  if (!opt.perfetto_out.empty()) {
    std::ofstream out(opt.perfetto_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "hs_trace: cannot write %s\n", opt.perfetto_out.c_str());
      return 1;
    }
    out << obs::spans_to_chrome_json(index.spans());
    std::fprintf(stderr, "hs_trace: wrote %s (%zu spans); open in https://ui.perfetto.dev\n",
                 opt.perfetto_out.c_str(), index.spans().size());
  }

  return status;
}
