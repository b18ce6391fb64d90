// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--data-dir data] [--work-dir .bench_build/perfbench-work]
//
// Prints one line per metric (name, value, unit, sample count, raw
// value for calibrated times), then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits
// non-zero when any correctness check fails.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness/calibration.h"
#include "harness/spans.h"
#include "harness/stats.h"
#include "workloads/common.h"
#include "workloads/workload.h"

namespace perfbench {
namespace {

constexpr double kChunkSeconds = 0.1;
/// tick_ms_p99 is the median of the p99s of this many consecutive
/// parts of the run's ticks.
constexpr size_t kTailSegments = 3;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
  /// Uncalibrated value of a calibrated wall time; NaN otherwise.
  double raw = std::nan("");
  /// For high percentiles: fewer than 10 samples lie beyond it.
  bool thin_tail = false;
};

struct Run {
  Outcome out;
  Calibrator cal{kChunkSeconds};
  SpanRecorder spans;
};

double SimMinPerS(const Outcome& out, const std::vector<double>& window) {
  const double seconds = Sum(window);
  return seconds > 0.0 ? out.sim_minutes / seconds : 0.0;
}

double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

std::vector<Metric> EndToEnd(const Outcome& out) {
  std::vector<Metric> m;
  m.push_back({"setup_s", Median(out.setup_s.cal), "s", out.setup_s.cal.size(),
               Median(out.setup_s.raw)});
  m.push_back({"sim_min_per_s", SimMinPerS(out, out.window_s.cal),
               "sim-min/s", out.window_s.cal.size(),
               SimMinPerS(out, out.window_s.raw)});
  const Percentile p50 = PercentileOf(out.tick_ms.cal, 0.50);
  const Percentile p99 =
      SegmentedPercentile(out.tick_ms.cal, 0.99, kTailSegments);
  m.push_back({"tick_ms_p50", p50.value, "ms", p50.samples,
               PercentileOf(out.tick_ms.raw, 0.50).value});
  m.push_back({"tick_ms_p99", p99.value, "ms", p99.samples,
               SegmentedPercentile(out.tick_ms.raw, 0.99, kTailSegments).value,
               !p99.tail_ok});
  const Percentile ckpt = PercentileOf(out.ckpt_ms.cal, 0.50);
  m.push_back({"ckpt_ms_p50", ckpt.value, "ms", ckpt.samples,
               PercentileOf(out.ckpt_ms.raw, 0.50).value});
  m.push_back({"restore_ms", Median(out.restore_ms.cal), "ms",
               out.restore_ms.cal.size(), Median(out.restore_ms.raw)});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB", 1});
  return m;
}

std::vector<Metric> PerLayer(const Run& untraced, const Run& traced) {
  const Outcome& o = traced.out;
  const double ticks = static_cast<double>(o.monitor_ticks);
  std::vector<Metric> m = {
      {"sim.events_per_min", Ratio(static_cast<double>(o.events),
                                   o.event_minutes), "count", 1},
      {"workload.demand_tick_us", Median(o.demand_tick_us), "us",
       o.demand_tick_us.size()},
      {"workload.batch_tick_us", Median(o.batch_tick_us), "us",
       o.batch_tick_us.size()},
      {"monitor.evals_per_tick", Ratio(static_cast<double>(o.evaluations),
                                       ticks), "count", 1},
      {"monitor.skips_per_tick", Ratio(static_cast<double>(o.skips), ticks),
       "count", 1},
      {"monitor.observe_ns", Median(o.observe_ns), "ns", o.observe_ns.size()},
      {"controller.triggers_per_h", Ratio(static_cast<double>(o.triggers),
                                          o.control_hours), "count", 1},
      {"controller.actions_per_h", Ratio(static_cast<double>(o.actions),
                                         o.control_hours), "count", 1},
      {"controller.rank_actions_us", Median(o.rank_actions_us), "us",
       o.rank_actions_us.size()},
      {"controller.rank_servers_us", Median(o.rank_servers_us), "us",
       o.rank_servers_us.size()},
      {"faults.injected", static_cast<double>(o.faults_injected), "count", 1},
      {"faults.recovered", static_cast<double>(o.faults_recovered), "count", 1},
      {"faults.abandoned", static_cast<double>(o.faults_abandoned), "count", 1},
      {"persist.save_sections_ms", Median(o.save_sections_ms), "ms",
       o.save_sections_ms.size()},
      {"persist.store_write_ms", Median(o.store_write_ms), "ms",
       o.store_write_ms.size()},
      {"persist.load_latest_ms", Median(o.load_latest_ms), "ms",
       o.load_latest_ms.size()},
      {"persist.restore_runner_ms", Median(o.restore_runner_ms), "ms",
       o.restore_runner_ms.size()},
      {"persist.snapshot_bytes", o.snapshot_bytes, "bytes", 1},
      {"autoglobe.landscape_load_ms", Median(o.landscape_load_ms), "ms",
       o.landscape_load_ms.size()},
      {"autoglobe.runner_create_ms", Median(o.runner_create_ms), "ms",
       o.runner_create_ms.size()},
      {"autoglobe.allocs_per_tick", Ratio(static_cast<double>(o.allocs),
                                          static_cast<double>(o.alloc_ticks)),
       "count", static_cast<size_t>(o.alloc_ticks)},
  };
  // Self time per layer, from the traced half's spans.
  const std::map<std::string, LayerTime> layers =
      SummarizeLayers(traced.spans.spans());
  for (const char* layer : {"autoglobe", "persist", "workload", "monitor",
                            "controller", "harness"}) {
    auto it = layers.find(layer);
    m.push_back({std::string(layer) + ".self_ms",
                 it == layers.end() ? 0.0 : it->second.self_ms, "ms",
                 it == layers.end() ? 0
                                    : static_cast<size_t>(it->second.spans)});
  }
  // Diagnostics from the untraced half.
  const Outcome& u = untraced.out;
  const double plain = SimMinPerS(u, u.window_s.cal);
  const double with_spans = SimMinPerS(o, o.window_s.cal);
  m.push_back({"harness.host_ref_per_s", untraced.cal.ProbesPerSecond(), "1/s",
               untraced.cal.slices()});
  m.push_back({"harness.trace_overhead_pct",
               with_spans > 0.0 ? (plain / with_spans - 1.0) * 100.0 : 0.0,
               "%", 2});
  for (const Metric& e : EndToEnd(u)) {
    if (!std::isnan(e.raw)) {
      m.push_back({"harness.raw_" + e.name, e.raw, e.unit, e.samples});
    }
  }
  return m;
}

void PrintMetric(const Metric& m) {
  std::printf("metric %-30s %14.6g %-10s samples=%zu", m.name.c_str(), m.value,
              m.unit.c_str(), m.samples);
  if (!std::isnan(m.raw)) std::printf(" raw=%.6g", m.raw);
  if (m.thin_tail) std::printf(" (fewer than 10 samples beyond)");
  std::printf("\n");
}

void PrintSelfTimes(const std::string& workload, const SpanRecorder& spans) {
  for (const auto& [layer, t] : SummarizeLayers(spans.spans())) {
    std::printf("self %-14s %-11s total_ms=%.3f self_ms=%.3f spans=%" PRId64
                "\n",
                workload.c_str(), layer.c_str(), t.total_ms, t.self_ms,
                t.spans);
  }
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

bool Execute(const Options& options, double seconds, Run& run, bool traced) {
  Env env{options, run.cal, traced ? &run.spans : nullptr, run.out, seconds};
  if (!RunWorkload(env)) return false;
  for (const std::string& failure : run.out.failures) {
    std::fprintf(stderr, "FAIL %s: %s\n", options.workload.c_str(),
                 failure.c_str());
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <table7_sweep|static_batch64|"
               "scale_10k|faults_ckpt> --seed <n> --seconds <s> --trace <0|1>"
               " [--data-dir DIR] [--work-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || (trace != 0 && trace != 1) || options.seconds <= 0.0) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);

  Run untraced;
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  if (trace == 0) {
    if (!Execute(options, options.seconds, untraced, false)) return Usage();
    metrics = EndToEnd(untraced.out);
    attempted = untraced.out.attempted;
    failed = untraced.out.failed;
  } else {
    // The traced run measures an untraced half first, so the tracing
    // overhead and the raw values come from the same process.
    Run traced;
    if (!Execute(options, options.seconds / 2, untraced, false) ||
        !Execute(options, options.seconds / 2, traced, true)) {
      return Usage();
    }
    metrics = PerLayer(untraced, traced);
    attempted = untraced.out.attempted + traced.out.attempted;
    failed = untraced.out.failed + traced.out.failed;
    PrintSelfTimes(options.workload, traced.spans);
    const std::string path = options.work_dir + "/spans-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".jsonl";
    if (!traced.spans.WriteJsonLines(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      ++attempted;
      ++failed;
    } else {
      std::printf("spans %zu written to %s\n", traced.spans.spans().size(),
                  path.c_str());
    }
  }
  if (!std::isnan(untraced.out.table7_err_pp)) {
    std::printf("check table7_err_pp %g pp (0 = Table 7 reproduced exactly)\n",
                untraced.out.table7_err_pp);
  }
  for (const Metric& m : metrics) PrintMetric(m);
  const bool correct = failed == 0 && attempted > 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
