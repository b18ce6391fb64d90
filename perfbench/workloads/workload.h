#ifndef PERFBENCH_WORKLOADS_WORKLOAD_H_
#define PERFBENCH_WORKLOADS_WORKLOAD_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "harness/calibration.h"
#include "harness/spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured window.
  double seconds = 10.0;
  /// Directory holding the paper landscape XML files.
  std::string data_dir = "data";
  /// Scratch directory for checkpoint stores (created, then removed).
  std::string work_dir = ".bench_build/perfbench-work";
};

/// Everything one workload run measured. Wall-time series carry raw
/// and calibrated samples; counts are exact.
struct Outcome {
  // --- End-to-end (wall times calibrated per chunk) -----------------
  Series setup_s;
  /// Wall time of every measured chunk of the window (probe slices
  /// excluded); sim_min_per_s = sim_minutes / their sum.
  Series window_s;
  double sim_minutes = 0.0;
  Series tick_ms;
  Series ckpt_ms;
  Series restore_ms;

  // --- Splits of the end-to-end times (raw ms) -----------------------
  std::vector<double> landscape_load_ms;
  std::vector<double> runner_create_ms;
  std::vector<double> save_sections_ms;
  std::vector<double> store_write_ms;
  std::vector<double> load_latest_ms;
  std::vector<double> restore_runner_ms;
  double snapshot_bytes = 0.0;

  // --- Operations and correctness ------------------------------------
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  /// Counts one operation; a false `ok` fails it and records `what`.
  void Check(bool ok, const std::string& what);

  // --- Layer counts (from the program's public accessors) ------------
  uint64_t events = 0;
  double event_minutes = 0.0;
  int64_t evaluations = 0;
  int64_t skips = 0;
  int64_t monitor_ticks = 0;
  int64_t triggers = 0;
  int64_t actions = 0;
  double control_hours = 0.0;
  int64_t faults_injected = 0;
  int64_t faults_recovered = 0;
  int64_t faults_abandoned = 0;
  uint64_t allocs = 0;
  int64_t alloc_ticks = 0;
  /// Table 7 error in percentage points (table7_sweep only).
  double table7_err_pp = std::numeric_limits<double>::quiet_NaN();

  // --- Replayed layer entry points (traced runs only) ----------------
  std::vector<double> demand_tick_us;
  std::vector<double> batch_tick_us;
  std::vector<double> observe_ns;
  std::vector<double> rank_actions_us;
  std::vector<double> rank_servers_us;
};

/// What a workload gets to run with. `spans` is null on untraced runs.
struct Env {
  const Options& options;
  Calibrator& cal;
  SpanRecorder* spans;
  Outcome& out;
  /// Window length for this call (the traced run splits the
  /// requested seconds between an untraced and a traced half).
  double window_seconds;
  /// False keeps checkpoint and restore times as measured: where they
  /// are bound by page faults and the disk rather than the CPU, the
  /// probe adds noise instead of removing it.
  bool calibrate_persist = true;
};

void RunTable7Sweep(Env& env);
void RunStaticBatch64(Env& env);
void RunScale10k(Env& env);
void RunFaultsCkpt(Env& env);

/// Dispatches by name; false for an unknown workload.
bool RunWorkload(Env& env);

/// Paper Table 7 maxima (percent of Table 4 users): static, CM, FM.
inline constexpr int kPaperTable7[3] = {100, 115, 135};

/// Sum over the three scenarios of |reproduced - paper| in percentage
/// points, from reproduced max scales (1.0 = 100 %).
double Table7ErrorPp(const double max_scale[3]);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_WORKLOAD_H_
