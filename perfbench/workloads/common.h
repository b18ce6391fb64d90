#ifndef PERFBENCH_WORKLOADS_COMMON_H_
#define PERFBENCH_WORKLOADS_COMMON_H_

// Helpers the four workloads share: timed set-up, timed ticks,
// checkpoints and restores, stepped runs with restore parity, bitwise
// result comparison, and the traced run's replays of layer entry
// points.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "autoglobe/landscape.h"
#include "autoglobe/runner.h"
#include "common/result.h"
#include "persist/checkpoint_store.h"
#include "workloads/workload.h"

namespace perfbench {

using Clock = Calibrator::Clock;

/// Milliseconds since `start`.
double MsSince(Clock::time_point start);

class LoadCapture;

/// SplitMix64 of (seed, a, b): per-rep and per-lane seeds that depend
/// only on the workload seed and the indices.
uint64_t DeriveSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

/// Parses a landscape description file.
autoglobe::Result<autoglobe::Landscape> LoadLandscapeXml(
    const std::string& path);
/// data/paper_landscape_<static|cm|fm>.xml.
std::string PaperLandscapeFile(const Options& options,
                               autoglobe::Scenario scenario);

/// Times one set-up: the caller brackets the landscape load and the
/// runner creation; Finish records setup_s and both splits.
class SetupTimer {
 public:
  explicit SetupTimer(Env& env);
  void Loaded();
  void Created();

 private:
  Env& env_;
  Clock::time_point start_;
  Clock::time_point loaded_;
};

/// A checkpoint store in a fresh directory under the work dir,
/// removed with the object.
class ScratchStore {
 public:
  ScratchStore(const Options& options, const std::string& name);
  ~ScratchStore();
  ScratchStore(const ScratchStore&) = delete;
  ScratchStore& operator=(const ScratchStore&) = delete;

  bool ok() const { return store_ != nullptr; }
  autoglobe::persist::CheckpointStore& store() { return *store_; }

 private:
  std::string dir_;
  std::unique_ptr<autoglobe::persist::CheckpointStore> store_;
};

/// SaveStateSections + CheckpointStore::Write, timed into ckpt_ms and
/// its two splits. Counts one operation.
void TimedCheckpoint(Env& env, const autoglobe::SimulationRunner& runner,
                     autoglobe::persist::CheckpointStore& store);

/// CheckpointStore::LoadLatest + persist::RestoreRunner, timed into
/// restore_ms and its two splits. Counts one operation; null on
/// failure.
std::unique_ptr<autoglobe::SimulationRunner> TimedRestore(
    Env& env, const autoglobe::Landscape& landscape,
    const autoglobe::RunnerConfig& config,
    const autoglobe::persist::CheckpointStore& store,
    uint64_t fingerprint);

/// One RunUntil(next), timed into tick_ms with its heap allocations
/// counted. False (and a failed operation) when the tick fails.
bool StepOneTick(Env& env, autoglobe::SimulationRunner& runner,
                 autoglobe::SimTime next);

/// A scalar run stepped a segment of ticks at a time, with checkpoints
/// (and restores) between segments. Table 7 and static_batch64 step it
/// between the reps of their window, so that its tick, checkpoint and
/// restore samples see the same host conditions as the window;
/// faults_ckpt runs whole reps of it inside the window. When the run
/// ends, a restore of it is finished too and must match the
/// uninterrupted run bit for bit.
class SteppedRun {
 public:
  SteppedRun(Env& env, const autoglobe::Landscape& landscape,
             const std::string& store_name);

  /// Starts a fresh run with `config`; `capture` (nullable) records its
  /// first ticks.
  bool Start(const autoglobe::RunnerConfig& config,
             LoadCapture* capture = nullptr);
  /// Steps up to `ticks` ticks. Before the run's end it then takes
  /// `checkpoints` checkpoints, each followed by a restore when
  /// `restore` is set; the run's first restore is kept. At the end it
  /// finishes instead: without a kept restore it restores the newest
  /// checkpoint, runs the restore to the end and checks parity and
  /// cluster invariants. False on any failure.
  bool Segment(int64_t ticks, int checkpoints, bool restore);

  bool finished() const { return finished_; }
  autoglobe::SimulationRunner* runner() { return runner_.get(); }
  const autoglobe::RunnerConfig& config() const { return config_; }
  /// Minutes simulated by the finished run and its finished restore.
  double simulated_minutes() const { return simulated_minutes_; }

 private:
  void Finish();

  Env& env_;
  const autoglobe::Landscape& landscape_;
  std::string store_name_;
  autoglobe::RunnerConfig config_;
  std::unique_ptr<ScratchStore> store_;
  std::unique_ptr<autoglobe::SimulationRunner> runner_;
  std::unique_ptr<autoglobe::SimulationRunner> restored_;
  autoglobe::SimTime now_;
  int64_t checkpoints_written_ = 0;
  double simulated_minutes_ = 0.0;
  bool finished_ = false;
};

/// Folds a finished runner's kernel and monitor counters into the
/// outcome.
void AddSimCounts(Outcome& out, const autoglobe::SimulationRunner& runner);
/// Folds its trigger, action and fault counters into the outcome.
void AddControlCounts(Outcome& out, autoglobe::SimulationRunner& runner);

/// Bitwise equality of every field.
bool SameRunMetrics(const autoglobe::RunMetrics& a,
                    const autoglobe::RunMetrics& b);
bool SameAvailability(const autoglobe::faults::AvailabilityReport& a,
                      const autoglobe::faults::AvailabilityReport& b);

// --- Traced-run replays ----------------------------------------------

/// Per-tick server and service loads captured from a live runner via
/// its sample hook, for replay into a standalone monitor.
class LoadCapture {
 public:
  /// Installs the hook; keeps the first `max_ticks` ticks.
  void Attach(autoglobe::SimulationRunner& runner, size_t max_ticks);

  struct Tick {
    autoglobe::SimTime at;
    std::vector<double> servers;   // by dense server id
    std::vector<double> services;  // by dense service id
  };
  /// Slots; the first captured() hold data.
  const std::vector<Tick>& ticks() const { return ticks_; }
  size_t captured() const { return used_; }

 private:
  std::vector<Tick> ticks_;
  size_t used_ = 0;
};

/// DemandEngine::Tick on a standalone engine built by Landscape::Build.
void ReplayDemand(Env& env, const autoglobe::Landscape& landscape,
                  const autoglobe::RunnerConfig& config, int ticks);
/// BatchDemandEngine::Tick on a standalone `lanes`-lane engine.
void ReplayBatchDemand(Env& env, const autoglobe::Landscape& landscape,
                       const autoglobe::RunnerConfig& config, size_t lanes,
                       int ticks);
/// LoadMonitoringSystem::ObserveById on a standalone monitor fed the
/// captured loads.
void ReplayMonitor(Env& env, const autoglobe::Landscape& landscape,
                   const autoglobe::RunnerConfig& config,
                   const LoadCapture& capture);
/// The live controller's RankActions for every audited trigger and
/// RankServers for every logged action that needs a host.
void ReplayController(Env& env, autoglobe::SimulationRunner& runner);

/// Peak resident set (VmHWM) in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_COMMON_H_
