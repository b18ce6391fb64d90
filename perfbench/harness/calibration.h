#ifndef PERFBENCH_HARNESS_CALIBRATION_H_
#define PERFBENCH_HARNESS_CALIBRATION_H_

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Host-speed calibration. The host's speed drifts by tens of percent
/// between processes a few minutes apart, so raw wall times do not
/// repeat. A fixed reference kernel (it never calls program code) runs
/// in a short slice after every measured chunk, and each sample of the
/// chunk is scaled by
///
///   factor = kNominalProbeSeconds / probe seconds measured in the slice
///
/// which expresses it in seconds of a fixed-speed host. The kernel
/// mixes four parts that track the program's own sensitivities to a
/// busy host: LCG-indexed read-modify-writes over a 32 KiB table, a
/// floating-point polynomial over 32 KiB of doubles, small malloc/free
/// churn, and page faults on freshly mapped blocks.
inline constexpr double kNominalProbeSeconds = 1.0e-3;

/// Work of one probe. Fixed, so that every probe does the same work on
/// every host.
inline constexpr uint64_t kProbeTableRounds = 150000;
inline constexpr int kProbeFpPasses = 40;
inline constexpr uint64_t kProbeAllocRounds = 8000;
inline constexpr int kProbeFreshBlocks = 2;
inline constexpr size_t kProbeFreshBytes = 1 << 20;

/// Probes per slice; the slice reports their median.
inline constexpr int kProbesPerSlice = 3;

/// A chunk's factor comes from the median of this many trailing
/// slices (its own included).
inline constexpr size_t kSmoothingSlices = 5;

/// Scratch the reference kernel works on.
struct ProbeState {
  std::vector<uint64_t> table = std::vector<uint64_t>(4096, 1);
  std::vector<double> values = std::vector<double>(4096, 0.5);
  std::vector<void*> blocks = std::vector<void*>(256, nullptr);
  uint64_t sink = 0;
  ProbeState() = default;
  ~ProbeState();
  ProbeState(const ProbeState&) = delete;
  ProbeState& operator=(const ProbeState&) = delete;
};

/// The reference kernel: one probe's fixed work.
void ReferenceKernel(ProbeState* state);

/// Calibration arithmetic, kept free of clocks for the self-tests.
/// `elasticity` is how much more than the probe a workload slows down
/// on a busy host: the log-log slope of its time on the probe's time.
inline double CalibrationFactor(double probe_seconds,
                                double elasticity = 1.0) {
  return std::pow(kNominalProbeSeconds / probe_seconds, elasticity);
}
inline double Calibrate(double wall_seconds, double factor,
                        double io_seconds = 0.0) {
  return (wall_seconds - io_seconds) * factor + io_seconds;
}

/// A wall-time metric's samples, raw and calibrated, in one unit.
/// Samples join a pending chunk when recorded and get their factor
/// when the chunk ends.
struct Series {
  std::vector<double> raw;
  std::vector<double> cal;
};

/// Runs probe slices and applies their factors to chunk samples.
class Calibrator {
 public:
  using Clock = std::chrono::steady_clock;

  /// `chunk_seconds` is the target length of a measured chunk.
  explicit Calibrator(double chunk_seconds);

  /// Sets the workload's elasticity (see CalibrationFactor) for the
  /// chunks that end from now on.
  void set_elasticity(double elasticity) { elasticity_ = elasticity; }

  /// Records one raw sample into `series`; it is calibrated when the
  /// current chunk ends. `io` is the part of it the CPU probe does
  /// not track (disk waits, or all of it where page faults and the
  /// disk dominate); that part is kept as measured.
  void Record(Series* series, double raw, double io = 0.0);
  /// Ends the chunk now: runs one probe slice and calibrates every
  /// pending sample with its factor.
  void EndChunk();
  /// Ends the chunk if it has run for at least `chunk_seconds`.
  void MaybeEndChunk();
  /// Between these two calls every chunk's own wall time (from the
  /// end of the previous slice to the start of its slice) is recorded
  /// into `window`. Start restarts the chunk clock; Stop ends the
  /// open chunk.
  void StartWindow(Series* window);
  void StopWindow();

  /// Probe slices run so far and their median rate (probes per
  /// second of the reference kernel).
  size_t slices() const { return probe_times_.size(); }
  double ProbesPerSecond() const;

 private:
  double RunSlice();

  double chunk_seconds_;
  double elasticity_ = 1.0;
  Clock::time_point chunk_start_;
  Series* window_ = nullptr;
  struct Pending {
    Series* series;
    size_t index;
    double io;
  };
  std::vector<Pending> pending_;
  std::vector<double> probe_times_;
  ProbeState probe_;
};

/// Seconds between two steady-clock points.
inline double Seconds(Calibrator::Clock::time_point a,
                      Calibrator::Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_CALIBRATION_H_
