#ifndef PERFBENCH_HARNESS_SPANS_H_
#define PERFBENCH_HARNESS_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call into a layer. `name` is "<layer>.<call>"; the layer
/// part is what self times are grouped by.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span, or -1 at the top level.
  int32_t parent = -1;
  /// Rep of the workload the span belongs to (-1 outside reps).
  int32_t rep = -1;
};

/// In-memory span log of a traced run. Spans nest by call order: a
/// span begun while another is open becomes its child. Written out
/// once, when the benchmark ends.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span and returns its index.
  int32_t Begin(std::string name);
  void End(int32_t index);

  void set_rep(int32_t rep) { rep_ = rep; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span, one per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  int32_t rep_ = -1;
};

/// RAII span; a null recorder makes it a no-op, so untraced runs pay
/// one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder),
        index_(recorder ? recorder->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t index_;
};

/// Per-layer totals: time inside the layer's spans and its self time
/// (span duration minus the part of it that child spans cover).
struct LayerTime {
  double total_ms = 0.0;
  double self_ms = 0.0;
  int64_t spans = 0;
};

/// Layer name of a span name: the part before the first '.'.
std::string LayerOf(const std::string& span_name);

/// Self time of every span, in nanoseconds, index-aligned with
/// `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Sums total and self time per layer.
std::map<std::string, LayerTime> SummarizeLayers(
    const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SPANS_H_
