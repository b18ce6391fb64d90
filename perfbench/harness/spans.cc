#include "harness/spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int32_t SpanRecorder::Begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.rep = rep_;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close in reverse order of opening (they are scoped).
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"rep\":%d}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.rep);
  }
  return std::fclose(file) == 0;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  // Child intervals per parent, clipped to the parent and merged, so
  // overlapping children are not subtracted twice.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t a = std::max(s.start_ns, p.start_ns);
    const int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) children[static_cast<size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& c = children[i];
    std::sort(c.begin(), c.end());
    int64_t covered = 0;
    int64_t cur_a = 0;
    int64_t cur_b = -1;
    for (const auto& [a, b] : c) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, LayerTime> SummarizeLayers(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, LayerTime> layers;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTime& layer = layers[LayerOf(spans[i].name)];
    layer.total_ms +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-6;
    layer.self_ms += static_cast<double>(self[i]) * 1e-6;
    ++layer.spans;
  }
  return layers;
}

}  // namespace perfbench
