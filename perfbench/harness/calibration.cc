#include "harness/calibration.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "harness/stats.h"

namespace perfbench {

ProbeState::~ProbeState() {
  for (void* block : blocks) std::free(block);
}

void ReferenceKernel(ProbeState* state) {
  uint64_t x = 0x9E3779B97F4A7C15ull;
  uint64_t acc = 0;
  uint64_t* table = state->table.data();
  for (uint64_t r = 0; r < kProbeTableRounds; ++r) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const size_t i = static_cast<size_t>(x >> 52);  // 0..4095
    const uint64_t v = table[i];
    table[i] = v + x;
    acc ^= v * (x | 1);
    acc = (acc << 7) | (acc >> 57);
  }
  std::vector<double>& values = state->values;
  const double n = static_cast<double>(values.size());
  for (int pass = 0; pass < kProbeFpPasses; ++pass) {
    for (size_t i = 0; i < values.size(); ++i) {
      const double v = values[i];
      const double s = v * (1.0 - v * v * (1.0 / 6 - v * v * (1.0 / 120)));
      values[i] = s * 0.999 + 0.001 * static_cast<double>(i) / n;
    }
  }
  // malloc/free directly, so the allocation counter never sees it.
  for (uint64_t r = 0; r < kProbeAllocRounds; ++r) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    void*& block = state->blocks[static_cast<size_t>(x >> 56)];
    std::free(block);
    const size_t size = 24 + static_cast<size_t>(x >> 59);
    block = std::malloc(size);
    if (block != nullptr) std::memset(block, static_cast<int>(r), size);
  }
  // Fresh pages: a block above malloc's mmap threshold, touched and
  // returned, costs page faults the way large snapshot buffers do.
  for (int i = 0; i < kProbeFreshBlocks; ++i) {
    auto* fresh = static_cast<unsigned char*>(std::malloc(kProbeFreshBytes));
    if (fresh == nullptr) continue;
    std::memset(fresh, i + 1, kProbeFreshBytes);
    acc += fresh[kProbeFreshBytes / 2];
    std::free(fresh);
  }
  state->sink += acc + static_cast<uint64_t>(values[7] * 1e6);
}

Calibrator::Calibrator(double chunk_seconds)
    : chunk_seconds_(chunk_seconds),
      chunk_start_(Clock::now()) {}

void Calibrator::Record(Series* series, double raw, double io) {
  series->raw.push_back(raw);
  series->cal.push_back(raw);
  pending_.push_back({series, series->raw.size() - 1, io});
}

double Calibrator::RunSlice() {
  double times[kProbesPerSlice];
  for (double& t : times) {
    const Clock::time_point a = Clock::now();
    ReferenceKernel(&probe_);
    t = Seconds(a, Clock::now());
  }
  std::sort(times, times + kProbesPerSlice);
  return times[kProbesPerSlice / 2];
}

void Calibrator::EndChunk() {
  if (window_ != nullptr) {
    Record(window_, Seconds(chunk_start_, Clock::now()));
  }
  probe_times_.push_back(RunSlice());
  // The factor uses the median of the trailing kSmoothingSlices
  // slices: one slice's own noise would otherwise move every sample of
  // its chunk.
  const size_t n = probe_times_.size();
  const size_t from = n > kSmoothingSlices ? n - kSmoothingSlices : 0;
  const double probe = Median(std::vector<double>(
      probe_times_.begin() + static_cast<std::ptrdiff_t>(from),
      probe_times_.end()));
  const double factor = CalibrationFactor(probe, elasticity_);
  for (const Pending& p : pending_) {
    p.series->cal[p.index] = Calibrate(p.series->raw[p.index], factor, p.io);
  }
  pending_.clear();
  chunk_start_ = Clock::now();
}

void Calibrator::MaybeEndChunk() {
  if (Seconds(chunk_start_, Clock::now()) >= chunk_seconds_) EndChunk();
}

void Calibrator::StartWindow(Series* window) {
  window_ = window;
  chunk_start_ = Clock::now();
}

void Calibrator::StopWindow() {
  EndChunk();
  window_ = nullptr;
}

double Calibrator::ProbesPerSecond() const {
  if (probe_times_.empty()) return 0.0;
  return 1.0 / Median(probe_times_);
}

}  // namespace perfbench
