// Self-tests of the benchmark's own arithmetic: calibration, percentile
// evidence, span self times, and the Table 7 error on the committed
// landscape files.
//
//   python3 perfbench/run.py --selftest

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autoglobe/capacity.h"
#include "autoglobe/landscape.h"
#include "harness/calibration.h"
#include "harness/spans.h"
#include "harness/stats.h"
#include "workloads/common.h"
#include "workloads/workload.h"
#include "xmlcfg/xml.h"

namespace perfbench {
namespace {

TEST(Calibration, FactorScalesToNominalHost) {
  EXPECT_DOUBLE_EQ(CalibrationFactor(kNominalProbeSeconds), 1.0);
  EXPECT_DOUBLE_EQ(CalibrationFactor(2 * kNominalProbeSeconds), 0.5);
  EXPECT_DOUBLE_EQ(CalibrationFactor(2 * kNominalProbeSeconds, 2.0), 0.25);
  EXPECT_DOUBLE_EQ(Calibrate(10.0, 0.5), 5.0);
  // The disk-wait part is kept as measured.
  EXPECT_DOUBLE_EQ(Calibrate(10.0, 0.5, 4.0), 7.0);
}

TEST(Calibration, ChunkSamplesShareTheSliceFactor) {
  Calibrator cal(1e9);
  Series a;
  Series b;
  cal.Record(&a, 2.0);
  cal.Record(&b, 6.0, 1.0);
  EXPECT_EQ(a.cal[0], 2.0);  // pending until the chunk ends
  cal.EndChunk();
  const double factor = a.cal[0] / a.raw[0];
  EXPECT_GT(factor, 0.0);
  EXPECT_DOUBLE_EQ(b.cal[0], 5.0 * factor + 1.0);
  EXPECT_EQ(cal.slices(), 1u);
  EXPECT_GT(cal.ProbesPerSecond(), 0.0);
}

TEST(Calibration, WindowRecordsChunkTimes) {
  Calibrator cal(1e9);
  Series window;
  cal.StartWindow(&window);
  cal.EndChunk();
  cal.EndChunk();
  cal.StopWindow();
  EXPECT_EQ(window.raw.size(), 3u);
  cal.EndChunk();  // outside the window: nothing recorded
  EXPECT_EQ(window.raw.size(), 3u);
}

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentiles, ReportTheirSampleCount) {
  const Percentile p50 = PercentileOf(OneTo(100), 0.5);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  const Percentile empty = PercentileOf({}, 0.5);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_FALSE(empty.tail_ok);
}

TEST(Percentiles, P99FlaggedWithFewerThanTenBeyond) {
  const Percentile thin = PercentileOf(OneTo(999), 0.99);
  EXPECT_EQ(thin.beyond, 9u);
  EXPECT_FALSE(thin.tail_ok);
  const Percentile enough = PercentileOf(OneTo(1000), 0.99);
  EXPECT_EQ(enough.value, 990.0);
  EXPECT_EQ(enough.beyond, 10u);
  EXPECT_TRUE(enough.tail_ok);
}

TEST(Percentiles, SegmentedTakesMedianOfParts) {
  // Three parts of 1000; the middle one is slow throughout.
  std::vector<double> v = OneTo(1000);
  for (size_t i = 1; i <= 1000; ++i) v.push_back(10.0 * static_cast<double>(i));
  for (size_t i = 1; i <= 1000; ++i) v.push_back(static_cast<double>(i) + 1.0);
  const Percentile p = SegmentedPercentile(v, 0.99, 3);
  EXPECT_EQ(p.value, 991.0);  // median of {990, 9900, 991}
  EXPECT_EQ(p.samples, 3000u);
  EXPECT_TRUE(p.tail_ok);
  // 1500 samples: each part has 500, so the tail is too thin.
  EXPECT_FALSE(SegmentedPercentile(OneTo(1500), 0.99, 3).tail_ok);
}

TEST(Spans, SelfTimeSubtractsNestedChildren) {
  std::vector<Span> spans = {
      {"autoglobe.run", 0, 100, -1, 0},   // 0
      {"persist.write", 10, 40, 0, 0},    // 1, child of 0
      {"monitor.observe", 20, 30, 1, 0},  // 2, child of 1
      {"persist.write", 50, 70, 0, 0},    // 3, child of 0
      {"persist.write", 60, 80, 0, 0},    // 4, overlaps 3
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 30 - 30);  // children cover [10,40] and [50,80]
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 20);
  const auto layers = SummarizeLayers(spans);
  EXPECT_DOUBLE_EQ(layers.at("persist").self_ms, (20 + 20 + 20) * 1e-6);
  EXPECT_EQ(layers.at("persist").spans, 3);
  EXPECT_EQ(LayerOf("controller.RankActions"), "controller");
}

TEST(Spans, RecorderNestsByCallOrder) {
  SpanRecorder recorder;
  recorder.set_rep(3);
  {
    ScopedSpan outer(&recorder, "harness.rep");
    ScopedSpan inner(&recorder, "autoglobe.RunUntil");
  }
  ScopedSpan next(&recorder, "persist.Write");
  ASSERT_EQ(recorder.spans().size(), 3u);
  EXPECT_EQ(recorder.spans()[0].parent, -1);
  EXPECT_EQ(recorder.spans()[1].parent, 0);
  EXPECT_EQ(recorder.spans()[2].parent, -1);
  EXPECT_EQ(recorder.spans()[1].rep, 3);
  EXPECT_LE(recorder.spans()[1].end_ns, recorder.spans()[0].end_ns);
  ScopedSpan untraced(nullptr, "autoglobe.noop");  // no recorder: no-op
}

TEST(Table7, ErrorSumArithmetic) {
  const double exact[3] = {1.0, 1.15, 1.35};
  EXPECT_EQ(Table7ErrorPp(exact), 0.0);
  const double off[3] = {1.05, 1.15, 1.25};
  EXPECT_EQ(Table7ErrorPp(off), 15.0);
}

TEST(Table7, ErrorIsZeroOnCommittedData) {
  const autoglobe::Scenario scenarios[3] = {
      autoglobe::Scenario::kStatic, autoglobe::Scenario::kConstrainedMobility,
      autoglobe::Scenario::kFullMobility};
  Options options;
  options.data_dir = PERFBENCH_DATA_DIR;
  for (autoglobe::Scenario scenario : scenarios) {
    // The committed description files are the landscapes the sweep uses.
    auto parsed = LoadLandscapeXml(PaperLandscapeFile(options, scenario));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    autoglobe::xml::Document a;
    autoglobe::xml::Document b;
    parsed->ToXml(a.SetRoot("landscape"));
    autoglobe::MakePaperLandscape(scenario).ToXml(b.SetRoot("landscape"));
    EXPECT_EQ(a.ToString(), b.ToString());
  }
  autoglobe::CapacityOptions sweep;
  sweep.seed = 42;
  sweep.parallelism = 1;
  auto result = autoglobe::FindCapacityAll(sweep);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 3u);
  const double max_scale[3] = {(*result)[0].max_scale, (*result)[1].max_scale,
                               (*result)[2].max_scale};
  EXPECT_EQ(Table7ErrorPp(max_scale), 0.0);
}

}  // namespace
}  // namespace perfbench
