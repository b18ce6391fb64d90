#include "workloads/common.h"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <unistd.h>
#include <utility>

#include "common/rng.h"
#include "harness/alloc_counter.h"
#include "infra/action.h"
#include "infra/cluster.h"
#include "monitor/load_archive.h"
#include "monitor/monitoring.h"
#include "persist/runner_checkpoint.h"
#include "workload/batch_demand.h"
#include "workload/demand.h"
#include "xmlcfg/xml.h"

namespace perfbench {

using autoglobe::Duration;
using autoglobe::Landscape;
using autoglobe::RunnerConfig;
using autoglobe::SimTime;
using autoglobe::SimulationRunner;
using autoglobe::Status;
namespace infra = autoglobe::infra;
namespace monitor = autoglobe::monitor;
namespace persist = autoglobe::persist;
namespace workload = autoglobe::workload;

void Outcome::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  failures.push_back(what);
}

double MsSince(Clock::time_point start) {
  return Seconds(start, Clock::now()) * 1e3;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t z = seed ^ (a * 0x9E3779B97F4A7C15ull) ^ (b * 0xD1B54A32D192ED03ull);
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

autoglobe::Result<Landscape> LoadLandscapeXml(const std::string& path) {
  AG_ASSIGN_OR_RETURN(autoglobe::xml::Document doc,
                      autoglobe::xml::Document::LoadFile(path));
  return Landscape::FromXml(*doc.root());
}

std::string PaperLandscapeFile(const Options& options,
                               autoglobe::Scenario scenario) {
  const char* name = scenario == autoglobe::Scenario::kStatic ? "static"
                     : scenario == autoglobe::Scenario::kConstrainedMobility
                         ? "cm"
                         : "fm";
  return options.data_dir + "/paper_landscape_" + name + ".xml";
}

// --- Set-up ------------------------------------------------------------

SetupTimer::SetupTimer(Env& env)
    : env_(env), start_(Clock::now()), loaded_(start_) {}

void SetupTimer::Loaded() { loaded_ = Clock::now(); }

void SetupTimer::Created() {
  const Clock::time_point done = Clock::now();
  env_.cal.Record(&env_.out.setup_s, Seconds(start_, done));
  env_.out.landscape_load_ms.push_back(Seconds(start_, loaded_) * 1e3);
  env_.out.runner_create_ms.push_back(Seconds(loaded_, done) * 1e3);
  // Set-up reps run back to back; a probe slice after every rep would
  // evict the caches the next rep starts from.
  env_.cal.MaybeEndChunk();
}

// --- Checkpoints ---------------------------------------------------------

ScratchStore::ScratchStore(const Options& options, const std::string& name)
    : dir_(options.work_dir + "/" + name + "-" +
           std::to_string(static_cast<long long>(::getpid()))) {
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
  auto store = persist::CheckpointStore::Open(dir_, /*keep=*/3);
  if (store.ok()) {
    store_ = std::make_unique<persist::CheckpointStore>(std::move(*store));
  }
}

ScratchStore::~ScratchStore() {
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

void TimedCheckpoint(Env& env, const SimulationRunner& runner,
                     persist::CheckpointStore& store) {
  std::vector<std::pair<std::string, std::string>> sections;
  const Clock::time_point start = Clock::now();
  Status saved;
  {
    ScopedSpan span(env.spans, "autoglobe.SaveStateSections");
    saved = runner.SaveStateSections(&sections);
  }
  const Clock::time_point mid = Clock::now();
  autoglobe::Result<std::string> written = Status::OK();
  if (saved.ok()) {
    ScopedSpan span(env.spans, "persist.CheckpointStore::Write");
    written = store.Write(runner.StateFingerprint(), sections);
  }
  const Clock::time_point done = Clock::now();
  const bool ok = saved.ok() && written.ok();
  env.out.Check(ok, "checkpoint: " + (saved.ok() ? written.status()
                                                 : saved).ToString());
  if (!ok) return;
  // CheckpointStore::Write ends in fsync: disk time, kept as measured.
  env.cal.Record(&env.out.ckpt_ms, Seconds(start, done) * 1e3,
                 Seconds(env.calibrate_persist ? mid : start, done) * 1e3);
  env.out.save_sections_ms.push_back(Seconds(start, mid) * 1e3);
  env.out.store_write_ms.push_back(Seconds(mid, done) * 1e3);
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(*written, ec);
  if (!ec) env.out.snapshot_bytes = static_cast<double>(bytes);
}

std::unique_ptr<SimulationRunner> TimedRestore(
    Env& env, const Landscape& landscape, const RunnerConfig& config,
    const persist::CheckpointStore& store, uint64_t fingerprint) {
  const Clock::time_point start = Clock::now();
  std::optional<autoglobe::Result<persist::CheckpointStore::Loaded>> loaded;
  {
    ScopedSpan span(env.spans, "persist.CheckpointStore::LoadLatest");
    loaded.emplace(store.LoadLatest(fingerprint));
  }
  const Clock::time_point mid = Clock::now();
  if (!loaded->ok()) {
    env.out.Check(false, "restore: " + loaded->status().ToString());
    return nullptr;
  }
  std::optional<autoglobe::Result<std::unique_ptr<SimulationRunner>>> revived;
  {
    ScopedSpan span(env.spans, "persist.RestoreRunner");
    revived.emplace(
        persist::RestoreRunner(landscape, config, (*loaded)->data));
  }
  const Clock::time_point done = Clock::now();
  env.out.Check(revived->ok(), "restore: " + revived->status().ToString());
  if (!revived->ok()) return nullptr;
  const double ms = Seconds(start, done) * 1e3;
  env.cal.Record(&env.out.restore_ms, ms, env.calibrate_persist ? 0.0 : ms);
  env.out.load_latest_ms.push_back(Seconds(start, mid) * 1e3);
  env.out.restore_runner_ms.push_back(Seconds(mid, done) * 1e3);
  return std::move(**revived);
}

// --- Ticks ---------------------------------------------------------------

bool StepOneTick(Env& env, SimulationRunner& runner, SimTime next) {
  Status status;
  double ms = 0.0;
  {
    ScopedSpan span(env.spans, "autoglobe.RunUntil");
    const uint64_t allocs = HeapAllocations();
    const Clock::time_point start = Clock::now();
    status = runner.RunUntil(next);
    ms = MsSince(start);
    env.out.allocs += HeapAllocations() - allocs;
  }
  ++env.out.alloc_ticks;
  if (!status.ok()) {
    env.out.Check(false, "tick: " + status.ToString());
    return false;
  }
  env.cal.Record(&env.out.tick_ms, ms);
  return true;
}

SteppedRun::SteppedRun(Env& env, const Landscape& landscape,
                       const std::string& store_name)
    : env_(env), landscape_(landscape), store_name_(store_name) {}

bool SteppedRun::Start(const RunnerConfig& config, LoadCapture* capture) {
  config_ = config;
  runner_.reset();
  restored_.reset();
  now_ = SimTime::Start();
  checkpoints_written_ = 0;
  simulated_minutes_ = 0.0;
  finished_ = false;
  store_.reset();  // its directory is reused
  store_ = std::make_unique<ScratchStore>(env_.options, store_name_);
  env_.out.Check(store_->ok(), "checkpoint store: cannot open " + store_name_);
  if (!store_->ok()) return false;
  autoglobe::Result<std::unique_ptr<SimulationRunner>> created = Status::OK();
  {
    ScopedSpan span(env_.spans, "autoglobe.SimulationRunner::Create");
    created = SimulationRunner::Create(landscape_, config_);
  }
  env_.out.Check(created.ok(), "create: " + created.status().ToString());
  if (!created.ok()) return false;
  runner_ = std::move(*created);
  if (capture != nullptr) capture->Attach(*runner_, 240);
  return true;
}

bool SteppedRun::Segment(int64_t ticks, int checkpoints, bool restore) {
  if (runner_ == nullptr || finished_) return false;
  const SimTime end = SimTime::Start() + config_.duration;
  for (int64_t i = 0; i < ticks && now_ < end; ++i) {
    const SimTime next = now_ + config_.tick;
    if (!StepOneTick(env_, *runner_, next)) return false;
    now_ = next;
  }
  if (now_ >= end) {
    Finish();
    return true;
  }
  for (int i = 0; i < checkpoints; ++i) {
    TimedCheckpoint(env_, *runner_, store_->store());
    ++checkpoints_written_;
    if (!restore) continue;
    std::unique_ptr<SimulationRunner> restored =
        TimedRestore(env_, landscape_, config_, store_->store(),
                     runner_->StateFingerprint());
    if (restored == nullptr) return false;
    if (restored_ == nullptr) restored_ = std::move(restored);
  }
  return true;
}

void SteppedRun::Finish() {
  finished_ = true;
  runner_->set_sample_hook(nullptr);
  simulated_minutes_ = static_cast<double>(now_.seconds()) / 60.0;
  const Status invariants = infra::VerifyClusterInvariants(runner_->cluster());
  env_.out.Check(invariants.ok(), "invariants: " + invariants.ToString());
  if (restored_ == nullptr && checkpoints_written_ > 0) {
    restored_ = TimedRestore(env_, landscape_, config_, store_->store(),
                             runner_->StateFingerprint());
  }
  if (restored_ == nullptr) return;
  const int64_t resumed_at = restored_->simulator().now().seconds();
  Status status;
  {
    ScopedSpan span(env_.spans, "autoglobe.RunUntil");
    status = restored_->RunUntil(now_);
  }
  simulated_minutes_ +=
      static_cast<double>(now_.seconds() - resumed_at) / 60.0;
  const bool same =
      status.ok() && SameRunMetrics(runner_->metrics(), restored_->metrics()) &&
      SameAvailability(runner_->availability_report(),
                       restored_->availability_report());
  env_.out.Check(same, "restore-then-finish differs from the "
                       "uninterrupted run (" + store_name_ + ")");
  const Status restored_invariants =
      infra::VerifyClusterInvariants(restored_->cluster());
  env_.out.Check(restored_invariants.ok(),
                 "restored invariants: " + restored_invariants.ToString());
  restored_.reset();
}

void AddSimCounts(Outcome& out, const SimulationRunner& runner) {
  const int64_t seconds = runner.simulator().now().seconds();
  out.events += runner.simulator().dispatched_events();
  out.event_minutes += static_cast<double>(seconds) / 60.0;
  out.evaluations += runner.monitoring().evaluations();
  out.skips += runner.monitoring().skips();
  out.monitor_ticks += seconds / runner.config().tick.seconds();
}

void AddControlCounts(Outcome& out, SimulationRunner& runner) {
  out.triggers += runner.metrics().triggers;
  out.actions += runner.metrics().actions_executed;
  out.control_hours +=
      static_cast<double>(runner.simulator().now().seconds()) / 3600.0;
  if (const auto* injector = runner.fault_injector()) {
    const auto& stats = injector->stats();
    out.faults_injected += stats.instances_crashed + stats.servers_failed +
                           stats.action_windows_opened +
                           stats.dropouts_opened;
  }
  if (const auto* recovery = runner.recovery_manager()) {
    out.faults_recovered += recovery->stats().recovered;
    out.faults_abandoned += recovery->stats().abandoned;
  }
}

namespace {
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}
}  // namespace

bool SameRunMetrics(const autoglobe::RunMetrics& a,
                    const autoglobe::RunMetrics& b) {
  return SameBits(a.overload_server_minutes, b.overload_server_minutes) &&
         SameBits(a.max_overload_streak_minutes,
                  b.max_overload_streak_minutes) &&
         SameBits(a.overload_fraction, b.overload_fraction) &&
         SameBits(a.lost_work_wu, b.lost_work_wu) &&
         SameBits(a.average_cpu_load, b.average_cpu_load) &&
         a.triggers == b.triggers &&
         a.actions_executed == b.actions_executed &&
         a.actions_failed == b.actions_failed && a.alerts == b.alerts &&
         a.failures_injected == b.failures_injected &&
         a.failures_remedied == b.failures_remedied &&
         SameBits(a.sla_violation_minutes, b.sla_violation_minutes) &&
         a.oscillations == b.oscillations &&
         a.strategy_reward_updates == b.strategy_reward_updates &&
         a.strategy_weight_updates == b.strategy_weight_updates;
}

bool SameAvailability(const autoglobe::faults::AvailabilityReport& a,
                      const autoglobe::faults::AvailabilityReport& b) {
  return a.faults_injected == b.faults_injected &&
         a.instance_crashes == b.instance_crashes &&
         a.server_failures == b.server_failures &&
         a.action_failure_windows == b.action_failure_windows &&
         a.monitor_dropouts == b.monitor_dropouts &&
         a.episodes == b.episodes && a.detected == b.detected &&
         a.recovered == b.recovered && a.abandoned == b.abandoned &&
         a.open == b.open &&
         SameBits(a.mttd_minutes_mean, b.mttd_minutes_mean) &&
         SameBits(a.mttr_minutes_mean, b.mttr_minutes_mean) &&
         SameBits(a.mttr_minutes_max, b.mttr_minutes_max) &&
         SameBits(a.unavailability_instance_minutes,
                  b.unavailability_instance_minutes) &&
         SameBits(a.objective_satisfaction, b.objective_satisfaction);
}

// --- Replays ---------------------------------------------------------------

void LoadCapture::Attach(SimulationRunner& runner, size_t max_ticks) {
  // Storage is sized here, so the hook itself never allocates and the
  // steady-state allocation count stays the program's own.
  const infra::LandscapeIndex& index = runner.cluster().Index();
  ticks_.clear();
  ticks_.resize(max_ticks);
  for (Tick& tick : ticks_) {
    tick.servers.resize(index.num_servers());
    tick.services.resize(index.num_services());
  }
  used_ = 0;
  runner.set_sample_hook([this](SimTime now,
                                const workload::DemandEngine& demand,
                                const infra::Cluster& cluster) {
    if (used_ >= ticks_.size()) return;
    const infra::LandscapeIndex& index = cluster.Index();
    Tick& tick = ticks_[used_];
    if (tick.servers.size() != index.num_servers() ||
        tick.services.size() != index.num_services()) {
      return;  // topology changed; keep what matches the replay monitor
    }
    tick.at = now;
    for (size_t s = 0; s < tick.servers.size(); ++s) {
      tick.servers[s] =
          demand.ServerCpuLoadById(static_cast<infra::DenseId>(s));
    }
    for (size_t s = 0; s < tick.services.size(); ++s) {
      tick.services[s] =
          demand.ServiceLoadById(static_cast<infra::DenseId>(s));
    }
    ++used_;
  });
}

void ReplayDemand(Env& env, const Landscape& landscape,
                  const RunnerConfig& config, int ticks) {
  infra::Cluster cluster;
  workload::DemandEngine engine(&cluster, autoglobe::Rng(config.seed));
  engine.SeedRng(config.seed, config.rng_kind);
  const Status built = landscape.Build(&cluster, &engine);
  env.out.Check(built.ok(), "demand replay: " + built.ToString());
  if (!built.ok()) return;
  engine.set_user_scale(config.user_scale);
  engine.set_distribution(config.distribution);
  engine.set_fluctuation_per_minute(config.fluctuation_per_minute);
  engine.set_overload_threshold(config.overload_threshold);
  SimTime now = SimTime::Start();
  for (int i = 0; i < ticks; ++i) {
    now = now + config.tick;
    ScopedSpan span(env.spans, "workload.DemandEngine::Tick");
    const Clock::time_point start = Clock::now();
    engine.Tick(now, config.tick);
    env.out.demand_tick_us.push_back(MsSince(start) * 1e3);
  }
}

void ReplayBatchDemand(Env& env, const Landscape& landscape,
                       const RunnerConfig& config, size_t lanes,
                       int ticks) {
  infra::Cluster cluster;
  workload::BatchDemandEngine engine(&cluster, lanes);
  engine.set_rng_kind(config.rng_kind);
  const Status built = landscape.Build(&cluster, &engine);
  env.out.Check(built.ok(), "batch demand replay: " + built.ToString());
  if (!built.ok()) return;
  for (size_t lane = 0; lane < lanes; ++lane) {
    engine.SetLaneSeed(lane, DeriveSeed(config.seed, lane));
    engine.SetLaneUserScale(lane, config.user_scale);
  }
  engine.set_distribution(config.distribution);
  engine.set_fluctuation_per_minute(config.fluctuation_per_minute);
  engine.set_overload_threshold(config.overload_threshold);
  SimTime now = SimTime::Start();
  for (int i = 0; i < ticks; ++i) {
    now = now + config.tick;
    ScopedSpan span(env.spans, "workload.BatchDemandEngine::Tick");
    const Clock::time_point start = Clock::now();
    engine.Tick(now, config.tick);
    env.out.batch_tick_us.push_back(MsSince(start) * 1e3);
  }
}

void ReplayMonitor(Env& env, const Landscape& landscape,
                   const RunnerConfig& config, const LoadCapture& capture) {
  infra::Cluster cluster;
  const Status built = landscape.Build(&cluster, nullptr);
  env.out.Check(built.ok(), "monitor replay: " + built.ToString());
  if (!built.ok()) return;
  monitor::LoadArchive archive(config.archive_retention,
                               config.archive_bucket);
  archive.set_capacity_hints(
      static_cast<size_t>(config.archive_retention.seconds() /
                          config.tick.seconds()) + 2,
      static_cast<size_t>(config.duration.seconds() /
                          config.archive_bucket.seconds()) + 2);
  monitor::LoadMonitoringSystem mon(&archive, config.monitor);
  mon.set_trigger_callback([](const monitor::Trigger&) {});
  const infra::LandscapeIndex& index = cluster.Index();
  std::vector<monitor::SubjectId> servers;
  std::vector<monitor::SubjectId> services;
  bool ok = true;
  for (const infra::ServerSpec* server : cluster.Servers()) {
    ok &= mon.RegisterSubject(monitor::TriggerKind::kServerOverloaded,
                              server->name, server->performance_index)
              .ok();
  }
  for (const infra::ServiceSpec* service : cluster.Services()) {
    std::optional<Duration> watch;
    if (service->watch_time_minutes > 0) {
      watch = Duration::Minutes(service->watch_time_minutes);
    }
    ok &= mon.RegisterSubject(monitor::TriggerKind::kServiceOverloaded,
                              service->name, 1.0, watch)
              .ok();
  }
  for (size_t s = 0; s < index.num_servers() && ok; ++s) {
    auto id = mon.SubjectIdOf(index.ServerName(static_cast<infra::DenseId>(s)));
    ok = id.ok();
    if (ok) servers.push_back(*id);
  }
  for (size_t s = 0; s < index.num_services() && ok; ++s) {
    auto id =
        mon.SubjectIdOf(index.ServiceName(static_cast<infra::DenseId>(s)));
    ok = id.ok();
    if (ok) services.push_back(*id);
  }
  env.out.Check(ok, "monitor replay: subject registration");
  if (!ok) return;
  for (size_t t = 0; t < capture.captured(); ++t) {
    const LoadCapture::Tick& tick = capture.ticks()[t];
    if (tick.servers.size() != servers.size() ||
        tick.services.size() != services.size()) {
      continue;
    }
    ScopedSpan span(env.spans, "monitor.ObserveById");
    const Clock::time_point start = Clock::now();
    for (size_t s = 0; s < servers.size(); ++s) {
      ok &= mon.ObserveById(tick.at, servers[s], tick.servers[s]).ok();
    }
    for (size_t s = 0; s < services.size(); ++s) {
      ok &= mon.ObserveById(tick.at, services[s], tick.services[s]).ok();
    }
    const double ns = MsSince(start) * 1e6;
    env.out.observe_ns.push_back(
        ns / static_cast<double>(servers.size() + services.size()));
  }
  env.out.Check(ok, "monitor replay: ObserveById");
}

void ReplayController(Env& env, SimulationRunner& runner) {
  const autoglobe::controller::Controller& controller = runner.controller();
  if (const autoglobe::obs::AuditLog* audit = runner.audit_log()) {
    for (const autoglobe::obs::DecisionAudit& record : audit->records()) {
      std::optional<monitor::TriggerKind> kind;
      constexpr int kLastKind =
          static_cast<int>(monitor::TriggerKind::kServerFailed);
      for (int k = 0; k <= kLastKind; ++k) {
        const auto candidate = static_cast<monitor::TriggerKind>(k);
        if (monitor::TriggerKindName(candidate) == record.trigger_kind) {
          kind = candidate;
        }
      }
      if (!kind.has_value() ||
          *kind == monitor::TriggerKind::kInstanceFailed ||
          *kind == monitor::TriggerKind::kServerFailed) {
        continue;  // failure triggers bypass fuzzy action selection
      }
      monitor::Trigger trigger{*kind, record.subject, record.at,
                               record.average_load, 0};
      ScopedSpan span(env.spans, "controller.RankActions");
      const Clock::time_point start = Clock::now();
      auto ranked = controller.RankActions(trigger);
      env.out.rank_actions_us.push_back(MsSince(start) * 1e3);
      (void)ranked;  // subjects may have moved since; the cost counts
    }
  }
  const SimTime now = runner.simulator().now();
  for (const infra::ActionRecord& record : runner.executor().log()) {
    if (!infra::ActionNeedsTargetServer(record.action.type)) continue;
    ScopedSpan span(env.spans, "controller.RankServers");
    const Clock::time_point start = Clock::now();
    auto ranked = controller.RankServers(record.action, now);
    env.out.rank_servers_us.push_back(MsSince(start) * 1e3);
    (void)ranked;
  }
}

double PeakRssMb() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  while (std::fgets(line, sizeof line, file) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      mb = std::atof(line + 6) / 1024.0;
      break;
    }
  }
  std::fclose(file);
  return mb;
}

}  // namespace perfbench
