#include "core/scan_engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/scan_session.h"
#include "obs/trace.h"
#include "support/strings.h"

namespace gb::core {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

std::size_t pool_workers(std::size_t parallelism) {
  if (parallelism == 0) {
    parallelism =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return parallelism - 1;  // the calling thread is the other executor
}

void json_id_array(std::ostringstream& os,
                   const std::vector<std::string>& ids) {
  os << '[';
  bool first = true;
  for (const auto& id : ids) {
    if (!first) os << ',';
    first = false;
    os << json_quote(id);
  }
  os << ']';
}

/// Runs one provider view, converting any stray exception into an
/// internal-error Status: a buggy provider degrades its own diff, it
/// does not take down the worker or the session.
template <typename F>
support::StatusOr<ScanResult> guarded_scan(F&& f) {
  try {
    return f();
  } catch (const std::exception& e) {
    return support::Status::internal(e.what());
  }
}

constexpr const char* kInjectedViewName = "injected scans (all processes)";

/// The differ's input for one view. A failed view passes through as a
/// failed ViewInput — the matrix differ degrades per-view, so the
/// surviving views still yield findings.
ViewInput input_of(const std::string& id, TrustLevel trust,
                   const support::StatusOr<ScanResult>& r) {
  if (!r.ok()) return ViewInput{id, trust, nullptr, r.status()};
  return ViewInput{id, trust, &*r, {}};
}

/// Counts `views` into a run's tally and returns the work of those that
/// completed — what their diff charges as simulated time.
machine::ScanWork tally_views(Report::Metrics& tally,
                              std::span<const ViewInput> views) {
  machine::ScanWork work;
  for (const auto& v : views) {
    ++tally.provider_scans;
    if (v.ok()) {
      work += v.result->work;
    } else {
      ++tally.scan_failures;
    }
  }
  return work;
}

}  // namespace

namespace internal {

/// One executed view: its outcome and the wall time the task took.
struct ViewOutcome {
  support::StatusOr<ScanResult> result;
  double wall = 0;
};

/// One view to run: the span it opens, the process it runs in (a span
/// argument, set only for the injected scan's per-process API views),
/// the outcome slot it fills and the scan itself.
struct ViewTask {
  std::string span;
  std::string image;
  ViewOutcome* out = nullptr;
  std::function<support::StatusOr<ScanResult>()> scan;
};

/// One provider's views in a run: the API view's outcome (unused by the
/// outside diff, whose API views come from the capture) and the
/// registered trusted views of one scan phase with theirs.
struct ProviderRun {
  const ResourceScanner* scanner = nullptr;
  ViewOutcome api;
  std::vector<ResourceScanner::ViewDef> defs;
  std::vector<ViewOutcome> trusted;  // parallel to defs

  ProviderRun(const ResourceScanner& s, ScanPhase phase,
              const ScanConfig& cfg)
      : scanner(&s), defs(s.trusted_views(phase, cfg)), trusted(defs.size()) {}

  [[nodiscard]] std::string span(std::string_view view) const {
    return std::string("scan.") + resource_type_name(scanner->type()) + "." +
           std::string(view);
  }

  /// The API view's task, taken from `ctx`'s process.
  [[nodiscard]] ViewTask api_task(const ScanTaskContext& t,
                                  const winapi::Ctx& ctx, ViewOutcome& out,
                                  std::string_view view = "high") const {
    return ViewTask{span(view), "", &out, [s = scanner, &t, &ctx] {
                      return s->high_scan(t, ctx);
                    }};
  }

  /// Appends one task per trusted view (`src` is null in the live phase).
  void add_trusted_tasks(std::vector<ViewTask>& tasks, const ScanTaskContext& t,
                         const OutsideSources* src) {
    for (std::size_t v = 0; v < defs.size(); ++v) {
      tasks.push_back(ViewTask{
          span(src == nullptr ? defs[v].id : "outside." + defs[v].id), "",
          &trusted[v], [&t, src, &def = defs[v]] { return def.run(t, src); }});
    }
  }

  /// `api_result` followed by every trusted view: a diff's view list.
  [[nodiscard]] std::vector<ViewInput> inputs(
      const support::StatusOr<ScanResult>& api_result) const {
    std::vector<ViewInput> out{
        input_of(kApiViewId, TrustLevel::kApiView, api_result)};
    for (std::size_t v = 0; v < defs.size(); ++v) {
      out.push_back(input_of(defs[v].id, defs[v].trust, trusted[v].result));
    }
    return out;
  }

  /// Summed scan wall time of the API and trusted views.
  [[nodiscard]] double wall() const {
    double w = api.wall;
    for (const auto& o : trusted) w += o.wall;
    return w;
  }

  [[nodiscard]] bool any_trusted_ok() const {
    return std::any_of(trusted.begin(), trusted.end(),
                       [](const ViewOutcome& o) { return o.result.ok(); });
  }
};

}  // namespace internal

using internal::ProviderRun;
using internal::ViewOutcome;
using internal::ViewTask;

const char* scan_kind_name(ScanKind kind) {
  switch (kind) {
    case ScanKind::kInside: return "inside";
    case ScanKind::kInjected: return "injected";
    case ScanKind::kOutside: return "outside";
  }
  return "unknown";
}

bool Report::infection_detected() const {
  for (const auto& d : diffs) {
    if (!d.hidden.empty()) return true;
  }
  return false;
}

bool Report::degraded() const {
  for (const auto& d : diffs) {
    if (d.degraded()) return true;
  }
  return false;
}

std::size_t Report::hidden_count(ResourceType type) const {
  std::size_t n = 0;
  for (const auto& d : diffs) {
    if (d.type == type) n += d.hidden.size();
  }
  return n;
}

std::vector<Finding> Report::all_hidden() const {
  std::vector<Finding> out;
  for (const auto& d : diffs) {
    out.insert(out.end(), d.hidden.begin(), d.hidden.end());
  }
  return out;
}

const DiffReport* Report::diff_for(ResourceType type) const {
  for (const auto& d : diffs) {
    if (d.type == type) return &d;
  }
  return nullptr;
}

std::string Report::to_string() const {
  std::ostringstream os;
  os << "=== Strider GhostBuster report ===\n";
  for (const auto& d : diffs) {
    os << "[" << resource_type_name(d.type) << "] " << d.high_view << " ("
       << d.high_count << ") vs " << d.low_view << " (" << d.low_count
       << ", " << trust_level_name(d.low_trust) << ")\n";
    // The N-view matrix behind the pairwise line above, when there is
    // more to it than that pair.
    if (d.views.size() > 2) {
      for (const auto& v : d.views) {
        os << "  view " << v.id << ": " << v.name << " (" << v.count << ")";
        if (v.degraded()) os << " DEGRADED: " << v.status.to_string();
        os << "\n";
      }
    }
    if (d.degraded()) {
      os << "  DEGRADED: " << d.status.to_string() << "\n";
      if (d.hidden.empty() && d.extra.empty()) continue;
    }
    for (const auto& f : d.hidden) {
      os << "  HIDDEN: " << f.resource.display;
      if (!f.found_in.empty()) {
        os << " [in:";
        for (const auto& id : f.found_in) os << ' ' << id;
        os << "]";
      }
      os << "\n";
    }
    for (const auto& f : d.extra) {
      os << "  extra-in-api-view: " << f.resource.display << "\n";
    }
    if (!d.degraded() && d.clean()) os << "  (no discrepancies)\n";
  }
  os << (infection_detected() ? ">>> hidden resources detected"
                              : ">>> machine appears clean");
  if (degraded()) os << " (PARTIAL: some resource types degraded)";
  os << "\n";
  return os.str();
}

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\"schema_version\":\"2.5\""
     << ",\"infected\":" << (infection_detected() ? "true" : "false")
     << ",\"degraded\":" << (degraded() ? "true" : "false")
     << ",\"simulated_seconds\":" << total_simulated_seconds
     << ",\"wall_seconds\":" << total_wall_seconds
     << ",\"worker_threads\":" << worker_threads << ",\"scheduler\":";
  if (scheduler) {
    os << "{\"tenant\":";
    os << json_quote(scheduler->tenant);
    os << ",\"job_id\":" << scheduler->job_id
       << ",\"priority\":" << scheduler->priority
       << ",\"queue_seconds\":" << scheduler->queue_seconds << '}';
  } else {
    os << "null";
  }
  os << ",\"metrics\":";
  if (metrics) {
    os << "{\"provider_scans\":" << metrics->provider_scans
       << ",\"scan_failures\":" << metrics->scan_failures
       << ",\"degraded_diffs\":" << metrics->degraded_diffs
       << ",\"hidden_resources\":" << metrics->hidden_resources
       << ",\"extra_resources\":" << metrics->extra_resources << '}';
  } else {
    os << "null";
  }
  os << ",\"incremental\":";
  if (incremental) {
    os << "{\"incremental\":" << (incremental->incremental ? "true" : "false")
       << ",\"fallback_reason\":";
    os << json_quote(incremental->fallback_reason);
    os << ",\"journal_id\":" << incremental->journal_id
       << ",\"cursor\":" << incremental->cursor
       << ",\"journal_records\":" << incremental->journal_records
       << ",\"records_reparsed\":" << incremental->records_reparsed
       << ",\"records_spliced\":" << incremental->records_spliced << '}';
  } else {
    os << "null";
  }
  os << ",\"diffs\":[";
  bool first_diff = true;
  for (const auto& d : diffs) {
    if (!first_diff) os << ',';
    first_diff = false;
    os << "{\"type\":";
    os << json_quote(resource_type_name(d.type));
    os << ",\"status\":" << (d.degraded() ? "\"degraded\"" : "\"ok\"")
       << ",\"degraded\":" << (d.degraded() ? "true" : "false")
       << ",\"error\":";
    os << json_quote(d.degraded() ? d.status.to_string() : "");
    os << ",\"views\":[";
    bool first_view = true;
    for (const auto& v : d.views) {
      if (!first_view) os << ',';
      first_view = false;
      os << "{\"id\":";
      os << json_quote(v.id);
      os << ",\"name\":";
      os << json_quote(v.name);
      os << ",\"trust\":";
      os << json_quote(trust_level_name(v.trust));
      os << ",\"count\":" << v.count
         << ",\"status\":" << (v.degraded() ? "\"degraded\"" : "\"ok\"")
         << ",\"degraded\":" << (v.degraded() ? "true" : "false")
         << ",\"error\":";
      os << json_quote(v.degraded() ? v.status.to_string() : "");
      os << '}';
    }
    os << "],\"high_view\":";
    os << json_quote(d.high_view);
    os << ",\"low_view\":";
    os << json_quote(d.low_view);
    os << ",\"trust\":";
    os << json_quote(trust_level_name(d.low_trust));
    os << ",\"high_count\":" << d.high_count
       << ",\"low_count\":" << d.low_count
       << ",\"simulated_seconds\":" << d.simulated_seconds
       << ",\"wall_seconds\":" << d.wall_seconds << ",\"hidden\":[";
    bool first = true;
    for (const auto& f : d.hidden) {
      if (!first) os << ',';
      first = false;
      os << "{\"key\":";
      os << json_quote(f.resource.key);
      os << ",\"display\":";
      os << json_quote(f.resource.display);
      os << ",\"found_in\":";
      json_id_array(os, f.found_in);
      os << ",\"missing_from\":";
      json_id_array(os, f.missing_from);
      os << '}';
    }
    os << "],\"extra_count\":" << d.extra.size() << '}';
  }
  os << "]}";
  return os.str();
}

ScanEngine::ScanEngine(machine::Machine& m, ScanConfig cfg)
    : machine_(m),
      cfg_(std::move(cfg)),
      pool_(pool_workers(cfg_.parallelism)),
      scanners_(default_scanners(cfg_.resources)) {
  if (cfg_.collect_metrics) {
    registry_ = cfg_.metrics != nullptr ? cfg_.metrics
                                        : &obs::default_registry();
    pool_.instrument(*registry_);
  }
}

void ScanEngine::register_scanner(std::unique_ptr<ResourceScanner> scanner) {
  scanners_.push_back(std::move(scanner));
}

winapi::Ctx ScanEngine::scanner_context() {
  const std::string image_path =
      "C:\\windows\\system32\\" + cfg_.scanner_image;
  const kernel::Pid pid = machine_.ensure_process(image_path);
  return machine_.context_for(pid);
}

void ScanEngine::finalize(Report& report, double wall_seconds,
                          const char* kind, Report::Metrics m) {
  for (auto& d : report.diffs) {
    report.total_simulated_seconds += d.simulated_seconds;
  }
  report.total_wall_seconds = wall_seconds;
  report.worker_threads = worker_count();
  machine_.clock().advance(
      VirtualClock::seconds(report.total_simulated_seconds));

  if (registry_ == nullptr) return;
  // The report block holds only deterministic quantities (counts and
  // simulated time); wall-clock observations go to the registry, which
  // never feeds back into report bytes.
  for (const auto& d : report.diffs) {
    if (d.degraded()) ++m.degraded_diffs;
    m.hidden_resources += d.hidden.size();
    m.extra_resources += d.extra.size();
  }
  report.metrics = m;

  obs::MetricsRegistry& reg = *registry_;
  reg.set_help("gb_engine_runs_total", "Engine runs by scan kind");
  reg.set_help("gb_engine_hidden_resources_total",
               "Hidden resources detected across runs");
  reg.set_help("gb_engine_run_seconds", "Wall-clock time of one engine run");
  reg.counter("gb_engine_runs_total", {{"kind", kind}}).inc();
  reg.counter("gb_engine_provider_scans_total")
      .add(static_cast<double>(m.provider_scans));
  reg.counter("gb_engine_scan_failures_total")
      .add(static_cast<double>(m.scan_failures));
  reg.counter("gb_engine_degraded_diffs_total")
      .add(static_cast<double>(m.degraded_diffs));
  reg.counter("gb_engine_hidden_resources_total")
      .add(static_cast<double>(m.hidden_resources));
  reg.counter("gb_engine_simulated_seconds_total")
      .add(report.total_simulated_seconds);
  reg.histogram("gb_engine_run_seconds", obs::default_latency_buckets())
      .observe(wall_seconds);
}

ScanTaskContext ScanEngine::task_context() {
  return ScanTaskContext{machine_, &pool_, cfg_};
}

void ScanEngine::flush_hives_if_needed() {
  if (!cfg_.registry.flush_hives_first) return;
  for (const auto& s : scanners_) {
    if (s->type() == ResourceType::kAsepHook) {
      machine_.flush_registry();  // serial pre-phase: no writes mid-scan
      return;
    }
  }
}

support::StatusOr<Report> ScanEngine::run(const JobSpec& spec) {
  // Direct engine use joins the caller's trace here. The scheduler path
  // leaves spec.trace invalid on the inner run spec — its dispatcher
  // already installed the job context, and re-installing the root here
  // would detach the engine spans from their sched.job parent.
  std::optional<obs::TraceContextScope> trace_scope;
  if (spec.trace.valid()) trace_scope.emplace(spec.trace);
  const RunCtl ctl{spec.cancel, spec.progress};
  if (spec.session != nullptr) {
    // Incremental re-scan: the session's own engine (and snapshot store)
    // does the work; this engine's machine/config are not involved. Same
    // contract as ScanScheduler::submit — only the inside scan has an
    // incremental form, so any other kind is a caller error rather than
    // a silently ignored field.
    if (spec.kind != ScanKind::kInside) {
      return support::Status::failed_precondition(
          "JobSpec.session requires kind == kInside");
    }
    return spec.session->rescan(spec.cancel, spec.progress);
  }
  switch (spec.kind) {
    case ScanKind::kInside: return inside_scan_impl(ctl);
    case ScanKind::kInjected: return injected_scan_impl(ctl);
    case ScanKind::kOutside: return outside_scan_impl(ctl);
  }
  return support::Status::internal("unknown scan kind");
}

ScanSession ScanEngine::open_session(SessionSpec spec) {
  return ScanSession(*this, spec);
}

InsideCapture ScanEngine::capture_inside_high() {
  return capture_inside_high_impl(RunCtl{});
}

Report ScanEngine::outside_diff(const InsideCapture& capture) {
  return std::move(outside_diff_impl(capture, RunCtl{})).value();
}

bool ScanEngine::run_views(const std::vector<ViewTask>& tasks,
                           const RunCtl& ctl) {
  ctl.add_total(static_cast<std::uint32_t>(tasks.size()));
  pool_.parallel_for(
      tasks.size(),
      [&](std::size_t i) {
        const ViewTask& task = tasks[i];
        auto span = obs::default_tracer().span(task.span, "provider");
        if (!task.image.empty()) span.arg("image", task.image);
        const auto start = SteadyClock::now();
        task.out->result = guarded_scan(task.scan);
        task.out->wall = seconds_since(start);
        ctl.add_done();
      },
      ctl.cancel);
  return !ctl.cancelled();
}

DiffReport ScanEngine::diff_views(
    const ProviderRun& p, const support::StatusOr<ScanResult>& api,
    Report::Metrics& tally) {
  const std::vector<ViewInput> inputs = p.inputs(api);
  const machine::ScanWork work = tally_views(tally, inputs);
  auto span = obs::default_tracer().span(
      std::string("diff.") + resource_type_name(p.scanner->type()), "diff");
  const auto start = SteadyClock::now();
  DiffReport d = cross_view_matrix_diff(p.scanner->type(), inputs, &pool_);
  d.simulated_seconds = estimate_seconds(machine_.config().profile, work);
  d.wall_seconds = p.wall() + seconds_since(start);
  return d;
}

std::vector<ProviderRun> ScanEngine::plan(ScanPhase phase) const {
  std::vector<ProviderRun> providers;
  for (const auto& s : scanners_) providers.emplace_back(*s, phase, cfg_);
  return providers;
}

support::StatusOr<Report> ScanEngine::inside_scan_impl(
    const RunCtl& ctl, internal::SessionState* session) {
  if (ctl.cancelled()) {
    return support::Status::cancelled("inside scan cancelled before start");
  }
  const auto t0 = SteadyClock::now();
  auto run_span = obs::default_tracer().span("engine.inside", "engine");
  const auto ctx = scanner_context();
  flush_hives_if_needed();
  // Serial, after the flush (so journal entries from the flush are
  // replayed into the snapshot) and before any task (so the snapshot
  // never changes mid-scan).
  if (session != nullptr) sync_session(machine_, *session);
  ScanTaskContext tctx = task_context();
  tctx.session = session;

  // One task per view — each provider's API view plus every trusted view
  // run independently; the file scans fan out further internally.
  auto providers = plan(ScanPhase::kLive);
  std::vector<ViewTask> tasks;
  for (auto& p : providers) {
    tasks.push_back(p.api_task(tctx, ctx, p.api));
    p.add_trusted_tasks(tasks, tctx, nullptr);
  }
  if (!run_views(tasks, ctl)) {
    // Some views may be missing or half-collected: discard the lot
    // rather than emit a report that looks degraded but is really torn.
    return support::Status::cancelled("inside scan cancelled");
  }

  Report report;
  Report::Metrics tally;
  for (const auto& p : providers) {
    if (ctl.cancelled()) {
      return support::Status::cancelled("inside scan cancelled during diff");
    }
    report.diffs.push_back(diff_views(p, p.api.result, tally));
  }
  if (session != nullptr) report.incremental = session->last;
  finalize(report, seconds_since(t0), "inside", tally);
  if (session != nullptr && registry_ != nullptr) {
    obs::MetricsRegistry& reg = *registry_;
    const IncrementalStats& inc = session->last;
    reg.counter("gb_session_rescans_total",
                {{"mode", inc.incremental ? "incremental" : "full"}})
        .inc();
    reg.counter("gb_session_records_spliced_total")
        .add(static_cast<double>(inc.records_spliced));
    reg.counter("gb_session_records_reparsed_total")
        .add(static_cast<double>(inc.records_reparsed));
    if (!inc.incremental) reg.counter("gb_session_fallbacks_total").inc();
  }
  return report;
}

support::StatusOr<Report> ScanEngine::injected_scan_impl(const RunCtl& ctl) {
  if (ctl.cancelled()) {
    return support::Status::cancelled("injected scan cancelled before start");
  }
  const auto t0 = SteadyClock::now();
  auto run_span = obs::default_tracer().span("engine.injected", "engine");
  flush_hives_if_needed();
  const ScanTaskContext tctx = task_context();

  // Trusted snapshots — every registered live view of every provider —
  // taken once, concurrently.
  auto providers = plan(ScanPhase::kLive);
  std::vector<ViewTask> tasks;
  for (auto& p : providers) p.add_trusted_tasks(tasks, tctx, nullptr);
  if (!run_views(tasks, ctl)) {
    return support::Status::cancelled("injected scan cancelled");
  }

  // Then one API view per (process, provider), taken from inside that
  // process in pid order (envs() is a sorted map). Per-process scans stay
  // internally serial — the fan-out is already one task per process.
  // Providers with no sound trusted snapshot skip theirs: there is
  // nothing to diff against.
  const ScanTaskContext serial_ctx{machine_, nullptr, cfg_};
  std::vector<winapi::Ctx> ctxs;
  for (const auto& [pid, env] : machine_.win32().envs()) {
    auto ctx = machine_.context_for(pid);
    if (ctx.image_name.empty() || ctx.image_name == "System") continue;
    ctxs.push_back(std::move(ctx));
  }
  std::vector<std::vector<ViewOutcome>> per_process(providers.size());
  for (std::size_t s = 0; s < providers.size(); ++s) {
    if (providers[s].any_trusted_ok()) per_process[s].resize(ctxs.size());
  }
  tasks.clear();
  for (std::size_t c = 0; c < ctxs.size(); ++c) {
    for (std::size_t s = 0; s < providers.size(); ++s) {
      if (per_process[s].empty()) continue;
      tasks.push_back(providers[s].api_task(serial_ctx, ctxs[c],
                                            per_process[s][c], "injected"));
      tasks.back().image = ctxs[c].image_name;
    }
  }
  if (!run_views(tasks, ctl)) {
    return support::Status::cancelled("injected scan cancelled");
  }

  // Each process's API view is diffed against the trusted views, and the
  // findings merge pid-major, first finding per key — identical to a
  // serial per-process loop whichever worker ran which scan. The report's
  // API column stands for every process: the matrix summary of a named
  // placeholder plus the trusted views yields the trusted columns, the
  // pairwise projection and the trusted views' status; the column then
  // takes the largest per-process count and the first failure in pid
  // order, which degrades the diff while the successes still merge.
  Report report;
  Report::Metrics tally;
  for (std::size_t s = 0; s < providers.size(); ++s) {
    const ProviderRun& p = providers[s];
    const ResourceType type = p.scanner->type();
    const support::StatusOr<ScanResult> column(
        ScanResult{.view_name = kInjectedViewName, .type = type});
    std::vector<ViewInput> inputs = p.inputs(column);
    auto span = obs::default_tracer().span(
        std::string("diff.") + resource_type_name(type), "diff");
    const auto start = SteadyClock::now();
    DiffReport d = summarize_views(type, inputs);
    machine::ScanWork work = tally_views(tally, std::span(inputs).subspan(1));
    double wall = p.wall();
    std::map<std::string, Finding> hidden;
    support::Status first_failure;
    for (const ViewOutcome& o : per_process[s]) {
      inputs[0] = input_of(kApiViewId, TrustLevel::kApiView, o.result);
      work += tally_views(tally, std::span(inputs).first(1));
      wall += o.wall;
      if (!o.result.ok()) {
        if (first_failure.ok()) first_failure = o.result.status();
        continue;
      }
      for (Finding& f : cross_view_matrix_diff(type, inputs, &pool_).hidden) {
        hidden.emplace(f.resource.key, std::move(f));
      }
      d.high_count = std::max(d.high_count, o.result->resources.size());
    }
    d.views[0].count = d.high_count;
    d.views[0].status = first_failure;
    if (d.status.ok()) d.status = first_failure;
    for (auto& [key, f] : hidden) d.hidden.push_back(std::move(f));
    d.simulated_seconds = estimate_seconds(machine_.config().profile, work);
    d.wall_seconds = wall + seconds_since(start);
    report.diffs.push_back(std::move(d));
  }
  finalize(report, seconds_since(t0), "injected", tally);
  return report;
}

InsideCapture ScanEngine::capture_inside_high_impl(const RunCtl& ctl) {
  auto run_span = obs::default_tracer().span("engine.capture", "engine");
  const auto ctx = scanner_context();
  const ScanTaskContext tctx = task_context();
  auto providers = plan(ScanPhase::kOutside);
  std::vector<ViewTask> tasks;
  for (auto& p : providers) tasks.push_back(p.api_task(tctx, ctx, p.api));
  run_views(tasks, ctl);

  InsideCapture cap;
  bool want_dump = false;
  for (auto& p : providers) {
    cap.entries.push_back({p.scanner->type(), std::move(p.api.result)});
    for (const auto& def : p.defs) want_dump = want_dump || def.needs_dump;
  }
  // A cancelled capture never blue-screens the machine: the job is being
  // abandoned, so we leave the box running instead of halting it for a
  // dump nobody will diff.
  if (want_dump && !ctl.cancelled()) {
    // Keep the raw image regardless of whether it parses: the signature
    // carve sweeps bytes, not structures.
    cap.dump_bytes = machine_.bluescreen();
    auto parsed = kernel::parse_dump_or(cap.dump_bytes, &pool_);
    if (parsed.ok()) {
      cap.dump = std::move(parsed.value());
    } else {
      cap.dump_status = parsed.status();
    }
  }
  return cap;
}

support::StatusOr<Report> ScanEngine::outside_diff_impl(
    const InsideCapture& cap, const RunCtl& ctl) {
  if (machine_.running()) {
    throw std::logic_error(
        "outside_diff requires the machine to be powered off");
  }
  if (ctl.cancelled()) {
    return support::Status::cancelled("outside diff cancelled before start");
  }
  const auto t0 = SteadyClock::now();
  auto run_span = obs::default_tracer().span("engine.outside_diff", "engine");
  const ScanTaskContext tctx = task_context();
  const OutsideSources sources{machine_.disk(),
                               cap.dump ? &*cap.dump : nullptr,
                               cap.dump_bytes, cap.dump_status};

  // Match capture entries to providers by type (the capture may come
  // from a different engine whose provider set differs), then run the
  // clean-environment views of the powered-off disk and the captured
  // dump (parsed and raw), one task per registered view.
  std::vector<const InsideCapture::Entry*> entries;
  std::vector<ProviderRun> providers;
  for (const auto& entry : cap.entries) {
    for (const auto& s : scanners_) {
      if (s->type() == entry.type) {
        entries.push_back(&entry);
        providers.emplace_back(*s, ScanPhase::kOutside, cfg_);
        break;
      }
    }
  }
  std::vector<ViewTask> tasks;
  for (auto& p : providers) p.add_trusted_tasks(tasks, tctx, &sources);
  if (!run_views(tasks, ctl)) {
    return support::Status::cancelled("outside diff cancelled");
  }

  Report report;
  Report::Metrics tally;
  for (std::size_t i = 0; i < providers.size(); ++i) {
    report.diffs.push_back(diff_views(providers[i], entries[i]->high, tally));
  }
  finalize(report, seconds_since(t0), "outside", tally);
  return report;
}

support::StatusOr<Report> ScanEngine::outside_scan_impl(const RunCtl& ctl) {
  if (ctl.cancelled()) {
    return support::Status::cancelled("outside scan cancelled before start");
  }
  InsideCapture cap = capture_inside_high_impl(ctl);
  if (ctl.cancelled()) {
    // The capture saw the token in time to skip the blue-screen, so the
    // machine is still running; a cancelled outside job leaves the box in
    // whatever lifecycle phase it reached (cooperative, not transactional).
    return support::Status::cancelled("outside scan cancelled after capture");
  }
  if (machine_.running()) machine_.shutdown();
  // WinPE CD boot adds 1.5-3 minutes (Section 2); the RIS network boot of
  // Section 5's enterprise automation is quicker and needs no media.
  machine_.clock().advance(VirtualClock::seconds(
      cfg_.outside_boot == OutsideBoot::kWinPeCd ? 120.0 : 45.0));
  return outside_diff_impl(cap, ctl);
}

}  // namespace gb::core
