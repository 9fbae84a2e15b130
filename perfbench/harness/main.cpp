// gb_perfbench: the end-to-end benchmark of the GhostBuster libraries.
//
//   gb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--workdir DIR] [--self-test]
//
// One invocation sets the workload up several times (setup_s is the
// median), runs a fixed number of ops derived from --seconds, checks
// every op against planted ground truth, and prints one JSON object as
// its last line. Untraced runs (--trace 0) report the end-to-end
// metrics; traced runs (--trace 1) report the per-layer metrics, taken
// from the spans the libraries already record plus harness timers
// around public calls, and write a Chrome trace into the work directory.
// Exit status: 0 when every check passed, 1 when one failed, 2 on a
// usage error.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "obs/trace.h"

#ifndef GB_PERFBENCH_BUILD_TYPE
#define GB_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef GB_PERFBENCH_COMPILER
#define GB_PERFBENCH_COMPILER "unknown"
#endif

namespace gb::perfbench {
namespace {

/// Engine parallelism, fixed (never 0 = "one per core"), so a run on a
/// host with another core count does the same work the same way.
constexpr std::size_t kParallelism = 4;
/// Epochs per run (see run()); setup_s is the median of their set-ups.
constexpr std::size_t kEpochs = 10;

/// Timed ops per second of --seconds. The op count is fixed by these
/// and --seconds alone, never by how fast the host runs, so machine
/// state (service logs, journal length) is the same on every host.
struct WorkloadPlan {
  double ops_per_second;
  std::size_t warmup_ops;
};
const std::map<std::string, WorkloadPlan>& plans() {
  static const std::map<std::string, WorkloadPlan> p = {
      {"inside-cold", {30.0, 3}},
      {"rescan-churn", {25.0, 3}},
      {"outside-carve", {14.0, 2}},
      {"fleet-daemon", {300.0, 12}},
  };
  return p;
}

// --- span attribution -----------------------------------------------------------

/// The library layer a span belongs to, or "" for spans that mark an
/// orchestration boundary (engine.*, the harness's bench.scan), whose self
/// time is reported as unattributed, and for spans that time a wait rather
/// than work: a job queued, or a client (or the daemon's result handler)
/// blocked until the other side answers.
std::string layer_of(const std::string& name) {
  auto starts = [&](const char* p) { return name.rfind(p, 0) == 0; };
  if (name == "sched.queue_wait" || name == "client.wait" ||
      name == "client.submit" || name == "wire.result") {
    return "";
  }
  if (starts("mft.")) return "ntfs";
  if (starts("hive.")) return "hive";
  if (starts("parse.dump") || starts("carve.")) return "kernel";
  if (starts("diff.")) return "core";
  if (starts("sched.") || starts("wire.") || starts("client.")) {
    return "daemon";
  }
  if (starts("bench.")) {
    const std::size_t dot = name.find('.', 6);
    return dot == std::string::npos ? "" : name.substr(6, dot - 6);
  }
  if (starts("scan.")) {
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".high") == 0) {
      return "winapi";
    }
    if (starts("scan.file.")) return "ntfs";
    if (starts("scan.ASEP hook.")) return "registry";
    return "kernel";  // process / module views walk kernel structures
  }
  return "";
}

struct Interval {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

/// The union of intervals, sorted and disjoint.
std::vector<Interval> merged(std::vector<Interval> v) {
  std::sort(v.begin(), v.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::vector<Interval> out;
  for (const auto& iv : v) {
    if (out.empty() || iv.lo > out.back().hi) {
      out.push_back(iv);
    } else {
      out.back().hi = std::max(out.back().hi, iv.hi);
    }
  }
  return out;
}

double length_us(const std::vector<Interval>& disjoint) {
  double total = 0;
  for (const auto& iv : disjoint) total += static_cast<double>(iv.hi - iv.lo);
  return total;
}

/// `segments` minus `cut`, both sorted and disjoint.
std::vector<Interval> minus(const std::vector<Interval>& segments,
                            const std::vector<Interval>& cut) {
  std::vector<Interval> out;
  std::size_t c = 0;
  for (Interval seg : segments) {
    while (c < cut.size() && cut[c].hi <= seg.lo) ++c;
    for (std::size_t k = c; k < cut.size() && cut[k].lo < seg.hi; ++k) {
      if (cut[k].lo > seg.lo) out.push_back({seg.lo, cut[k].lo});
      seg.lo = std::max(seg.lo, cut[k].hi);
      if (seg.lo >= seg.hi) break;
    }
    if (seg.lo < seg.hi) out.push_back(seg);
  }
  return out;
}

/// Per-op figures from one op's spans.
struct SpanFigures {
  std::map<std::string, double> busy_ms;  // layer -> credited time
  double covered_ms = 0;  // wall time under at least one layer span
  std::map<std::string, double> named_ms;  // metric -> value
};

/// Credits each span's time to its layer. On its own thread a span owns
/// the time when it is the innermost open span (its same-thread children
/// take theirs), so a thread is never counted twice at one instant.
/// Across threads, a span is not credited while detached spans of its
/// own layer run on other threads inside it: a span is detached when no
/// span encloses it on its thread, as for pool tasks, which carry no
/// parent link because the pool does not pass the trace context on. A
/// span that fans work out to the pool waits for it meanwhile, so
/// mft.scan is not credited while its mft.parse_batch tasks run on pool
/// workers, nor carve.dump while its carve.chunk tasks do. Busy time
/// still sums threads: two threads doing one layer's work at once both
/// count.
SpanFigures attribute(const std::vector<obs::TraceEvent>& events) {
  struct Span {
    const obs::TraceEvent* e = nullptr;
    Interval iv;
    std::uint64_t thread = 0;
    std::string layer;
    bool detached = true;
    std::vector<Interval> children;  // same thread
  };
  std::vector<Span> spans;
  for (const auto& e : events) {
    if (e.ph != 'X') continue;
    Span s;
    s.e = &e;
    s.iv = {e.ts_us, e.ts_us + e.dur_us};
    s.thread = (std::uint64_t{e.pid} << 32) | e.tid;
    s.layer = layer_of(e.name);
    spans.push_back(std::move(s));
  }
  // Same-thread nesting: by thread, then start, outer spans first.
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.thread != y.thread) return x.thread < y.thread;
    if (x.iv.lo != y.iv.lo) return x.iv.lo < y.iv.lo;
    return x.iv.hi > y.iv.hi;
  });
  std::vector<std::size_t> open;
  for (std::size_t k = 0; k < order.size(); ++k) {
    Span& s = spans[order[k]];
    if (k > 0 && spans[order[k - 1]].thread != s.thread) open.clear();
    while (!open.empty() && spans[open.back()].iv.hi <= s.iv.lo) open.pop_back();
    if (!open.empty()) {
      s.detached = false;
      spans[open.back()].children.push_back(s.iv);
    }
    open.push_back(order[k]);
  }
  // Detached spans by layer, sorted by start.
  std::map<std::string, std::vector<const Span*>> detached;
  for (const auto& s : spans) {
    if (s.detached && !s.layer.empty()) detached[s.layer].push_back(&s);
  }
  for (auto& [layer, v] : detached) {
    std::sort(v.begin(), v.end(),
              [](const Span* a, const Span* b) { return a->iv.lo < b->iv.lo; });
  }

  SpanFigures out;
  std::vector<Interval> layer_spans;
  double walk_records = 0;
  for (const auto& s : spans) {
    const obs::TraceEvent& e = *s.e;
    const double dur_ms = static_cast<double>(e.dur_us) / 1000.0;
    if (!s.layer.empty()) {
      std::vector<Interval> own = minus({s.iv}, merged(s.children));
      std::vector<Interval> elsewhere;
      const auto& same = detached[s.layer];
      auto it = std::lower_bound(
          same.begin(), same.end(), s.iv.lo,
          [](const Span* d, std::uint64_t lo) { return d->iv.lo < lo; });
      for (; it != same.end() && (*it)->iv.lo < s.iv.hi; ++it) {
        if ((*it)->thread != s.thread && (*it)->iv.hi <= s.iv.hi) {
          elsewhere.push_back((*it)->iv);
        }
      }
      const double credited_ms =
          length_us(minus(own, merged(std::move(elsewhere)))) / 1000.0;
      out.busy_ms[s.layer] += credited_ms;
      if (s.layer == "winapi") out.named_ms["winapi.high_views_ms"] += credited_ms;
      layer_spans.push_back(s.iv);
    }
    if (e.name == "mft.scan") {
      out.named_ms["ntfs.mft_walk_ms"] += dur_ms;
      for (const auto& [k, val] : e.args) {
        if (k == "records") walk_records += std::strtod(val.c_str(), nullptr);
      }
    }
    if (e.name == "mft.index_orphans") out.named_ms["ntfs.index_walk_ms"] += dur_ms;
    if (e.name == "hive.read") out.named_ms["hive.parse_ms"] += dur_ms;
    if (e.name.rfind("diff.", 0) == 0 && e.name != "diff.merge" &&
        e.name != "diff.shard") {
      out.named_ms["core.diff_ms"] += dur_ms;
    }
  }
  out.named_ms["ntfs.records_parsed"] = walk_records;
  out.covered_ms = length_us(merged(std::move(layer_spans))) / 1000.0;
  return out;
}

// --- metric catalogue ------------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> m = {
      {"setup_s", "s"},          {"latency_p50_ms", "ms"},
      {"latency_p95_ms", "ms"},  {"throughput_ops_s", "1/s"},
      {"peak_rss_mb", "MiB"},    {"sim_scan_s", "s"},
  };
  return m;
}

const std::vector<std::string>& layers() {
  static const std::vector<std::string> l = {
      "ntfs", "hive", "registry", "kernel", "winapi", "core", "daemon"};
  return l;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> m = [] {
    std::vector<MetricDef> v = {
        {"ntfs.mft_walk_ms", "ms"},
        {"ntfs.records_parsed", "count"},
        {"ntfs.records_quarantined", "count"},
        {"ntfs.index_walk_ms", "ms"},
        {"ntfs.write_batch_ms", "ms"},
        {"disk.bytes_read", "bytes"},
        {"disk.journal_records", "count"},
        {"hive.parse_ms", "ms"},
        {"hive.keys", "count"},
        {"registry.flush_ms", "ms"},
        {"kernel.dump_write_ms", "ms"},
        {"kernel.dump_bytes", "bytes"},
        {"kernel.dump_parse_ms", "ms"},
        {"kernel.carve_ms", "ms"},
        {"kernel.carve_candidates", "count"},
        {"kernel.carve_recovered_ratio", "ratio"},
        {"winapi.high_views_ms", "ms"},
        {"core.diff_ms", "ms"},
        {"core.report_json_ms", "ms"},
        {"core.report_bytes", "bytes"},
        {"core.findings", "count"},
        {"core.session.records_reparsed", "count"},
        {"core.session.records_spliced", "count"},
        {"core.session.splice_ratio", "ratio"},
        {"core.session.fallbacks", "count"},
        {"support.pool_tasks", "count"},
        {"support.pool_steals", "count"},
        {"support.pool_busy_ratio", "ratio"},
        {"daemon.submit_ms", "ms"},
        {"daemon.result_ms", "ms"},
        {"daemon.queue_wait_p50_ms", "ms"},
        {"daemon.run_p50_ms", "ms"},
        {"daemon.journal_bytes_per_job", "bytes"},
        {"daemon.wire_bytes_per_job", "bytes"},
        {"machine.boot_ms", "ms"},
        {"host.nproc", "count"},
        {"host.calib_ms", "ms"},
        {"host.calib_mem_ms", "ms"},
        {"host.wake_lag_ms", "ms"},
        {"obs.trace_overhead_ratio", "ratio"},
        {"obs.op_latency_ms", "ms"},
        {"obs.unattributed_ms", "ms"},
    };
    for (const auto& l : layers()) v.push_back({l + ".busy_ms", "ms"});
    return v;
  }();
  return m;
}

// --- output ------------------------------------------------------------------------

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<MetricDef>& defs,
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& d : defs) {
    if (out.size() > 1) out += ",";
    const auto it = values.find(d.name);
    out += quoted(d.name) + ":{\"value\":" +
           num(it == values.end() ? 0.0 : it->second) +
           ",\"unit\":" + quoted(d.unit) + "}";
  }
  return out + "}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_work";
  bool self_test = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "gb_perfbench: %s\n"
               "usage: gb_perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--workdir DIR] [--self-test]\n"
               "workloads:",
               why.c_str());
  for (const auto& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") a.workload = value();
      else if (k == "--seed") a.seed = std::stoull(value());
      else if (k == "--seconds") a.seconds = std::stod(value());
      else if (k == "--trace") a.trace = std::stoi(value()) != 0;
      else if (k == "--workdir") a.workdir = value();
      else if (k == "--self-test") a.self_test = true;
      else usage("unknown argument " + k);
    } catch (const std::exception&) {
      usage("bad value for " + k);
    }
  }
  if (plans().count(a.workload) == 0) usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

/// Removes what an earlier set-up left in the work directory, so every
/// set-up starts from the same empty state. Never timed.
void clean_workdir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
}

/// Everything one epoch produced.
struct Epoch {
  std::vector<OpSample> samples;
  std::vector<bool> traced;            // per sample
  std::vector<SpanFigures> span_figs;  // one per traced op
  std::vector<obs::TraceEvent> events;  // the last traced op's
};

/// Runs one epoch's ops on a workload that is already set up; `first` is
/// the run-wide index of its first op. Traced: odd ops traced, even ops
/// not, so both halves see the same host drift and their ratio is the
/// tracer's own cost.
Epoch run_epoch(Workload& w, const RunPlan& plan, bool trace,
                std::size_t first) {
  Epoch ep;
  obs::Tracer& tracer = obs::default_tracer();
  auto traced = [&](std::size_t i) { return (first + i) % 2 == 1; };
  auto before = [&](std::size_t i) {
    if (traced(i)) {
      tracer.clear();
      tracer.enable();
    }
  };
  auto after = [&](std::size_t i) {
    if (traced(i)) {
      tracer.disable();
      ep.events = tracer.snapshot();
      ep.span_figs.push_back(attribute(ep.events));
    }
  };
  if (trace) {
    ep.samples = w.run_ops(plan, before, after);
  } else {
    ep.samples = w.run_ops(plan, {}, {});
  }
  for (std::size_t i = 0; i < ep.samples.size(); ++i) {
    ep.traced.push_back(trace && traced(i));
  }
  return ep;
}

int run(const Args& args) {
  const WorkloadPlan& wp = plans().at(args.workload);
  RunPlan plan;
  plan.seed = args.seed;
  plan.parallelism = kParallelism;
  plan.warmup_ops = wp.warmup_ops;
  // At least one op per epoch.
  plan.ops = std::max<std::size_t>(
      kEpochs, static_cast<std::size_t>(
                   std::llround(wp.ops_per_second * args.seconds)));
  plan.self_test = args.self_test;
  const std::string workdir = args.workdir + "/" + args.workload;

  // The run is kEpochs epochs, each a fresh set-up (timed: setup_s is
  // their median) followed by its share of the ops. A set-up allocates
  // the machines' disk images anew, and where those land in memory
  // moves a scan's speed by more than a tenth on a shared host; pooling
  // the ops of several set-ups averages that out of every run.
  std::vector<double> setup_s, epoch_p50;
  std::vector<OpSample> samples;
  std::vector<bool> traced;
  std::vector<SpanFigures> span_figs;
  std::vector<obs::TraceEvent> kept_events;  // for the Chrome trace
  Workload::PoolTotals pool;
  std::vector<double> wake_lag_ms;
  Counts run_counts;
  LayerFigures probes;
  Verdict end;
  const double calib_before = calibration_ms();
  const double calib_mem_before = memory_calibration_ms();
  for (std::size_t k = 0; k < kEpochs; ++k) {
    clean_workdir(workdir);
    std::unique_ptr<Workload> w = make_workload(args.workload, workdir);
    const auto t0 = Clock::now();
    w->setup(plan);
    setup_s.push_back(ms_since(t0) / 1000.0);

    RunPlan ep_plan = plan;
    ep_plan.ops = plan.ops / kEpochs + (k < plan.ops % kEpochs ? 1 : 0);
    const Workload::PoolTotals before = w->pool_totals();
    WakeProbe wake;
    Epoch ep = run_epoch(*w, ep_plan, args.trace, samples.size());
    for (const double l : wake.stop()) wake_lag_ms.push_back(l);
    const Workload::PoolTotals after = w->pool_totals();
    pool.tasks += after.tasks - before.tasks;
    pool.steals += after.steals - before.steals;
    pool.task_seconds += after.task_seconds - before.task_seconds;
    pool.executors = after.executors;
    w->verify_end(end);
    if (k == 0) run_counts = w->run_counts();
    if (w->run_counts() != run_counts) {
      end.fail("run-level counts differ between epochs");
    }
    if (args.trace && k + 1 == kEpochs) probes = w->probe_layers();

    std::vector<double> lat;
    for (const auto& s : ep.samples) lat.push_back(s.latency_ms);
    epoch_p50.push_back(median(lat));
    for (std::size_t i = 0; i < ep.samples.size(); ++i) {
      samples.push_back(std::move(ep.samples[i]));
      traced.push_back(ep.traced[i]);
    }
    for (auto& f : ep.span_figs) span_figs.push_back(std::move(f));
    if (!ep.events.empty()) kept_events = std::move(ep.events);
  }
  const double calib_after = calibration_ms();
  const double calib_mem_after = memory_calibration_ms();

  // --- checks ----------------------------------------------------------------------
  std::size_t failed = 0;
  std::vector<std::string> failure_notes;
  auto note = [&](const std::string& why) {
    if (failure_notes.size() < 20) failure_notes.push_back(why);
  };
  // Deterministic counts must agree across every op of every epoch.
  const Counts* reference = nullptr;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    OpSample& s = samples[i];
    if (reference == nullptr && s.ok) reference = &s.counts;
    if (reference != nullptr && s.ok && s.counts != *reference) {
      s.ok = false;
      s.failures.push_back("deterministic counts differ from the first op's");
    }
    if (!s.ok) {
      ++failed;
      for (const auto& f : s.failures) note("op " + std::to_string(i) + ": " + f);
    }
  }
  if (!end.ok()) {
    ++failed;
    for (const auto& f : end.failures()) note("end of epoch: " + f);
  }
  const std::size_t attempted = samples.size() + 1;  // ops + end-of-run checks

  // --- metrics ---------------------------------------------------------------------
  std::vector<double> lat, sim;
  double total_ms = 0;
  std::map<std::string, std::vector<double>> own_layer;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const OpSample& s = samples[i];
    lat.push_back(s.latency_ms);
    sim.push_back(s.sim_scan_s);
    total_ms += s.latency_ms;
    for (const auto& [k, v] : s.layer_ms) own_layer[k].push_back(v);
  }
  std::map<std::string, double> e2e;
  e2e["setup_s"] = median(setup_s);
  e2e["latency_p50_ms"] = quantile(lat, 0.50);
  e2e["latency_p95_ms"] = quantile(lat, 0.95);
  e2e["throughput_ops_s"] =
      total_ms > 0 ? 1000.0 * static_cast<double>(samples.size()) / total_ms
                   : 0;
  e2e["peak_rss_mb"] = peak_rss_mb();
  e2e["sim_scan_s"] = median(sim);

  std::map<std::string, double> layer;
  for (const auto& [k, v] : own_layer) {
    layer[k] = median(v);
  }
  if (!samples.empty()) {
    for (const auto& [k, v] : samples.front().counts) layer[k] = v;
  }
  for (const auto& [k, v] : run_counts) layer[k] = v;
  if (args.trace) {
    for (const auto& [k, v] : probes) layer[k] = v;
    std::map<std::string, std::vector<double>> per_op;
    std::vector<double> covered;
    for (const auto& f : span_figs) {
      for (const auto& l : layers()) {
        const auto it = f.busy_ms.find(l);
        per_op[l + ".busy_ms"].push_back(it == f.busy_ms.end() ? 0 : it->second);
      }
      for (const auto& [k, v] : f.named_ms) per_op[k].push_back(v);
      covered.push_back(f.covered_ms);
    }
    for (const auto& [k, v] : per_op) layer[k] = median(v);
    std::vector<double> traced_lat, untraced_lat;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      (traced[i] ? traced_lat : untraced_lat).push_back(samples[i].latency_ms);
    }
    const double traced_p50 = median(traced_lat);
    layer["obs.op_latency_ms"] = traced_p50;
    layer["obs.unattributed_ms"] = std::max(0.0, traced_p50 - median(covered));
    const double base = median(untraced_lat);
    layer["obs.trace_overhead_ratio"] = base > 0 ? traced_p50 / base : 0;
  }
  const double ops = static_cast<double>(std::max<std::size_t>(1, samples.size()));
  layer["support.pool_tasks"] = pool.tasks / ops;
  layer["support.pool_steals"] = pool.steals / ops;
  layer["support.pool_busy_ratio"] =
      total_ms > 0 ? pool.task_seconds * 1000.0 / (pool.executors * total_ms) : 0;
  if (layer.count("core.session.records_spliced") != 0) {
    const double sp = layer["core.session.records_spliced"];
    const double rp = layer["core.session.records_reparsed"];
    layer["core.session.splice_ratio"] = sp + rp > 0 ? sp / (sp + rp) : 0;
  }
  layer["host.nproc"] = static_cast<double>(std::thread::hardware_concurrency());
  layer["host.calib_ms"] = calib_before;
  layer["host.calib_mem_ms"] = calib_mem_before;
  const double wake_lag_p95 = quantile(wake_lag_ms, 0.95);
  layer["host.wake_lag_ms"] = wake_lag_p95;
  const double failed_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);

  // --- human summary (stdout, before the result line) ------------------------------
  std::printf("workload %s  seed %llu  ops %zu  parallelism %zu  trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              samples.size(), kParallelism, args.trace ? 1 : 0);
  std::printf("host: nproc %u  calib cpu %.3f / %.3f ms, memory %.3f / %.3f ms "
              "(before / after), wake-up lag p95 %.3f ms  %s %s\n",
              std::thread::hardware_concurrency(), calib_before, calib_after,
              calib_mem_before, calib_mem_after, wake_lag_p95,
              GB_PERFBENCH_COMPILER, GB_PERFBENCH_BUILD_TYPE);
  std::printf("epoch latency p50 (ms):");
  for (const double p : epoch_p50) std::printf(" %.3f", p);
  std::printf("\n");
  for (const auto& d : end_to_end_metrics()) {
    std::printf("  %-18s %12.4f %s\n", d.name.c_str(), e2e[d.name],
                d.unit.c_str());
  }
  std::printf("  %-18s %12.4f ratio (%zu failed of %zu attempted)\n",
              "failed_ratio", failed_ratio, failed, attempted);
  if (args.trace) {
    std::printf("per-op layer busy time (traced ops, median; busy = time a "
                "layer's spans are innermost, summed across threads):\n");
    for (const auto& l : layers()) {
      std::printf("  %-10s %10.3f ms\n", l.c_str(), layer[l + ".busy_ms"]);
    }
    std::printf("  %-10s %10.3f ms  (op latency %.3f ms; wall covered by "
                "layer spans %.3f ms)\n",
                "unattributed", layer["obs.unattributed_ms"],
                layer["obs.op_latency_ms"],
                layer["obs.op_latency_ms"] - layer["obs.unattributed_ms"]);
  }
  for (const auto& f : failure_notes) std::printf("FAIL %s\n", f.c_str());

  // --- result file -----------------------------------------------------------------
  const bool correct = failed == 0;
  std::string all_metrics = "{";
  for (const auto& src : {&e2e, &layer}) {
    for (const auto& [k, v] : *src) {
      if (all_metrics.size() > 1) all_metrics += ",";
      all_metrics += quoted(k) + ":" + num(v);
    }
  }
  all_metrics += ",\"failed_ratio\":" + num(failed_ratio) + "}";
  std::string notes = "[";
  for (const auto& f : failure_notes) {
    if (notes.size() > 1) notes += ",";
    notes += quoted(f);
  }
  notes += "]";
  std::ostringstream file;
  file << "{\"workload\":" << quoted(args.workload) << ",\"seed\":" << args.seed
       << ",\"seconds\":" << num(args.seconds) << ",\"trace\":" << args.trace
       << ",\"self_test\":" << (args.self_test ? "true" : "false")
       << ",\"ops\":" << samples.size() << ",\"host\":{\"nproc\":"
       << std::thread::hardware_concurrency()
       << ",\"compiler\":" << quoted(GB_PERFBENCH_COMPILER)
       << ",\"build_type\":" << quoted(GB_PERFBENCH_BUILD_TYPE)
       << ",\"engine_parallelism\":" << kParallelism
       << ",\"calib_ms_before\":" << num(calib_before)
       << ",\"calib_ms_after\":" << num(calib_after)
       << ",\"calib_mem_ms_before\":" << num(calib_mem_before)
       << ",\"calib_mem_ms_after\":" << num(calib_mem_after)
       << ",\"wake_lag_p95_ms\":" << num(wake_lag_p95) << "}"
       << ",\"setup_s_samples\":[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    file << (i ? "," : "") << num(setup_s[i]);
  }
  file << "],\"epoch_latency_p50_ms\":[";
  for (std::size_t i = 0; i < epoch_p50.size(); ++i) {
    file << (i ? "," : "") << num(epoch_p50[i]);
  }
  file << "],\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"metrics\":" << all_metrics << ",\"failures\":" << notes << "}\n";
  const std::string results = args.workdir + "/results";
  const std::string stem = results + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  std::error_code ec;
  std::filesystem::create_directories(results, ec);
  std::ofstream(stem + ".json") << file.str();
  if (args.trace) {
    std::ofstream(stem + ".trace.json") << obs::chrome_trace_json(kept_events);
  }

  // --- the result line ------------------------------------------------------------
  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":%s}\n",
              correct ? "true" : "false", attempted, failed,
              args.trace ? metrics_json(per_layer_metrics(), layer).c_str()
                         : metrics_json(end_to_end_metrics(), e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace gb::perfbench

int main(int argc, char** argv) {
  // glibc raises its mmap threshold after the first large free, so left
  // dynamic, which set-up of a run pays fresh page faults for the disk
  // images would depend on what earlier epochs freed. Fixing it at its
  // default starting value makes every set-up start from fresh pages,
  // like a new process.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const auto args = gb::perfbench::parse_args(argc, argv);
  return gb::perfbench::run(args);
}
