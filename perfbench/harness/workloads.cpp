// The four workloads. Each plants known ghostware on machines it builds
// from the seed, runs a fixed number of ops through the public scan
// APIs, and checks every report against what it planted.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <set>
#include <utility>

#include "bench.h"
#include "core/scan_engine.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "daemon/transport.h"
#include "hive/hive.h"
#include "kernel/carve.h"
#include "kernel/dump.h"
#include "malware/doublefu.h"
#include "malware/fu.h"
#include "malware/hackerdefender.h"
#include "malware/indexghost.h"
#include "ntfs/mft_scanner.h"
#include "obs/metrics.h"

namespace gb::perfbench {
namespace {

using core::ResourceType;

// --- report normalization ----------------------------------------------------

/// Replaces the object value of `"key":{...}` with null. The blocks
/// stripped here hold no strings with braces, so brace counting is exact.
std::string null_object(std::string json, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":{";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return json;
  const std::size_t open = at + needle.size() - 1;
  int depth = 0;
  std::size_t end = open;
  for (; end < json.size(); ++end) {
    if (json[end] == '{') ++depth;
    if (json[end] == '}' && --depth == 0) break;
  }
  json.replace(open, end - open + 1, "null");
  return json;
}

/// The projection in which two scans of one machine state must agree
/// byte for byte: wall-clock fields zeroed (gb::client's own
/// normalization) and the provenance blocks that legitimately differ
/// between a cold scan, a rescan and a daemon job nulled.
std::string normalized(std::string_view report_json) {
  std::string j = client::normalized_report_json(report_json);
  j = null_object(std::move(j), "incremental");
  return null_object(std::move(j), "scheduler");
}

/// FNV-1a of a normalized report, cut to 48 bits so it travels as an
/// exact double among the deterministic counts: equal fingerprints across
/// ops, epochs and runs mean byte-identical reports.
double fingerprint(std::string_view normalized_json) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : normalized_json) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return static_cast<double>(h >> 16);
}

/// Runs `f` under a harness span. Traced runs see each public call the
/// harness makes; `bench.<layer>.<call>` credits the call to a layer,
/// `bench.<call>` only marks it (its time stays with the library's own
/// spans or, where none exist, unattributed).
template <class F>
auto spanned(const char* name, F&& f) {
  auto span = obs::default_tracer().span(name, "bench");
  return f();
}

// --- ground truth -------------------------------------------------------------

/// The exact set of findings a report must carry. A finding whose
/// entry names views must have been found in exactly those views.
struct Expected {
  std::map<std::pair<ResourceType, std::string>, std::vector<std::string>>
      hidden;

  void add(ResourceType type, std::string key,
           std::vector<std::string> found_in = {}) {
    hidden[{type, std::move(key)}] = std::move(found_in);
  }

  /// A hidden process and, with `modules`, every module the kernel lists
  /// for it (the API view cannot list the modules of a process it cannot
  /// see).
  void add_process(machine::Machine& m, kernel::Pid pid,
                   std::vector<std::string> found_in = {},
                   bool modules = true) {
    const kernel::Process* p = m.kernel().find_process(pid);
    if (p == nullptr) return;
    add(ResourceType::kProcess, core::process_key(pid, p->image_name()),
        std::move(found_in));
    if (!modules) return;
    for (const auto& mod : p->kernel_modules()) {
      add(ResourceType::kModule, core::module_key(pid, mod.path));
    }
  }

  /// Everything a Ghostware manifest says it hides.
  void add_manifest(machine::Machine& m, const malware::Ghostware& g) {
    const auto& man = g.manifest();
    for (const auto& f : man.hidden_files) {
      add(ResourceType::kFile, core::file_key(f));
    }
    for (const auto& h : man.asep_hooks) {
      if (h.hidden) {
        add(ResourceType::kAsepHook,
            core::asep_key(h.key_path, h.value_name, h.data_item));
      }
    }
    for (const auto& image : man.hidden_processes) {
      if (const auto* p = m.kernel().find_process_by_name(image)) {
        add_process(m, p->pid());
      }
    }
  }
};

void check_report(const core::Report& report, const Expected& want,
                  Verdict& v) {
  v.expect(!report.degraded(), "report is degraded");
  std::set<std::pair<ResourceType, std::string>> seen;
  for (const auto& d : report.diffs) {
    v.expect(d.extra.empty(), std::string("unexpected extra entries in ") +
                                  core::resource_type_name(d.type));
    for (const auto& f : d.hidden) {
      const auto id = std::make_pair(d.type, f.resource.key);
      seen.insert(id);
      const auto it = want.hidden.find(id);
      if (it == want.hidden.end()) {
        v.fail("unplanted finding " + f.resource.key);
      } else if (!it->second.empty() && f.found_in != it->second) {
        v.fail("finding " + f.resource.key + " seen by the wrong views");
      }
    }
  }
  for (const auto& [id, views] : want.hidden) {
    v.expect(seen.count(id) == 1, "planted resource missed: " + id.second);
  }
}

/// Checks each op's report against the planted truth and against the
/// first op's report, and records the op's deterministic counts.
struct OpChecker {
  Expected want;
  std::string first;  // the first op's normalized report

  void check(const core::Report& report, const std::string& json,
             double bytes_read, OpSample& s) {
    Verdict v;
    check_report(report, want, v);
    const std::string norm = normalized(json);
    if (first.empty()) first = norm;
    v.expect(norm == first, "report differs from the first op's");
    s.ok = v.ok();
    s.failures = v.failures();
    s.sim_scan_s = report.total_simulated_seconds;
    s.counts["core.report_bytes"] = static_cast<double>(norm.size());
    s.counts["core.report_fnv48"] = fingerprint(norm);
    s.counts["core.findings"] = static_cast<double>(report.all_hidden().size());
    s.counts["disk.bytes_read"] = bytes_read;
  }
};

/// The pool counters an engine publishes in the public MetricsRegistry.
Workload::PoolTotals pool_totals_of(obs::MetricsRegistry& registry,
                                    std::size_t executors) {
  Workload::PoolTotals t;
  t.tasks = registry.counter("gb_pool_tasks_total").value();
  t.steals = registry.counter("gb_pool_steals_total").value();
  t.task_seconds =
      registry.histogram("gb_pool_task_seconds", obs::default_latency_buckets())
          .sum();
  t.executors = static_cast<double>(executors);
  return t;
}

core::ScanConfig engine_config(std::size_t parallelism,
                               obs::MetricsRegistry* registry) {
  core::ScanConfig cfg;
  cfg.parallelism = parallelism;
  cfg.processes.scheduler_view = true;  // advanced mode: FU's thread view
  cfg.metrics = registry;
  return cfg;
}

/// Keys in every hive the registry backs onto disk, parsed back from the
/// backing files' bytes.
double parse_hives(machine::Machine& m) {
  double keys = 0;
  for (const auto& hive : m.registry().hives()) {
    auto parsed =
        hive::parse_hive_or(m.volume().read_file(hive->backing_file));
    if (parsed.ok()) keys += static_cast<double>(parsed->tree_size());
  }
  return keys;
}

/// Times calls into single layers' public functions on one running
/// machine, after the timed phase: a raw MFT walk through a
/// CountingDevice (records quarantined, bytes per walk), the registry
/// flush and hive re-parse, and the kernel layer — dump write, the dump
/// parser's StatusOr form and the carve sweep, each the median of 5.
LayerFigures probe_machine(machine::Machine& m, support::ThreadPool* pool) {
  LayerFigures out;
  disk::CountingDevice counting(m.disk());
  if (auto scanner = ntfs::MftScanner::open(counting); scanner.ok()) {
    (void)scanner->scan();
    out["ntfs.records_quarantined"] =
        static_cast<double>(scanner->corrupt_records());
    out["disk.walk_bytes"] =
        static_cast<double>(scanner->last_scan_stats().bytes_read());
  }
  const auto t_flush = Clock::now();
  m.flush_registry();
  out["registry.flush_ms"] = ms_since(t_flush);
  out["hive.keys"] = parse_hives(m);

  std::vector<double> write_ms, parse_ms, carve_ms;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t_write = Clock::now();
    const std::vector<std::byte> image = kernel::write_dump(m.kernel());
    write_ms.push_back(ms_since(t_write));
    const auto t_parse = Clock::now();
    const bool parsed = kernel::parse_dump_or(image, pool).ok();
    parse_ms.push_back(ms_since(t_parse));
    const auto t_carve = Clock::now();
    auto carved = kernel::carve_dump(image, pool);
    carve_ms.push_back(ms_since(t_carve));
    out["kernel.dump_bytes"] = static_cast<double>(image.size());
    if (parsed && carved.ok() && carved->stats.candidates > 0) {
      out["kernel.carve_candidates"] =
          static_cast<double>(carved->stats.candidates);
      out["kernel.carve_recovered_ratio"] =
          static_cast<double>(carved->stats.recovered) /
          static_cast<double>(carved->stats.candidates);
    }
  }
  out["kernel.dump_write_ms"] = median(write_ms);
  out["kernel.dump_parse_ms"] = median(parse_ms);
  out["kernel.carve_ms"] = median(carve_ms);
  return out;
}

// --- inside-cold / rescan-churn -------------------------------------------------

constexpr const char* kVictimImage = "C:\\windows\\system32\\notepad.exe";

machine::MachineConfig inside_machine(std::uint64_t seed) {
  machine::MachineConfig cfg;
  cfg.seed = seed;
  cfg.mft_records = 16384;
  // The seed varies the population a little, so seeds differ in content
  // and (slightly) in simulated scan time, never in the workload's shape.
  cfg.synthetic_files = 2000 + seed % 16;
  cfg.synthetic_registry_keys = 1000 + seed % 8;
  return cfg;
}

/// The infected desktop both inside workloads scan: Hacker Defender
/// (API hooks on files, ASEPs and its process), FU hiding one process by
/// DKOM, and IndexGhost unlinking one file from its directory index.
class InsideBox {
 public:
  void build(const RunPlan& plan) {
    m_ = std::make_unique<machine::Machine>(inside_machine(plan.seed));
    machine::Machine& m = *m_;
    const auto hd = malware::install_ghostware<malware::HackerDefender>(m);
    const auto fu = malware::install_ghostware<malware::FuRootkit>(m);
    const kernel::Pid victim = m.spawn_process(kVictimImage).pid();
    fu->hide_process(m, victim);
    const auto ghost = malware::install_ghostware<malware::IndexGhost>(m);

    checker_ = {};
    checker_.want.add_manifest(m, *hd);
    checker_.want.add_process(m, victim, {"threads"});
    checker_.want.add(ResourceType::kFile,
                      core::file_key(ghost->payload_path()), {"mft"});
    if (plan.self_test) m.remove_interceptions(hd->name());

    executors_ = plan.parallelism;
    engine_ = std::make_unique<core::ScanEngine>(
        m, engine_config(plan.parallelism, &registry_));
  }

  /// Checks one op's report; the disk counter was marked before the op.
  void record(const core::Report& report, const std::string& json,
              OpSample& s) {
    checker_.check(report, json, bytes_read() - disk_before_, s);
  }
  void mark_disk() { disk_before_ = bytes_read(); }

  LayerFigures probe() { return probe_machine(*m_, &engine_->pool()); }

  machine::Machine& machine() { return *m_; }
  core::ScanEngine& engine() { return *engine_; }
  const OpChecker& checker() const { return checker_; }
  Workload::PoolTotals pool_totals() {
    return pool_totals_of(registry_, executors_);
  }

 private:
  double bytes_read() {
    return static_cast<double>(m_->disk().stats().bytes_read());
  }

  std::unique_ptr<machine::Machine> m_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<core::ScanEngine> engine_;
  OpChecker checker_;
  std::size_t executors_ = 1;
  double disk_before_ = 0;
};

core::Report run_inside(core::ScanEngine& engine) {
  core::JobSpec job;
  job.kind = core::ScanKind::kInside;
  return std::move(engine.run(job)).value();
}

class InsideCold final : public Workload {
 public:
  void setup(const RunPlan& plan) override {
    box_.build(plan);
    for (std::size_t i = 0; i < plan.warmup_ops; ++i) {
      (void)run_inside(box_.engine()).to_json();
    }
  }

  std::vector<OpSample> run_ops(
      const RunPlan& plan, const std::function<void(std::size_t)>& before_op,
      const std::function<void(std::size_t)>& after_op) override {
    std::vector<OpSample> out(plan.ops);
    for (std::size_t i = 0; i < plan.ops; ++i) {
      OpSample& s = out[i];
      box_.mark_disk();
      if (before_op) before_op(i);
      const auto t0 = Clock::now();
      core::Report report =
          spanned("bench.scan", [&] { return run_inside(box_.engine()); });
      const auto t_json = Clock::now();
      std::string json =
          spanned("bench.core.report_json", [&] { return report.to_json(); });
      s.latency_ms = ms_since(t0);
      s.layer_ms["core.report_json_ms"] = ms_since(t_json);
      if (after_op) after_op(i);
      box_.record(report, json, s);
    }
    return out;
  }

  void verify_end(Verdict&) override {}

  LayerFigures probe_layers() override { return box_.probe(); }
  PoolTotals pool_totals() override { return box_.pool_totals(); }

 private:
  InsideBox box_;
};

/// One session; every op overwrites a fixed set of files, creates and
/// deletes a few, writes registry values, then rescans. Creates and
/// deletes pair up inside the batch so the volume's file set — and so
/// the report — is the same after every op.
class RescanChurn final : public Workload {
 public:
  static constexpr int kOverwrites = 32;
  static constexpr int kTransient = 4;
  static constexpr int kRegistryValues = 4;
  static constexpr const char* kChurnKey = "HKLM\\SOFTWARE\\PerfBench\\Churn";

  void setup(const RunPlan& plan) override {
    box_.build(plan);
    machine::Machine& m = box_.machine();
    m.volume().create_directories("C:\\churn");
    for (int i = 0; i < kOverwrites; ++i) {
      m.volume().write_file(churn_file(i), payload(0, i));
    }
    m.registry().create_key(kChurnKey);
    session_ = std::make_unique<core::ScanSession>(box_.engine().open_session());
    (void)session_->rescan();  // primes the snapshot: a full walk
    for (std::size_t i = 0; i < plan.warmup_ops; ++i) {
      churn(op_seq_++);
      (void)session_->rescan().to_json();
    }
  }

  std::vector<OpSample> run_ops(
      const RunPlan& plan, const std::function<void(std::size_t)>& before_op,
      const std::function<void(std::size_t)>& after_op) override {
    std::vector<OpSample> out(plan.ops);
    for (std::size_t i = 0; i < plan.ops; ++i) {
      OpSample& s = out[i];
      box_.mark_disk();
      if (before_op) before_op(i);
      const auto t0 = Clock::now();
      spanned("bench.ntfs.write_batch", [&] { churn(op_seq_++); });
      const auto t_scan = Clock::now();
      core::Report report =
          spanned("bench.scan", [&] { return session_->rescan(); });
      const auto t_json = Clock::now();
      std::string json =
          spanned("bench.core.report_json", [&] { return report.to_json(); });
      s.latency_ms = ms_since(t0);
      s.layer_ms["ntfs.write_batch_ms"] =
          std::chrono::duration<double, std::milli>(t_scan - t0).count();
      s.layer_ms["core.report_json_ms"] = ms_since(t_json);
      if (after_op) after_op(i);
      box_.record(report, json, s);
      const core::IncrementalStats& inc = session_->last_sync();
      if (!inc.incremental) s.failures.push_back("rescan fell back: " +
                                                 inc.fallback_reason);
      s.ok = s.failures.empty();
      s.counts["disk.journal_records"] =
          static_cast<double>(inc.journal_records);
      s.counts["core.session.records_reparsed"] =
          static_cast<double>(inc.records_reparsed);
      s.counts["core.session.records_spliced"] =
          static_cast<double>(inc.records_spliced);
      s.counts["core.session.fallbacks"] = inc.incremental ? 0 : 1;
    }
    return out;
  }

  /// The last rescan must match a cold scan of the same machine state.
  void verify_end(Verdict& v) override {
    const core::Report cold = run_inside(box_.engine());
    check_report(cold, box_.checker().want, v);
    v.expect(normalized(cold.to_json()) == box_.checker().first,
             "last rescan differs from a cold scan of the same state");
  }

  LayerFigures probe_layers() override { return box_.probe(); }
  PoolTotals pool_totals() override { return box_.pool_totals(); }

 private:
  static std::string churn_file(int i) {
    return "C:\\churn\\f" + std::to_string(i) + ".dat";
  }
  /// Fixed-width payload, so an overwrite never changes a file's size
  /// class (resident vs non-resident) from one op to the next.
  static std::string payload(std::size_t op, int i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "op %010zu file %04d churn payload", op, i);
    return buf;
  }

  void churn(std::size_t op) {
    machine::Machine& m = box_.machine();
    for (int i = 0; i < kOverwrites; ++i) {
      m.volume().write_file(churn_file(i), payload(op, i));
    }
    for (int i = 0; i < kTransient; ++i) {
      m.volume().write_file("C:\\churn\\tmp" + std::to_string(i) + ".dat",
                            payload(op, i));
    }
    for (int i = 0; i < kTransient; ++i) {
      m.volume().remove("C:\\churn\\tmp" + std::to_string(i) + ".dat");
    }
    for (int i = 0; i < kRegistryValues; ++i) {
      m.registry().set_value(
          kChurnKey, hive::Value::dword("v" + std::to_string(i),
                                        static_cast<std::uint32_t>(op + i)));
    }
  }

  InsideBox box_;
  std::unique_ptr<core::ScanSession> session_;
  std::size_t op_seq_ = 1;
};

// --- outside-carve ---------------------------------------------------------------

/// Hacker Defender plus DoubleFu (double DKOM with dump scrubbing), on a
/// machine that runs thousands of extra processes so the blue-screen
/// dump is large. Every op is a full outside-the-box run: capture, blue
/// screen, power off, diff the disk, the parsed dump and the carve of
/// the raw dump. Between ops the machine boots again and the processes
/// are respawned, untimed.
class OutsideCarve final : public Workload {
 public:
  static constexpr int kExtraProcesses = 4096;

  void setup(const RunPlan& plan) override {
    machine::MachineConfig cfg;
    cfg.seed = plan.seed;
    cfg.synthetic_files = 300 + plan.seed % 16;
    cfg.synthetic_registry_keys = 200 + plan.seed % 8;
    m_ = std::make_unique<machine::Machine>(cfg);
    machine::Machine& m = *m_;
    // The AV log rotation and System Restore log write a new file in
    // every shutdown window; off, the disk (and every report) stays the
    // same from one op to the next.
    m.services().set_enabled(machine::Services::kAvRealtime, false);
    m.services().set_enabled(machine::Services::kSystemRestore, false);
    hd_ = malware::install_ghostware<malware::HackerDefender>(m);
    fu2_ = malware::install_ghostware<malware::DoubleFu>(m);
    // A clean reboot flushes the ghostware's registry writes to the hive
    // files: an op ends in a blue screen, which flushes nothing, so
    // without it the disk view would never hold the planted ASEPs.
    m.reboot();
    self_test_ = plan.self_test;
    respawn();
    victim_ = m.find_pid("notepad.exe");
    fu2_->hide_process(m, victim_);

    checker_ = {};
    checker_.want.add_manifest(m, *hd_);
    // The dump's module traversal follows the process linkage DoubleFu
    // cut, so only the carve sees the victim, and only its process record.
    checker_.want.add_process(m, victim_, {"carve"}, /*modules=*/false);

    executors_ = plan.parallelism;
    engine_ = std::make_unique<core::ScanEngine>(
        m, engine_config(plan.parallelism, &registry_));
    for (std::size_t i = 0; i < plan.warmup_ops; ++i) {
      reboot();
      (void)run_outside().to_json();
    }
  }

  std::vector<OpSample> run_ops(
      const RunPlan& plan, const std::function<void(std::size_t)>& before_op,
      const std::function<void(std::size_t)>& after_op) override {
    std::vector<OpSample> out(plan.ops);
    for (std::size_t i = 0; i < plan.ops; ++i) {
      OpSample& s = out[i];
      const auto t_boot = Clock::now();
      reboot();
      s.layer_ms["machine.boot_ms"] = ms_since(t_boot);
      const double disk_before =
          static_cast<double>(m_->disk().stats().bytes_read());
      if (before_op) before_op(i);
      const auto t0 = Clock::now();
      core::Report report = spanned("bench.scan", [&] { return run_outside(); });
      const auto t_json = Clock::now();
      std::string json =
          spanned("bench.core.report_json", [&] { return report.to_json(); });
      s.latency_ms = ms_since(t0);
      s.layer_ms["core.report_json_ms"] = ms_since(t_json);
      if (after_op) after_op(i);
      checker_.check(
          report, json,
          static_cast<double>(m_->disk().stats().bytes_read()) - disk_before,
          s);
    }
    return out;
  }

  void verify_end(Verdict&) override {}

  /// Boots the box back into an op's starting state (4096 extra
  /// processes) first, so the kernel probes see the op's dump size.
  LayerFigures probe_layers() override {
    reboot();
    return probe_machine(*m_, &engine_->pool());
  }

  PoolTotals pool_totals() override {
    return pool_totals_of(registry_, executors_);
  }

 private:
  core::Report run_outside() {
    core::JobSpec job;
    job.kind = core::ScanKind::kOutside;
    return std::move(engine_->run(job)).value();
  }

  void respawn() {
    for (int i = 0; i < kExtraProcesses; ++i) {
      m_->spawn_process("C:\\windows\\system32\\svc" + std::to_string(i) +
                        ".exe");
    }
    m_->spawn_process(kVictimImage);
    if (self_test_) m_->remove_interceptions(hd_->name());
  }

  /// Boots the powered-off box and restores the op's starting state.
  /// Pids are assigned in spawn order, so the victim gets its old pid
  /// back, and DoubleFu's scrubber (armed once, kept across boots)
  /// already targets it; only the two unlinkings need redoing.
  void reboot() {
    if (m_->running()) return;
    m_->boot();
    respawn();
    m_->kernel().dkom_unlink(victim_);
    m_->kernel().dkom_unlink_threads(victim_);
  }

  std::unique_ptr<machine::Machine> m_;
  std::shared_ptr<malware::HackerDefender> hd_;
  std::shared_ptr<malware::DoubleFu> fu2_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<core::ScanEngine> engine_;
  std::size_t executors_ = 1;
  kernel::Pid victim_ = 0;
  bool self_test_ = false;
  OpChecker checker_;
};

// --- fleet-daemon ----------------------------------------------------------------

/// Counts the bytes that cross one wire connection in each direction.
class CountingTransport final : public daemon::Transport {
 public:
  explicit CountingTransport(std::shared_ptr<daemon::Transport> inner)
      : inner_(std::move(inner)) {}

  support::Status send_bytes(std::span<const std::byte> data) override {
    bytes_.fetch_add(data.size(), std::memory_order_relaxed);
    return inner_->send_bytes(data);
  }
  support::StatusOr<std::size_t> recv_bytes(std::span<std::byte> out) override {
    auto n = inner_->recv_bytes(out);
    if (n.ok()) bytes_.fetch_add(*n, std::memory_order_relaxed);
    return n;
  }
  void close() override { inner_->close(); }

  [[nodiscard]] std::uint64_t bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<daemon::Transport> inner_;
  std::atomic<std::uint64_t> bytes_{0};
};

/// Twelve small machines behind an in-process daemon (1 shard, 2
/// workers, journal in the work directory), reached over two wire
/// connections: one op submits a job on the first, attaches to it on the
/// second and waits for its result there. Ops run one at a time, so each
/// job is timed from its own submit to its own result.
class FleetDaemon final : public Workload {
 public:
  static constexpr std::size_t kMachines = 12;

  ~FleetDaemon() override { stop(); }

  void setup(const RunPlan& plan) override {
    self_test_ = plan.self_test;
    want_.assign(kMachines, Expected{});
    for (std::size_t i = 0; i < kMachines; ++i) {
      machine::MachineConfig cfg;
      cfg.seed = plan.seed * 1000 + i;
      cfg.disk_sectors = 32 * 1024;
      cfg.mft_records = 2048;
      cfg.synthetic_files = 24 + (plan.seed + i) % 8;
      cfg.synthetic_registry_keys = 12 + (plan.seed + i) % 4;
      boxes_.push_back(std::make_unique<machine::Machine>(cfg));
      if (i % 3 == 2) {
        const auto hd =
            malware::install_ghostware<malware::HackerDefender>(*boxes_[i]);
        want_[i].add_manifest(*boxes_[i], *hd);
        if (self_test_) boxes_[i]->remove_interceptions(hd->name());
      }
    }

    daemon::DaemonOptions opts;
    opts.journal_path = journal_;
    opts.shards = 1;
    opts.workers_per_shard = 2;
    opts.metrics = &registry_;
    opts.resolve_machine = [this](const std::string& id) -> machine::Machine* {
      const std::size_t i = machine_index(id);
      return i < boxes_.size() ? boxes_[i].get() : nullptr;
    };
    daemon_ = std::move(daemon::Daemon::start(std::move(opts))).value();
    auto submit_pipe = daemon::make_pipe();
    auto collect_pipe = daemon::make_pipe();
    daemon_->serve(submit_pipe.server);
    daemon_->serve(collect_pipe.server);
    submit_wire_ = std::make_shared<CountingTransport>(submit_pipe.client);
    collect_wire_ = std::make_shared<CountingTransport>(collect_pipe.client);
    submitter_ = std::make_unique<client::DaemonClient>(submit_wire_);
    collector_ = std::make_unique<client::DaemonClient>(collect_wire_);

    // Warm-up: one job per machine.
    for (std::size_t i = 0; i < plan.warmup_ops; ++i) {
      auto h = submitter_->submit(request(i));
      if (h.ok()) (void)collector_->attach(h->id()).wait();
    }
  }

  /// Sets where the daemon keeps its journal (the run's work directory).
  void set_journal(std::string path) { journal_ = std::move(path); }

  std::vector<OpSample> run_ops(
      const RunPlan& plan, const std::function<void(std::size_t)>& before_op,
      const std::function<void(std::size_t)>& after_op) override {
    // Whole rounds over the machines, so per-job averages do not depend
    // on where a phase stops in the round robin.
    const std::size_t n = (plan.ops + kMachines - 1) / kMachines * kMachines;
    std::vector<OpSample> out(n);
    std::vector<std::string> reports(n);
    std::vector<double> submit_ms(n);

    if (refs_.empty()) build_references();
    const double disk_before = fleet_bytes_read();
    const std::uint64_t wire_before = wire_bytes();
    const std::uintmax_t journal_before = journal_size();

    for (std::size_t i = 0; i < n; ++i) {
      if (before_op) before_op(i);
      const auto t0 = Clock::now();
      auto h = submitter_->submit(request(next_job_ + i));
      submit_ms[i] = ms_since(t0);
      if (h.ok()) {
        client::JobHandle collected = collector_->attach(h->id());
        const client::JobResult& r = collected.wait();
        out[i].latency_ms = ms_since(t0);
        out[i].ok = r.status.ok();
        if (!r.status.ok()) out[i].failures.push_back(r.status.to_string());
        reports[i] = r.report_json;
      } else {
        out[i].ok = false;
        out[i].failures.push_back("submit: " + h.status().to_string());
      }
      if (after_op) after_op(i);
    }

    const double jobs = static_cast<double>(n);
    double findings = 0;
    double raw_minus_norm = 0;
    double report_bytes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      OpSample& s = out[i];
      if (!s.ok) continue;
      const std::size_t box = (next_job_ + i) % kMachines;
      const std::string norm = normalized(reports[i]);
      const std::string name = "BOX-" + std::to_string(box);
      if (norm != refs_[box]) {
        s.failures.push_back("job on " + name +
                             " differs from the in-process scan");
      }
      if (!ref_ok_[box]) {
        s.failures.push_back("job on " + name + " misses the planted truth");
      }
      s.ok = s.failures.empty();
      s.sim_scan_s = json_number(reports[i], "simulated_seconds");
      findings += ref_findings_[box];
      raw_minus_norm += static_cast<double>(reports[i].size()) -
                        static_cast<double>(client::normalized_report_json(
                                                reports[i])
                                                .size());
      report_bytes += static_cast<double>(norm.size());
      s.layer_ms["daemon.submit_ms"] = submit_ms[i];
      // The daemon's own accounting, stamped into each report: time
      // queued before dispatch and the engine run's wall time.
      s.layer_ms["daemon.queue_wait_p50_ms"] =
          1000.0 * json_number(reports[i], "queue_seconds");
      s.layer_ms["daemon.run_p50_ms"] =
          1000.0 * json_number(reports[i], "wall_seconds");
    }
    next_job_ += n;
    counts_["core.report_bytes"] = report_bytes / jobs;
    counts_["core.findings"] = findings / jobs;
    counts_["disk.bytes_read"] = (fleet_bytes_read() - disk_before) / jobs;
    std::string all_refs;
    for (const auto& r : refs_) all_refs += r;
    counts_["core.report_fnv48"] = fingerprint(all_refs);
    // The journal and the wire carry the raw report, whose wall-clock
    // fields print in shortest form, so their digit count varies from run
    // to run; subtracting it leaves a per-job figure that repeats exactly.
    counts_["daemon.journal_bytes_per_job"] =
        (static_cast<double>(journal_size() - journal_before) -
         raw_minus_norm) / jobs;
    counts_["daemon.wire_bytes_per_job"] =
        (static_cast<double>(wire_bytes() - wire_before) - raw_minus_norm) /
        jobs;
    return out;
  }

  /// The in-process scans the references came from must still carry
  /// exactly the planted findings, and a fresh in-process scan of every
  /// machine after the phase must still match its reference.
  void verify_end(Verdict& v) override {
    daemon_->wait_idle();
    for (const auto& why : reference_failures_) v.fail(why);
    for (std::size_t i = 0; i < kMachines; ++i) {
      v.expect(normalized(reference_scan(i).to_json()) == refs_[i],
               "in-process rescan of BOX-" + std::to_string(i) +
                   " differs from its reference");
    }
  }

  /// The daemon serves report JSON it serialized itself, so report
  /// serialization is timed on the in-process reference scans.
  LayerFigures probe_layers() override {
    LayerFigures f = probe_machine(*boxes_[0], nullptr);
    std::vector<double> json_ms;
    for (std::size_t i = 0; i < kMachines; ++i) {
      const core::Report ref = reference_scan(i);
      const auto t0 = Clock::now();
      (void)ref.to_json();
      json_ms.push_back(ms_since(t0));
    }
    f["core.report_json_ms"] = median(json_ms);

    // The result RPC alone: re-fetch finished jobs over the wire.
    std::vector<double> fetch;
    for (std::uint64_t id = 1; id <= 48; ++id) {
      const auto t = Clock::now();
      (void)collector_->attach(id).wait();
      fetch.push_back(ms_since(t));
    }
    f["daemon.result_ms"] = median(fetch);
    return f;
  }

  PoolTotals pool_totals() override { return pool_totals_of(registry_, 2); }

  [[nodiscard]] Counts run_counts() const override { return counts_; }

 private:
  static std::size_t machine_index(const std::string& id) {
    if (id.rfind("BOX-", 0) != 0) return kMachines;
    return static_cast<std::size_t>(std::stoul(id.substr(4)));
  }

  static daemon::JobRequest request(std::size_t box) {
    daemon::JobRequest req;
    req.machine_id = "BOX-" + std::to_string(box % kMachines);
    req.tenant = "perfbench";
    req.kind = core::ScanKind::kInside;
    return req;
  }

  /// The first number after `"key":` in a report the libraries wrote (the
  /// top-level fields come before any per-diff field of the same name).
  static double json_number(const std::string& json, const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = json.find(needle);
    if (at == std::string::npos) return 0;
    return std::strtod(json.c_str() + at + needle.size(), nullptr);
  }

  /// What a direct engine call reports for one machine: the reference
  /// every daemon job on it must match.
  core::Report reference_scan(std::size_t box) {
    core::JobSpec job;
    job.kind = core::ScanKind::kInside;
    core::ScanConfig cfg = request(box).to_scan_config();
    cfg.parallelism = 1;
    return std::move(core::ScanEngine(*boxes_[box], cfg).run(job)).value();
  }

  /// Untimed, before the first timed phase.
  void build_references() {
    for (std::size_t i = 0; i < kMachines; ++i) {
      const core::Report ref = reference_scan(i);
      Verdict v;
      check_report(ref, want_[i], v);
      for (const auto& why : v.failures()) {
        reference_failures_.push_back("BOX-" + std::to_string(i) + ": " + why);
      }
      ref_ok_.push_back(v.ok());
      ref_findings_.push_back(static_cast<double>(ref.all_hidden().size()));
      refs_.push_back(normalized(ref.to_json()));
    }
  }

  double fleet_bytes_read() const {
    double total = 0;
    for (const auto& box : boxes_) {
      total += static_cast<double>(box->disk().stats().bytes_read());
    }
    return total;
  }

  std::uintmax_t journal_size() const {
    std::error_code ec;
    const auto size = std::filesystem::file_size(journal_, ec);
    return ec ? 0 : size;
  }

  std::uint64_t wire_bytes() const {
    return submit_wire_->bytes() + collect_wire_->bytes();
  }

  void stop() {
    submitter_.reset();
    collector_.reset();
    daemon_.reset();
  }

  std::vector<std::unique_ptr<machine::Machine>> boxes_;
  std::vector<Expected> want_;
  std::vector<std::string> refs_;  // normalized, one per machine
  std::vector<bool> ref_ok_;  // reference carries the planted truth
  std::vector<double> ref_findings_;
  std::vector<std::string> reference_failures_;
  obs::MetricsRegistry registry_;
  std::string journal_;
  std::unique_ptr<daemon::Daemon> daemon_;
  std::shared_ptr<CountingTransport> submit_wire_;
  std::shared_ptr<CountingTransport> collect_wire_;
  std::unique_ptr<client::DaemonClient> submitter_;
  std::unique_ptr<client::DaemonClient> collector_;
  std::size_t next_job_ = 0;
  bool self_test_ = false;
  Counts counts_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "inside-cold", "rescan-churn", "outside-carve", "fleet-daemon"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& workdir) {
  if (name == "inside-cold") return std::make_unique<InsideCold>();
  if (name == "rescan-churn") return std::make_unique<RescanChurn>();
  if (name == "outside-carve") return std::make_unique<OutsideCarve>();
  if (name == "fleet-daemon") {
    auto w = std::make_unique<FleetDaemon>();
    w->set_journal(workdir + "/fleet.gbj");
    return w;
  }
  return nullptr;
}

}  // namespace gb::perfbench
