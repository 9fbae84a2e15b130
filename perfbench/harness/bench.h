// Shared vocabulary of the end-to-end benchmark harness.
//
// The harness drives the GhostBuster libraries only through their
// public entry points (ScanEngine::run, ScanSession::rescan, gb::client,
// daemon::Daemon) and times them from the outside. A workload builds its
// machines in setup(), runs a fixed number of ops, and checks every op's
// report against ground truth it planted itself; main.cpp turns the
// samples into the end-to-end metrics and, for traced runs, attributes
// each op's time to the library layers from the spans the libraries
// already record.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace gb::perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// --- statistics ------------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 for
/// an empty one. Matches numpy's default ("linear") method.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Median wall time of a fixed integer loop owned by the harness. It
/// never touches the libraries, so a shift in it between two runs is the
/// host's, not the program's.
double calibration_ms();

/// Median wall time of copying a buffer larger than any cache: the
/// host's memory bandwidth, which the scans lean on and which other
/// tenants of a shared host move far more than they move the core.
double memory_calibration_ms();

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// A thread that, for as long as the probe runs, sleeps to a fixed
/// period and records how late each wake-up came. Ops that hand work
/// between threads slow down when the host is slow to wake threads,
/// which neither calibration loop sees.
class WakeProbe {
 public:
  WakeProbe();
  ~WakeProbe();
  WakeProbe(const WakeProbe&) = delete;
  WakeProbe& operator=(const WakeProbe&) = delete;

  /// Stops the thread and returns the lateness of every wake-up, in ms.
  std::vector<double> stop();

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> lateness_ms_;
  std::thread thread_;
};

// --- ground truth ------------------------------------------------------------

/// Records check failures for one op (or for the end-of-run checks).
/// A non-empty list makes the op count as failed.
class Verdict {
 public:
  void fail(std::string why) { failures_.push_back(std::move(why)); }
  void expect(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

/// Counts that must repeat exactly from op to op and from run to run at
/// one seed (records parsed, bytes read, report bytes, ...). Each op
/// records its own; main.cpp checks that every op agrees.
using Counts = std::map<std::string, double>;

/// One timed op as the workload saw it.
struct OpSample {
  double latency_ms = 0;
  double sim_scan_s = 0;
  Counts counts;  // deterministic
  /// Wall-clock per-layer figures the workload measured itself with
  /// harness timers around public calls (ntfs.write_batch_ms, ...).
  std::map<std::string, double> layer_ms;
  bool ok = true;
  std::vector<std::string> failures;
};

/// What main.cpp asks of a workload.
struct RunPlan {
  std::uint64_t seed = 1;
  std::size_t ops = 0;
  std::size_t warmup_ops = 0;
  std::size_t parallelism = 4;
  bool self_test = false;  // strip the ghostware's hooks before scanning
};

/// Per-layer figures a workload reports for traced runs, beyond what
/// main.cpp derives from spans (probe timings and work counts).
using LayerFigures = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds machines, plants ghostware, primes sessions / starts the
  /// daemon, and runs the warm-up ops. Timed as setup_s.
  virtual void setup(const RunPlan& plan) = 0;

  /// Runs plan.ops timed ops, one at a time (the fleet rounds up to
  /// whole rounds over its machines). Calls `before_op` / `after_op`,
  /// when set, with the op index just outside the timed region (the
  /// traced run switches the tracer on and harvests spans there).
  virtual std::vector<OpSample> run_ops(
      const RunPlan& plan,
      const std::function<void(std::size_t)>& before_op,
      const std::function<void(std::size_t)>& after_op) = 0;

  /// Checks after the timed phase: the last rescan against a cold scan,
  /// every fleet job against an in-process reference, and so on.
  virtual void verify_end(Verdict& verdict) = 0;

  /// Untimed probes of single layers through their public functions
  /// (dump write, hive parse, MFT walk over a counting device, ...),
  /// run once at the end of a traced run.
  virtual LayerFigures probe_layers() = 0;

  /// Sum of pool task seconds and tasks / steals, read from the public
  /// MetricsRegistry, for the support.* metrics. Executors are the
  /// engine's (pool workers + caller).
  struct PoolTotals {
    double tasks = 0;
    double steals = 0;
    double task_seconds = 0;
    double executors = 1;
  };
  virtual PoolTotals pool_totals() = 0;

  /// Deterministic counts that belong to the whole run rather than to
  /// one op (per-job figures of the fleet).
  [[nodiscard]] virtual Counts run_counts() const { return {}; }
};

/// Null for an unknown name. `workdir` holds whatever files the
/// workload writes (the fleet daemon's journal).
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& workdir);
const std::vector<std::string>& workload_names();

}  // namespace gb::perfbench
