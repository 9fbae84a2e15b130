// ResourceScanner: the uniform provider interface behind ScanEngine.
//
// Each scan family (files, ASEP hooks, processes, modules) supplies the
// untrusted API view plus an *ordered list* of trusted views — per scan
// phase — and the engine diffs them all with the N-view matrix differ
// (core/differ.h). The engine is then one generic task graph
// over registered providers and their registered views: it knows nothing
// about resource types beyond this interface, so future views (deleted-
// MFT sweep, ADS sweep, a second dump traversal) plug in by registering
// a ViewDef rather than by growing per-type switches.
//
// Registered trusted views per family:
//
//   files     live:    index (directory-index walk), mft (raw MFT scan)
//             outside: disk  (WinPE clean-boot enumeration)
//   aseps     live:    hive  (low-level hive parse)
//             outside: hive  (hive files on the powered-off disk)
//   processes live:    active-list [, threads] [, carve]
//             outside: threads (dump traversal), carve (signature sweep
//                      of the raw dump bytes — works even when the dump
//                      no longer parses)
//   modules   live:    kernel (module-truth walk)
//             outside: dump   (module lists from the parsed dump)
//
// Every view returns StatusOr<ScanResult>: a failed view degrades that
// provider's diff (DiffReport::status) per-view instead of aborting the
// session — the surviving views still produce findings.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/differ.h"
#include "core/scan_result.h"
#include "disk/disk.h"
#include "kernel/dump.h"
#include "machine/machine.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace gb::core {

struct ScanConfig;                            // scan_engine.h
enum class ResourceMask : std::uint32_t;      // scan_engine.h
namespace internal {
struct SessionState;                          // core/scan_session.h
}

/// Everything a provider needs to run one view: the machine under scan,
/// the pool for internal fan-out (null = run serially), the session
/// configuration with the per-resource policies, and — on an incremental
/// rescan — the session's snapshot store, which the file and ASEP low
/// scans splice from instead of re-parsing the volume.
struct ScanTaskContext {
  machine::Machine& machine;
  support::ThreadPool* pool = nullptr;
  const ScanConfig& config;
  internal::SessionState* session = nullptr;
};

/// Inputs available to the outside-the-box (clean environment) views:
/// the powered-off disk, the parsed blue-screen dump when the capture
/// produced one, and the dump's *raw bytes* — kept even when parsing
/// failed, so the signature carve can still sweep a scrubbed image.
struct OutsideSources {
  disk::SectorDevice& disk;
  const kernel::KernelDump* dump = nullptr;
  std::span<const std::byte> dump_bytes;
  /// Why `dump` is absent/unparsed when the capture wanted one; OK when
  /// the dump parsed or no view needed it.
  support::Status dump_status;
};

/// Which task graph a view list is being assembled for: views of the
/// live machine (inside/injected scans) or of the captured evidence
/// (outside-the-box diff).
enum class ScanPhase { kLive, kOutside };

class ResourceScanner {
 public:
  /// One registered trusted view. `id` is the short stable identifier
  /// findings reference in found_in/missing_from (the API view is always
  /// "api"); views run in registration order for report purposes but
  /// execute concurrently.
  struct ViewDef {
    std::string id;
    TrustLevel trust = TrustLevel::kTruthApproximation;
    /// Outside views only: the engine induces the blue-screen dump when
    /// any registered outside view asks for it.
    bool needs_dump = false;
    /// Runs the view. `src` is null in the live phase. Views that need
    /// capture evidence handle its absence themselves (returning the
    /// capture's dump_status, or kUnavailable when nothing was captured).
    std::function<support::StatusOr<ScanResult>(const ScanTaskContext&,
                                                const OutsideSources* src)>
        run;
  };

  virtual ~ResourceScanner() = default;

  [[nodiscard]] virtual ResourceType type() const = 0;

  /// The untrusted API view, taken from `ctx`'s process.
  [[nodiscard]] virtual support::StatusOr<ScanResult> high_scan(
      const ScanTaskContext& t, const winapi::Ctx& ctx) const = 0;

  /// The ordered trusted views for `phase` under `cfg`'s policies. The
  /// engine runs every returned view as its own task and feeds all
  /// outcomes — completed or failed — to cross_view_matrix_diff.
  [[nodiscard]] virtual std::vector<ViewDef> trusted_views(
      ScanPhase phase, const ScanConfig& cfg) const = 0;
};

/// The four built-in scan families, in fixed report order (files, ASEPs,
/// processes, modules), filtered by `mask`.
std::vector<std::unique_ptr<ResourceScanner>> default_scanners(
    ResourceMask mask);

/// The view id the engine assigns the untrusted API view in every
/// matrix diff.
inline constexpr const char* kApiViewId = "api";

}  // namespace gb::core
