// Signature carving over raw crash-dump bytes.
//
// Traversal-based dump analysis (KernelDump::active_view/thread_view)
// only sees objects something still points at. A rootkit that unlinks a
// process from *every* list and scrubs the dump's linkage sections —
// malware::DoubleFu — is invisible to all of them. Memory forensics
// answers with carving: sweep the raw bytes for object signatures (the
// pool-tag scan of Korkin & Nesterov's rootkit-detection work) and
// recover every record, referenced or not. The carver below is that
// counter: it never consults the directory to *find* records, only to
// label which recovered records were still reachable.
//
// Determinism contract: candidates are the byte offsets whose 8 bytes
// equal the record tag, each offset is examined exactly once, and chunk
// boundaries depend only on chunk_bytes — so the carved record list (in
// ascending offset order) is byte-identical at any worker count and any
// chunk size.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kernel/dump.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace gb::kernel {

/// One process record recovered by signature, wherever it sat.
struct CarvedProcess {
  KernelDump::ProcessImage image;
  /// Byte offset of the record tag in the dump image.
  std::uint64_t offset = 0;
  /// Still listed in the record directory? False = orphaned slack — the
  /// carve-only evidence a scrubber leaves behind.
  bool referenced = false;
};

struct CarveStats {
  std::uint64_t bytes_swept = 0;
  std::uint32_t chunks = 0;
  std::uint32_t candidates = 0;  // tag matches examined
  std::uint32_t recovered = 0;   // candidates that validated
  std::uint32_t rejected = 0;    // candidates that failed validation
};

struct CarveResult {
  std::vector<CarvedProcess> processes;  // ascending offset order
  CarveStats stats;

  /// Recovered records the directory no longer references.
  [[nodiscard]] std::size_t orphan_count() const;
};

/// Default sweep granularity (bytes per chunk).
inline constexpr std::uint32_t kDefaultCarveChunkBytes = 64 * 1024;

/// Sweeps `image` for process-record signatures. Chunks run concurrently
/// on the pool (null = serial); chunk_bytes 0 picks the default. Returns
/// kCorrupt for an image too small to carry the dump header, with a bad
/// magic (all-zero or scrubbed-to-garbage input), or whose recorded
/// length disagrees with the image size (truncation) — degrading the
/// carve view instead of crashing the scan. Decoded element counts (in
/// candidate records and in the directory) are bounded by the bytes that
/// remain, so a poisoned count rejects one candidate, or leaves every
/// record unlabelled (orphaned), and never escapes as bad_alloc.
[[nodiscard]] support::StatusOr<CarveResult> carve_dump(
    std::span<const std::byte> image, support::ThreadPool* pool = nullptr,
    std::uint32_t chunk_bytes = 0);

}  // namespace gb::kernel
