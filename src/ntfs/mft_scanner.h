// Raw MFT scanner — the paper's low-level file scan.
//
// This code is deliberately independent of NtfsVolume: it consumes only
// raw device bytes (boot sector, MFT records, run lists) and reconstructs
// full paths from FILE_NAME parent references. Nothing a ghostware
// program does to the API stack, the filter-driver chain, or the SSDT can
// affect what this scanner sees, which is exactly the trust argument of
// Section 2 of the paper.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "disk/disk.h"
#include "ntfs/mft_record.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace gb::ntfs {

/// One file or directory as seen in the raw MFT.
struct RawFile {
  std::uint64_t record = 0;
  std::string path;  // full path from volume root, '\\'-separated
  bool is_directory = false;
  /// NTFS metadata records ($MFT, $Bitmap, record numbers < 16). The
  /// GhostBuster file diff excludes these, as the real tool must.
  bool is_system = false;
  std::uint64_t size = 0;
  std::uint32_t attributes = 0;
  /// Names of alternate data streams found on this record. The Win32 API
  /// surface has no way to enumerate these; the raw scan is the only
  /// view that shows them.
  std::vector<std::string> stream_names;
};

/// One live MFT record reduced to exactly the fields the listing needs —
/// the unit the snapshot store caches per record digest. A parsed record
/// maps to its node deterministically, so two records with identical raw
/// bytes always produce identical nodes (the content-addressing premise).
struct MftNode {
  std::string name;
  std::uint64_t parent = 0;
  bool is_directory = false;
  std::uint64_t size = 0;
  std::uint32_t attributes = 0;
  std::vector<std::string> stream_names;
};

/// Reduces a parsed record to its listing node; nullopt when the record
/// carries no FILE_NAME attribute and is invisible to the path walk.
[[nodiscard]] std::optional<MftNode> node_from(const MftRecord& rec);

/// Phase 2 of MftScanner::scan(): resolves full paths over the node map
/// (memoized parent-chain walk, cycles/broken chains under "<orphan>\")
/// and emits the listing in record order, skipping the root. Shared with
/// the snapshot splice path so a cached re-scan produces the same bytes
/// as a cold walk over the same records.
[[nodiscard]] std::vector<RawFile> assemble_listing(
    const std::map<std::uint64_t, MftNode>& nodes);

/// Where the MFT lives, as the boot sector says.
struct MftGeometry {
  std::uint64_t start_cluster = 0;
  std::uint32_t record_count = 0;
};

/// Reads the boot sector's OEM id, MFT start cluster and MFT record
/// count — the one decoder of that geometry. Throws gb::ParseError if the
/// volume is not NTFS or the records would run past the device end (a
/// poisoned count must never size an allocation or a read loop).
[[nodiscard]] MftGeometry read_mft_geometry(disk::SectorDevice& dev);

class MftScanner {
 public:
  /// Parses the boot sector (read_mft_geometry); throws gb::ParseError
  /// if it is not a sound NTFS boot sector.
  explicit MftScanner(disk::SectorDevice& dev);

  /// Status-returning factory: a device without a valid NTFS boot sector
  /// yields kCorrupt instead of a throw, so a trashed disk degrades the
  /// file scan rather than aborting the session.
  [[nodiscard]] static support::StatusOr<MftScanner> open(
      disk::SectorDevice& dev);

  /// Walks every MFT record and reconstructs paths. Orphaned records
  /// (broken or cyclic parent chains) are reported under "<orphan>\".
  /// Records that fail to parse (disk corruption, torn writes) are
  /// skipped and counted — a forensic scanner must survive them.
  ///
  /// Record parsing proceeds in fixed-size batches; with a pool the
  /// batches run concurrently (each through its own CountingDevice, so
  /// the I/O accounting in last_scan_stats() is identical at any worker
  /// count), and batch outputs merge in record order. The result is
  /// byte-identical to the serial walk.
  std::vector<RawFile> scan(support::ThreadPool* pool = nullptr,
                            std::uint32_t batch_records = 0);

  /// Default record-batch granularity for scan(); small enough to
  /// balance across workers, large enough to amortize task overhead.
  static constexpr std::uint32_t kDefaultScanBatch = 1024;

  /// Deterministic I/O accounting for the last scan() (bytes and seeks
  /// accumulated batch-by-batch in record order).
  const disk::IoStats& last_scan_stats() const { return scan_stats_; }

  /// Live-looking records that failed to parse during the last scan().
  std::size_t corrupt_records() const { return corrupt_records_; }

  /// Forensic recovery: tombstoned records (valid FILE magic, in-use flag
  /// cleared) whose metadata is still intact — recently deleted files.
  /// Names are best-effort; parent paths may themselves be gone.
  ///
  /// Like scan(), the record space is processed in fixed-size batches
  /// (boundaries depend only on batch_records) that run concurrently on a
  /// pool and merge in record order, so the listing is byte-identical at
  /// any worker count.
  std::vector<RawFile> scan_deleted(support::ThreadPool* pool = nullptr,
                                    std::uint32_t batch_records = 0);

  /// chkdsk-style consistency check: live records whose parent directory
  /// carries an index that does NOT list them. A benign volume has none;
  /// an entry deleted from the index (data-only hiding) shows up here —
  /// and in the cross-view diff, since enumeration cannot see it either.
  ///
  /// Both passes (directory-index collection, then the per-file
  /// membership check) run in fixed-size record batches like scan():
  /// boundaries depend only on batch_records and outputs merge in record
  /// order, so the listing is byte-identical at any worker count.
  std::vector<RawFile> index_orphans(support::ThreadPool* pool = nullptr,
                                     std::uint32_t batch_records = 0);

  /// Reads the full data payload of a record (resident or via run list).
  std::vector<std::byte> read_file_data(std::uint64_t record);

  /// Case-insensitive path lookup over the raw structures.
  std::optional<std::uint64_t> find(std::string_view path);

  /// Case-insensitive lookup in an already-scanned listing (lets callers
  /// resolve many paths from one scan() instead of rescanning per path).
  static std::optional<std::uint64_t> find_in(
      const std::vector<RawFile>& files, std::string_view path);

  std::uint32_t record_capacity() const { return mft_record_count_; }

 private:
  MftRecord load_record(std::uint64_t number);
  bool record_live(std::uint64_t number);
  MftRecord load_record_from(disk::SectorDevice& dev, std::uint64_t number);
  bool record_live_from(disk::SectorDevice& dev, std::uint64_t number);

  disk::SectorDevice& dev_;
  std::uint64_t mft_start_cluster_ = 0;
  std::uint32_t mft_record_count_ = 0;
  std::size_t corrupt_records_ = 0;
  disk::IoStats scan_stats_;
};

}  // namespace gb::ntfs
