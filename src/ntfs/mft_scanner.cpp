#include "ntfs/mft_scanner.h"

#include <map>
#include <set>
#include <string>

#include "ntfs/dir_index.h"
#include "ntfs/ntfs_format.h"
#include "obs/trace.h"
#include "support/strings.h"

namespace gb::ntfs {

MftGeometry read_mft_geometry(disk::SectorDevice& dev) {
  std::vector<std::byte> bs(kSectorSize);
  dev.read(0, bs);
  ByteReader r(bs);
  r.seek(BootSectorLayout::kOemOffset);
  if (r.str(8) != std::string(kOemId, sizeof kOemId)) {
    throw ParseError("not an NTFS volume (bad OEM id)");
  }
  r.seek(BootSectorLayout::kMftStartCluster);
  MftGeometry g;
  g.start_cluster = r.u64();
  g.record_count = r.u32();
  // Divide rather than multiply: a hostile start cluster must not wrap.
  const std::uint64_t size = dev.size_bytes();
  if (g.start_cluster > size / kClusterSize ||
      (size - g.start_cluster * kClusterSize) / kMftRecordSize <
          g.record_count) {
    throw ParseError("MFT of " + std::to_string(g.record_count) +
                     " records at cluster " +
                     std::to_string(g.start_cluster) +
                     " runs past the device end");
  }
  return g;
}

MftScanner::MftScanner(disk::SectorDevice& dev) : dev_(dev) {
  const MftGeometry g = read_mft_geometry(dev_);
  mft_start_cluster_ = g.start_cluster;
  mft_record_count_ = g.record_count;
}

support::StatusOr<MftScanner> MftScanner::open(disk::SectorDevice& dev) {
  try {
    return MftScanner(dev);
  } catch (const ParseError& e) {
    return support::Status::corrupt(e.what());
  }
}

MftRecord MftScanner::load_record_from(disk::SectorDevice& dev,
                                       std::uint64_t number) {
  std::vector<std::byte> image(kMftRecordSize);
  dev.read(mft_start_cluster_ * kSectorsPerCluster +
               number * (kMftRecordSize / kSectorSize),
           image);
  return MftRecord::parse(image);
}

bool MftScanner::record_live_from(disk::SectorDevice& dev,
                                  std::uint64_t number) {
  std::vector<std::byte> image(kMftRecordSize);
  dev.read(mft_start_cluster_ * kSectorsPerCluster +
               number * (kMftRecordSize / kSectorSize),
           image);
  return MftRecord::looks_live(image);
}

MftRecord MftScanner::load_record(std::uint64_t number) {
  return load_record_from(dev_, number);
}

bool MftScanner::record_live(std::uint64_t number) {
  return record_live_from(dev_, number);
}

std::optional<MftNode> node_from(const MftRecord& rec) {
  if (!rec.file_name) return std::nullopt;
  MftNode n;
  n.name = rec.file_name->name;
  n.parent = rec.file_name->parent_ref;
  n.is_directory = rec.is_directory();
  n.size = rec.data ? rec.data->real_size : 0;
  n.attributes = rec.std_info ? rec.std_info->file_attributes : 0;
  for (const auto& stream : rec.named_streams) {
    n.stream_names.push_back(stream.name);
  }
  return n;
}

std::vector<RawFile> assemble_listing(
    const std::map<std::uint64_t, MftNode>& nodes) {
  // Resolve full paths with memoization; cycles/broken chains -> orphan.
  std::map<std::uint64_t, std::string> paths;
  paths[kMftRecordRoot] = "";

  auto resolve_path = [&](std::uint64_t rec) -> const std::string& {
    std::vector<std::uint64_t> chain;
    std::uint64_t cur = rec;
    while (!paths.contains(cur)) {
      auto it = nodes.find(cur);
      if (it == nodes.end() || chain.size() > nodes.size()) {
        paths[cur] = "<orphan>";
        break;
      }
      chain.push_back(cur);
      cur = it->second.parent;
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      paths[*it] = join_path(paths[nodes.at(*it).parent], nodes.at(*it).name);
    }
    return paths.at(rec);
  };

  std::vector<RawFile> out;
  out.reserve(nodes.size());
  for (const auto& [rec_no, node] : nodes) {
    if (rec_no == kMftRecordRoot) continue;
    RawFile f;
    f.record = rec_no;
    f.path = resolve_path(rec_no);
    f.is_directory = node.is_directory;
    f.is_system = rec_no < kFirstUserRecord;
    f.size = node.size;
    f.attributes = node.attributes;
    f.stream_names = node.stream_names;
    out.push_back(std::move(f));
  }
  return out;
}

std::vector<RawFile> MftScanner::scan(support::ThreadPool* pool,
                                      std::uint32_t batch_records) {
  if (batch_records == 0) batch_records = kDefaultScanBatch;
  auto whole = obs::default_tracer().span("mft.scan", "parse");
  whole.arg("records", std::to_string(mft_record_count_));

  // Phase 1: parse records in fixed-size batches. The batch boundaries
  // depend only on batch_records, never on the worker count, and each
  // batch tracks its own I/O — so merging the per-batch outputs in batch
  // order reproduces the serial walk exactly.
  struct Batch {
    std::vector<std::pair<std::uint64_t, MftNode>> nodes;  // record order
    std::size_t corrupt = 0;
    disk::IoStats io;
  };
  const std::size_t batch_count =
      (mft_record_count_ + batch_records - 1) / batch_records;
  std::vector<Batch> batches(batch_count);

  auto parse_batch = [&](std::size_t b) {
    auto span = obs::default_tracer().span("mft.parse_batch", "parse");
    span.arg("batch", std::to_string(b));
    disk::CountingDevice dev(dev_);
    Batch& out = batches[b];
    const std::uint64_t begin = std::uint64_t{b} * batch_records;
    const std::uint64_t end =
        std::min<std::uint64_t>(begin + batch_records, mft_record_count_);
    for (std::uint64_t i = begin; i < end; ++i) {
      if (!record_live_from(dev, i)) continue;
      MftRecord rec;
      try {
        rec = load_record_from(dev, i);
      } catch (const ParseError&) {
        ++out.corrupt;  // torn write / corruption: skip, keep scanning
        continue;
      }
      auto n = node_from(rec);
      if (!n) continue;
      out.nodes.emplace_back(i, std::move(*n));
    }
    out.io = dev.stats();
  };
  if (pool) {
    pool->parallel_for(batch_count, parse_batch);
  } else {
    for (std::size_t b = 0; b < batch_count; ++b) parse_batch(b);
  }

  std::map<std::uint64_t, MftNode> nodes;
  corrupt_records_ = 0;
  scan_stats_.reset();
  for (auto& b : batches) {
    for (auto& [rec_no, node] : b.nodes) {
      nodes.emplace(rec_no, std::move(node));
    }
    corrupt_records_ += b.corrupt;
    scan_stats_.sectors_read += b.io.sectors_read;
    scan_stats_.sectors_written += b.io.sectors_written;
    scan_stats_.seeks += b.io.seeks;
  }

  return assemble_listing(nodes);
}

std::vector<RawFile> MftScanner::scan_deleted(support::ThreadPool* pool,
                                              std::uint32_t batch_records) {
  if (batch_records == 0) batch_records = kDefaultScanBatch;
  if (mft_record_count_ <= kFirstUserRecord) return {};
  auto whole = obs::default_tracer().span("mft.scan_deleted", "parse");

  // Fixed-size record batches, like scan(): boundaries depend only on
  // batch_records, and per-batch outputs merge in record order, so the
  // listing is identical at any worker count. The tombstone sweep feeds
  // no timing model, so batches read dev_ directly (MemDisk guards its
  // shared counters; see disk.h).
  const std::uint64_t span = mft_record_count_ - kFirstUserRecord;
  const std::size_t batch_count = (span + batch_records - 1) / batch_records;
  std::vector<std::vector<RawFile>> batches(batch_count);

  auto sweep_batch = [&](std::size_t b) {
    std::vector<std::byte> image(kMftRecordSize);
    const std::uint64_t begin =
        kFirstUserRecord + std::uint64_t{b} * batch_records;
    const std::uint64_t end =
        std::min<std::uint64_t>(begin + batch_records, mft_record_count_);
    for (std::uint64_t i = begin; i < end; ++i) {
      dev_.read(mft_start_cluster_ * kSectorsPerCluster +
                    i * (kMftRecordSize / kSectorSize),
                image);
      ByteReader r(image);
      if (r.u32() != kFileRecordMagic) continue;  // never used
      r.skip(2);
      if (r.u16() & kRecordInUse) continue;  // live, not deleted
      MftRecord rec;
      try {
        rec = MftRecord::parse(image);
      } catch (const ParseError&) {
        continue;  // tombstone too damaged to recover
      }
      if (!rec.file_name) continue;
      RawFile f;
      f.record = i;
      f.path = "<deleted>\\" + rec.file_name->name;
      f.is_directory = (rec.flags & kRecordIsDirectory) != 0;
      f.size = rec.data ? rec.data->real_size : 0;
      f.attributes = rec.std_info ? rec.std_info->file_attributes : 0;
      batches[b].push_back(std::move(f));
    }
  };
  if (pool) {
    pool->parallel_for(batch_count, sweep_batch);
  } else {
    for (std::size_t b = 0; b < batch_count; ++b) sweep_batch(b);
  }

  std::vector<RawFile> out;
  for (auto& b : batches) {
    out.insert(out.end(), std::make_move_iterator(b.begin()),
               std::make_move_iterator(b.end()));
  }
  return out;
}

namespace {

std::vector<std::byte> read_attr_payload(disk::SectorDevice& dev,
                                         const DataAttr& attr) {
  if (attr.resident) return attr.resident_data;
  std::vector<std::byte> out;
  // real_size is an on-disk u64 the file's owner controls; the runs can
  // never supply more than the device holds, so cap the reserve there.
  out.reserve(std::min(attr.real_size, dev.size_bytes()));
  std::vector<std::byte> cluster(kClusterSize);
  for (const Run& run : attr.runs) {
    for (std::uint64_t c = run.lcn; c < run.lcn + run.length; ++c) {
      dev.read(c * kSectorsPerCluster, cluster);
      const std::size_t n =
          std::min<std::uint64_t>(kClusterSize, attr.real_size - out.size());
      out.insert(out.end(), cluster.begin(),
                 cluster.begin() + static_cast<std::ptrdiff_t>(n));
      if (out.size() == attr.real_size) return out;
    }
  }
  return out;
}

}  // namespace

std::vector<std::byte> MftScanner::read_file_data(std::uint64_t record) {
  const MftRecord rec = load_record(record);
  if (!rec.data) return {};
  return read_attr_payload(dev_, *rec.data);
}

std::vector<RawFile> MftScanner::index_orphans(support::ThreadPool* pool,
                                               std::uint32_t batch_records) {
  if (batch_records == 0) batch_records = kDefaultScanBatch;
  auto whole = obs::default_tracer().span("mft.index_orphans", "parse");

  // Pass 1: collect each directory's indexed child-record set. Fixed
  // record batches (boundaries depend only on batch_records, never the
  // worker count); each directory lands in exactly one batch, so the
  // per-batch maps merge disjointly and the merged result matches the
  // serial walk exactly. Like scan_deleted(), batches read dev_ directly
  // (MemDisk guards its shared counters; no timing model consumes this
  // walk).
  struct IndexBatch {
    std::map<std::uint64_t, std::set<std::uint64_t>> indexed;
    std::vector<std::uint64_t> has_index;
  };
  const std::size_t batch_count =
      (mft_record_count_ + batch_records - 1) / batch_records;
  std::vector<IndexBatch> parts(batch_count);
  auto index_batch = [&](std::size_t b) {
    auto span = obs::default_tracer().span("mft.index_batch", "parse");
    span.arg("batch", std::to_string(b));
    IndexBatch& out = parts[b];
    const std::uint64_t begin = std::uint64_t{b} * batch_records;
    const std::uint64_t end =
        std::min<std::uint64_t>(begin + batch_records, mft_record_count_);
    for (std::uint64_t i = begin; i < end; ++i) {
      if (!record_live(i)) continue;
      MftRecord rec;
      try {
        rec = load_record(i);
      } catch (const ParseError&) {
        continue;
      }
      if (!rec.is_directory() || !rec.index) continue;
      out.has_index.push_back(i);
      auto& children = out.indexed[i];  // present even when the index
                                        // holds zero entries
      const auto blob = read_attr_payload(dev_, *rec.index);
      for (const auto& e : decode_index_entries(blob)) {
        children.insert(e.record);
      }
    }
  };
  if (pool) {
    pool->parallel_for(batch_count, index_batch);
  } else {
    for (std::size_t b = 0; b < batch_count; ++b) index_batch(b);
  }

  std::map<std::uint64_t, std::set<std::uint64_t>> indexed;
  std::set<std::uint64_t> has_index;
  for (auto& p : parts) {
    has_index.insert(p.has_index.begin(), p.has_index.end());
    for (auto& [dir, children] : p.indexed) {
      indexed.insert_or_assign(dir, std::move(children));
    }
  }

  // Pass 2: live records absent from their (indexed) parent, checked in
  // fixed batches over the scan listing. The lookups into `indexed` and
  // `has_index` are read-only, so batches share them without locking.
  const std::vector<RawFile> files = scan(pool, batch_records);
  const std::size_t check_count =
      (files.size() + batch_records - 1) / batch_records;
  std::vector<std::vector<RawFile>> found(check_count);
  auto check_batch = [&](std::size_t b) {
    auto span = obs::default_tracer().span("mft.orphan_check", "parse");
    span.arg("batch", std::to_string(b));
    const std::size_t begin = std::size_t{b} * batch_records;
    const std::size_t end =
        std::min<std::size_t>(begin + batch_records, files.size());
    for (std::size_t k = begin; k < end; ++k) {
      const RawFile& f = files[k];
      if (f.is_system) continue;
      MftRecord rec;
      try {
        rec = load_record(f.record);
      } catch (const ParseError&) {
        continue;
      }
      if (!rec.file_name) continue;
      const auto parent = rec.file_name->parent_ref;
      if (!has_index.contains(parent)) continue;  // legacy/unindexed parent
      const auto it = indexed.find(parent);
      if (it == indexed.end() || !it->second.contains(f.record)) {
        found[b].push_back(f);
      }
    }
  };
  if (pool) {
    pool->parallel_for(check_count, check_batch);
  } else {
    for (std::size_t b = 0; b < check_count; ++b) check_batch(b);
  }

  std::vector<RawFile> out;
  for (auto& b : found) {
    out.insert(out.end(), std::make_move_iterator(b.begin()),
               std::make_move_iterator(b.end()));
  }
  return out;
}

std::optional<std::uint64_t> MftScanner::find_in(
    const std::vector<RawFile>& files, std::string_view path) {
  std::string_view stripped = path;
  if (stripped.size() >= 2 && stripped[1] == ':') stripped.remove_prefix(2);
  while (!stripped.empty() && stripped.front() == '\\') {
    stripped.remove_prefix(1);
  }
  for (const auto& f : files) {
    if (iequals(f.path, stripped)) return f.record;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> MftScanner::find(std::string_view path) {
  return find_in(scan(), path);
}

}  // namespace gb::ntfs
