// Kernel crash-dump export and offline parsing.
//
// Section 4's outside-the-box scan of volatile state: the paper induces a
// blue screen to write kernel memory to a dump file, then traverses the
// process structures in the dump from the clean WinPE boot. Here the
// "dump" is a byte-serialization of the kernel's object tables; the
// parser below is independent byte-level code, mirroring how the paper's
// traversal code runs against a file rather than live memory.
//
// As the paper notes, this is a truth *approximation*: ghostware that
// traps the blue-screen path could scrub itself from the dump. The
// simulation models that too — see Machine::bluescreen()'s scrubber hook.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "kernel/kernel.h"
#include "support/bytes.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace gb::kernel {

/// Parsed dump contents.
struct KernelDump {
  struct ProcessImage {
    Pid pid = 0;
    Pid parent_pid = 0;
    std::string image_name;
    std::string image_path;
    std::vector<PebModuleEntry> peb_modules;
    std::vector<KernelModule> kernel_modules;
  };

  std::vector<ProcessImage> processes;  // every object in the id table
  std::vector<Pid> active_list;         // linkage at dump time
  std::vector<Thread> threads;          // scheduler table at dump time
  std::vector<Driver> drivers;

  /// Processes as seen by walking the dumped Active Process List.
  std::vector<ProcessInfo> active_view() const;
  /// Processes reconstructed from the dumped thread table (finds
  /// DKOM-unlinked processes).
  std::vector<ProcessInfo> thread_view() const;
  const ProcessImage* find(Pid pid) const;
};

/// Serializes the kernel's current state ("MEMORY.DMP").
std::vector<std::byte> write_dump(const Kernel& kernel);

/// Parses dump bytes. Throws gb::ParseError on malformed input. Every
/// decoded element count is bounded by the input that remains
/// (ByteReader::count), so a poisoned count is a ParseError, never a
/// gigantic allocation.
///
/// With a pool, the per-process records (the bulk of a dump: module
/// lists, path strings) are parsed concurrently after a serial
/// structural skim locates each record's byte extent; record order — and
/// therefore the parsed dump, and every report derived from it — is
/// identical at any worker count.
KernelDump parse_dump(std::span<const std::byte> image,
                      support::ThreadPool* pool = nullptr);

/// Non-throwing variant: a truncated or scrubbed-to-garbage dump becomes
/// a kCorrupt Status, degrading the process/module diffs instead of
/// aborting the outside-the-box workflow.
[[nodiscard]] support::StatusOr<KernelDump> parse_dump_or(
    std::span<const std::byte> image, support::ThreadPool* pool = nullptr);

/// Re-serializes a (possibly edited) parsed dump. For dumps that
/// serialize_dump itself produced, parse_dump is an exact inverse; note
/// that round-tripping a *scrubbed* dump discards its unreferenced slack
/// records (parse_dump never sees them — that is the scrub's point).
std::vector<std::byte> serialize_dump(const KernelDump& dump);

/// Surgical dump scrub — the paper's anticipated countermeasure, done
/// the way a real rootkit must do it: rewrites the linkage sections
/// (Active Process List, thread table, record directory) to drop the
/// given pids while copying the record heap verbatim, so each hidden
/// process's record bytes survive as unreferenced slack. parse_dump and
/// every traversal-based view lose the process; a signature carve of the
/// raw bytes (kernel/carve.h) still recovers it. Unknown pids are
/// ignored; input this scrubber cannot parse is left untouched.
void scrub_dump(std::vector<std::byte>& bytes, std::span<const Pid> pids);

}  // namespace gb::kernel
