// Scan snapshots and resource identity — the vocabulary of Figure 1.
//
// A scan is a snapshot of one resource type taken from one point of view.
// Views carry a TrustLevel matching the paper's terminology: the
// high-level API view may contain "the lie"; inside-the-box low-level
// scans are "truth approximations" (a sufficiently privileged ghostware
// could interfere); the outside-the-box clean-boot scan is "the truth".
#pragma once

#include <string>
#include <vector>

#include "machine/profile.h"

namespace gb::core {

enum class TrustLevel {
  kApiView,             // through the (possibly intercepted) API stack
  kTruthApproximation,  // raw structures read from inside the box
  kTruth,               // read from a clean boot, ghostware not running
};

const char* trust_level_name(TrustLevel t);

enum class ResourceType { kFile, kAsepHook, kProcess, kModule };

const char* resource_type_name(ResourceType t);

/// One enumerable resource with a canonical identity.
///
/// Canonical keys (case-folded):
///   file:    full path                      "c:\windows\vanquish.exe"
///   asep:    key|value|data-item            "...\windows|appinit_dlls|msvsres.dll"
///   process: pid|image                      "136|hxdef100.exe"
///   module:  pid|module-path                "136|c:\windows\vanquish.dll"
struct Resource {
  std::string key;      // canonical (see above)
  std::string display;  // human-readable, NULs/control bytes escaped

  bool operator<(const Resource& o) const { return key < o.key; }
  bool operator==(const Resource& o) const { return key == o.key; }
};

/// A snapshot of one resource type from one view.
struct ScanResult {
  std::string view_name;  // e.g. "Win32 API scan (ghostbuster.exe)"
  ResourceType type = ResourceType::kFile;
  TrustLevel trust = TrustLevel::kApiView;
  std::vector<Resource> resources{};  // sorted by key, unique
  machine::ScanWork work{};         // feeds the timing model

  /// Sorts and dedupes; call after assembling resources.
  void normalize();
  bool contains(std::string_view key) const;
};

/// Canonical-key builders (shared by every scanner so that the same
/// entity always produces the same key across views).
std::string file_key(std::string_view full_path);
std::string asep_key(std::string_view key_path, std::string_view value_name,
                     std::string_view data_item);
std::string process_key(std::uint32_t pid, std::string_view image_name);
std::string module_key(std::uint32_t pid, std::string_view module_path);

}  // namespace gb::core
