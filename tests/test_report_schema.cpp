// Golden-file compatibility: pins the schema-v2.5 report JSON of every
// scan kind so schema and engine changes are deliberate, not accidental.
// Regenerate the goldens with GB_UPDATE_GOLDEN=1 after an intentional
// schema bump.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>

#include "core/scan_engine.h"
#include "malware/hackerdefender.h"

namespace gb {

namespace core {
/// Names parameterized instances by kind ("/inside", not "/0").
void PrintTo(ScanKind kind, std::ostream* os) { *os << scan_kind_name(kind); }
}  // namespace core

namespace {

/// Zeroes the wall-clock fields — the only nondeterministic bytes in a
/// report — exactly as the determinism suite does.
std::string normalize(std::string j) {
  j = std::regex_replace(j, std::regex(R"(\"wall_seconds\":[0-9eE+.\-]+)"),
                         "\"wall_seconds\":0");
  j = std::regex_replace(j, std::regex(R"(\"worker_threads\":[0-9]+)"),
                         "\"worker_threads\":0");
  return j;
}

/// The inside report keeps its original file name; the other kinds are
/// suffixed with theirs.
std::string golden_path(core::ScanKind kind = core::ScanKind::kInside) {
  const std::string suffix =
      kind == core::ScanKind::kInside
          ? ""
          : std::string("_") + core::scan_kind_name(kind);
  return std::string(GB_GOLDEN_DIR) + "/report_v2_5" + suffix + ".json";
}

/// The pinned scenario: a seeded small machine with Hacker Defender,
/// scanned serially. Every byte of the normalized JSON is reproducible.
std::string reference_report_json(
    core::ScanKind kind = core::ScanKind::kInside) {
  machine::MachineConfig cfg;
  cfg.synthetic_files = 20;
  cfg.synthetic_registry_keys = 10;
  machine::Machine m(cfg);
  malware::install_ghostware<malware::HackerDefender>(m);
  core::ScanConfig scan_cfg;
  scan_cfg.parallelism = 1;
  return normalize(core::ScanEngine(m, scan_cfg)
                       .run(core::JobSpec{.kind = kind})
                       .value()
                       .to_json());
}

class ReportSchemaGoldenByKind : public ::testing::TestWithParam<core::ScanKind> {};

TEST_P(ReportSchemaGoldenByKind, JsonMatchesPinnedGolden) {
  const std::string actual = reference_report_json(GetParam());
  const std::string path = golden_path(GetParam());
  if (std::getenv("GB_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual << '\n';
    GTEST_SKIP() << "golden regenerated at " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " (regenerate with GB_UPDATE_GOLDEN=1)";
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string expected = buf.str();
  if (!expected.empty() && expected.back() == '\n') expected.pop_back();
  EXPECT_EQ(actual, expected)
      << "report JSON changed; if the schema bump is deliberate, rerun "
         "with GB_UPDATE_GOLDEN=1 and review the golden diff";
}

INSTANTIATE_TEST_SUITE_P(Kinds, ReportSchemaGoldenByKind,
                         ::testing::Values(core::ScanKind::kInside,
                                           core::ScanKind::kInjected,
                                           core::ScanKind::kOutside));

/// Minimal recursive-descent JSON validator. The reports are emitted by
/// hand-rolled serializers, so the cheapest way to catch an unbalanced
/// brace or a bare NaN is to actually parse the bytes.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& s) : s_(s) {}

  /// Parses one complete JSON document; true iff the whole string is
  /// one valid value with nothing trailing.
  bool parse_document() { return value() && (skip_ws(), pos_ == s_.size()); }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    skip_ws();
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }
  bool string_lit() {
    if (!eat('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    return eat('"');
  }
  bool number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool value() {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': {
        ++pos_;
        if (eat('}')) return true;
        do {
          if (!string_lit() || !eat(':') || !value()) return false;
        } while (eat(','));
        return eat('}');
      }
      case '[': {
        ++pos_;
        if (eat(']')) return true;
        do {
          if (!value()) return false;
        } while (eat(','));
        return eat(']');
      }
      case '"': return string_lit();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(ReportSchemaGolden, GoldenRoundTripsThroughJsonParser) {
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << golden_path()
                  << " (regenerate with GB_UPDATE_GOLDEN=1)";
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string golden = buf.str();
  if (!golden.empty() && golden.back() == '\n') golden.pop_back();
  EXPECT_TRUE(JsonCursor(golden).parse_document())
      << "golden report is not valid JSON";
  // And the live serializer, with the metrics block populated.
  const std::string actual = reference_report_json();
  EXPECT_TRUE(JsonCursor(actual).parse_document())
      << "report serializer emitted invalid JSON";
  EXPECT_NE(actual.find("\"metrics\":{"), std::string::npos)
      << "metrics block missing from a collect_metrics=true report";
}

TEST(ReportSchemaGolden, RequiredKeysAppearInOrder) {
  const std::string j = reference_report_json();
  const char* keys[] = {
      "\"schema_version\":\"2.5\"", "\"infected\":",      "\"degraded\":",
      "\"simulated_seconds\":",     "\"wall_seconds\":",  "\"worker_threads\":",
      "\"scheduler\":",             "\"metrics\":",       "\"provider_scans\":",
      "\"incremental\":",
      "\"diffs\":[",                "\"type\":",
      "\"status\":",
      "\"error\":",                 "\"views\":[",
      "\"id\":",                    "\"name\":",
      "\"high_view\":",             "\"low_view\":",
      "\"trust\":",                 "\"high_count\":",    "\"low_count\":",
      "\"hidden\":[",               "\"found_in\":[",
      "\"missing_from\":[",         "\"extra_count\":"};
  std::size_t pos = 0;
  for (const char* key : keys) {
    const auto found = j.find(key, pos);
    ASSERT_NE(found, std::string::npos) << "missing or out of order: " << key;
    pos = found;
  }
}

}  // namespace
}  // namespace gb
