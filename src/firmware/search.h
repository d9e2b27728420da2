// End-to-end vulnerability search pipeline (§V).
//
// BuildFirmwareCorpus generates vendor firmware images (NetGear / Schneider /
// Dlink), plants vulnerable or patched CVE functions into a subset, packs
// and re-unpacks every image (exercising the binwalk-analog path), strips
// symbols, and decompiles everything. RunVulnSearch encodes all firmware
// functions and the CVE library with a trained Asteria model, scores every
// (function, CVE) pair at or above the threshold in one core::SearchIndex
// AboveThresholdBatch sweep, and applies the paper's confirmation criteria:
//   A: the candidate comes from the same software and a vulnerable version
//   B: the similarity score is (numerically) 1
// Ground truth (which planted function is really the vulnerable one) is
// recorded at build time so confirmations can be validated automatically.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/asteria.h"
#include "firmware/image.h"
#include "firmware/vulnlib.h"
#include "util/pipeline_report.h"

namespace asteria::firmware {

struct FirmwareCorpusConfig {
  int images = 30;
  std::uint64_t seed = 99;
  // Probability that an image ships a CVE-library software module at all;
  // when it does, this fraction is still on the vulnerable version.
  double software_probability = 0.8;
  double vulnerable_probability = 0.6;
  int filler_packages_per_image = 2;
  int beta = 4;
};

// One decompiled firmware function with build-time ground truth.
struct FirmwareFunction {
  int image = 0;                 // index into FirmwareCorpus::images
  std::string module;            // module (software) name
  std::string version;           // software version string
  std::string symbol;            // stripped name: sub_xxx
  core::FunctionFeature feature; // preprocessed AST + callee count
  // Ground truth: CVE id if this is the planted vulnerable function, empty
  // otherwise. `patched` marks the fixed variant of a CVE function.
  std::string truth_cve;
  bool patched = false;
};

struct FirmwareCorpus {
  std::vector<FirmwareImage> images;
  std::vector<FirmwareFunction> functions;
  int unpack_failures = 0;
  // Per-function/image outcome accounting (stage "firmware-corpus").
  util::PipelineReport report;
};

FirmwareCorpus BuildFirmwareCorpus(const FirmwareCorpusConfig& config);

// Per-CVE search outcome (one Table IV row).
struct CveSearchResult {
  std::string cve;
  std::string software;
  std::string function;
  int candidates = 0;       // scores above threshold
  int criteria_a = 0;       // same software + vulnerable version
  int criteria_b = 0;       // score == 1 (within 1e-9)
  int confirmed = 0;        // candidates that are truly the CVE function
  int false_positives = 0;  // candidates that are not
  std::vector<std::string> affected_models;
};

struct VulnSearchResult {
  std::vector<CveSearchResult> per_cve;
  int total_confirmed = 0;
  int total_candidates = 0;
  double threshold = 0.0;
  // Per-query/encoding outcome accounting (stage "vuln-search"): failed CVE
  // query compilations and corpus functions excluded from scoring are
  // counted here, never silently dropped.
  util::PipelineReport report;
};

// Reference ISA used to compile the CVE library for querying.
inline constexpr int kQueryIsa = 0;  // x86

// The one CVE-query recipe (RunVulnSearch and ingest's DeltaVulnSearch):
// compiles spec's vulnerable source on kQueryIsa and decompiles
// spec.function into `query` (named spec.function). Returns false with
// `why` ("<cve>: query ...") when the source, compile or lookup fails.
bool BuildVulnQuery(const VulnSpec& spec, int beta,
                    core::FunctionFeature* query, std::string* why);

// Offline phase: one encoding per corpus function, in corpus order. A
// function whose encoding fails (throws, non-finite values, or the
// firmware.encode failpoint) keeps its slot as an empty 0x0 placeholder so
// positional alignment with the corpus survives; the failure is counted in
// `report` (stage "firmware-encode") when non-null.
std::vector<nn::Matrix> EncodeFirmwareCorpus(
    const core::AsteriaModel& model, const FirmwareCorpus& corpus,
    util::PipelineReport* report = nullptr);

// Persist/reload the offline encodings (kKindEncodings container,
// docs/FORMATS.md). The snapshot is fingerprinted against the model
// weights; Load additionally requires the entry count to match the corpus
// so a cache from a different corpus build fails loudly.
bool SaveFirmwareEncodings(const std::vector<nn::Matrix>& encodings,
                           const core::AsteriaModel& model,
                           const std::string& path, std::string* error);
bool LoadFirmwareEncodings(std::vector<nn::Matrix>* encodings,
                           const core::AsteriaModel& model,
                           std::size_t expected_count, const std::string& path,
                           std::string* error);

// What LoadOrRebuildEncodings found at its path. kQuarantined is a miss
// whose unloadable file was moved aside to <path>.corrupt.
enum class EncodingsCacheOutcome { kHit, kMiss, kQuarantined };

// The one FENC load-or-rebuild (RunVulnSearchCached and ingest): loads
// `path` into `encodings` when it holds `expected_count` encodings from
// this model's weights. Otherwise it quarantines a present-but-unloadable
// file, fills `encodings` from `encode()`, and saves them to `path` (a
// failed save only warns; the next run re-encodes). Callers keep their own
// counters.
EncodingsCacheOutcome LoadOrRebuildEncodings(
    const core::AsteriaModel& model, std::size_t expected_count,
    const std::string& path,
    const std::function<std::vector<nn::Matrix>()>& encode,
    std::vector<nn::Matrix>* encodings);

// Runs the search with a trained model at the given score threshold.
VulnSearchResult RunVulnSearch(const core::AsteriaModel& model,
                               const FirmwareCorpus& corpus,
                               double threshold, int beta = 4);

// Same, but with precomputed offline encodings (corpus order).
VulnSearchResult RunVulnSearch(const core::AsteriaModel& model,
                               const FirmwareCorpus& corpus,
                               const std::vector<nn::Matrix>& encodings,
                               double threshold, int beta = 4);

// Warm-start variant: reuses `cache_path` when it holds valid encodings
// for this (model, corpus), otherwise encodes and refreshes the cache.
VulnSearchResult RunVulnSearchCached(const core::AsteriaModel& model,
                                     const FirmwareCorpus& corpus,
                                     double threshold, int beta,
                                     const std::string& cache_path);

}  // namespace asteria::firmware
