#include "firmware/search.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "compiler/compile.h"
#include "core/search_index.h"
#include "dataset/generator.h"
#include "decompiler/decompile.h"
#include "minic/parser.h"
#include "minic/sema.h"
#include "store/container.h"
#include "util/failpoint.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace asteria::firmware {

namespace {

// Injects a per-function encoding failure into EncodeFirmwareCorpus
// (isolation testing: the slot degrades to a placeholder, search continues).
util::Failpoint fp_firmware_encode("firmware.encode");

util::Counter c_fw_cache_hit("firmware.cache_hit");
util::Counter c_fw_cache_miss("firmware.cache_miss");
util::Counter c_fw_quarantined("firmware.cache_quarantined");
util::Counter c_fw_confirmed("firmware.confirmed");
// Candidates above threshold per CVE query — deterministic per seed/model.
util::Histogram h_fw_candidates("firmware.candidates");

struct VendorSpec {
  const char* vendor;
  std::vector<const char*> models;
};

const std::vector<VendorSpec>& Vendors() {
  static const std::vector<VendorSpec> kVendors = {
      {"NetGear", {"R7000", "D7000", "R8000", "R7500", "D7800", "R7800",
                   "R6250", "R7900", "R6700", "FVS318Gv2"}},
      {"Schneider", {"BMX-NOE", "TM221", "PM5560"}},
      {"Dlink", {"DSN-6200", "DIR-865L", "DCS-930L"}},
  };
  return kVendors;
}

// Parses, checks and compiles one vuln-library source. On failure `why`
// names the step that failed ("source broken: ...", "compile failed: ...").
bool CompileSource(const std::string& source, const std::string& name,
                   binary::Isa isa, binary::BinModule* module,
                   std::string* why) {
  minic::Program program;
  std::string error;
  if (!minic::Parse(source, &program, &error) ||
      !minic::Check(program, &error)) {
    *why = "source broken: " + error;
    return false;
  }
  auto compiled = compiler::CompileProgram(program, isa, name);
  if (!compiled.ok) {
    *why = "compile failed: " + compiled.error;
    return false;
  }
  *module = std::move(compiled.module);
  return true;
}

}  // namespace

FirmwareCorpus BuildFirmwareCorpus(const FirmwareCorpusConfig& config) {
  FirmwareCorpus corpus;
  corpus.report.stage = "firmware-corpus";
  util::Rng rng(config.seed);
  dataset::GeneratorConfig generator_config;
  generator_config.min_functions = 3;
  generator_config.max_functions = 6;

  for (int img = 0; img < config.images; ++img) {
    const VendorSpec& vendor = Vendors()[rng.NextWeighted({5.0, 1.5, 2.5})];
    FirmwareImage image;
    image.vendor = vendor.vendor;
    image.model = vendor.models[rng.NextBounded(vendor.models.size())];
    image.version = "v" + std::to_string(rng.NextInt(1, 3)) + "." +
                    std::to_string(rng.NextInt(0, 9));
    const binary::Isa isa =
        static_cast<binary::Isa>(rng.NextWeighted({1.0, 0.2, 5.0, 1.2}));

    // Filler packages (vendor-specific code).
    for (int p = 0; p < config.filler_packages_per_image; ++p) {
      minic::Program program = dataset::GenerateProgram(generator_config, rng);
      std::string error;
      if (!minic::Check(program, &error)) continue;
      auto compiled = compiler::CompileProgram(
          program, isa, "vendor_" + std::to_string(img) + "_" + std::to_string(p));
      if (compiled.ok) image.modules.push_back(std::move(compiled.module));
    }

    // Possibly ship CVE-library software.
    struct Plant {
      std::string cve;
      std::string function;
      bool patched;
    };
    std::vector<Plant> plants;
    if (rng.NextBool(config.software_probability)) {
      // Ship 1-3 distinct softwares.
      const int count = static_cast<int>(rng.NextInt(1, 3));
      std::set<std::size_t> chosen;
      for (int k = 0; k < count; ++k) {
        chosen.insert(rng.NextBounded(VulnLibrary().size()));
      }
      for (std::size_t v : chosen) {
        const VulnSpec& spec = VulnLibrary()[v];
        const bool vulnerable = rng.NextBool(config.vulnerable_probability);
        const std::string name =
            spec.software + "-" +
            (vulnerable ? spec.vulnerable_version : spec.patched_version);
        binary::BinModule module;
        std::string why;
        if (!CompileSource(
                vulnerable ? spec.vulnerable_source : spec.patched_source,
                name, isa, &module, &why)) {
          ASTERIA_LOG(Error) << "vuln-library " << why << " (" << name << ")";
          continue;
        }
        if (module.functions.empty()) continue;
        plants.push_back({spec.cve, spec.function, !vulnerable});
        image.modules.push_back(std::move(module));
      }
    }

    // Strip symbols but remember which stripped name held the CVE function.
    struct TruthEntry {
      std::size_t module;
      std::string stripped;
      std::string cve;
      bool patched;
    };
    std::vector<TruthEntry> truths;
    {
      std::size_t plant_index = 0;
      for (std::size_t m = 0; m < image.modules.size(); ++m) {
        binary::BinModule& module = image.modules[m];
        const bool is_software = module.name.find("vendor_") != 0;
        std::string target_fn;
        std::string cve;
        bool patched = false;
        if (is_software && plant_index < plants.size()) {
          target_fn = plants[plant_index].function;
          cve = plants[plant_index].cve;
          patched = plants[plant_index].patched;
          ++plant_index;
        }
        std::vector<std::string> old_names;
        for (const auto& fn : module.functions) old_names.push_back(fn.name);
        module.StripSymbols();
        for (std::size_t f = 0; f < module.functions.size(); ++f) {
          if (!target_fn.empty() && old_names[f] == target_fn) {
            truths.push_back({m, module.functions[f].name, cve, patched});
          }
        }
      }
    }

    // Pack + unpack round trip (the binwalk-analog path).
    const std::vector<std::uint8_t> blob = Pack(image);
    auto unpacked = Unpack(blob);
    if (!unpacked.has_value()) {
      ++corpus.unpack_failures;
      corpus.report.AddFailed("image " + std::to_string(img) +
                              ": unpack failed");
      continue;
    }
    const int image_index = static_cast<int>(corpus.images.size());
    corpus.images.push_back(std::move(*unpacked));
    const FirmwareImage& stored = corpus.images.back();

    for (std::size_t m = 0; m < stored.modules.size(); ++m) {
      const binary::BinModule& module = stored.modules[m];
      auto decompiled = decompiler::DecompileModule(module, config.beta);
      for (auto& df : decompiled) {
        if (!df.error.empty()) {
          corpus.report.AddFailed(module.name + "/" + df.name + ": " +
                                  df.error);
          continue;
        }
        if (df.tree.size() < 5) {
          corpus.report.AddSkipped();
          continue;
        }
        corpus.report.AddOk();
        FirmwareFunction entry;
        entry.image = image_index;
        entry.module = module.name;
        entry.version = stored.version;
        entry.symbol = df.name;
        entry.feature.name = module.name + "::" + df.name;
        entry.feature.tree = ast::ToLeftChildRightSibling(df.tree);
        entry.feature.callee_count = df.callee_count;
        for (const TruthEntry& truth : truths) {
          if (truth.module == m && truth.stripped == df.name) {
            entry.truth_cve = truth.cve;
            entry.patched = truth.patched;
          }
        }
        corpus.functions.push_back(std::move(entry));
      }
    }
  }
  return corpus;
}

bool BuildVulnQuery(const VulnSpec& spec, int beta,
                    core::FunctionFeature* query, std::string* why) {
  binary::BinModule module;
  if (!CompileSource(spec.vulnerable_source, spec.software,
                     static_cast<binary::Isa>(kQueryIsa), &module, why)) {
    *why = spec.cve + ": query " + *why;
    return false;
  }
  const int fn = module.FindFunction(spec.function);
  if (fn < 0) {
    *why = spec.cve + ": query function '" + spec.function + "' not found";
    return false;
  }
  const auto decompiled = decompiler::DecompileFunction(module, fn, beta);
  query->name = spec.function;
  query->tree = ast::ToLeftChildRightSibling(decompiled.tree);
  query->callee_count = decompiled.callee_count;
  return true;
}

std::vector<nn::Matrix> EncodeFirmwareCorpus(const core::AsteriaModel& model,
                                             const FirmwareCorpus& corpus,
                                             util::PipelineReport* report) {
  ASTERIA_SPAN("firmware_encode");
  util::PipelineReport local;
  local.stage = "firmware-encode";
  std::vector<const core::FunctionFeature*> features;
  features.reserve(corpus.functions.size());
  for (const FirmwareFunction& fn : corpus.functions) {
    features.push_back(&fn.feature);
  }
  // RunVulnSearch takes no thread count, so the offline encode runs on the
  // calling thread.
  core::IsolatedEncodings encoded =
      core::EncodeIsolated(model, features, /*threads=*/1, fp_firmware_encode);
  for (const std::string& failure : encoded.failures) {
    if (failure.empty()) {
      local.AddOk();
    } else {
      local.AddFailed(failure);
    }
  }
  util::PublishPipelineReport(local);
  if (report != nullptr) report->Merge(local);
  return std::move(encoded.encodings);
}

namespace {

constexpr std::uint32_t kTagEncodingsMeta = store::FourCc('E', 'M', 'E', 'T');
constexpr std::uint32_t kTagEncodingsData = store::FourCc('E', 'V', 'E', 'C');
constexpr std::uint32_t kEncodingsSchemaVersion = 1;

}  // namespace

bool SaveFirmwareEncodings(const std::vector<nn::Matrix>& encodings,
                           const core::AsteriaModel& model,
                           const std::string& path, std::string* error) {
  store::Writer writer;
  if (!writer.Open(path, store::kKindEncodings, error)) return false;
  store::ChunkBuilder meta;
  meta.PutU32(kEncodingsSchemaVersion);
  meta.PutU32(model.WeightsFingerprint());
  meta.PutU64(encodings.size());
  if (!writer.WriteChunk(kTagEncodingsMeta, meta, error)) return false;
  store::ChunkBuilder data;
  for (const nn::Matrix& encoding : encodings) {
    data.PutU32(static_cast<std::uint32_t>(encoding.rows()));
    data.PutU32(static_cast<std::uint32_t>(encoding.cols()));
    data.PutF64Array(encoding.data(), encoding.size());
  }
  if (!writer.WriteChunk(kTagEncodingsData, data, error)) return false;
  return writer.Finish(error);
}

bool LoadFirmwareEncodings(std::vector<nn::Matrix>* encodings,
                           const core::AsteriaModel& model,
                           std::size_t expected_count, const std::string& path,
                           std::string* error) {
  store::Reader reader;
  if (!reader.Open(path, store::kKindEncodings, error)) return false;
  std::uint64_t declared_count = 0;
  bool saw_meta = false;
  std::vector<nn::Matrix> loaded;
  store::ChunkView payload;
  for (std::size_t i = 0; i < reader.chunks().size(); ++i) {
    const store::ChunkInfo& info = reader.chunks()[i];
    if (info.tag != kTagEncodingsMeta && info.tag != kTagEncodingsData) {
      continue;
    }
    if (!reader.ReadChunk(i, &payload, error)) return false;
    store::ChunkParser parser(payload);
    if (info.tag == kTagEncodingsMeta) {
      std::uint32_t schema = 0, fingerprint = 0;
      if (!parser.GetU32(&schema, error) ||
          !parser.GetU32(&fingerprint, error) ||
          !parser.GetU64(&declared_count, error)) {
        return false;
      }
      if (schema != kEncodingsSchemaVersion) {
        *error = path + ": unsupported encodings schema version " +
                 std::to_string(schema);
        return false;
      }
      if (fingerprint != model.WeightsFingerprint()) {
        *error = path + ": encodings were produced by different model "
                        "weights (fingerprint mismatch)";
        return false;
      }
      if (declared_count != expected_count) {
        *error = path + ": cache holds " + std::to_string(declared_count) +
                 " encodings but the corpus has " +
                 std::to_string(expected_count) + " functions — stale cache";
        return false;
      }
      saw_meta = true;
      continue;
    }
    if (!saw_meta) {
      *error = path + ": EVEC chunk before EMET metadata";
      return false;
    }
    while (!parser.AtEnd()) {
      std::uint32_t rows = 0, cols = 0;
      if (!parser.GetU32(&rows, error) || !parser.GetU32(&cols, error)) {
        return false;
      }
      const std::uint64_t elements =
          static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
      if (elements * sizeof(double) > parser.remaining()) {
        *error = path + ": encoding " + std::to_string(loaded.size()) +
                 " declares " + std::to_string(rows) + "x" +
                 std::to_string(cols) + " but the chunk is too small";
        return false;
      }
      // 0x0 entries are legitimate placeholders for functions whose
      // encoding failed; anything else must match what this model produces
      // and hold finite values.
      const int hidden_dim = model.config().siamese.encoder.hidden_dim;
      if (elements != 0 &&
          (static_cast<int>(rows) != hidden_dim || cols != 1)) {
        *error = path + ": encoding " + std::to_string(loaded.size()) +
                 " has shape " + std::to_string(rows) + "x" +
                 std::to_string(cols) + " but this model produces " +
                 std::to_string(hidden_dim) + "x1 encodings";
        return false;
      }
      nn::Matrix m(static_cast<int>(rows), static_cast<int>(cols));
      if (!parser.GetF64Array(m.data(), m.size(), error)) return false;
      if (!nn::AllFinite(m.data(), m.size())) {
        *error = path + ": encoding " + std::to_string(loaded.size()) +
                 " contains non-finite values (NaN/Inf) — corrupted cache";
        return false;
      }
      loaded.push_back(std::move(m));
    }
  }
  if (!saw_meta) {
    *error = path + ": missing EMET metadata chunk";
    return false;
  }
  if (loaded.size() != declared_count) {
    *error = path + ": EMET declares " + std::to_string(declared_count) +
             " encodings but " + std::to_string(loaded.size()) +
             " were stored";
    return false;
  }
  *encodings = std::move(loaded);
  return true;
}

VulnSearchResult RunVulnSearch(const core::AsteriaModel& model,
                               const FirmwareCorpus& corpus, double threshold,
                               int beta) {
  // Encode the whole firmware corpus once (offline phase).
  util::PipelineReport encode_report;
  const std::vector<nn::Matrix> encodings =
      EncodeFirmwareCorpus(model, corpus, &encode_report);
  VulnSearchResult result =
      RunVulnSearch(model, corpus, encodings, threshold, beta);
  result.report.Merge(encode_report);
  return result;
}

EncodingsCacheOutcome LoadOrRebuildEncodings(
    const core::AsteriaModel& model, std::size_t expected_count,
    const std::string& path,
    const std::function<std::vector<nn::Matrix>()>& encode,
    std::vector<nn::Matrix>* encodings) {
  std::string error;
  if (LoadFirmwareEncodings(encodings, model, expected_count, path, &error)) {
    ASTERIA_LOG(Info) << "encodings cache hit: " << path;
    return EncodingsCacheOutcome::kHit;
  }
  ASTERIA_LOG(Info) << "encodings cache miss (" << error << "); re-encoding";
  EncodingsCacheOutcome outcome = EncodingsCacheOutcome::kMiss;
  // Move a present-but-unloadable cache aside before writing a fresh one
  // (QuarantineFile replaces any older quarantine, so only when present).
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fclose(f);
    std::string quarantined;
    if (store::QuarantineFile(path, &quarantined)) {
      ASTERIA_LOG(Warn) << "quarantined unloadable encodings cache to "
                        << quarantined << " (" << error << ")";
      outcome = EncodingsCacheOutcome::kQuarantined;
    }
  }
  *encodings = encode();
  // Non-fatal: the caller's results stand; the next run just re-encodes.
  if (!SaveFirmwareEncodings(*encodings, model, path, &error)) {
    ASTERIA_LOG(Warn) << "encodings cache write failed: " << error;
  }
  return outcome;
}

VulnSearchResult RunVulnSearchCached(const core::AsteriaModel& model,
                                     const FirmwareCorpus& corpus,
                                     double threshold, int beta,
                                     const std::string& cache_path) {
  if (cache_path.empty()) return RunVulnSearch(model, corpus, threshold, beta);
  util::PipelineReport encode_report;
  std::vector<nn::Matrix> encodings;
  const EncodingsCacheOutcome outcome = LoadOrRebuildEncodings(
      model, corpus.functions.size(), cache_path,
      [&] { return EncodeFirmwareCorpus(model, corpus, &encode_report); },
      &encodings);
  if (outcome == EncodingsCacheOutcome::kHit) {
    c_fw_cache_hit.Increment();
  } else {
    c_fw_cache_miss.Increment();
  }
  if (outcome == EncodingsCacheOutcome::kQuarantined) {
    c_fw_quarantined.Increment();
  }
  VulnSearchResult result =
      RunVulnSearch(model, corpus, encodings, threshold, beta);
  result.report.Merge(encode_report);
  return result;
}

VulnSearchResult RunVulnSearch(const core::AsteriaModel& model,
                               const FirmwareCorpus& corpus,
                               const std::vector<nn::Matrix>& encodings,
                               double threshold, int beta) {
  if (encodings.size() != corpus.functions.size()) {
    ASTERIA_LOG(Error) << "RunVulnSearch: " << encodings.size()
                       << " encodings for " << corpus.functions.size()
                       << " corpus functions; re-encoding";
    return RunVulnSearch(model, corpus, threshold, beta);
  }
  VulnSearchResult result;
  result.threshold = threshold;
  result.report.stage = "vuln-search";
  // Index every encoded function once; position[e] is index entry e's
  // corpus slot. Functions whose offline encoding failed sit in their slot
  // as empty 0x0 placeholders and are excluded once (not once per CVE).
  core::SearchIndex index(model);
  std::vector<std::size_t> position;
  position.reserve(encodings.size());
  bool first_missing = true;
  for (std::size_t i = 0; i < encodings.size(); ++i) {
    const core::FunctionFeature& feature = corpus.functions[i].feature;
    if (encodings[i].size() == 0) {
      result.report.AddSkipped(
          first_missing ? "function without encoding excluded from scoring"
                        : "");
      first_missing = false;
    } else if (index.AddEncoded(feature.name, encodings[i],
                                feature.callee_count) < 0) {
      result.report.AddFailed(feature.name +
                              ": encoding rejected (wrong shape or "
                              "non-finite values)");
    } else {
      position.push_back(i);
    }
  }

  // Compile + decompile every query on the reference ISA, then score them
  // all in one exact threshold sweep: every reported score is bitwise the
  // pair-by-pair F = M * S of eq. (10), and the pruned rings provably hold
  // no pair at or above the threshold.
  const std::vector<VulnSpec>& library = VulnLibrary();
  std::vector<core::FunctionFeature> queries(library.size());
  std::vector<const core::FunctionFeature*> built;
  std::vector<std::size_t> built_row;
  for (std::size_t c = 0; c < library.size(); ++c) {
    CveSearchResult& row = result.per_cve.emplace_back();
    row.cve = library[c].cve;
    row.software = library[c].software;
    row.function = library[c].function;
    std::string why;
    if (!BuildVulnQuery(library[c], beta, &queries[c], &why)) {
      result.report.AddFailed(why + " — CVE row is empty");
      continue;
    }
    result.report.AddOk();
    built.push_back(&queries[c]);
    built_row.push_back(c);
  }
  const std::vector<std::vector<core::SearchHit>> hits =
      index.AboveThresholdBatch(built,
                                std::vector<double>(built.size(), threshold));

  for (std::size_t q = 0; q < built.size(); ++q) {
    const VulnSpec& spec = library[built_row[q]];
    CveSearchResult& row = result.per_cve[built_row[q]];
    std::set<std::string> models_hit;
    for (const core::SearchHit& hit : hits[q]) {
      const FirmwareFunction& fn =
          corpus.functions[position[static_cast<std::size_t>(hit.index)]];
      ++row.candidates;
      const bool is_vulnerable = fn.truth_cve == spec.cve && !fn.patched;
      // Criterion A: same software, vulnerable version. Module names encode
      // "software-version"; patched plants carry the fixed version string.
      const std::string prefix = spec.software + "-";
      const bool same_software = fn.module.rfind("sub_", 0) != 0 &&
                                 fn.module.rfind(prefix, 0) == 0;
      const bool version_vulnerable =
          fn.module == prefix + spec.vulnerable_version;
      if (same_software && version_vulnerable) ++row.criteria_a;
      if (hit.score > 1.0 - 1e-9) ++row.criteria_b;
      if (is_vulnerable) {
        ++row.confirmed;
        models_hit.insert(corpus.images[static_cast<std::size_t>(fn.image)].model);
      } else {
        ++row.false_positives;
      }
    }
    row.affected_models.assign(models_hit.begin(), models_hit.end());
    c_fw_confirmed.Add(static_cast<std::uint64_t>(row.confirmed));
    h_fw_candidates.Observe(static_cast<std::uint64_t>(row.candidates));
    result.total_confirmed += row.confirmed;
    result.total_candidates += row.candidates;
  }
  util::PublishPipelineReport(result.report);
  return result;
}

}  // namespace asteria::firmware
