// Firmware tests: pack/unpack round trip, corruption detection, vuln
// library validity, corpus construction with ground truth, and an
// end-to-end search smoke test with a lightly trained model.
#include <gtest/gtest.h>

#include <set>

#include "compiler/compile.h"
#include "decompiler/decompile.h"
#include "firmware/image.h"
#include "firmware/search.h"
#include "firmware/vulnlib.h"
#include "binary/vm.h"
#include "minic/interp.h"
#include "minic/parser.h"
#include "minic/sema.h"
#include "util/failpoint.h"

namespace asteria::firmware {
namespace {

binary::BinModule SmallModule() {
  minic::Program program;
  std::string error;
  EXPECT_TRUE(minic::Parse(
      "int f(int a) { return a * 2 + 1; } int g(int a) { return f(a) - 3; }",
      &program, &error))
      << error;
  EXPECT_TRUE(minic::Check(program, &error)) << error;
  auto compiled =
      compiler::CompileProgram(program, binary::Isa::kArm, "libsmall");
  EXPECT_TRUE(compiled.ok);
  return std::move(compiled.module);
}

TEST(Image, PackUnpackRoundTrip) {
  FirmwareImage image;
  image.vendor = "NetGear";
  image.model = "R7000";
  image.version = "v1.3";
  image.modules.push_back(SmallModule());
  const auto blob = Pack(image);
  auto unpacked = Unpack(blob);
  ASSERT_TRUE(unpacked.has_value());
  EXPECT_EQ(unpacked->vendor, "NetGear");
  EXPECT_EQ(unpacked->model, "R7000");
  EXPECT_EQ(unpacked->version, "v1.3");
  ASSERT_EQ(unpacked->modules.size(), 1u);
  EXPECT_EQ(unpacked->modules[0].functions.size(), 2u);
  EXPECT_EQ(unpacked->modules[0].isa, binary::Isa::kArm);
}

TEST(Image, DetectsCorruption) {
  FirmwareImage image;
  image.vendor = "Dlink";
  image.modules.push_back(SmallModule());
  auto blob = Pack(image);
  blob[blob.size() / 2] ^= 0xFF;
  EXPECT_FALSE(Unpack(blob).has_value());
}

TEST(Image, RejectsTruncationAndGarbage) {
  FirmwareImage image;
  image.vendor = "Schneider";
  auto blob = Pack(image);
  blob.resize(blob.size() - 2);
  EXPECT_FALSE(Unpack(blob).has_value());
  EXPECT_FALSE(Unpack({0x12, 0x34}).has_value());
}

TEST(VulnLibrary, AllSourcesCompileOnEveryIsa) {
  ASSERT_EQ(VulnLibrary().size(), 7u);  // Table IV has seven CVEs
  for (const VulnSpec& spec : VulnLibrary()) {
    for (const std::string& source :
         {spec.vulnerable_source, spec.patched_source}) {
      minic::Program program;
      std::string error;
      ASSERT_TRUE(minic::Parse(source, &program, &error))
          << spec.cve << ": " << error;
      ASSERT_TRUE(minic::Check(program, &error)) << spec.cve << ": " << error;
      EXPECT_GE(program.FindFunction(spec.function), 0) << spec.cve;
      for (int isa = 0; isa < binary::kNumIsas; ++isa) {
        auto compiled = compiler::CompileProgram(
            program, static_cast<binary::Isa>(isa), spec.software);
        EXPECT_TRUE(compiled.ok) << spec.cve << ": " << compiled.error;
      }
    }
  }
}

TEST(VulnLibrary, FunctionsExecuteIdenticallyOnAllIsas) {
  // The CVE functions are not just compiled: run each (vulnerable and
  // patched) in the interpreter and on all four VMs with representative
  // arguments and require exact agreement.
  util::Rng rng(31);
  for (const VulnSpec& spec : VulnLibrary()) {
    for (const std::string& source :
         {spec.vulnerable_source, spec.patched_source}) {
      minic::Program program;
      std::string error;
      ASSERT_TRUE(minic::Parse(source, &program, &error)) << spec.cve;
      ASSERT_TRUE(minic::Check(program, &error)) << spec.cve;
      const int fn_index = program.FindFunction(spec.function);
      ASSERT_GE(fn_index, 0);
      const minic::Function& fn =
          program.functions()[static_cast<std::size_t>(fn_index)];
      std::vector<minic::ArgValue> args;
      for (const minic::Param& param : fn.params) {
        if (param.is_array) {
          std::vector<std::int64_t> data(16);
          for (auto& x : data) x = rng.NextInt(1, 120);
          // String-like loops scan through the & 7 mask window: place a
          // terminator inside it so every variant halts.
          data[7] = 0;
          data.back() = 0;
          args.push_back(minic::ArgValue::Array(std::move(data)));
        } else {
          args.push_back(minic::ArgValue::Scalar(rng.NextInt(0, 32)));
        }
      }
      minic::Interpreter interp(program);
      const auto expected = interp.Call(spec.function, args);
      ASSERT_TRUE(expected.ok) << spec.cve << ": " << expected.trap;
      for (int isa = 0; isa < binary::kNumIsas; ++isa) {
        auto compiled = compiler::CompileProgram(
            program, static_cast<binary::Isa>(isa), spec.software);
        ASSERT_TRUE(compiled.ok);
        binary::Vm vm(compiled.module);
        const auto actual = vm.Call(spec.function, args);
        ASSERT_TRUE(actual.ok)
            << spec.cve << "/" << binary::IsaName(static_cast<binary::Isa>(isa))
            << ": " << actual.trap;
        EXPECT_EQ(actual.value, expected.value)
            << spec.cve << "/" << binary::IsaName(static_cast<binary::Isa>(isa));
        EXPECT_EQ(actual.arrays, expected.arrays) << spec.cve;
      }
    }
  }
}

TEST(VulnLibrary, VulnerableAndPatchedDiffer) {
  for (const VulnSpec& spec : VulnLibrary()) {
    EXPECT_NE(spec.vulnerable_source, spec.patched_source) << spec.cve;
    EXPECT_NE(spec.vulnerable_version, spec.patched_version) << spec.cve;
  }
}

TEST(FirmwareCorpus, BuildsWithGroundTruth) {
  FirmwareCorpusConfig config;
  config.images = 8;
  config.seed = 7;
  FirmwareCorpus corpus = BuildFirmwareCorpus(config);
  EXPECT_EQ(corpus.unpack_failures, 0);
  EXPECT_EQ(corpus.images.size(), 8u);
  EXPECT_GT(corpus.functions.size(), 30u);
  int planted = 0;
  for (const FirmwareFunction& fn : corpus.functions) {
    EXPECT_EQ(fn.symbol.rfind("sub_", 0), 0u) << "symbols must be stripped";
    if (!fn.truth_cve.empty()) ++planted;
  }
  EXPECT_GT(planted, 0);
}

TEST(VulnSearch, UntrainedModelRunsEndToEnd) {
  FirmwareCorpusConfig config;
  config.images = 5;
  config.seed = 13;
  FirmwareCorpus corpus = BuildFirmwareCorpus(config);
  core::AsteriaConfig model_config;
  model_config.siamese.encoder.embedding_dim = 8;
  model_config.siamese.encoder.hidden_dim = 8;
  core::AsteriaModel model(model_config);
  VulnSearchResult result = RunVulnSearch(model, corpus, /*threshold=*/0.5);
  EXPECT_EQ(result.per_cve.size(), 7u);
  // Structural sanity: candidates >= confirmed for every CVE.
  for (const CveSearchResult& row : result.per_cve) {
    EXPECT_GE(row.candidates, row.confirmed);
  }
}

TEST(VulnSearch, TrainedModelFindsPlantedFunction) {
  // Train the model to recognize the CVE functions across ISAs, then
  // verify the search finds the planted instances.
  FirmwareCorpusConfig config;
  config.images = 10;
  config.seed = 3;
  config.software_probability = 1.0;
  config.vulnerable_probability = 1.0;  // every shipped software vulnerable
  FirmwareCorpus corpus = BuildFirmwareCorpus(config);

  core::AsteriaConfig model_config;
  model_config.siamese.encoder.embedding_dim = 8;
  model_config.siamese.encoder.hidden_dim = 8;
  core::AsteriaModel model(model_config);

  // Training set: CVE functions compiled on two ISAs (positive pairs) and
  // CVE-vs-other-CVE (negative pairs).
  std::vector<ast::BinaryAst> queries;
  for (const VulnSpec& spec : VulnLibrary()) {
    for (int isa : {0, 2}) {
      minic::Program program;
      std::string error;
      ASSERT_TRUE(minic::Parse(spec.vulnerable_source, &program, &error));
      auto compiled = compiler::CompileProgram(
          program, static_cast<binary::Isa>(isa), spec.software);
      ASSERT_TRUE(compiled.ok);
      const int fn = compiled.module.FindFunction(spec.function);
      ASSERT_GE(fn, 0);
      auto decompiled = asteria::decompiler::DecompileFunction(compiled.module, fn);
      queries.push_back(ast::ToLeftChildRightSibling(decompiled.tree));
    }
  }
  for (int epoch = 0; epoch < 40; ++epoch) {
    for (std::size_t i = 0; i + 1 < queries.size(); i += 2) {
      model.TrainPair(queries[i], queries[i + 1], true);
      const std::size_t other = (i + 2) % queries.size();
      model.TrainPair(queries[i], queries[other + 1], false);
    }
  }
  VulnSearchResult result = RunVulnSearch(model, corpus, /*threshold=*/0.6);
  EXPECT_GT(result.total_confirmed, 0);
}

// The Table IV row recomputed pair by pair, straight from the paper's
// definitions: F = M * S (eq. 9-10) over every non-placeholder corpus
// encoding, then criteria A/B and the ground truth. Independent of how
// RunVulnSearch scores, so it is the oracle for any sweep behind it.
CveSearchResult OracleRow(const core::AsteriaModel& model,
                          const FirmwareCorpus& corpus,
                          const std::vector<nn::Matrix>& encodings,
                          const VulnSpec& spec, double threshold) {
  CveSearchResult row;
  row.cve = spec.cve;
  row.software = spec.software;
  row.function = spec.function;
  minic::Program program;
  std::string error;
  EXPECT_TRUE(minic::Parse(spec.vulnerable_source, &program, &error)) << error;
  EXPECT_TRUE(minic::Check(program, &error)) << error;
  auto compiled = compiler::CompileProgram(
      program, static_cast<binary::Isa>(kQueryIsa), spec.software);
  EXPECT_TRUE(compiled.ok) << compiled.error;
  const int fn_index = compiled.module.FindFunction(spec.function);
  EXPECT_GE(fn_index, 0) << spec.cve;
  if (fn_index < 0) return row;
  const auto query = decompiler::DecompileFunction(compiled.module, fn_index);
  const nn::Matrix query_encoding =
      model.Encode(ast::ToLeftChildRightSibling(query.tree));
  std::set<std::string> models;
  for (std::size_t i = 0; i < corpus.functions.size(); ++i) {
    if (encodings[i].size() == 0) continue;
    const FirmwareFunction& fn = corpus.functions[i];
    const double score = core::CalibratedSimilarity(
        model.SimilarityFromEncodings(query_encoding, encodings[i]),
        query.callee_count, fn.feature.callee_count);
    if (score < threshold) continue;
    ++row.candidates;
    const std::string prefix = spec.software + "-";
    if (fn.module.rfind(prefix, 0) == 0 &&
        fn.module == prefix + spec.vulnerable_version) {
      ++row.criteria_a;
    }
    if (score > 1.0 - 1e-9) ++row.criteria_b;
    if (fn.truth_cve == spec.cve && !fn.patched) {
      ++row.confirmed;
      models.insert(corpus.images[static_cast<std::size_t>(fn.image)].model);
    } else {
      ++row.false_positives;
    }
  }
  row.affected_models.assign(models.begin(), models.end());
  return row;
}

TEST(VulnSearch, EveryRowMatchesThePairByPairOracle) {
  FirmwareCorpusConfig config;
  config.images = 6;
  config.seed = 21;
  config.software_probability = 1.0;
  const FirmwareCorpus corpus = BuildFirmwareCorpus(config);
  core::AsteriaConfig model_config;
  model_config.siamese.encoder.embedding_dim = 8;
  model_config.siamese.encoder.hidden_dim = 8;
  const core::AsteriaModel model(model_config);
  // An untrained model scores M well below 1, so only near callee classes
  // clear 0.3: rings at distance >= 2 are provably below it (e^-2 < 0.3).
  const double threshold = 0.3;

  for (const bool holes : {false, true}) {
    SCOPED_TRACE(holes ? "with firmware.encode placeholders" : "clean");
    util::ClearFailpoints();
    if (holes) {
      ASSERT_TRUE(util::ConfigureFailpoints("firmware.encode=every:3"));
    }
    util::PipelineReport encode_report;
    const std::vector<nn::Matrix> encodings =
        EncodeFirmwareCorpus(model, corpus, &encode_report);
    util::ClearFailpoints();
    EXPECT_EQ(encode_report.failed > 0, holes);

    const VulnSearchResult result =
        RunVulnSearch(model, corpus, encodings, threshold);
    ASSERT_EQ(result.per_cve.size(), VulnLibrary().size());
    int candidates = 0, confirmed = 0;
    for (std::size_t c = 0; c < VulnLibrary().size(); ++c) {
      const CveSearchResult want =
          OracleRow(model, corpus, encodings, VulnLibrary()[c], threshold);
      const CveSearchResult& got = result.per_cve[c];
      EXPECT_EQ(got.cve, want.cve);
      EXPECT_EQ(got.software, want.software);
      EXPECT_EQ(got.function, want.function);
      EXPECT_EQ(got.candidates, want.candidates) << want.cve;
      EXPECT_EQ(got.criteria_a, want.criteria_a) << want.cve;
      EXPECT_EQ(got.criteria_b, want.criteria_b) << want.cve;
      EXPECT_EQ(got.confirmed, want.confirmed) << want.cve;
      EXPECT_EQ(got.false_positives, want.false_positives) << want.cve;
      EXPECT_EQ(got.affected_models, want.affected_models) << want.cve;
      candidates += want.candidates;
      confirmed += want.confirmed;
    }
    EXPECT_GT(candidates, 0) << "threshold too high to exercise scoring";
    EXPECT_EQ(result.total_candidates, candidates);
    EXPECT_EQ(result.total_confirmed, confirmed);
    EXPECT_EQ(result.report.skipped > 0, holes);
  }
}

}  // namespace
}  // namespace asteria::firmware
