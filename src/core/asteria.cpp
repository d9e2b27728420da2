#include "core/asteria.h"

#include <cmath>
#include <exception>

#include "store/checkpoint.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace asteria::core {

namespace {

util::Counter c_train_pairs("train.pairs");
util::Counter c_train_skipped("train.skipped_samples");
util::Counter c_train_nonfinite("train.nonfinite_loss");
util::Gauge g_last_loss("train.last_loss");

}  // namespace

std::uint32_t AsteriaModel::WeightsFingerprint() const {
  return store::WeightsFingerprint(siamese_.parameters());
}

AsteriaModel::AsteriaModel(const AsteriaConfig& config)
    : config_(config), rng_(config.seed), siamese_(config.siamese, rng_) {}

ast::BinaryAst AsteriaModel::Preprocess(const ast::Ast& tree) {
  return ast::ToLeftChildRightSibling(tree);
}

double AsteriaModel::TrainEpoch(const std::vector<FunctionFeature>& features,
                                std::vector<LabeledPair> pairs,
                                util::Rng& rng,
                                util::PipelineReport* report) {
  ASTERIA_SPAN("train_epoch");
  rng.Shuffle(pairs);
  if (report != nullptr && report->stage.empty()) report->stage = "train-epoch";
  double total_loss = 0.0;
  std::size_t counted = 0;
  for (const LabeledPair& pair : pairs) {
    const auto& a = features[static_cast<std::size_t>(pair.a)].tree;
    const auto& b = features[static_cast<std::size_t>(pair.b)].tree;
    if (a.empty() || b.empty()) {
      c_train_skipped.Increment();
      if (report != nullptr) report->AddSkipped();
      continue;
    }
    const double loss = TrainPair(a, b, pair.homologous);
    if (!std::isfinite(loss)) {
      // TrainPair already declined the weight update; keep the mean clean
      // and record the isolated pair.
      c_train_nonfinite.Increment();
      if (report != nullptr) {
        report->AddFailed("non-finite loss for pair (" +
                          std::to_string(pair.a) + ", " +
                          std::to_string(pair.b) + ") — sample skipped");
      }
      continue;
    }
    total_loss += loss;
    ++counted;
    c_train_pairs.Increment();
    if (report != nullptr) report->AddOk();
  }
  const double mean_loss =
      counted == 0 ? 0.0 : total_loss / static_cast<double>(counted);
  g_last_loss.Set(mean_loss);
  if (report != nullptr) util::PublishPipelineReport(*report);
  return mean_loss;
}

IsolatedEncodings EncodeIsolated(
    const AsteriaModel& model,
    const std::vector<const FunctionFeature*>& features, int threads,
    util::Failpoint& failpoint) {
  IsolatedEncodings out;
  out.encodings.resize(features.size());
  out.failures.resize(features.size());
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (failpoint.ShouldFail()) {
      out.failures[i] = features[i]->name + ": injected failure (failpoint " +
                        failpoint.name() + ")";
    }
  }
  util::ParallelFor(
      static_cast<std::int64_t>(features.size()), threads,
      [&](std::int64_t i) {
        ASTERIA_SPAN("encode");
        const std::size_t slot = static_cast<std::size_t>(i);
        if (!out.failures[slot].empty()) return;
        const FunctionFeature& feature = *features[slot];
        try {
          nn::Matrix encoding = model.Encode(feature.tree);
          if (!nn::AllFinite(encoding.data(), encoding.size())) {
            out.failures[slot] =
                feature.name + ": encoding has non-finite values";
            return;
          }
          out.encodings[slot] = std::move(encoding);
        } catch (const std::exception& e) {
          out.failures[slot] = feature.name + ": " + e.what();
        }
      });
  return out;
}

}  // namespace asteria::core
