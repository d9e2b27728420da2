#include "core/asteria.h"

#include <cmath>

#include "store/checkpoint.h"
#include "util/metrics.h"
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

}  // namespace asteria::core
