// Differential tests for the packed/pruned SearchIndex query paths.
//
// The contract under test is bitwise identity: TopK, TopKBatch,
// AboveThreshold, and AboveThresholdBatch — the blocked-GEMM sweep with the
// exact callee-distance prefilter — must return the same hits, the same
// scores (bit for bit), and the same order as the brute-force references
// (TopKReference/AboveThresholdReference), at every thread count, on
// monolithic and sharded indexes, for both siamese heads, and on
// adversarial callee-count distributions where the prune is either useless
// (all counts equal) or maximally aggressive (extreme spread), and at the
// ring sweep's boundaries (empty or short rings, distances past the exp
// table, ties at the last scored ring). Every batched call also checks the
// pair-count contract against the search.* counters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/asteria.h"
#include "core/search_index.h"
#include "store/manifest.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace asteria::core {
namespace {

using ::testing::TempDir;

std::string TempPath(const std::string& name) { return TempDir() + name; }

ast::Ast SmallTree(int variant) {
  ast::Ast tree;
  auto v1 = tree.AddVar("x");
  auto n1 = tree.AddNum(3);
  auto asg = tree.AddNode(ast::NodeKind::kAsg, {v1, n1});
  auto v2 = tree.AddVar("x");
  auto n2 = tree.AddNum(4 + variant);
  ast::NodeId inner;
  if (variant % 2 == 0) {
    inner = tree.AddNode(ast::NodeKind::kAdd, {v2, n2});
  } else {
    inner = tree.AddNode(ast::NodeKind::kMul, {v2, n2});
  }
  auto ret = tree.AddNode(ast::NodeKind::kReturn, {inner});
  auto block = tree.AddNode(ast::NodeKind::kBlock, {asg, ret});
  tree.set_root(block);
  return tree;
}

FunctionFeature MakeQuery(int variant, int callees) {
  FunctionFeature f;
  f.name = "query" + std::to_string(variant);
  f.tree = AsteriaModel::Preprocess(SmallTree(variant));
  f.callee_count = callees;
  return f;
}

AsteriaConfig SmallConfig(SiameseHead head = SiameseHead::kClassification) {
  AsteriaConfig config;
  config.siamese.encoder.embedding_dim = 8;
  config.siamese.encoder.hidden_dim = 8;
  config.siamese.head = head;
  return config;
}

// Fills the index with `n` synthetic (but finite, well-spread) encodings
// via AddEncoded — no per-entry model evaluation, so tests can afford
// corpora of thousands of entries. `callee_of` maps the entry number to its
// callee count.
template <typename CalleeFn>
void FillSynthetic(SearchIndex* index, const AsteriaModel& model, int n,
                   CalleeFn&& callee_of) {
  const int h = model.config().siamese.encoder.hidden_dim;
  util::Rng rng(0xa57e41a5eedULL);
  for (int i = 0; i < n; ++i) {
    nn::Matrix enc(h, 1);
    for (int r = 0; r < h; ++r) {
      enc(r, 0) = static_cast<double>(rng.NextBounded(2000)) / 1000.0 - 1.0;
    }
    ASSERT_GE(index->AddEncoded("fn" + std::to_string(i), enc, callee_of(i)),
              0);
  }
}

// Bitwise hit-list equality: same entries, same order, same score bits.
void ExpectSameHits(const std::vector<SearchHit>& got,
                    const std::vector<SearchHit>& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << label << " hit " << i;
    EXPECT_EQ(got[i].name, want[i].name) << label << " hit " << i;
    // Bitwise, not approximate: the pruned/blocked sweep must replay the
    // exact reference arithmetic.
    EXPECT_EQ(got[i].score, want[i].score) << label << " hit " << i;
  }
}

std::uint64_t CounterValueOf(const char* name) {
  for (const util::CounterValue& counter : util::SnapshotMetrics().counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

// Per-query (scored, pruned) pair counts of one batched call.
using PairCounts = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

// Runs one batched search with stats and checks the pair-count contract:
// scored + pruned is the index size for every query with ks[i] > 0 (both
// are 0 otherwise), and the per-query counts sum to the
// search.scored_pairs / search.pruned_pairs deltas the call produced.
template <typename BatchFn>
PairCounts CheckedPairCounts(const SearchIndex& index,
                             const std::vector<int>& ks, BatchFn&& run,
                             const std::string& label) {
  const std::uint64_t scored_before = CounterValueOf("search.scored_pairs");
  const std::uint64_t pruned_before = CounterValueOf("search.pruned_pairs");
  std::vector<SearchIndex::QuerySearchStats> stats;
  run(&stats);
  EXPECT_EQ(stats.size(), ks.size()) << label;
  PairCounts counts;
  std::uint64_t scored_sum = 0, pruned_sum = 0;
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const std::uint64_t scored = stats[i].scored_pairs;
    const std::uint64_t pruned = stats[i].pruned_pairs;
    const std::uint64_t want =
        ks[i] > 0 ? static_cast<std::uint64_t>(index.size()) : 0;
    EXPECT_EQ(scored + pruned, want) << label << " query=" << i;
    counts.emplace_back(scored, pruned);
    scored_sum += scored;
    pruned_sum += pruned;
  }
  EXPECT_EQ(CounterValueOf("search.scored_pairs") - scored_before, scored_sum)
      << label;
  EXPECT_EQ(CounterValueOf("search.pruned_pairs") - pruned_before, pruned_sum)
      << label;
  return counts;
}

// Runs the full differential battery for one index + query set: TopK and
// AboveThreshold against their references, batch against single, at thread
// counts 1, 2, and 8. ks[i] is query i's k; every batched call also checks
// the pair-count contract, with counts identical at every thread count.
void RunDifferential(SearchIndex* index,
                     const std::vector<FunctionFeature>& queries,
                     const std::vector<int>& ks, double threshold,
                     const std::string& label) {
  // References are computed once (they are thread-count invariant too, but
  // one fixed configuration keeps the oracle simple).
  index->set_threads(1);
  std::vector<std::vector<SearchHit>> want_topk, want_above;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    want_topk.push_back(index->TopKReference(queries[i], ks[i]));
    want_above.push_back(index->AboveThresholdReference(queries[i], threshold));
  }
  std::vector<const FunctionFeature*> ptrs;
  for (const FunctionFeature& q : queries) ptrs.push_back(&q);
  const std::vector<double> thresholds(queries.size(), threshold);
  const std::vector<int> every_query(queries.size(), 1);
  PairCounts first_topk_counts, first_above_counts;
  for (int threads : {1, 2, 8}) {
    index->set_threads(threads);
    const std::string tag = label + " threads=" + std::to_string(threads);
    std::vector<std::vector<SearchHit>> got_topk_batch, got_above_batch;
    const PairCounts topk_counts = CheckedPairCounts(
        *index, ks,
        [&](std::vector<SearchIndex::QuerySearchStats>* stats) {
          got_topk_batch = index->TopKBatch(ptrs, ks, stats);
        },
        tag + " topk-batch");
    const PairCounts above_counts = CheckedPairCounts(
        *index, every_query,
        [&](std::vector<SearchIndex::QuerySearchStats>* stats) {
          got_above_batch = index->AboveThresholdBatch(ptrs, thresholds, stats);
        },
        tag + " above-batch");
    if (threads == 1) {
      first_topk_counts = topk_counts;
      first_above_counts = above_counts;
    } else {
      EXPECT_EQ(topk_counts, first_topk_counts) << tag << " topk pair counts";
      EXPECT_EQ(above_counts, first_above_counts)
          << tag << " above pair counts";
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::string qtag = tag + " query=" + std::to_string(i);
      ExpectSameHits(index->TopK(queries[i], ks[i]), want_topk[i],
                     qtag + " topk");
      ExpectSameHits(got_topk_batch[i], want_topk[i], qtag + " topk-batch");
      ExpectSameHits(index->AboveThreshold(queries[i], threshold),
                     want_above[i], qtag + " above");
      ExpectSameHits(got_above_batch[i], want_above[i],
                     qtag + " above-batch");
    }
  }
}

void RunDifferential(SearchIndex* index,
                     const std::vector<FunctionFeature>& queries, int k,
                     double threshold, const std::string& label) {
  RunDifferential(index, queries, std::vector<int>(queries.size(), k),
                  threshold, label);
}

// Opens a sharded (MANI) copy of `mono` in `*sharded`: `shards` INDX
// snapshots under `dir` whose concatenation holds mono's entries in order,
// plus a manifest naming them.
void OpenShardedCopy(const SearchIndex& mono, const AsteriaModel& model,
                     const std::string& dir, int shards,
                     SearchIndex* sharded) {
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  store::ShardManifest manifest;
  manifest.model_fingerprint = model.WeightsFingerprint();
  manifest.sequence = 1;
  std::string error;
  for (int s = 0; s < shards; ++s) {
    const int begin = mono.size() * s / shards;
    const int end = mono.size() * (s + 1) / shards;
    SearchIndex shard(model);
    for (int i = begin; i < end; ++i) {
      ASSERT_GE(shard.AddEncoded(mono.name(i), mono.encoding(i),
                                 mono.callee_count(i)),
                0);
    }
    store::ShardRecord record;
    record.file = "shard" + std::to_string(s) + ".idx";
    record.entries = static_cast<std::uint64_t>(end - begin);
    ASSERT_TRUE(shard.Save(dir + record.file, &error)) << error;
    manifest.shards.push_back(record);
  }
  ASSERT_TRUE(store::SaveManifest(manifest, dir + store::kManifestFileName,
                                  &error))
      << error;
  ASSERT_TRUE(sharded->Open(dir + store::kManifestFileName, &error)) << error;
  ASSERT_EQ(sharded->size(), mono.size());
}

// The differential battery on `mono` and on a sharded copy of it, plus
// sharded ≡ monolithic batched TopK at every thread count.
void RunDifferentialMonoAndSharded(SearchIndex* mono, const AsteriaModel& model,
                                   const std::vector<FunctionFeature>& queries,
                                   const std::vector<int>& ks,
                                   double threshold, const std::string& label) {
  RunDifferential(mono, queries, ks, threshold, label + " mono");
  SearchIndex sharded(model);
  OpenShardedCopy(*mono, model, TempPath(label + "_shards/"), 3, &sharded);
  RunDifferential(&sharded, queries, ks, threshold, label + " sharded");
  std::vector<const FunctionFeature*> ptrs;
  for (const FunctionFeature& q : queries) ptrs.push_back(&q);
  for (int threads : {1, 2, 8}) {
    mono->set_threads(threads);
    sharded.set_threads(threads);
    const auto want = mono->TopKBatch(ptrs, ks);
    const auto got = sharded.TopKBatch(ptrs, ks);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ExpectSameHits(got[i], want[i],
                     label + " sharded-vs-mono threads=" +
                         std::to_string(threads) + " query=" +
                         std::to_string(i));
    }
  }
}

TEST(SearchIndexTest, EdgeCases) {
  const AsteriaConfig config = SmallConfig();
  AsteriaModel model(config);
  SearchIndex index(model);
  const FunctionFeature query = MakeQuery(0, 1);

  // Empty index: every path returns empty.
  EXPECT_TRUE(index.TopK(query, 5).empty());
  EXPECT_TRUE(index.TopKReference(query, 5).empty());
  EXPECT_TRUE(index.AboveThreshold(query, 0.0).empty());
  std::vector<const FunctionFeature*> one{&query};
  EXPECT_TRUE(index.TopKBatch(one, {5})[0].empty());
  EXPECT_TRUE(index.AboveThresholdBatch(one, {0.0})[0].empty());

  FillSynthetic(&index, model, 10, [](int i) { return i; });

  // k = 0 and negative k: empty, not a crash.
  EXPECT_TRUE(index.TopK(query, 0).empty());
  EXPECT_TRUE(index.TopK(query, -3).empty());
  EXPECT_TRUE(index.TopKBatch(one, {0})[0].empty());

  // k > size clips to size.
  EXPECT_EQ(index.TopK(query, 100).size(), 10u);
  EXPECT_EQ(index.TopKBatch(one, {100})[0].size(), 10u);

  // A threshold of 0.0 keeps everything (scores are non-negative); an
  // impossible threshold keeps nothing.
  EXPECT_EQ(index.AboveThreshold(query, 0.0).size(), 10u);
  EXPECT_TRUE(index.AboveThreshold(query, 2.0).empty());

  // Mixed batch: per-query k values are honored independently.
  const FunctionFeature query2 = MakeQuery(1, 5);
  std::vector<const FunctionFeature*> two{&query, &query2};
  const auto mixed = index.TopKBatch(two, {0, 3});
  EXPECT_TRUE(mixed[0].empty());
  EXPECT_EQ(mixed[1].size(), 3u);
}

TEST(SearchIndexTest, IdenticalScoresTiebreakByInsertionIndex) {
  const AsteriaConfig config = SmallConfig();
  AsteriaModel model(config);
  SearchIndex index(model);
  // Identical encodings and callee counts: every entry scores identically,
  // so the strict total order must fall back to insertion index.
  const int h = config.siamese.encoder.hidden_dim;
  nn::Matrix enc(h, 1);
  for (int r = 0; r < h; ++r) enc(r, 0) = 0.25 * (r + 1);
  for (int i = 0; i < 12; ++i) {
    ASSERT_GE(index.AddEncoded("clone" + std::to_string(i), enc, 2), 0);
  }
  const FunctionFeature query = MakeQuery(0, 2);
  const auto top = index.TopK(query, 5);
  ASSERT_EQ(top.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(top[static_cast<std::size_t>(i)].index, i);
    EXPECT_EQ(top[static_cast<std::size_t>(i)].score, top[0].score);
  }
  ExpectSameHits(top, index.TopKReference(query, 5), "all-identical");
}

// Adversarial distribution 1: every entry has the same callee count — the
// side index is a single giant ring, the stop rule is useless, and the
// sweep must degrade gracefully to scoring everything.
TEST(SearchIndexTest, PrefilterParityAllEqualCallees) {
  const AsteriaConfig config = SmallConfig();
  AsteriaModel model(config);
  SearchIndex index(model);
  FillSynthetic(&index, model, 2500, [](int) { return 7; });
  const std::vector<FunctionFeature> queries{MakeQuery(0, 7), MakeQuery(1, 0),
                                             MakeQuery(2, 1000)};
  RunDifferential(&index, queries, 10, 0.4, "all-equal");
}

// Adversarial distribution 2: extreme spread — callee counts span the full
// int range, so e^{-|dC|} underflows for almost every pair and the prune is
// maximally aggressive. Exactness must survive the aggression.
TEST(SearchIndexTest, PrefilterParityExtremeSpread) {
  const AsteriaConfig config = SmallConfig();
  AsteriaModel model(config);
  SearchIndex index(model);
  FillSynthetic(&index, model, 2500, [](int i) {
    switch (i % 4) {
      case 0:
        return i % 50;                 // a near-query cluster
      case 1:
        return 1000 + i % 97;          // a mid cluster
      case 2:
        return 2000000000 - (i % 13);  // near INT_MAX
      default:
        return 0;
    }
  });
  const std::vector<FunctionFeature> queries{
      MakeQuery(0, 25), MakeQuery(1, 2000000000), MakeQuery(2, 1040)};
  RunDifferential(&index, queries, 10, 0.3, "extreme-spread");
}

// Uniformly spread counts over a few thousand entries: the main regression
// test that the ring sweep equals brute force.
TEST(SearchIndexTest, PrunedSweepMatchesReferenceUniformCallees) {
  const AsteriaConfig config = SmallConfig();
  AsteriaModel model(config);
  SearchIndex index(model);
  FillSynthetic(&index, model, 3000, [](int i) { return i % 64; });
  const std::vector<FunctionFeature> queries{MakeQuery(0, 10), MakeQuery(1, 63),
                                             MakeQuery(2, 0)};
  RunDifferential(&index, queries, 25, 0.5, "uniform");
  // A k larger than the whole ring 0 still matches: the floor arms only
  // after the rings that fill the heap.
  index.set_threads(2);
  const FunctionFeature big = MakeQuery(3, 31);
  ExpectSameHits(index.TopK(big, 600), index.TopKReference(big, 600),
                 "uniform k=600");
}

// Regression head: M is a rescaled cosine that can exceed 1.0 by rounding
// ulps, which is exactly what the prune slack exists for.
TEST(SearchIndexTest, RegressionHeadParity) {
  const AsteriaConfig config = SmallConfig(SiameseHead::kRegression);
  AsteriaModel model(config);
  SearchIndex index(model);
  FillSynthetic(&index, model, 2200, [](int i) { return i % 16; });
  const std::vector<FunctionFeature> queries{MakeQuery(0, 8), MakeQuery(1, 15)};
  RunDifferential(&index, queries, 12, 0.6, "regression");
}

// Sharded (MANI) index: two shards whose concatenation equals the
// monolithic index must produce bitwise-identical search results.
TEST(SearchIndexTest, ShardedIndexMatchesMonolithic) {
  const AsteriaConfig config = SmallConfig();
  AsteriaModel model(config);

  SearchIndex mono(model);
  FillSynthetic(&mono, model, 2400, [](int i) { return (i * 7) % 48; });

  // Rebuild the same entries as two shard snapshots plus a manifest.
  SearchIndex sharded(model);
  OpenShardedCopy(mono, model, TempPath("search_index_sharded/"), 2, &sharded);

  const std::vector<FunctionFeature> queries{MakeQuery(0, 20), MakeQuery(1, 3)};
  // Sharded results differential against both its own reference and the
  // monolithic pruned path.
  RunDifferential(&sharded, queries, 15, 0.45, "sharded");
  for (int threads : {1, 2, 8}) {
    mono.set_threads(threads);
    sharded.set_threads(threads);
    for (const FunctionFeature& q : queries) {
      ExpectSameHits(sharded.TopK(q, 15), mono.TopK(q, 15),
                     "sharded-vs-mono threads=" + std::to_string(threads));
    }
  }
}

// Ring-boundary cases, on a monolithic index and its sharded copy. The
// callee classes are sparse — {0, 1, 17, 900} — so the sweep jumps over
// empty distances and, for the query at 2000, scores rings past the
// 768-entry exp table whose scores underflow to ties at 0.0. Class 17 holds
// only 3 entries, so its ring 0 is smaller than k (by one, for k = 4) and
// the floor arms only after a later ring; queries at 5 and 2000 have no
// ring 0 at all. The ks include 512 and 513 and a k = 0 query in the same
// batch.
TEST(SearchIndexTest, RingBoundaryParity) {
  const AsteriaConfig config = SmallConfig();
  AsteriaModel model(config);
  SearchIndex index(model);
  FillSynthetic(&index, model, 2600, [](int i) {
    if (i == 5 || i == 1400 || i == 2599) return 17;
    if (i % 10 == 0) return 900;
    return i % 2;
  });
  const std::vector<FunctionFeature> queries{
      MakeQuery(0, 17),  MakeQuery(1, 5), MakeQuery(2, 900),
      MakeQuery(3, 2000), MakeQuery(4, 0), MakeQuery(5, 17),
      MakeQuery(6, 17)};
  RunDifferentialMonoAndSharded(&index, model, queries,
                                {10, 0, 512, 513, 10, 513, 4}, 0.3,
                                "ring_boundary");
}

// Duplicate encodings at the stop ring. The query's own encoding is stored
// 3 times in ring 0 (fewer than k = 5) and 4 times on each side of ring 1,
// interleaved in insertion order, so the 8 ring-1 copies tie and the k-th
// cut falls inside the tie: it must go by insertion index, exactly as in
// the reference. With the regression head the self-similarity is ~1, so
// ring 1 is the last ring scored (its floor e^-1 beats ring 2's bound);
// the AboveThreshold pass uses the tied score itself as the threshold.
TEST(SearchIndexTest, RingTiesAtTheStopRing) {
  const AsteriaConfig config = SmallConfig(SiameseHead::kRegression);
  AsteriaModel model(config);
  SearchIndex index(model);
  const FunctionFeature query = MakeQuery(0, 50);
  const nn::Matrix own = model.Encode(query.tree);
  const double self = model.SimilarityFromEncodings(own, own);
  ASSERT_GT(self * std::exp(-1.0), std::exp(-2.0) * 1.001)
      << "test premise: ring 2's bound must fall below the ring-1 ties";
  for (int round = 0; round < 4; ++round) {
    for (int callees : {51, 49, 52, 48}) {
      ASSERT_GE(index.AddEncoded("dup" + std::to_string(index.size()), own,
                                 callees),
                0);
    }
    if (round < 3) {
      ASSERT_GE(index.AddEncoded("own" + std::to_string(index.size()), own,
                                 50),
                0);
    }
  }
  FillSynthetic(&index, model, 300, [](int) { return 400; });

  const std::vector<FunctionFeature> queries{query};
  const double tie_score = index.TopKReference(query, 5)[4].score;
  RunDifferentialMonoAndSharded(&index, model, queries, {5}, tie_score,
                                "ring_ties");
  index.set_threads(2);
  std::vector<SearchIndex::QuerySearchStats> stats;
  const auto top = index.TopKBatch({&query}, {5}, &stats);
  ASSERT_EQ(top[0].size(), 5u);
  EXPECT_EQ(top[0][3].score, top[0][4].score);
  EXPECT_EQ(stats[0].scored_pairs, 11u);  // ring 0 (3) + ring 1 (8)
}

// The exact prune count on a fleet-like skewed index: three callee classes
// holding 41/42/17% of the entries. Each class's first entries (in
// insertion order) score below e^-1 against that class's query, and the
// class also holds k planted entries scoring above it. Ring 0 therefore
// leaves a floor that beats ring 1's bound, so each query scores exactly
// its own class and prunes the rest — at every thread count.
TEST(SearchIndexTest, RingSweepScoresOnlyTheOwnClassOnSkewedIndex) {
  const AsteriaConfig config = SmallConfig(SiameseHead::kRegression);
  AsteriaModel model(config);
  SearchIndex index(model);
  const int h = config.siamese.encoder.hidden_dim;
  const int k = 10;
  const std::vector<int> class_sizes{984, 1008, 408};
  std::vector<FunctionFeature> queries;
  util::Rng rng(0x5ca1ab1eULL);
  for (int c = 0; c < 3; ++c) {
    queries.push_back(MakeQuery(c, c));
    const nn::Matrix query_encoding = model.Encode(queries.back().tree);
    // Rejection-samples an encoding whose similarity to this class's query
    // is below (low) or above (high) the ring-1 bound.
    auto sample = [&](bool high) {
      nn::Matrix enc(h, 1);
      for (int attempt = 0; attempt < 100000; ++attempt) {
        for (int r = 0; r < h; ++r) {
          enc(r, 0) = static_cast<double>(rng.NextBounded(2000)) / 1000.0 - 1.0;
        }
        const double m = model.SimilarityFromEncodings(query_encoding, enc);
        if (high ? m > 0.5 : m < 0.3) return enc;
      }
      ADD_FAILURE() << "no encoding found";
      return enc;
    };
    const int size = class_sizes[static_cast<std::size_t>(c)];
    for (int i = 0; i < size; ++i) {
      ASSERT_GE(index.AddEncoded("c" + std::to_string(c) + "_" +
                                     std::to_string(i),
                                 sample(i >= size - k), c),
                0);
    }
  }
  const std::vector<int> ks(queries.size(), k);
  std::vector<const FunctionFeature*> ptrs;
  for (const FunctionFeature& q : queries) ptrs.push_back(&q);
  for (int threads : {1, 2, 8}) {
    index.set_threads(threads);
    std::vector<SearchIndex::QuerySearchStats> stats;
    const auto got = index.TopKBatch(ptrs, ks, &stats);
    for (std::size_t c = 0; c < queries.size(); ++c) {
      const std::string tag = "threads=" + std::to_string(threads) +
                              " class=" + std::to_string(c);
      EXPECT_EQ(stats[c].scored_pairs,
                static_cast<std::uint64_t>(class_sizes[c]))
          << tag;
      EXPECT_EQ(stats[c].pruned_pairs,
                static_cast<std::uint64_t>(index.size() - class_sizes[c]))
          << tag;
      ExpectSameHits(got[c], index.TopKReference(queries[c], k), tag);
    }
  }
}

// Snapshot round trip of a packed index: save, load, and get bitwise the
// same encodings and search results.
TEST(SearchIndexTest, SnapshotRoundTripPreservesPackedResults) {
  const AsteriaConfig config = SmallConfig();
  AsteriaModel model(config);
  SearchIndex index(model);
  FillSynthetic(&index, model, 2100, [](int i) { return i % 32; });
  const std::string path = TempPath("search_index_packed.idx");
  std::string error;
  ASSERT_TRUE(index.Save(path, &error)) << error;

  SearchIndex loaded(model);
  ASSERT_TRUE(loaded.Load(path, &error)) << error;
  ASSERT_EQ(loaded.size(), index.size());
  for (int i : {0, 1, 1024, 2099}) {
    const nn::Matrix a = index.encoding(i);
    const nn::Matrix b = loaded.encoding(i);
    for (int r = 0; r < a.rows(); ++r) EXPECT_EQ(a(r, 0), b(r, 0));
  }
  const FunctionFeature query = MakeQuery(2, 11);
  ExpectSameHits(loaded.TopK(query, 20), index.TopK(query, 20), "round-trip");
  ExpectSameHits(loaded.TopK(query, 20), index.TopKReference(query, 20),
                 "round-trip-vs-reference");
}

TEST(SearchIndexTest, AddEncodedRejectsBadEncodings) {
  const AsteriaConfig config = SmallConfig();
  AsteriaModel model(config);
  SearchIndex index(model);
  const int h = config.siamese.encoder.hidden_dim;
  nn::Matrix wrong_shape(h + 1, 1);
  EXPECT_EQ(index.AddEncoded("bad-shape", wrong_shape, 0), -1);
  nn::Matrix non_finite(h, 1);
  non_finite(0, 0) = std::nan("");
  EXPECT_EQ(index.AddEncoded("bad-nan", non_finite, 0), -1);
  EXPECT_EQ(index.size(), 0);
  nn::Matrix good(h, 1);
  EXPECT_EQ(index.AddEncoded("good", good, 0), 0);
  EXPECT_EQ(index.size(), 1);
}

}  // namespace
}  // namespace asteria::core
