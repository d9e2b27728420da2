#include "core/search_index.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "store/container.h"
#include "store/manifest.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace asteria::core {

namespace {

// Injects a per-feature encoding failure into AddAll (isolation testing).
util::Failpoint fp_search_encode("search.encode");

// Latency histograms ("*_nanos"): deterministic counts, machine-dependent
// bucket placement. TopK result sizes are fully deterministic.
util::Histogram h_add_nanos("search.add_nanos");
util::Histogram h_topk_nanos("search.topk_nanos");
util::Histogram h_topk_size("search.topk_size");
// Batch-shaped metrics: observation counts depend on how requests coalesce
// (i.e. on timing), unlike the per-query histograms above, so determinism
// gates (scripts/check_serve.sh) filter "*batch*" histograms wholesale.
util::Histogram h_topk_batch_queries("search.topk_batch_queries");
util::Histogram h_topk_batch_nanos("search.topk_batch_nanos");
// Prune accounting, bumped once per sweep from range arithmetic (never in
// the scoring inner loop), so metrics cost does not scale with index size.
// Which rings a query scores depends only on callee counts and its own
// deterministic scores, so both totals are thread-count invariant.
util::Counter c_scored_pairs("search.scored_pairs");
util::Counter c_pruned_pairs("search.pruned_pairs");

// Index-snapshot chunk tags and schema version (see docs/FORMATS.md).
constexpr std::uint32_t kTagIndexMeta = store::FourCc('I', 'M', 'E', 'T');
constexpr std::uint32_t kTagIndexEntry = store::FourCc('E', 'N', 'T', 'R');
constexpr std::uint32_t kSnapshotVersion = 1;

// Strict total order on hits: score descending, insertion index ascending.
// The index tiebreak makes merge results independent of the shard count.
bool HitBefore(const SearchHit& a, const SearchHit& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.index < b.index;
}

// -- Exact prefilter machinery ---------------------------------------------
//
// F = M * S with M <= 1 and S = e^{-|C1-C2|}, so S alone upper-bounds the
// calibrated score. The table below caches S for every integer distance the
// double format can distinguish (e^-746 already underflows to 0.0), holding
// the exact std::exp values CalleeSimilarity produces — scoring through the
// table is bitwise identical to calling std::exp per pair.

constexpr std::int64_t kExpTableSize = 768;

const std::array<double, kExpTableSize>& NegExpTable() {
  static const std::array<double, kExpTableSize> table = [] {
    std::array<double, kExpTableSize> t{};
    for (std::int64_t d = 0; d < kExpTableSize; ++d) {
      t[static_cast<std::size_t>(d)] = std::exp(-static_cast<double>(d));
    }
    return t;
  }();
  return table;
}

// S(C1, C2) by table lookup — the same value CalleeSimilarity returns.
double CalleeSimFromDistance(std::int64_t d) {
  if (d < kExpTableSize) return NegExpTable()[static_cast<std::size_t>(d)];
  return std::exp(-static_cast<double>(d));
}

// The prune compares against S * kPruneSlack rather than S itself. For the
// classification head M <= 1 holds bitwise (a softmax output never rounds
// above 1), so F = fl(M*S) <= S exactly. The regression head's cosine can
// exceed 1 by a few ulps of accumulated rounding (~1e-14 relative), so a
// 1e-9 slack — five orders of magnitude of margin, far too small to weaken
// the prune in practice — keeps the skip provably safe for both heads.
// docs/PERFORMANCE.md has the full argument.
constexpr double kPruneSlack = 1.0 + 1e-9;

double PruneBound(std::int64_t d) {
  const std::int64_t clamped = d < kExpTableSize ? d : kExpTableSize - 1;
  return NegExpTable()[static_cast<std::size_t>(clamped)] * kPruneSlack;
}

// Distance of a side with no entries left to score.
constexpr std::int64_t kNoRing = std::numeric_limits<std::int64_t>::max();

// One side of one query's ring: the side-order positions [begin, end), all
// at callee distance `distance` from the query.
struct RingSide {
  std::int64_t begin = 0, end = 0;
  std::size_t query = 0;
  std::int64_t distance = 0;
};

// A side range that `count` ring sides of one round share (sides[first,
// first + count) once sorted). Its pairs are enumerated entry-major, so a
// column is loaded once for every query whose ring covers it. `offset` is
// the tile's first pair in the round's pair list.
struct RingTile {
  std::int64_t begin = 0, end = 0;
  std::size_t first = 0, count = 0;
  std::int64_t offset = 0;
};

// Gathers (query, entry column) pairs and scores a full block with one
// SimilarityFromEncodingsBatch call (one feature matrix + one blocked GEMM
// per flush). One instance per worker; buffers are reused across flushes.
class BlockScorer {
 public:
  // How many pairs a flush scores at once: large enough that the GEMM and
  // the sigmoid/exp loops amortize call overhead, small enough that the
  // feature block (kPairsPerBlock x 2h doubles) stays cache-resident.
  static constexpr int kPairsPerBlock = 256;

  explicit BlockScorer(const AsteriaModel& model) : model_(model) {
    a_.reserve(kPairsPerBlock);
    b_.reserve(kPairsPerBlock);
    tags_.reserve(kPairsPerBlock);
    m_.resize(kPairsPerBlock);
  }

  bool Full() const { return static_cast<int>(a_.size()) >= kPairsPerBlock; }

  void Push(const double* query, const double* entry, int tag,
            int entry_index) {
    a_.push_back(query);
    b_.push_back(entry);
    tags_.push_back({tag, entry_index});
  }

  // Scores pending pairs and invokes sink(tag, entry_index, m) for each, in
  // push order.
  template <typename Sink>
  void Flush(Sink&& sink) {
    const int count = static_cast<int>(a_.size());
    if (count == 0) return;
    model_.SimilarityFromEncodingsBatch(a_.data(), b_.data(), count,
                                        m_.data(), &scratch_);
    for (int p = 0; p < count; ++p) {
      sink(tags_[static_cast<std::size_t>(p)].first,
           tags_[static_cast<std::size_t>(p)].second,
           m_[static_cast<std::size_t>(p)]);
    }
    a_.clear();
    b_.clear();
    tags_.clear();
  }

 private:
  const AsteriaModel& model_;
  std::vector<const double*> a_, b_;
  std::vector<std::pair<int, int>> tags_;
  std::vector<double> m_;
  EncodingScoreScratch scratch_;
};

}  // namespace

// Strict total order on (score, insertion index) refs — HitBefore without
// the materialized name. Templated so the file-local helpers never have to
// name the private SearchIndex::ScoredRef type.
template <typename Ref>
static bool RefBefore(const Ref& a, const Ref& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.index < b.index;
}

// Keeps at most `keep` best refs in a worst-on-top heap (the shard-local
// top-k scheme every sweep shares).
template <typename Ref>
static void PushHeapKeep(std::vector<Ref>* heap, std::size_t keep, Ref ref) {
  auto worse = [](const Ref& a, const Ref& b) {
    return RefBefore(a, b);  // heap top = worst kept ref
  };
  if (heap->size() < keep) {
    heap->push_back(ref);
    std::push_heap(heap->begin(), heap->end(), worse);
  } else if (RefBefore(ref, heap->front())) {
    std::pop_heap(heap->begin(), heap->end(), worse);
    heap->back() = ref;
    std::push_heap(heap->begin(), heap->end(), worse);
  }
}

// Per-query ring-sweep state: the encoded query, its collector, and the
// side-order range [lo, hi) covered by the rings scored so far.
struct SearchIndex::QueryPlan {
  const double* encoding = nullptr;
  std::int64_t callees = 0;
  std::size_t keep = 0;          // TopK heap size (0: k <= 0, score nothing)
  double threshold = 0.0;        // AboveThreshold's fixed floor
  bool live = false;             // further rings may still be scored
  std::int64_t lo = 0, hi = 0;   // side positions already scored
  std::vector<ScoredRef> refs;   // TopK: worst-on-top heap; else: hits
};

// The sweep's pluggable collector: TopK keeps the best `keep` refs in a
// worst-on-top heap, AboveThreshold keeps every ref at or above its
// threshold (a NaN threshold keeps everything, as the reference does).
template <typename Plan, typename Ref>
static void Collect(bool top_k, const Plan& plan, std::vector<Ref>* out,
                    Ref ref) {
  if (top_k) {
    PushHeapKeep(out, plan.keep, ref);
  } else if (!(ref.score < plan.threshold)) {
    out->push_back(ref);
  }
}

double* SearchIndex::PackedColumns::AppendColumn() {
  const std::int64_t block = count_ / kBlockCols;
  if (block == static_cast<std::int64_t>(blocks_.size())) {
    blocks_.push_back(std::make_unique_for_overwrite<double[]>(
        static_cast<std::size_t>(kBlockCols) * static_cast<std::size_t>(dim_)));
  }
  double* column = blocks_[static_cast<std::size_t>(block)].get() +
                   (count_ % kBlockCols) * dim_;
  ++count_;
  return column;
}

SearchIndex::SearchIndex(const AsteriaModel& model, int threads)
    : model_(model),
      threads_(threads < 1 ? 1 : threads),
      hidden_dim_(model.config().siamese.encoder.hidden_dim) {
  packed_.Reset(hidden_dim_);
}

int SearchIndex::Add(const FunctionFeature& feature) {
  ASTERIA_SPAN("encode");
  const util::TraceSpan add_span(h_add_nanos);
  const nn::Matrix encoding = model_.Encode(feature.tree);
  std::memcpy(packed_.AppendColumn(), encoding.data(),
              static_cast<std::size_t>(hidden_dim_) * sizeof(double));
  EntryMeta meta;
  meta.name = feature.name;
  meta.callee_count = feature.callee_count;
  entries_.push_back(std::move(meta));
  MarkSideIndexDirty();
  return static_cast<int>(entries_.size()) - 1;
}

int SearchIndex::AddEncoded(const std::string& name,
                            const nn::Matrix& encoding, int callee_count) {
  // Same shape/finiteness gate as Load: a foreign or corrupted encoding
  // must be rejected here, not discovered as garbage scores later.
  if (encoding.rows() != hidden_dim_ || encoding.cols() != 1 ||
      !nn::AllFinite(encoding.data(), encoding.size())) {
    return -1;
  }
  std::memcpy(packed_.AppendColumn(), encoding.data(),
              static_cast<std::size_t>(hidden_dim_) * sizeof(double));
  EntryMeta meta;
  meta.name = name;
  meta.callee_count = callee_count;
  entries_.push_back(std::move(meta));
  MarkSideIndexDirty();
  return static_cast<int>(entries_.size()) - 1;
}

util::PipelineReport SearchIndex::AddAll(
    const std::vector<FunctionFeature>& features) {
  util::PipelineReport report;
  report.stage = "index-encode";
  // Empty ASTs are skipped before the failpoint sees them. The rest encode
  // into per-slot staging, so a failing feature never leaves a hole in the
  // packed matrix, and this in-order pass keeps the surviving order (and
  // the report) thread-count independent.
  std::vector<const FunctionFeature*> encodable;
  encodable.reserve(features.size());
  for (const FunctionFeature& feature : features) {
    if (!feature.tree.empty()) encodable.push_back(&feature);
  }
  const IsolatedEncodings encoded =
      EncodeIsolated(model_, encodable, threads_, fp_search_encode);
  entries_.reserve(entries_.size() + encodable.size());
  std::size_t slot = 0;
  for (const FunctionFeature& feature : features) {
    if (feature.tree.empty()) {
      report.AddSkipped(feature.name + ": empty AST");
      continue;
    }
    if (encoded.failures[slot].empty()) {
      AddEncoded(feature.name, encoded.encodings[slot], feature.callee_count);
      report.AddOk();
    } else {
      report.AddFailed(encoded.failures[slot]);
    }
    ++slot;
  }
  util::PublishPipelineReport(report);
  return report;
}

nn::Matrix SearchIndex::encoding(int index) const {
  nn::Matrix m(hidden_dim_, 1);
  std::memcpy(m.data(), packed_.Column(index),
              static_cast<std::size_t>(hidden_dim_) * sizeof(double));
  return m;
}

void SearchIndex::EnsureSideIndexFresh() const {
  if (!side_dirty_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(side_mutex_);
  if (!side_dirty_.load(std::memory_order_relaxed)) return;
  const int n = size();
  side_order_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) side_order_[static_cast<std::size_t>(i)] = i;
  std::sort(side_order_.begin(), side_order_.end(), [&](int a, int b) {
    const int ca = entries_[static_cast<std::size_t>(a)].callee_count;
    const int cb = entries_[static_cast<std::size_t>(b)].callee_count;
    if (ca != cb) return ca < cb;
    return a < b;
  });
  side_dirty_.store(false, std::memory_order_release);
}

std::vector<std::vector<SearchHit>> SearchIndex::RingSweep(
    const std::vector<nn::Matrix>& encodings, const std::vector<int>& callees,
    const std::vector<std::size_t>& keeps,
    const std::vector<double>& thresholds,
    std::vector<QuerySearchStats>* stats) const {
  const bool top_k = thresholds.empty();
  const std::size_t batch = encodings.size();
  const std::int64_t n = static_cast<std::int64_t>(entries_.size());
  std::vector<std::vector<SearchHit>> results(batch);
  if (batch == 0 || n == 0) return results;
  const std::int64_t sweep_start_nanos = util::TraceNowNanos();
  EnsureSideIndexFresh();
  auto callees_at = [&](std::int64_t pos) -> std::int64_t {
    return entries_[static_cast<std::size_t>(
                        side_order_[static_cast<std::size_t>(pos)])]
        .callee_count;
  };
  // First side position in [first, last) whose callee count is not below c.
  auto side_lower_bound = [&](std::int64_t first, std::int64_t last,
                              std::int64_t c) -> std::int64_t {
    return std::partition_point(side_order_.begin() + first,
                                side_order_.begin() + last,
                                [&](int entry) {
                                  return entries_[static_cast<std::size_t>(
                                                      entry)]
                                             .callee_count < c;
                                }) -
           side_order_.begin();
  };

  // Every query starts with an empty scored range at its own callee class.
  std::vector<QueryPlan> plans(batch);
  for (std::size_t q = 0; q < batch; ++q) {
    QueryPlan& plan = plans[q];
    plan.encoding = encodings[q].data();
    plan.callees = callees[q];
    if (top_k) {
      plan.keep = keeps[q];
      plan.refs.reserve(plan.keep + 1);
    } else {
      plan.threshold = thresholds[q];
    }
    plan.live = !top_k || plan.keep > 0;
    plan.lo = plan.hi = side_lower_bound(0, n, plan.callees);
  }

  // Ring rounds. Each round takes every live query's next ring — the
  // entries at the nearest callee distance d not yet scored, one contiguous
  // side range per side — unless the query's floor already beats the ring's
  // calibration bound: every entry at distance >= d scores at most
  // PruneBound(d) < floor, so it can neither displace a kept hit (the floor
  // is the heap's worst, which never exceeds the final k-th score) nor clear
  // the threshold. The rings are then scored together in one blocked-GEMM
  // pass, merged, and the floors updated. The floor only moves after whole
  // rings, so which rings get scored depends on the scores and callee counts
  // alone — never on sharding — and the results equal the brute force's.
  const int max_shards = std::max(1, threads_);
  std::vector<std::vector<std::vector<ScoredRef>>> shard_refs(
      static_cast<std::size_t>(max_shards),
      std::vector<std::vector<ScoredRef>>(batch));
  std::vector<RingSide> sides;
  std::vector<RingTile> tiles;
  for (;;) {
    sides.clear();
    for (std::size_t q = 0; q < batch; ++q) {
      QueryPlan& plan = plans[q];
      if (!plan.live) continue;
      const std::int64_t left =
          plan.lo > 0 ? plan.callees - callees_at(plan.lo - 1) : kNoRing;
      const std::int64_t right =
          plan.hi < n ? callees_at(plan.hi) - plan.callees : kNoRing;
      const std::int64_t d = std::min(left, right);
      const bool armed = !top_k || plan.refs.size() >= plan.keep;
      const double floor = top_k ? (armed ? plan.refs.front().score : 0.0)
                                 : plan.threshold;
      if (d == kNoRing || (armed && PruneBound(d) < floor)) {
        plan.live = false;
        continue;
      }
      if (left == d) {
        const std::int64_t lo =
            side_lower_bound(0, plan.lo, plan.callees - d);
        sides.push_back({lo, plan.lo, q, d});
        plan.lo = lo;
      }
      if (right == d) {
        const std::int64_t hi =
            side_lower_bound(plan.hi, n, plan.callees + d + 1);
        sides.push_back({plan.hi, hi, q, d});
        plan.hi = hi;
      }
    }
    if (sides.empty()) break;
    // Queries of one callee class share their rings: tile equal ranges.
    std::sort(sides.begin(), sides.end(),
              [](const RingSide& a, const RingSide& b) {
                if (a.begin != b.begin) return a.begin < b.begin;
                if (a.end != b.end) return a.end < b.end;
                return a.query < b.query;
              });
    tiles.clear();
    std::int64_t pairs = 0;
    for (std::size_t i = 0, j = 0; i < sides.size(); i = j) {
      while (j < sides.size() && sides[j].begin == sides[i].begin &&
             sides[j].end == sides[i].end) {
        ++j;
      }
      tiles.push_back({sides[i].begin, sides[i].end, i, j - i, pairs});
      pairs += (sides[i].end - sides[i].begin) *
               static_cast<std::int64_t>(j - i);
    }

    // Small rounds run inline: a shard gets at least one full GEMM block.
    const int shards = static_cast<int>(std::min<std::int64_t>(
        max_shards, (pairs + BlockScorer::kPairsPerBlock - 1) /
                        BlockScorer::kPairsPerBlock));
    util::ParallelForShards(
        pairs, shards, [&](std::int64_t begin, std::int64_t end, int shard) {
          std::vector<std::vector<ScoredRef>>& locals =
              shard_refs[static_cast<std::size_t>(shard)];
          BlockScorer scorer(model_);
          auto sink = [&](int side_slot, int entry, double m) {
            const RingSide& side = sides[static_cast<std::size_t>(side_slot)];
            Collect(top_k, plans[side.query], &locals[side.query],
                    ScoredRef{m * CalleeSimFromDistance(side.distance),
                              entry});
          };
          std::size_t t = static_cast<std::size_t>(
              std::upper_bound(tiles.begin(), tiles.end(), begin,
                               [](std::int64_t pair, const RingTile& tile) {
                                 return pair < tile.offset;
                               }) -
              tiles.begin() - 1);
          for (std::int64_t p = begin; p < end; ++t) {
            const RingTile& tile = tiles[t];
            const std::int64_t width = static_cast<std::int64_t>(tile.count);
            const std::int64_t stop =
                std::min(end, tile.offset + (tile.end - tile.begin) * width);
            for (; p < stop; ++p) {
              const std::int64_t local = p - tile.offset;
              const std::size_t slot =
                  tile.first + static_cast<std::size_t>(local % width);
              const int entry = side_order_[static_cast<std::size_t>(
                  tile.begin + local / width)];
              scorer.Push(plans[sides[slot].query].encoding,
                          packed_.Column(entry), static_cast<int>(slot),
                          entry);
              if (scorer.Full()) scorer.Flush(sink);
            }
          }
          scorer.Flush(sink);
        });
    // Merge in shard order; the collectors' contents are a pure function of
    // the refs they are fed, so the order cannot change any floor.
    for (std::vector<std::vector<ScoredRef>>& locals : shard_refs) {
      for (std::size_t q = 0; q < batch; ++q) {
        for (const ScoredRef& ref : locals[q]) {
          Collect(top_k, plans[q], &plans[q].refs, ref);
        }
        locals[q].clear();
      }
    }
  }

  // Pair accounting by range arithmetic: a query scored exactly its covered
  // side range and pruned the rest, so the counts are thread-count invariant.
  std::uint64_t total_scored = 0, total_pruned = 0;
  for (std::size_t q = 0; q < batch; ++q) {
    const QueryPlan& plan = plans[q];
    const std::uint64_t scored = static_cast<std::uint64_t>(plan.hi - plan.lo);
    const std::uint64_t pruned =
        top_k && plan.keep == 0 ? 0 : static_cast<std::uint64_t>(n) - scored;
    total_scored += scored;
    total_pruned += pruned;
    if (stats != nullptr) {
      (*stats)[q].scored_pairs = scored;
      (*stats)[q].pruned_pairs = pruned;
    }
  }
  c_scored_pairs.Add(total_scored);
  c_pruned_pairs.Add(total_pruned);
  for (std::size_t q = 0; q < batch; ++q) {
    std::vector<ScoredRef>& refs = plans[q].refs;
    std::sort(refs.begin(), refs.end(), RefBefore<ScoredRef>);
    std::vector<SearchHit>& hits = results[q];
    hits.resize(refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i) {
      hits[i].index = refs[i].index;
      hits[i].name = entries_[static_cast<std::size_t>(refs[i].index)].name;
      hits[i].score = refs[i].score;
    }
  }
  if (stats != nullptr) {
    const std::uint64_t sweep_nanos = static_cast<std::uint64_t>(
        util::TraceNowNanos() - sweep_start_nanos);
    for (std::size_t q = 0; q < batch; ++q) {
      (*stats)[q].score_nanos = sweep_nanos;
    }
  }
  return results;
}

std::vector<SearchHit> SearchIndex::TopK(const FunctionFeature& query,
                                         int k) const {
  if (k <= 0 || entries_.empty()) return {};
  ASTERIA_SPAN("search");
  const util::TraceSpan topk_span(h_topk_nanos);
  std::vector<nn::Matrix> encodings(1);
  encodings[0] = model_.Encode(query.tree);
  const std::vector<int> callees{query.callee_count};
  const std::vector<std::size_t> keeps{
      std::min<std::size_t>(static_cast<std::size_t>(k), entries_.size())};
  std::vector<SearchHit> hits =
      std::move(RingSweep(encodings, callees, keeps, {})[0]);
  h_topk_size.Observe(hits.size());
  return hits;
}

std::vector<std::vector<SearchHit>> SearchIndex::TopKBatch(
    const std::vector<const FunctionFeature*>& queries,
    const std::vector<int>& ks, std::vector<QuerySearchStats>* stats) const {
  const std::size_t batch = queries.size();
  std::vector<std::vector<SearchHit>> results(batch);
  if (stats != nullptr) {
    stats->clear();
    stats->resize(batch);
  }
  if (batch == 0) return results;
  ASTERIA_SPAN("search");
  const util::TraceSpan batch_span(h_topk_batch_nanos);
  h_topk_batch_queries.Observe(batch);
  // Encode the whole batch first (the expensive per-query step), in
  // parallel across queries. Each slot of `stats` is written by exactly one
  // ParallelFor iteration, so no synchronization is needed.
  std::vector<nn::Matrix> encodings(batch);
  util::ParallelFor(static_cast<std::int64_t>(batch), threads_,
                    [&](std::int64_t q) {
                      ASTERIA_SPAN("encode");
                      const std::int64_t encode_start =
                          util::TraceNowNanos();
                      const std::size_t slot = static_cast<std::size_t>(q);
                      encodings[slot] = model_.Encode(queries[slot]->tree);
                      if (stats != nullptr) {
                        (*stats)[slot].encode_nanos = static_cast<std::uint64_t>(
                            util::TraceNowNanos() - encode_start);
                      }
                    });
  std::vector<int> callees(batch);
  std::vector<std::size_t> keeps(batch);
  for (std::size_t q = 0; q < batch; ++q) {
    callees[q] = queries[q]->callee_count;
    keeps[q] = ks[q] <= 0 ? 0
                          : std::min<std::size_t>(
                                static_cast<std::size_t>(ks[q]),
                                entries_.size());
  }
  results = RingSweep(encodings, callees, keeps, {}, stats);
  for (std::size_t q = 0; q < batch; ++q) {
    h_topk_size.Observe(results[q].size());
  }
  return results;
}

std::vector<SearchHit> SearchIndex::AboveThreshold(
    const FunctionFeature& query, double threshold) const {
  ASTERIA_SPAN("search");
  if (entries_.empty()) return {};
  std::vector<nn::Matrix> encodings(1);
  encodings[0] = model_.Encode(query.tree);
  const std::vector<int> callees{query.callee_count};
  const std::vector<double> thresholds{threshold};
  return std::move(RingSweep(encodings, callees, {}, thresholds)[0]);
}

std::vector<std::vector<SearchHit>> SearchIndex::AboveThresholdBatch(
    const std::vector<const FunctionFeature*>& queries,
    const std::vector<double>& thresholds,
    std::vector<QuerySearchStats>* stats) const {
  const std::size_t batch = queries.size();
  std::vector<std::vector<SearchHit>> results(batch);
  if (stats != nullptr) {
    stats->clear();
    stats->resize(batch);
  }
  if (batch == 0) return results;
  ASTERIA_SPAN("search");
  std::vector<nn::Matrix> encodings(batch);
  util::ParallelFor(static_cast<std::int64_t>(batch), threads_,
                    [&](std::int64_t q) {
                      ASTERIA_SPAN("encode");
                      const std::int64_t encode_start =
                          util::TraceNowNanos();
                      const std::size_t slot = static_cast<std::size_t>(q);
                      encodings[slot] = model_.Encode(queries[slot]->tree);
                      if (stats != nullptr) {
                        (*stats)[slot].encode_nanos = static_cast<std::uint64_t>(
                            util::TraceNowNanos() - encode_start);
                      }
                    });
  std::vector<int> callees(batch);
  for (std::size_t q = 0; q < batch; ++q) {
    callees[q] = queries[q]->callee_count;
  }
  return RingSweep(encodings, callees, {}, thresholds, stats);
}

// -- Brute-force reference paths (pre-packing implementation) --------------

std::vector<nn::Matrix> SearchIndex::MaterializeEncodings() const {
  std::vector<nn::Matrix> mats(entries_.size());
  util::ParallelFor(static_cast<std::int64_t>(entries_.size()), threads_,
                    [&](std::int64_t i) {
                      mats[static_cast<std::size_t>(i)] =
                          encoding(static_cast<int>(i));
                    });
  return mats;
}

SearchHit SearchIndex::ScoreEntryReference(const nn::Matrix& query_encoding,
                                           int query_callees,
                                           const nn::Matrix& entry_encoding,
                                           int index) const {
  const EntryMeta& entry = entries_[static_cast<std::size_t>(index)];
  SearchHit hit;
  hit.index = index;
  hit.name = entry.name;
  hit.score = CalibratedSimilarity(
      model_.SimilarityFromEncodings(query_encoding, entry_encoding),
      query_callees, entry.callee_count);
  return hit;
}

std::vector<SearchHit> SearchIndex::ScoredReference(
    const FunctionFeature& query,
    const std::vector<nn::Matrix>& entry_encodings) const {
  const nn::Matrix query_encoding = model_.Encode(query.tree);
  std::vector<SearchHit> hits(entries_.size());
  util::ParallelFor(static_cast<std::int64_t>(entries_.size()), threads_,
                    [&](std::int64_t i) {
                      const std::size_t slot = static_cast<std::size_t>(i);
                      hits[slot] = ScoreEntryReference(
                          query_encoding, query.callee_count,
                          entry_encodings[slot], static_cast<int>(i));
                    });
  return hits;
}

std::vector<SearchHit> SearchIndex::TopKReference(const FunctionFeature& query,
                                                  int k) const {
  if (k <= 0 || entries_.empty()) return {};
  const std::vector<nn::Matrix> mats = MaterializeEncodings();
  const nn::Matrix query_encoding = model_.Encode(query.tree);
  const std::size_t keep =
      std::min<std::size_t>(static_cast<std::size_t>(k), entries_.size());
  // Shard-local top-k exactly as the original brute force: every entry is
  // scored, one pair at a time.
  const int max_shards = threads_;
  std::vector<std::vector<SearchHit>> shard_top(
      static_cast<std::size_t>(std::max(1, max_shards)));
  util::ParallelForShards(
      static_cast<std::int64_t>(entries_.size()), max_shards,
      [&](std::int64_t begin, std::int64_t end, int shard) {
        auto worse = [](const SearchHit& a, const SearchHit& b) {
          return HitBefore(a, b);  // heap top = worst kept hit
        };
        std::vector<SearchHit>& local =
            shard_top[static_cast<std::size_t>(shard)];
        local.reserve(keep + 1);
        for (std::int64_t i = begin; i < end; ++i) {
          SearchHit hit = ScoreEntryReference(
              query_encoding, query.callee_count,
              mats[static_cast<std::size_t>(i)], static_cast<int>(i));
          if (local.size() < keep) {
            local.push_back(std::move(hit));
            std::push_heap(local.begin(), local.end(), worse);
          } else if (HitBefore(hit, local.front())) {
            std::pop_heap(local.begin(), local.end(), worse);
            local.back() = std::move(hit);
            std::push_heap(local.begin(), local.end(), worse);
          }
        }
      });
  std::vector<SearchHit> merged;
  merged.reserve(keep * shard_top.size());
  for (std::vector<SearchHit>& local : shard_top) {
    merged.insert(merged.end(), std::make_move_iterator(local.begin()),
                  std::make_move_iterator(local.end()));
  }
  const auto cut = merged.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(keep, merged.size()));
  std::partial_sort(merged.begin(), cut, merged.end(), HitBefore);
  merged.erase(cut, merged.end());
  return merged;
}

std::vector<SearchHit> SearchIndex::AboveThresholdReference(
    const FunctionFeature& query, double threshold) const {
  const std::vector<nn::Matrix> mats = MaterializeEncodings();
  std::vector<SearchHit> hits = ScoredReference(query, mats);
  hits.erase(std::remove_if(hits.begin(), hits.end(),
                            [&](const SearchHit& hit) {
                              return hit.score < threshold;
                            }),
             hits.end());
  std::sort(hits.begin(), hits.end(), HitBefore);
  return hits;
}

// -- Snapshots --------------------------------------------------------------

namespace {

void BuildEntryChunk(const std::string& name, int callee_count, int dim,
                     const double* column, store::ChunkBuilder* chunk) {
  chunk->PutString(name);
  chunk->PutI32(callee_count);
  chunk->PutU32(static_cast<std::uint32_t>(dim));
  chunk->PutU32(1);
  chunk->PutF64Array(column, static_cast<std::size_t>(dim));
}

}  // namespace

bool SearchIndex::Save(const std::string& path, std::string* error) const {
  store::Writer writer;
  if (!writer.Open(path, store::kKindIndex, error)) return false;
  store::ChunkBuilder meta;
  meta.PutU32(kSnapshotVersion);
  meta.PutU32(model_.WeightsFingerprint());
  if (!writer.WriteChunk(kTagIndexMeta, meta, error)) return false;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const EntryMeta& entry = entries_[i];
    store::ChunkBuilder chunk;
    BuildEntryChunk(entry.name, entry.callee_count, hidden_dim_,
                    packed_.Column(static_cast<std::int64_t>(i)), &chunk);
    if (!writer.WriteChunk(kTagIndexEntry, chunk, error)) return false;
  }
  return writer.Finish(error);
}

bool SearchIndex::AppendTo(const std::string& path, int first_index,
                           std::string* error) const {
  if (first_index < 0 || first_index > size()) {
    *error = "AppendTo: first_index " + std::to_string(first_index) +
             " out of range [0, " + std::to_string(size()) + "]";
    return false;
  }
  // Validate the existing snapshot (structure + model fingerprint) before
  // extending it, so an append can never bury corruption or mix models.
  {
    store::Reader reader;
    if (!reader.Open(path, store::kKindIndex, error)) return false;
    if (reader.chunks().empty() ||
        reader.chunks().front().tag != kTagIndexMeta) {
      *error = path + ": snapshot is missing its leading IMET chunk";
      return false;
    }
    store::ChunkView payload;
    if (!reader.ReadChunk(0, &payload, error)) return false;
    store::ChunkParser parser(payload);
    std::uint32_t version = 0, fingerprint = 0;
    if (!parser.GetU32(&version, error) ||
        !parser.GetU32(&fingerprint, error)) {
      return false;
    }
    if (version != kSnapshotVersion) {
      *error = path + ": unsupported index snapshot version " +
               std::to_string(version);
      return false;
    }
    if (fingerprint != model_.WeightsFingerprint()) {
      *error = path + ": snapshot was encoded by different model weights "
                      "(fingerprint mismatch) — rebuild instead of appending";
      return false;
    }
  }
  store::Writer writer;
  if (!writer.OpenAppend(path, store::kKindIndex, error)) return false;
  for (std::size_t i = static_cast<std::size_t>(first_index);
       i < entries_.size(); ++i) {
    const EntryMeta& entry = entries_[i];
    store::ChunkBuilder chunk;
    BuildEntryChunk(entry.name, entry.callee_count, hidden_dim_,
                    packed_.Column(static_cast<std::int64_t>(i)), &chunk);
    if (!writer.WriteChunk(kTagIndexEntry, chunk, error)) return false;
  }
  return writer.Finish(error);
}

bool SearchIndex::AppendEntriesFrom(const store::Reader& snapshot,
                                    std::uint32_t fingerprint,
                                    std::vector<EntryMeta>* entries,
                                    PackedColumns* packed,
                                    std::string* error) const {
  const std::string& path = snapshot.path();
  const std::size_t dim = static_cast<std::size_t>(hidden_dim_);
  bool saw_meta = false;
  store::ChunkView payload;
  for (std::size_t i = 0; i < snapshot.chunks().size(); ++i) {
    const store::ChunkInfo& info = snapshot.chunks()[i];
    if (info.tag != kTagIndexMeta && info.tag != kTagIndexEntry) {
      continue;  // unknown chunks are skippable (forward compat)
    }
    if (!snapshot.ReadChunk(i, &payload, error)) return false;
    store::ChunkParser parser(payload);
    if (info.tag == kTagIndexMeta) {
      std::uint32_t version = 0, stored_fingerprint = 0;
      if (!parser.GetU32(&version, error) ||
          !parser.GetU32(&stored_fingerprint, error)) {
        return false;
      }
      if (version != kSnapshotVersion) {
        *error = path + ": unsupported index snapshot version " +
                 std::to_string(version);
        return false;
      }
      if (stored_fingerprint != fingerprint) {
        *error = path + ": snapshot was encoded by different model weights "
                        "(fingerprint mismatch) — scores would be garbage; "
                        "load the matching checkpoint first or rebuild";
        return false;
      }
      saw_meta = true;
      continue;
    }
    if (!saw_meta) {
      *error = path + ": ENTR chunk before IMET metadata";
      return false;
    }
    EntryMeta entry;
    std::uint32_t rows = 0, cols = 0;
    if (!parser.GetString(&entry.name, error) ||
        !parser.GetI32(&entry.callee_count, error) ||
        !parser.GetU32(&rows, error) || !parser.GetU32(&cols, error)) {
      return false;
    }
    // The model only produces hidden_dim x 1 encodings; anything else is a
    // corrupted entry or a snapshot from an incompatible build, and scoring
    // against it would read out of bounds or produce garbage. Checked
    // first, so the size check below never multiplies hostile fields.
    if (rows != dim || cols != 1) {
      *error = path + ": entry '" + entry.name + "' has encoding shape " +
               std::to_string(rows) + "x" + std::to_string(cols) +
               " but this model produces " + std::to_string(hidden_dim_) +
               "x1 encodings";
      return false;
    }
    if (dim > parser.remaining() / sizeof(double)) {
      *error = path + ": entry '" + entry.name + "' declares " +
               std::to_string(rows) + "x" + std::to_string(cols) +
               " encoding but only " + std::to_string(parser.remaining()) +
               " payload bytes remain — corrupted entry";
      return false;
    }
    // The one copy: file bytes straight into the packed column.
    double* column = packed->AppendColumn();
    if (!parser.GetF64Array(column, dim, error)) return false;
    if (!nn::AllFinite(column, dim)) {
      *error = path + ": entry '" + entry.name +
               "' encoding contains non-finite values (NaN/Inf) — corrupted "
               "snapshot";
      return false;
    }
    entries->push_back(std::move(entry));
  }
  if (!saw_meta) {
    *error = path + ": missing IMET metadata chunk";
    return false;
  }
  return true;
}

bool SearchIndex::LoadFrom(const store::Reader& snapshot, std::string* error) {
  // Parse into fresh storage and swap it in, so a failure leaves the index
  // untouched. The chunk count bounds the entry count (one chunk each).
  std::vector<EntryMeta> entries;
  entries.reserve(snapshot.chunks().size());
  PackedColumns packed;
  packed.Reset(hidden_dim_);
  if (!AppendEntriesFrom(snapshot, model_.WeightsFingerprint(), &entries,
                         &packed, error)) {
    return false;
  }
  entries_ = std::move(entries);
  packed_ = std::move(packed);
  MarkSideIndexDirty();
  return true;
}

bool SearchIndex::Load(const std::string& path, std::string* error) {
  store::Reader snapshot;
  if (!snapshot.Open(path, store::kKindIndex, error)) return false;
  return LoadFrom(snapshot, error);
}

bool SearchIndex::LoadAppend(const std::string& path, std::string* error) {
  store::Reader snapshot;
  if (!snapshot.Open(path, store::kKindIndex, error)) return false;
  // Append in place and roll back on failure, so a mid-file failure never
  // leaves the index holding a partial shard.
  const std::size_t before = entries_.size();
  if (!AppendEntriesFrom(snapshot, model_.WeightsFingerprint(), &entries_,
                         &packed_, error)) {
    entries_.resize(before);
    packed_.Truncate(static_cast<std::int64_t>(before));
    return false;
  }
  MarkSideIndexDirty();
  return true;
}

bool SearchIndex::OpenShardedFrom(const store::Reader& manifest_reader,
                                  std::string* error) {
  const std::string& manifest_path = manifest_reader.path();
  store::ShardManifest manifest;
  if (!store::LoadManifest(&manifest, manifest_reader, error)) return false;
  // Computed once (a CRC over every weight) and checked against every shard.
  const std::uint32_t fingerprint = model_.WeightsFingerprint();
  if (manifest.model_fingerprint != fingerprint) {
    *error = manifest_path +
             ": manifest was published for different model weights "
             "(fingerprint mismatch) — load the matching checkpoint or "
             "re-ingest";
    return false;
  }
  // Sized from the manifest's recorded entries. A corrupt count is trusted
  // only up to a bound, so it fails below with the out-of-sync error
  // instead of in the allocator.
  constexpr std::uint64_t kMaxReservedEntries = 1u << 20;
  std::vector<EntryMeta> entries;
  entries.reserve(static_cast<std::size_t>(
      std::min(manifest.TotalEntries(), kMaxReservedEntries)));
  PackedColumns packed;
  packed.Reset(hidden_dim_);
  const std::string dir = store::DirOf(manifest_path);
  for (const store::ShardRecord& shard : manifest.shards) {
    const std::size_t before = entries.size();
    store::Reader snapshot;
    if (!snapshot.Open(dir + "/" + shard.file, store::kKindIndex, error) ||
        !AppendEntriesFrom(snapshot, fingerprint, &entries, &packed, error)) {
      return false;
    }
    if (entries.size() - before != shard.entries) {
      *error = manifest_path + ": shard '" + shard.file + "' holds " +
               std::to_string(entries.size() - before) +
               " entries but the manifest records " +
               std::to_string(shard.entries) +
               " — shard and manifest are out of sync";
      return false;
    }
  }
  entries_ = std::move(entries);
  packed_ = std::move(packed);
  MarkSideIndexDirty();
  return true;
}

bool SearchIndex::OpenSharded(const std::string& manifest_path,
                              std::string* error) {
  store::Reader manifest;
  if (!manifest.Open(manifest_path, store::kKindManifest, error)) return false;
  return OpenShardedFrom(manifest, error);
}

bool SearchIndex::Open(const std::string& path, std::string* error) {
  // One read of the container serves both the kind sniff and the load.
  store::Reader reader;
  if (!reader.Open(path, 0, error)) return false;
  if (reader.kind() == store::kKindIndex) return LoadFrom(reader, error);
  if (reader.kind() == store::kKindManifest) {
    return OpenShardedFrom(reader, error);
  }
  *error = path + ": " + store::FourCcName(reader.kind()) +
           " container is neither an INDX snapshot nor a MANI manifest";
  return false;
}

}  // namespace asteria::core
