// SearchIndex: encode-once, query-many function search.
//
// The workflow of §V and of any realistic clone/vulnerability search:
// offline, every corpus function is encoded once; online, a query is
// encoded and scored against all stored encodings with the fast eq. (8)
// replay plus callee calibration, returning the top-k matches.
//
// Storage is a packed encode matrix: entry encodings live column-major
// (hidden_dim x N) in fixed-size column blocks, so Add/AddEncoded/
// LoadAppend never copy existing columns and a scoring sweep walks
// contiguous memory instead of N scattered heap allocations. Scoring is
// blocked: a whole (query batch x entry block) tile becomes one feature
// matrix and a single nn::Matrix::GemmRaw against the head weights
// (SiameseModel::SimilarityFromEncodingsBatch), with SearchHit names
// materialized only for the hits that survive — never per scored pair.
//
// The sweep is an *exact* ring sweep: M(T1,T2) <= 1, so the calibrated
// score F = M * S is bounded by S(C1,C2) = e^{-|C1-C2|}. Each query walks a
// callee-count-sorted side index outward from its own callee class, one
// callee distance (ring) at a time, and stops before the first ring whose
// calibration bound falls strictly below its floor: the worst score of its
// full top-k heap after the last complete ring, or AboveThreshold's
// threshold. Only provably-losing entries are left unscored (proof sketch in
// docs/PERFORMANCE.md), so TopK/TopKBatch/AboveThreshold return results
// bitwise identical to the brute-force sweep (TopKReference/
// AboveThresholdReference, kept in-tree as the differential oracle and
// bench baseline).
//
// Both phases parallelize over util::ThreadPool with its static-partition
// determinism contract: AddAll encodes shards of the input concurrently but
// stores entries in input order, and the query paths score shards with
// local top-k heaps merged shard-by-shard under a strict total order
// (score desc, insertion index asc), so encodings, scores, and result
// ordering are bitwise identical for every thread count. Which rings a
// query scores depends only on callee counts and its own deterministic
// scores — never on sharding — so the skipped set is thread-count invariant
// too.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/asteria.h"
#include "util/pipeline_report.h"

namespace asteria::store {
class Reader;
}  // namespace asteria::store

namespace asteria::core {

struct SearchHit {
  int index = 0;        // position in insertion order
  std::string name;     // the stored FunctionFeature name
  double score = 0.0;   // calibrated similarity F
};

class SearchIndex {
 public:
  // The model must outlive the index; its weights should be trained before
  // Add() (encodings are computed with the weights current at call time).
  // `threads` bounds the worker count for AddAll and query scoring.
  explicit SearchIndex(const AsteriaModel& model, int threads = 1);

  void set_threads(int threads) { threads_ = threads < 1 ? 1 : threads; }
  int threads() const { return threads_; }

  // Encodes and stores one function; returns its index.
  int Add(const FunctionFeature& feature);

  // Stores a precomputed encoding without re-running the model — the
  // streaming-ingest path, where FENC-cached encodings must never be
  // encoded twice. The encoding must be the model's hidden_dim x 1 shape
  // with finite values; returns the new entry index, or -1 when it is
  // rejected (the index is unchanged).
  int AddEncoded(const std::string& name, const nn::Matrix& encoding,
                 int callee_count);

  // Encodes all features in parallel; entries keep input order. A feature
  // that fails to encode (throws, yields non-finite values, or hits the
  // search.encode failpoint) is isolated — counted in the returned report
  // and dropped from the index — instead of aborting the batch. Empty ASTs
  // are skipped. The surviving entries and the report are identical for
  // every thread count.
  util::PipelineReport AddAll(const std::vector<FunctionFeature>& features);

  // Scores `query` against every stored function and returns the best `k`
  // hits in descending score order (ties broken by insertion index).
  std::vector<SearchHit> TopK(const FunctionFeature& query, int k) const;

  // Per-query accounting for one batched search, filled (when requested)
  // alongside the results so asteria-serve can cut one wide-event request
  // record per query (util/request_log.h). The pair counts are exact and
  // thread-count invariant — scored + pruned is the index size for every
  // AboveThreshold query and every TopK query with k > 0 (both are 0 for
  // k <= 0), and summed over the batch they equal the
  // search.scored_pairs / search.pruned_pairs counter deltas. The timings
  // are wall clock: encode_nanos is this query's own AST encode;
  // score_nanos is the batch's *shared* sweep (every query in a batch
  // reports the same value, because the blocked GEMM scores them together).
  struct QuerySearchStats {
    std::uint64_t encode_nanos = 0;
    std::uint64_t score_nanos = 0;
    std::uint64_t scored_pairs = 0;
    std::uint64_t pruned_pairs = 0;
  };

  // Batched TopK — the asteria-serve dispatch path: encodes every query,
  // then scores the whole batch in shared ring rounds (each round gathers
  // every live query's next ring into one blocked-GEMM pass over the packed
  // entry matrix), keeping a per-query top-k heap. ks[i] is query i's k.
  // Results are bitwise identical to calling TopK(queries[i], ks[i]) one at
  // a time: the strict (score desc, index asc) total order makes the
  // ranking a pure function of the scores, independent of batching and
  // sharding. `stats`, when non-null, is resized to the batch and filled
  // with per-query accounting (never affects results or counters).
  std::vector<std::vector<SearchHit>> TopKBatch(
      const std::vector<const FunctionFeature*>& queries,
      const std::vector<int>& ks,
      std::vector<QuerySearchStats>* stats = nullptr) const;

  // All hits scoring at least `threshold`, descending. Routed through the
  // same ring sweep as TopK with `threshold` as a fixed floor — rings whose
  // calibration bound already falls below it are skipped, and only hits
  // are ever materialized (no O(N) scored-vector allocation).
  std::vector<SearchHit> AboveThreshold(const FunctionFeature& query,
                                        double threshold) const;

  // Batched AboveThreshold — one sweep for a whole dispatch batch, same
  // contract as TopKBatch: results[i] is bitwise identical to
  // AboveThreshold(queries[i], thresholds[i]).
  std::vector<std::vector<SearchHit>> AboveThresholdBatch(
      const std::vector<const FunctionFeature*>& queries,
      const std::vector<double>& thresholds,
      std::vector<QuerySearchStats>* stats = nullptr) const;

  // -- Brute-force reference paths ----------------------------------------
  //
  // The pre-packing implementation, kept verbatim as (a) the differential
  // oracle for tests/search_index_test.cpp (pruned/blocked results must be
  // bitwise identical to these, at every thread count) and (b) the baseline
  // that scripts/bench_search.sh measures the blocked path against. They
  // score every entry, one pair at a time, with no pruning.
  std::vector<SearchHit> TopKReference(const FunctionFeature& query,
                                       int k) const;
  std::vector<SearchHit> AboveThresholdReference(const FunctionFeature& query,
                                                 double threshold) const;

  int size() const { return static_cast<int>(entries_.size()); }

  // Stored encoding of entry `index`, materialized from the packed column
  // (bitwise-reproducibility checks).
  nn::Matrix encoding(int index) const;
  const std::string& name(int index) const {
    return entries_[static_cast<std::size_t>(index)].name;
  }
  int callee_count(int index) const {
    return entries_[static_cast<std::size_t>(index)].callee_count;
  }

  // -- Snapshots (offline phase persisted; see docs/FORMATS.md) -----------
  //
  // A snapshot is a kKindIndex container holding the entry names, callee
  // counts, and raw encodings, fingerprinted against the model weights that
  // produced them. Saving then loading yields a bitwise-identical index:
  // the same TopK scores and ordering for any thread count, extending the
  // ParallelFor determinism contract across process boundaries. Corrupted
  // or truncated snapshots fail with a descriptive `error`, never load
  // partial state. Loads copy each column once, from the container's
  // bytes straight into the packed encode matrix.

  // Writes all entries to `path`, replacing any existing file.
  bool Save(const std::string& path, std::string* error) const;

  // Appends entries [first_index, size()) to an existing snapshot written
  // by the same model (incremental corpus growth without re-encoding).
  bool AppendTo(const std::string& path, int first_index,
                std::string* error) const;

  // Replaces this index's entries with the snapshot's. Fails (leaving the
  // index untouched) on corruption, truncation, or a snapshot produced by
  // different model weights.
  bool Load(const std::string& path, std::string* error);

  // Appends a snapshot's entries after the current ones (shard loading and
  // compaction). The index is untouched on failure.
  bool LoadAppend(const std::string& path, std::string* error);

  // Loads a sharded index: reads the MANI manifest at `manifest_path` and
  // concatenates every named shard's entries in manifest order. Because
  // entry order — not shard boundaries — is what TopK/TopKBatch rank by,
  // the result is bitwise identical to a monolithic snapshot holding the
  // same entries, at any thread count. Fails (index untouched) on a
  // missing/corrupt manifest or shard, or a model fingerprint mismatch.
  bool OpenSharded(const std::string& manifest_path, std::string* error);

  // Kind-sniffing open: dispatches on the container kind at `path` — an
  // INDX snapshot goes through Load, a MANI manifest through OpenSharded.
  // This is what asteria-serve and index-query call, so both accept either
  // artifact transparently.
  bool Open(const std::string& path, std::string* error);

 private:
  // Per-entry metadata; the encoding itself lives in `packed_`.
  struct EntryMeta {
    std::string name;
    int callee_count = 0;
  };

  // The packed encode matrix: hidden_dim x N, column-major, grown in
  // fixed-size column blocks so appends never move existing columns (stable
  // pointers, no realloc copy) and LoadAppend stays O(new entries).
  class PackedColumns {
   public:
    void Reset(int dim) {
      dim_ = dim;
      count_ = 0;
      blocks_.clear();
    }
    int dim() const { return dim_; }
    std::int64_t count() const { return count_; }
    // Pointer to a fresh uninitialized column for the caller to fill.
    double* AppendColumn();
    // Drops every column from `count` on (rolls back a failed append).
    void Truncate(std::int64_t count) {
      count_ = count;
      blocks_.resize(static_cast<std::size_t>((count + kBlockCols - 1) /
                                              kBlockCols));
    }
    const double* Column(std::int64_t i) const {
      return blocks_[static_cast<std::size_t>(i / kBlockCols)].get() +
             (i % kBlockCols) * dim_;
    }

   private:
    static constexpr std::int64_t kBlockCols = 4096;
    int dim_ = 0;
    std::int64_t count_ = 0;
    std::vector<std::unique_ptr<double[]>> blocks_;
  };

  // A (score, insertion index) pair — what the sweep heaps and merges.
  // Names are attached only to the hits that survive selection.
  struct ScoredRef {
    double score = 0.0;
    int index = 0;
  };

  // Per-query ring-sweep state: the encoded query, its collector, and the
  // side-order range its scored rings cover.
  struct QueryPlan;

  // Old-path scorer for the reference implementations. Entry encodings are
  // materialized from the packed columns once per sweep (same doubles, so
  // the scores carry the same bits as the row-per-entry original).
  std::vector<nn::Matrix> MaterializeEncodings() const;
  SearchHit ScoreEntryReference(const nn::Matrix& query_encoding,
                                int query_callees,
                                const nn::Matrix& entry_encoding,
                                int index) const;
  std::vector<SearchHit> ScoredReference(
      const FunctionFeature& query,
      const std::vector<nn::Matrix>& entry_encodings) const;

  // The ring sweep both query kinds share (encodings already computed).
  // An empty `thresholds` selects TopK with heap sizes `keeps`; otherwise
  // each query collects every hit at or above its threshold and `keeps` is
  // ignored. `stats` (nullable) receives per-query pair counts and the
  // shared sweep time; the caller must have sized it to the batch.
  std::vector<std::vector<SearchHit>> RingSweep(
      const std::vector<nn::Matrix>& encodings,
      const std::vector<int>& callees, const std::vector<std::size_t>& keeps,
      const std::vector<double>& thresholds,
      std::vector<QuerySearchStats>* stats = nullptr) const;

  // Rebuilds the callee-count-sorted side index if entries changed since
  // the last query (double-checked under side_mutex_, so concurrent
  // queries rebuild exactly once).
  void EnsureSideIndexFresh() const;
  void MarkSideIndexDirty() {
    side_dirty_.store(true, std::memory_order_release);
  }

  // Appends the entries of the INDX snapshot open in `snapshot` to
  // `entries` and `packed`, parsing straight from the reader's chunk views.
  // `fingerprint` is this model's WeightsFingerprint(). On failure they may
  // hold a partial tail, which the caller drops.
  bool AppendEntriesFrom(const store::Reader& snapshot,
                         std::uint32_t fingerprint,
                         std::vector<EntryMeta>* entries,
                         PackedColumns* packed, std::string* error) const;
  // Load / OpenSharded on an already-open INDX / MANI container.
  bool LoadFrom(const store::Reader& snapshot, std::string* error);
  bool OpenShardedFrom(const store::Reader& manifest, std::string* error);

  const AsteriaModel& model_;
  int threads_ = 1;
  int hidden_dim_ = 0;
  std::vector<EntryMeta> entries_;
  PackedColumns packed_;

  // Callee-count-sorted side index, rebuilt lazily on the first query after
  // a mutation: side_order_ holds entry indices sorted by (callee_count,
  // insertion index), so every callee class — and so every ring side — is
  // one contiguous range. The sweep reads packed columns through it; the
  // packed storage itself stays in insertion order.
  mutable std::mutex side_mutex_;
  mutable std::atomic<bool> side_dirty_{true};
  mutable std::vector<int> side_order_;
};

}  // namespace asteria::core
