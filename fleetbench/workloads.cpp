// The three workloads: serve-topk, ingest-under-query and cve-sweep.
#include "workloads.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <set>
#include <thread>
#include <unordered_map>

#include "core/calibration.h"
#include "ingest/ingest.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "util/request_log.h"
#include "util/rng.h"
#include "util/trace.h"

namespace fleetbench {

using namespace asteria;

namespace {

constexpr int kTopK = 10;
// serve-topk's cost is a median over blocks of kCostBlock reference-rung
// queries; the sender runs the probe after every kProbeEvery-th query.
constexpr std::size_t kCostBlock = 100;
constexpr std::size_t kProbeEvery = 10;

// -- Pipelined wire connection ---------------------------------------------
//
// serve::Client is synchronous (one request in flight). An open loop needs
// many in flight on one connection, so this speaks the ASRV framing
// directly through serve::protocol and matches replies by correlation id.
class WireConnection {
 public:
  ~WireConnection() { Close(); }

  bool Connect(const std::string& socket_path, std::string* error) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || socket_path.size() >= sizeof(addr.sun_path)) {
      *error = "cannot create a socket for " + socket_path;
      return false;
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      *error = "connect " + socket_path + ": " + std::strerror(errno);
      return false;
    }
    timeval timeout{};
    timeout.tv_sec = 60;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  // Unblocks a reader waiting on this connection.
  void Shutdown() { ::shutdown(fd_, SHUT_RDWR); }

  bool SendTopK(std::uint64_t id, const core::FunctionFeature& query,
                std::uint64_t trace_id, std::string* error) {
    store::ChunkBuilder payload;
    serve::PutQuery(id, query, kTopK, 0.0, serve::FrameType::kTopK, &payload);
    return serve::WriteFrame(fd_, serve::FrameType::kTopK, payload, error, 0,
                             trace_id);
  }

  // Reads one reply; `ok` is true only for a kHits frame.
  bool Receive(std::uint64_t* id, bool* ok, std::vector<core::SearchHit>* hits,
               std::string* error) {
    serve::FrameType type{};
    std::vector<std::uint8_t> payload;
    if (serve::ReadFrame(fd_, &type, &payload, error) !=
        serve::ReadStatus::kFrame) {
      return false;
    }
    *ok = type == serve::FrameType::kHits;
    if (*ok) return serve::GetHits(payload, id, hits, error);
    if (type == serve::FrameType::kError) {
      std::string message;
      return serve::GetError(payload, id, &message, error);
    }
    return serve::GetControl(payload, id, error);
  }

 private:
  int fd_ = -1;
};

// -- Open-loop query stream ------------------------------------------------

struct Shot {
  int query = 0;  // index into the query pool
  int phase = 0;  // ladder rung or window half
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  std::uint64_t trace_id = 0;
  bool ok = false;
  bool answered = false;
  bool keep_hits = false;
  std::vector<core::SearchHit> hits;

  double LatencyMs() const { return MillisBetween(due, done); }
  double RoundTripUs() const { return MillisBetween(sent, done) * 1000.0; }
};

// Appends `duration_s` seconds of arrivals evenly spaced at `rate` per
// second, starting at `*cursor` (advanced to the end of the span), each
// asking a query drawn from the pool by `rng`.
void AppendSchedule(double rate, double duration_s, int phase, int pool_size,
                    util::Rng* rng, Clock::time_point* cursor,
                    std::vector<Shot>* shots) {
  const auto gap = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  const Clock::time_point end =
      *cursor + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(duration_s));
  for (Clock::time_point at = *cursor + gap; at < end; at += gap) {
    Shot shot;
    shot.query = static_cast<int>(rng->NextBounded(static_cast<std::uint64_t>(pool_size)));
    shot.phase = phase;
    shot.due = at;
    shots->push_back(std::move(shot));
  }
  *cursor = end;
}

// Sends every shot at its due time on the calling thread while a receiver
// thread collects the replies; `after_send(i)`, if set, runs just after
// shot i is sent. Returns false on a transport failure (the unanswered
// shots stay !answered and count as failed).
bool RunOpenLoop(WireConnection* conn,
                 const std::vector<core::FunctionFeature>& pool,
                 std::vector<Shot>* shots,
                 const std::function<void(std::size_t)>& after_send,
                 std::string* error) {
  std::string receive_error;
  std::jthread receiver([&] {
    for (std::size_t received = 0; received < shots->size(); ++received) {
      std::uint64_t id = 0;
      bool ok = false;
      std::vector<core::SearchHit> hits;
      if (!conn->Receive(&id, &ok, &hits, &receive_error)) return;
      if (id == 0 || id > shots->size()) {
        receive_error = "reply with unknown correlation id";
        return;
      }
      Shot& shot = (*shots)[id - 1];
      shot.done = Clock::now();
      shot.answered = true;
      shot.ok = ok;
      if (shot.keep_hits) shot.hits = std::move(hits);
    }
  });
  bool sent_all = true;
  for (std::size_t i = 0; i < shots->size(); ++i) {
    Shot& shot = (*shots)[i];
    std::this_thread::sleep_until(shot.due);
    shot.sent = Clock::now();
    if (!conn->SendTopK(i + 1, pool[static_cast<std::size_t>(shot.query)],
                        shot.trace_id, error)) {
      sent_all = false;
      break;
    }
    if (after_send) after_send(i);
  }
  if (!sent_all) conn->Shutdown();
  receiver.join();
  if (!sent_all) return false;
  if (!receive_error.empty()) {
    *error = receive_error;
    return false;
  }
  return true;
}

// Latencies of one phase's shots; an unanswered or failed shot counts as
// missing every limit (infinite latency).
std::vector<double> PhaseLatencies(const std::vector<Shot>& shots, int phase) {
  std::vector<double> latency;
  for (const Shot& shot : shots) {
    if (shot.phase == phase) {
      latency.push_back(shot.answered && shot.ok ? shot.LatencyMs() : INFINITY);
    }
  }
  return latency;
}

// Wall-clock latency percentiles, reported but not gated: on a shared host
// their run-to-run spread exceeds any bound the benchmark may fix
// (README.md, "Noise").
void ReportQueryLatency(const std::vector<double>& latency_ms, Result* result) {
  for (const int q : {50, 75, 90, 95, 99}) {
    result->extras["query_p" + std::to_string(q) + "_ms"] =
        Percentile(latency_ms, q);
  }
  result->extras["query_samples"] = static_cast<double>(latency_ms.size());
}

// One ladder rung.
struct PhaseStats {
  int count = 0;
  int failed = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double late_p99_ms = 0.0;  // how late the generator sent (p99)
  double achieved_qps = 0.0;
};

PhaseStats Summarize(const std::vector<Shot>& shots, int phase) {
  PhaseStats stats;
  const std::vector<double> latency = PhaseLatencies(shots, phase);
  std::vector<double> late;
  Clock::time_point first{};
  Clock::time_point last{};
  for (const Shot& shot : shots) {
    if (shot.phase != phase) continue;
    if (stats.count == 0) first = shot.due;
    last = shot.due;
    ++stats.count;
    if (!(shot.answered && shot.ok)) ++stats.failed;
    late.push_back(MillisBetween(shot.due, shot.sent));
  }
  stats.p50_ms = Percentile(latency, 50.0);
  stats.p99_ms = Percentile(latency, 99.0);
  stats.late_p99_ms = Percentile(late, 99.0);
  const double span_s = MillisBetween(first, last) / 1000.0;
  stats.achieved_qps = span_s > 0 ? (stats.count - 1) / span_s : 0.0;
  return stats;
}

bool SameHits(const std::vector<core::SearchHit>& a,
              const std::vector<core::SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index || a[i].name != b[i].name ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// Daemon-side request records of the traced window, keyed by trace id.
std::unordered_map<std::uint64_t, util::ParsedRequestRecord> ReadDaemonRecords(
    const std::string& path, Result* result) {
  std::vector<util::ParsedRequestRecord> records;
  int corrupt = 0;
  std::string error;
  std::unordered_map<std::uint64_t, util::ParsedRequestRecord> by_trace;
  if (!util::ReadRequestLogFile(path, &records, &corrupt, &error)) {
    result->notes.push_back("daemon request log unreadable: " + error);
    return by_trace;
  }
  for (auto& record : records) {
    if (record.trace_id != 0 && record.op == "serve.topk") {
      by_trace[record.trace_id] = std::move(record);
    }
  }
  return by_trace;
}

std::uint64_t TraceIdFor(std::uint64_t seed, std::size_t i) {
  // Nonzero and unique within a run; the daemon echoes it into its records.
  return util::Rng::DeriveSeed(seed, i) | 1;
}

// Serve-side waterfall of the traced shots (query -> reply).
void TraceServe(const std::vector<Shot>& shots, int traced_phase,
                const std::string& record_path, Result* result) {
  const auto records = ReadDaemonRecords(record_path, result);
  Samples& s = result->layers;
  double scored = 0.0;
  double pruned = 0.0;
  int joined = 0;
  int traced = 0;
  for (const Shot& shot : shots) {
    if (shot.phase != traced_phase || !shot.answered) continue;
    ++traced;
    const auto it = records.find(shot.trace_id);
    if (it == records.end()) continue;
    const util::ParsedRequestRecord& r = it->second;
    ++joined;
    const double rtt = shot.RoundTripUs();
    const double queue = r.queue_wait_nanos / 1e3;
    const double encode = r.encode_nanos / 1e3;
    const double score = r.score_nanos / 1e3;
    const double reply = r.reply_nanos / 1e3;
    s.Add("serve.client.round_trip_us", rtt);
    s.Add("serve.queue_wait_us", queue);
    s.Add("serve.encode_us", encode);
    s.Add("serve.score_us", score);
    s.Add("serve.reply_us", reply);
    s.Add("serve.unattributed_us", rtt - queue - encode - score - reply);
    s.Add("serve.batch_size", static_cast<double>(r.batch_size));
    scored += static_cast<double>(r.scored_pairs);
    pruned += static_cast<double>(r.pruned_pairs);
  }
  if (scored + pruned > 0) {
    s.Add("search.scored_fraction", scored / (scored + pruned));
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "traced queries joined to daemon records: %d of %d", joined,
                traced);
  result->notes.push_back(line);
  result->waterfalls.push_back(
      {"query->reply (us, per query, mean)",
       "serve.client.round_trip_us",
       {"serve.queue_wait_us", "serve.encode_us", "serve.score_us",
        "serve.reply_us"},
       "serve.unattributed_us"});
}

// In-process costs on the traced queries: the query codec alone, and the
// TopKBatch sweep at the batch size the daemon was observed to form.
void TraceInProcess(const Fleet& fleet, const core::SearchIndex& index,
                    const std::vector<Shot>& shots, int traced_phase,
                    Result* result) {
  Samples& s = result->layers;
  std::vector<const core::FunctionFeature*> queries;
  for (const Shot& shot : shots) {
    if (shot.phase == traced_phase) {
      queries.push_back(&fleet.queries[static_cast<std::size_t>(shot.query)]);
    }
  }
  if (queries.size() > 512) queries.resize(512);
  for (const core::FunctionFeature* query : queries) {
    const auto start = Clock::now();
    store::ChunkBuilder payload;
    serve::PutQuery(1, *query, kTopK, 0.0, serve::FrameType::kTopK, &payload);
    std::uint64_t id = 0;
    core::FunctionFeature decoded;
    int k = 0;
    double threshold = 0.0;
    std::string error;
    serve::GetQuery(payload.bytes(), serve::FrameType::kTopK, &id, &decoded, &k,
                    &threshold, &error);
    s.Add("serve.protocol.query_codec_us",
          MillisBetween(start, Clock::now()) * 1000.0);
  }
  const int batch = std::max(
      1, static_cast<int>(std::lround(s.Mean("serve.batch_size"))));
  for (std::size_t at = 0; at < queries.size(); at += static_cast<std::size_t>(batch)) {
    const std::size_t end = std::min(queries.size(), at + static_cast<std::size_t>(batch));
    std::vector<const core::FunctionFeature*> group(queries.begin() + static_cast<std::ptrdiff_t>(at),
                                                    queries.begin() + static_cast<std::ptrdiff_t>(end));
    const std::vector<int> ks(group.size(), kTopK);
    const auto start = Clock::now();
    index.TopKBatch(group, ks);
    s.Add("search.topk_batch_us_per_query",
          MillisBetween(start, Clock::now()) * 1000.0 /
              static_cast<double>(group.size()));
  }
}

// The daemon's shed and deadline-expired totals (those queries already
// count as failed: they got no kHits reply).
bool AddHealthCounts(const Fleet& fleet, Result* result, std::string* error) {
  serve::Client client;
  serve::HealthInfo health;
  if (!client.Connect(fleet.socket, error, 10) ||
      !client.Health(&health, error)) {
    return false;
  }
  result->layers.Add("serve.shed", static_cast<double>(health.shed));
  result->layers.Add("serve.deadline_exceeded",
                     static_cast<double>(health.deadline_exceeded));
  return true;
}

// Checks sampled daemon replies against in-process SearchIndex::TopK over
// the same manifest, bitwise; also measures the scored fraction of those
// queries from the index's own exact pair counts.
bool CheckTopKSample(const Fleet& fleet, const core::SearchIndex& index,
                     const std::vector<Shot>& shots, Result* result,
                     std::string* error) {
  std::vector<const Shot*> sample;
  for (const Shot& shot : shots) {
    if (shot.keep_hits && shot.answered && shot.ok) sample.push_back(&shot);
  }
  if (sample.empty()) {
    *error = "no sampled replies to check";
    return false;
  }
  std::vector<const core::FunctionFeature*> queries;
  for (const Shot* shot : sample) {
    queries.push_back(&fleet.queries[static_cast<std::size_t>(shot->query)]);
    const auto expected = index.TopK(*queries.back(), kTopK);
    if (!SameHits(shot->hits, expected)) {
      *error = "daemon reply differs from in-process TopK for " +
               queries.back()->name;
      return false;
    }
  }
  std::vector<core::SearchIndex::QuerySearchStats> stats;
  index.TopKBatch(queries, std::vector<int>(queries.size(), kTopK), &stats);
  double scored = 0.0;
  double pruned = 0.0;
  for (const auto& q : stats) {
    scored += static_cast<double>(q.scored_pairs);
    pruned += static_cast<double>(q.pruned_pairs);
  }
  result->traffic["scored_fraction"] = scored / std::max(1.0, scored + pruned);
  result->notes.push_back("correctness: " + std::to_string(sample.size()) +
                          " sampled daemon replies equal in-process TopK");
  return true;
}

// Re-runs one arrival's stages through the modules' public functions on the
// same bytes, so the arrival waterfall can split IngestFile's wall time.
void TraceArrivalStages(const Fleet& fleet, const std::string& path,
                        Result* result) {
  Samples& s = result->layers;
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> blob(std::istreambuf_iterator<char>(in), {});
  auto start = Clock::now();
  const auto image = firmware::Unpack(blob);
  s.Add("firmware.unpack_ms", MillisBetween(start, Clock::now()));
  if (!image.has_value()) return;
  start = Clock::now();
  const ingest::IngestConfig defaults;  // the filters IngestFile applies
  const auto features = ingest::IngestService::DecompileImage(
      *image, defaults.beta, defaults.min_ast_size, nullptr);
  s.Add("decompiler.decompile_image_ms", MillisBetween(start, Clock::now()));
  start = Clock::now();
  std::vector<nn::Matrix> encodings;
  for (const core::FunctionFeature& feature : features) {
    encodings.push_back(fleet.model->Encode(feature.tree));
  }
  s.Add("core.encode_image_ms", MillisBetween(start, Clock::now()));
  core::SearchIndex shard(*fleet.model, 1);
  for (std::size_t i = 0; i < features.size(); ++i) {
    shard.AddEncoded(features[i].name, encodings[i], features[i].callee_count);
  }
  start = Clock::now();
  std::string error;
  shard.Save(fleet.dir + "/traced-shard.idx", &error);
  s.Add("store.shard_save_ms", MillisBetween(start, Clock::now()));
  core::SearchIndex reopened(*fleet.model, 1);
  start = Clock::now();
  reopened.Open(fleet.manifest, &error);
  s.Add("search.open_ms", MillisBetween(start, Clock::now()));
}

}  // namespace

// -- serve-topk --------------------------------------------------------------

bool RunServeTopK(const Options& options, Fleet* fleet, Result* result,
                  std::string* error) {
  const ServeLadder ladder;
  util::Rng rng(util::Rng::DeriveSeed(options.seed, 10));
  std::vector<Shot> shots;
  Clock::time_point cursor = Clock::now() + std::chrono::milliseconds(20);
  // Warm-up (phase -1, not reported): the first queries after a load
  // rebuild the index's lazy callee side index.
  AppendSchedule(ladder.reference_qps, 0.3, -1,
                 static_cast<int>(fleet->queries.size()), &rng, &cursor, &shots);
  int reference_phase = -1;
  if (!options.trace) {
    // Rungs share the window by weight; the reference rung gets the largest
    // share so its tail rests on enough samples.
    double weight_sum = 0.0;
    for (const auto& rung : ladder.rungs) weight_sum += rung.weight;
    for (std::size_t r = 0; r < ladder.rungs.size(); ++r) {
      const auto& rung = ladder.rungs[r];
      if (rung.qps == ladder.reference_qps) reference_phase = static_cast<int>(r);
      AppendSchedule(rung.qps, options.seconds * rung.weight / weight_sum,
                    static_cast<int>(r), static_cast<int>(fleet->queries.size()),
                    &rng, &cursor, &shots);
    }
  } else {
    // Untraced half, then traced half, both at the reference rate.
    reference_phase = 1;
    AppendSchedule(ladder.reference_qps, options.seconds / 2, 0,
                  static_cast<int>(fleet->queries.size()), &rng, &cursor, &shots);
    AppendSchedule(ladder.reference_qps, options.seconds / 2, 1,
                  static_cast<int>(fleet->queries.size()), &rng, &cursor, &shots);
  }
  util::Rng pick(util::Rng::DeriveSeed(options.seed, 11));
  int kept = 0;
  for (std::size_t i = 0; i < shots.size(); ++i) {
    if (options.trace && shots[i].phase == 1) {
      shots[i].trace_id = TraceIdFor(options.seed, i);
    }
    if (kept < 64 && pick.NextBounded(16) == 0) {
      shots[i].keep_hits = true;
      ++kept;
    }
  }

  // The reference rung is shots [reference_first, reference_end); a
  // warm-up always precedes it. The daemon's CPU time is read at its block
  // boundaries: after the send before each block's first shot, and at the
  // end after the rung's last send, or after the last reply when nothing
  // follows the rung.
  std::size_t reference_first = shots.size();
  std::size_t reference_end = shots.size();
  for (std::size_t i = 0; i < shots.size(); ++i) {
    if (shots[i].phase != reference_phase) continue;
    reference_first = std::min(reference_first, i);
    reference_end = i + 1;
  }
  std::vector<double> block_cpu;
  std::vector<std::vector<double>> block_probe;
  WireConnection conn;
  if (!conn.Connect(fleet->socket, error)) return false;
  const bool transport_ok = RunOpenLoop(
      &conn, fleet->queries, &shots,
      [&](std::size_t i) {
        const std::size_t next = i + 1;  // the next shot to be sent
        if (next >= reference_first && next <= reference_end &&
            ((next - reference_first) % kCostBlock == 0 || next == reference_end)) {
          block_cpu.push_back(fleet->daemon->CpuMs());
          block_probe.emplace_back();
        }
        if (i >= reference_first && i < reference_end &&
            (i - reference_first) % kProbeEvery == kProbeEvery / 2) {
          block_probe.back().push_back(ProbeCpuMs(kWakeProbeSlices));
        }
      },
      error);
  const double end_cpu = fleet->daemon->CpuMs();
  conn.Close();
  if (!transport_ok) return false;
  if (reference_end == shots.size()) block_cpu.back() = end_cpu;
  result->attempted += static_cast<int>(shots.size());
  for (const Shot& shot : shots) {
    if (!(shot.answered && shot.ok)) ++result->failed;
  }

  // The gated cost: the daemon's CPU time per reference-rung query, scaled
  // by the median of the block's probes; the median over the blocks (the
  // last may be shorter).
  const PhaseStats reference = Summarize(shots, reference_phase);
  std::vector<double> cpu_per_query;
  std::vector<double> cost_per_query;
  for (std::size_t b = 0; b + 1 < block_cpu.size(); ++b) {
    if (block_probe[b].empty()) continue;  // a last block too short to probe
    const std::size_t from = reference_first + b * kCostBlock;
    const std::size_t to = std::min(from + kCostBlock, reference_end);
    const double cpu = (block_cpu[b + 1] - block_cpu[b]) / static_cast<double>(to - from);
    cpu_per_query.push_back(cpu);
    cost_per_query.push_back(CostMs(cpu, Median(block_probe[b])));
  }
  result->e2e["op_cost_ms"] = Median(cost_per_query);
  result->extras["op_cpu_ms"] = Median(cpu_per_query);
  ReportQueryLatency(PhaseLatencies(shots, reference_phase), result);

  // Ladder table and the highest rung meeting the limit with no backlog.
  if (!options.trace) {
    double best = 0.0;
    for (std::size_t r = 0; r < ladder.rungs.size(); ++r) {
      const PhaseStats p = Summarize(shots, static_cast<int>(r));
      const bool meets = p.failed == 0 && p.p99_ms <= ladder.slo_p99_ms &&
                         p.late_p99_ms <= ladder.slo_p99_ms;
      if (meets && (r == 0 || best == ladder.rungs[r - 1].qps)) {
        best = ladder.rungs[r].qps;
      }
      char line[200];
      std::snprintf(line, sizeof(line),
                    "ladder %6.0f qps: n=%5d achieved=%7.1f qps p50=%8.3f ms "
                    "p99=%9.3f ms late_p99=%7.3f ms failed=%d %s",
                    ladder.rungs[r].qps, p.count, p.achieved_qps, p.p50_ms,
                    p.p99_ms, p.late_p99_ms, p.failed, meets ? "meets" : "misses");
      result->notes.push_back(line);
    }
    result->extras["max_qps_at_slo"] = best;
    result->extras["slo_p99_ms"] = ladder.slo_p99_ms;
    result->extras["reference_qps"] = ladder.reference_qps;
  } else {
    const PhaseStats untraced = Summarize(shots, 0);
    result->overhead.push_back({"query_p50_ms", untraced.p50_ms, reference.p50_ms});
  }

  if (!AddHealthCounts(*fleet, result, error)) return false;
  result->daemon_rss_kb = fleet->daemon->PeakRssKb();

  core::SearchIndex index(*fleet->model, 1);
  if (!index.Open(fleet->manifest, error)) return false;
  if (!CheckTopKSample(*fleet, index, shots, result, error)) return false;
  if (options.trace) {
    if (!fleet->daemon->Stop(error)) return false;
    TraceServe(shots, reference_phase, fleet->dir + "/requests.log", result);
    TraceInProcess(*fleet, index, shots, reference_phase, result);
  }
  return true;
}

// -- ingest-under-query ------------------------------------------------------

bool RunIngestUnderQuery(const Options& options, Fleet* fleet, Result* result,
                         std::string* error) {
  const IngestPlan plan;
  const int arrivals = std::max(
      2, static_cast<int>(options.seconds * 1000.0 / plan.cadence_ms));
  // Arrival inputs: fresh images from the seed, plus byte-identical re-drops
  // of images already in the fleet or already arrived.
  util::Rng rng(util::Rng::DeriveSeed(options.seed, 20));
  // Exactly one re-drop in every block of redrop_every arrivals, at a
  // seeded position, so the share is the same in every run and half.
  std::vector<bool> redrop(static_cast<std::size_t>(arrivals));
  for (int block = 0; block < arrivals; block += plan.redrop_every) {
    const int span = std::min(plan.redrop_every, arrivals - block);
    redrop[static_cast<std::size_t>(
        block + static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(span))))] = true;
  }
  const int fresh_count =
      static_cast<int>(std::count(redrop.begin(), redrop.end(), false));
  const firmware::FirmwareCorpus fresh =
      GenerateImages(fresh_count, options.scale.arrival_packages,
                     util::Rng::DeriveSeed(options.seed, 21));
  if (static_cast<int>(fresh.images.size()) != fresh_count) {
    *error = "arrival image generation failed";
    return false;
  }
  const std::string arrive_dir = fleet->dir + "/arrive";
  if (!MakeDirs(arrive_dir, error)) return false;
  std::vector<std::string> paths;
  std::vector<int> fresh_index(static_cast<std::size_t>(arrivals), -1);
  std::vector<std::string> seen;  // files already ingested, for re-drops
  for (std::size_t i = 0; i < fleet->corpus.images.size(); ++i) {
    seen.push_back(DropFile(fleet->drop_dir, i));
  }
  int next_fresh = 0;
  for (int j = 0; j < arrivals; ++j) {
    char name[32];
    std::snprintf(name, sizeof(name), "/arr-%05d.fw", j);
    const std::string path = arrive_dir + name;
    std::vector<std::uint8_t> bytes;
    if (redrop[static_cast<std::size_t>(j)]) {
      const std::string& source = seen[rng.NextBounded(seen.size())];
      std::ifstream in(source, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    } else {
      fresh_index[static_cast<std::size_t>(j)] = next_fresh;
      bytes = firmware::Pack(fresh.images[static_cast<std::size_t>(next_fresh++)]);
    }
    if (!WriteFile(path, bytes, error)) return false;
    paths.push_back(path);
    seen.push_back(path);
  }
  ::sync();
  // Probe per fresh arrival: its largest function, which must come back
  // from the new shard. A function's score against itself is not always
  // its top score, so the probe asks for everything scoring at least that
  // self score (computed here, bitwise what the daemon computes).
  std::vector<const core::FunctionFeature*> probe(fresh.images.size(), nullptr);
  for (const firmware::FirmwareFunction& fn : fresh.functions) {
    const core::FunctionFeature*& slot = probe[static_cast<std::size_t>(fn.image)];
    if (slot == nullptr || fn.feature.tree.size() > slot->tree.size()) {
      slot = &fn.feature;
    }
  }

  // Side queries over the whole window, on their own sender thread.
  util::Rng query_rng(util::Rng::DeriveSeed(options.seed, 22));
  std::vector<Shot> shots;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  // Half a query gap after each arrival's due time, so the two streams never
  // wake at the same instant.
  Clock::time_point cursor =
      start + std::chrono::microseconds(static_cast<std::int64_t>(500000.0 / plan.side_qps));
  // Phase 0 covers the first half of the arrivals, phase 1 the second (the
  // traced half when tracing); the stream runs 0.2 s past the last arrival.
  const int traced_from_arrival = options.trace ? arrivals / 2 : arrivals;
  const double half_s = (arrivals / 2) * plan.cadence_ms / 1000.0;
  AppendSchedule(plan.side_qps, half_s, 0,
                static_cast<int>(fleet->queries.size()), &query_rng, &cursor,
                &shots);
  AppendSchedule(plan.side_qps,
                (arrivals - arrivals / 2) * plan.cadence_ms / 1000.0 + 0.2, 1,
                static_cast<int>(fleet->queries.size()), &query_rng, &cursor,
                &shots);
  WireConnection conn;
  if (!conn.Connect(fleet->socket, error)) return false;
  std::string side_error;
  bool side_ok = true;
  // The side sender runs the probe after every kProbeEvery-th send.
  std::vector<std::pair<Clock::time_point, double>> side_probes;
  // A jthread: joined on every path out of this function, exceptions too.
  std::jthread side([&] {
    side_ok = RunOpenLoop(
        &conn, fleet->queries, &shots,
        [&](std::size_t i) {
          if (i % kProbeEvery == kProbeEvery / 2) {
            const double probe = ProbeCpuMs(kWakeProbeSlices);
            side_probes.emplace_back(Clock::now(), probe);
          }
        },
        &side_error);
  });

  ingest::IngestConfig config;
  config.index_dir = fleet->index_dir;
  config.serve_socket = fleet->socket;
  ingest::IngestService service(*fleet->model, config);
  serve::Client prober;
  bool ok = service.Open(error) && prober.Connect(fleet->socket, error, 30);
  ingest::IngestStats stats;
  std::vector<double> arrival_ms;
  std::vector<double> fresh_cpu_ms;   // IngestFile CPU time, fresh images
  std::vector<double> fresh_cost_ms;  // the same, scaled by the probe
  // Per block of plan.redrop_every arrivals (one re-drop each): IngestFile
  // CPU time, the daemon's CPU time at the block's first due time, and the
  // probes run after each arrival.
  std::vector<double> block_ingest_cpu;
  std::vector<double> block_daemon_cpu;
  std::vector<std::vector<double>> block_probe;
  std::vector<Clock::time_point> queryable_at;  // traced fresh arrivals
  std::int64_t traced_from_nanos = 0;
  for (int j = 0; ok && j < arrivals; ++j) {
    const bool traced = j >= traced_from_arrival;
    if (j == traced_from_arrival) traced_from_nanos = util::TraceNowNanos();
    const Clock::time_point due =
        start + std::chrono::microseconds(
                    static_cast<std::int64_t>(j * plan.cadence_ms * 1000.0));
    std::this_thread::sleep_until(due);
    if (j % plan.redrop_every == 0) {
      block_daemon_cpu.push_back(fleet->daemon->CpuMs());
      block_ingest_cpu.push_back(0.0);
      block_probe.emplace_back();
    }
    const std::uint64_t entries_before = service.manifest().TotalEntries();
    const int published_before = stats.images_published;
    const int deduped_before = stats.images_deduped;
    const int indexed_before = stats.functions_indexed;
    const auto call_start = Clock::now();
    const double cpu_start = ThreadCpuMs();
    ++result->attempted;
    if (!service.IngestFile(paths[static_cast<std::size_t>(j)], &stats, error)) {
      ++result->failed;
      ok = false;
      break;
    }
    const double call_cpu = ThreadCpuMs() - cpu_start;
    const Clock::time_point done = Clock::now();
    arrival_ms.push_back(MillisBetween(due, done));
    block_ingest_cpu.back() += call_cpu;

    // The manifest must add up, and the daemon must serve what it says.
    const std::uint64_t entries_after = service.manifest().TotalEntries();
    const bool is_redrop = redrop[static_cast<std::size_t>(j)];
    const bool counted =
        is_redrop ? (stats.images_deduped == deduped_before + 1 &&
                     entries_after == entries_before)
                  : (stats.images_published == published_before + 1 &&
                     entries_after == entries_before + static_cast<std::uint64_t>(
                                          stats.functions_indexed - indexed_before));
    serve::HealthInfo health;
    if (!counted || !prober.Health(&health, error) ||
        health.index_size != entries_after) {
      *error = paths[static_cast<std::size_t>(j)] +
               ": manifest or daemon entry count does not add up";
      ok = false;
      break;
    }
    // After the arrival, so the probe delays no arrival.
    const double probe_ms = ProbeCpuMs();
    block_probe.back().push_back(probe_ms);
    if (!is_redrop) {
      fresh_cpu_ms.push_back(call_cpu);
      fresh_cost_ms.push_back(CostMs(call_cpu, probe_ms));
      const core::FunctionFeature& query =
          *probe[static_cast<std::size_t>(fresh_index[static_cast<std::size_t>(j)])];
      const nn::Matrix encoded = fleet->model->Encode(query.tree);
      const double self_score = core::CalibratedSimilarity(
          fleet->model->SimilarityFromEncodings(encoded, encoded),
          query.callee_count, query.callee_count);
      std::vector<core::SearchHit> hits;
      ++result->attempted;
      if (!prober.AboveThreshold(query, self_score, &hits, error)) {
        ok = false;
        break;
      }
      const bool found = std::any_of(hits.begin(), hits.end(), [&](const auto& hit) {
        return hit.index >= static_cast<int>(entries_before) &&
               hit.index < static_cast<int>(entries_after) &&
               hit.name == query.name && hit.score == self_score;
      });
      if (!found) {
        *error = paths[static_cast<std::size_t>(j)] +
                 ": probe query did not return its entry from the new shard";
        ok = false;
        break;
      }
      if (traced) {
        queryable_at.push_back(done);
        result->layers.Add("ingest.ingest_file_ms", MillisBetween(call_start, done));
        TraceArrivalStages(*fleet, paths[static_cast<std::size_t>(j)], result);
      }
    }
  }
  // The last block ends at the next due time.
  std::this_thread::sleep_until(
      start + std::chrono::microseconds(static_cast<std::int64_t>(
                  arrivals * plan.cadence_ms * 1000.0)));
  block_daemon_cpu.push_back(fleet->daemon->CpuMs());
  side.join();
  conn.Close();
  if (!ok) return false;
  if (!side_ok) {
    *error = "side query stream: " + side_error;
    return false;
  }
  result->notes.push_back(
      "correctness: " + std::to_string(arrivals) +
      " arrivals added up in the manifest and the daemon; every fresh one "
      "was found by its probe query");

  result->attempted += static_cast<int>(shots.size());
  for (const Shot& shot : shots) {
    if (!(shot.answered && shot.ok)) ++result->failed;
  }
  // Untraced runs measure the whole window; traced runs report the traced
  // half and compare it with the untraced half.
  const std::vector<double> latency[2] = {PhaseLatencies(shots, 0),
                                          PhaseLatencies(shots, 1)};
  std::vector<double> measured = latency[1];
  const int first_measured = options.trace ? traced_from_arrival : 0;
  const std::vector<double> arrivals_measured(
      arrival_ms.begin() + first_measured, arrival_ms.end());
  if (options.trace) {
    const std::vector<double> early(arrival_ms.begin(),
                                    arrival_ms.begin() + traced_from_arrival);
    result->overhead.push_back({"query_p50_ms", Percentile(latency[0], 50.0),
                                Percentile(latency[1], 50.0)});
    result->overhead.push_back({"arrival_to_queryable_p50_ms",
                                Percentile(early, 50.0),
                                Percentile(arrivals_measured, 50.0)});
  } else {
    measured.insert(measured.end(), latency[0].begin(), latency[0].end());
  }
  ReportQueryLatency(measured, result);
  result->extras["arrival_to_queryable_p50_ms"] = Percentile(arrivals_measured, 50.0);
  result->extras["arrival_to_queryable_p90_ms"] = Percentile(arrivals_measured, 90.0);
  // The gated costs: the CPU time the ingesting thread and the daemon (its
  // reloads, the check queries and the side queries) spent per arrival,
  // scaled by the median of the block's probes (this thread's and the side
  // sender's), the median over whole blocks; and IngestFile's own cost per
  // fresh image, scaled by the probe run right after it.
  const auto block_span = std::chrono::microseconds(
      static_cast<std::int64_t>(plan.redrop_every * plan.cadence_ms * 1000.0));
  for (const auto& [at, probe] : side_probes) {
    const auto b = static_cast<std::size_t>((at - start) / block_span);
    if (at >= start && b < block_probe.size()) block_probe[b].push_back(probe);
  }
  std::vector<double> cpu_per_arrival;
  std::vector<double> cost_per_arrival;
  std::vector<double> daemon_per_arrival;
  for (int b = 0; (b + 1) * plan.redrop_every <= arrivals; ++b) {
    const std::size_t at = static_cast<std::size_t>(b);
    const double daemon = block_daemon_cpu[at + 1] - block_daemon_cpu[at];
    const double cpu = (block_ingest_cpu[at] + daemon) / plan.redrop_every;
    cpu_per_arrival.push_back(cpu);
    cost_per_arrival.push_back(CostMs(cpu, Median(block_probe[at])));
    daemon_per_arrival.push_back(daemon / plan.redrop_every);
  }
  result->e2e["op_cost_ms"] = Median(cost_per_arrival);
  result->e2e["ingest_cost_ms"] = Median(fresh_cost_ms);
  result->extras["op_cpu_ms"] = Median(cpu_per_arrival);
  result->extras["ingest_cpu_ms"] = Median(fresh_cpu_ms);
  result->extras["daemon_cpu_per_arrival_ms"] = Median(daemon_per_arrival);
  result->extras["arrivals"] = arrivals;
  result->extras["images_deduped"] = stats.images_deduped;
  result->extras["side_qps"] = plan.side_qps;
  result->extras["cadence_ms"] = plan.cadence_ms;
  if (!AddHealthCounts(*fleet, result, error)) return false;
  result->daemon_rss_kb = fleet->daemon->PeakRssKb();

  if (options.trace) {
    Samples& s = result->layers;
    s.Add("ingest.dedup_ratio",
          static_cast<double>(stats.images_deduped) / arrivals);
    s.Add("ingest.functions_per_image",
          stats.images_published > 0
              ? static_cast<double>(stats.functions_indexed) / stats.images_published
              : 0.0);
    // Reload time: the poke's own client-side record (serve::Client cuts
    // one per wire attempt) in this process's request ring.
    for (const auto& record : util::GlobalRequestLog().Snapshot()) {
      if (record.end_nanos >= traced_from_nanos &&
          std::strcmp(record.op, "client.reload") == 0) {
        s.Add("serve.reload_ms", record.reply_nanos / 1e6);
      }
    }
    // The first side query sent after each arrival became queryable.
    for (const Clock::time_point at : queryable_at) {
      for (const Shot& shot : shots) {
        if (shot.sent >= at && shot.answered) {
          s.Add("serve.first_query_after_reload_us", shot.RoundTripUs());
          break;
        }
      }
    }
    const double stages = s.Mean("firmware.unpack_ms") +
                          s.Mean("decompiler.decompile_image_ms") +
                          s.Mean("core.encode_image_ms") +
                          s.Mean("store.shard_save_ms") + s.Mean("serve.reload_ms");
    s.Add("ingest.unattributed_ms", s.Mean("ingest.ingest_file_ms") - stages);
    result->waterfalls.push_back(
        {"arrival->queryable (ms, per fresh image, mean)",
         "ingest.ingest_file_ms",
         {"firmware.unpack_ms", "decompiler.decompile_image_ms",
          "core.encode_image_ms", "store.shard_save_ms", "serve.reload_ms"},
         "ingest.unattributed_ms"});
  }
  return true;
}

// -- cve-sweep ---------------------------------------------------------------

bool RunCveSweep(const Options& options, Fleet* fleet, Result* result,
                 std::string* error) {
  // One sweep thread: its CPU time is the cost, and no sweep waits on a
  // straggler core of a shared host.
  core::SearchIndex index(*fleet->model, 1);
  if (!index.Open(fleet->manifest, error)) return false;
  const auto& functions = fleet->corpus.functions;
  // Ingest preserves the corpus order, so entry i is corpus function i.
  if (index.size() != static_cast<int>(functions.size())) {
    *error = "fleet index size differs from the generated corpus";
    return false;
  }
  for (int i = 0; i < index.size(); ++i) {
    const auto& fn = functions[static_cast<std::size_t>(i)];
    if (index.name(i) != fn.feature.name ||
        index.callee_count(i) != fn.feature.callee_count) {
      *error = "fleet entry " + std::to_string(i) + " does not match the corpus";
      return false;
    }
  }
  std::vector<const core::FunctionFeature*> queries;
  for (const CveQuery& q : fleet->cve) queries.push_back(&q.feature);

  // Correctness before timing: the sweep equals a brute-force scan built
  // on the public encoding accessor, bitwise.
  std::vector<core::SearchIndex::QuerySearchStats> check_stats;
  const auto results = index.AboveThresholdBatch(
      queries, std::vector<double>(queries.size(), fleet->threshold), &check_stats);
  double check_scored = 0.0;
  double check_pruned = 0.0;
  for (const auto& q : check_stats) {
    check_scored += static_cast<double>(q.scored_pairs);
    check_pruned += static_cast<double>(q.pruned_pairs);
  }
  result->traffic["scored_fraction"] =
      check_scored / std::max(1.0, check_scored + check_pruned);
  std::vector<nn::Matrix> entries;
  for (int i = 0; i < index.size(); ++i) entries.push_back(index.encoding(i));
  std::set<int> confirmed;
  int planted = 0;
  for (const auto& fn : functions) {
    if (!fn.truth_cve.empty() && !fn.patched) ++planted;
  }
  std::size_t hits_total = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const nn::Matrix encoded = fleet->model->Encode(queries[q]->tree);
    std::vector<core::SearchHit> expected;
    for (int i = 0; i < index.size(); ++i) {
      const double score = core::CalibratedSimilarity(
          fleet->model->SimilarityFromEncodings(encoded, entries[static_cast<std::size_t>(i)]),
          queries[q]->callee_count, index.callee_count(i));
      if (score >= fleet->threshold) expected.push_back({i, index.name(i), score});
    }
    std::sort(expected.begin(), expected.end(), [](const auto& a, const auto& b) {
      return a.score != b.score ? a.score > b.score : a.index < b.index;
    });
    if (!SameHits(results[q], expected)) {
      *error = "AboveThresholdBatch differs from the brute-force sweep for " +
               queries[q]->name;
      return false;
    }
    hits_total += results[q].size();
    const CveQuery& cve = fleet->cve[q];
    if (cve.patched) continue;
    for (const core::SearchHit& hit : results[q]) {
      const auto& fn = functions[static_cast<std::size_t>(hit.index)];
      if (fn.truth_cve == cve.cve && !fn.patched) confirmed.insert(hit.index);
    }
  }
  result->notes.push_back(
      "correctness: AboveThresholdBatch equals the brute-force sweep for " +
      std::to_string(queries.size()) + " CVE queries (" +
      std::to_string(hits_total) + " hits); planted-CVE hits confirmed: " +
      std::to_string(confirmed.size()) + " of " + std::to_string(planted));
  result->extras["cve_confirmed"] = static_cast<double>(confirmed.size());
  result->extras["cve_planted"] = planted;
  result->extras["hits_per_sweep"] = static_cast<double>(hits_total);

  // Closed loop over the whole library per call: the next sweep is due
  // when the previous one returns.
  const std::vector<double> thresholds(queries.size(), fleet->threshold);
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<double> untraced_cpu_ms;
  std::vector<double> untraced_cost_ms;
  double scored = 0.0;
  double pruned = 0.0;
  const auto begin = Clock::now();
  const auto half = begin + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(options.seconds / 2));
  const auto window_end = begin + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(options.seconds));
  while (Clock::now() < window_end) {
    const bool traced = options.trace && Clock::now() >= half;
    std::vector<core::SearchIndex::QuerySearchStats> stats;
    const double probe_ms = ProbeCpuMs();
    const auto start = Clock::now();
    const double cpu_start = ThreadCpuMs();
    const auto sweep = index.AboveThresholdBatch(queries, thresholds,
                                                 traced ? &stats : nullptr);
    const double cpu_ms = ThreadCpuMs() - cpu_start;
    const double ms = MillisBetween(start, Clock::now());
    (traced ? traced_ms : untraced_ms).push_back(ms);
    if (!traced) {
      untraced_cpu_ms.push_back(cpu_ms);
      untraced_cost_ms.push_back(CostMs(cpu_ms, probe_ms));
    }
    result->attempted += static_cast<int>(queries.size());
    std::size_t hits = 0;
    for (const auto& r : sweep) hits += r.size();
    if (hits != hits_total) result->failed += static_cast<int>(queries.size());
    if (traced) {
      result->layers.Add("search.above_threshold_batch_ms", ms);
      result->layers.Add("search.hits_materialized", static_cast<double>(hits));
      for (const auto& q : stats) {
        scored += static_cast<double>(q.scored_pairs);
        pruned += static_cast<double>(q.pruned_pairs);
      }
    }
  }
  const std::vector<double>& measured = options.trace ? traced_ms : untraced_ms;
  ReportQueryLatency(measured, result);
  // The gated cost: the sweep's CPU time per CVE query, scaled by the probe
  // run just before it, the median over the sweeps.
  const double library = static_cast<double>(queries.size());
  result->e2e["op_cost_ms"] = Median(untraced_cost_ms) / library;
  result->extras["op_cpu_ms"] = Median(untraced_cpu_ms) / library;
  double total_ms = 0.0;
  for (double ms : untraced_ms) total_ms += ms;
  result->extras["sweep_queries_per_s"] =
      total_ms > 0 ? untraced_ms.size() * queries.size() * 1000.0 / total_ms : 0.0;
  if (options.trace) {
    result->layers.Add("search.scored_fraction", scored / std::max(1.0, scored + pruned));
    result->overhead.push_back({"query_p50_ms", Percentile(untraced_ms, 50.0),
                                Percentile(traced_ms, 50.0)});
  }
  result->daemon_rss_kb = fleet->daemon->PeakRssKb();
  return true;
}

}  // namespace fleetbench
