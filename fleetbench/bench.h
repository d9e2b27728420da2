// fleetbench: the firmware-fleet benchmark (README.md in this directory
// describes the workloads and every metric).
//
// One process sets up a firmware-derived fleet (generate images, ingest them
// through IngestService, train a model, derive the Youden threshold, start
// the real asteria-serve daemon over the manifest), runs one workload, checks
// its outputs, and prints a report whose last line is the result JSON.
// Spans are recorded here, around calls into each module's public functions;
// the program itself is not instrumented further.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/asteria.h"
#include "core/search_index.h"
#include "firmware/search.h"

namespace fleetbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// CPU time in ms of the calling thread.
double ThreadCpuMs();

// The host-speed probe: CPU time in ms of a fixed dense floating-point loop
// (benchmark code, not the program's) on the calling thread. A shared host
// runs the same loop up to ~1.5x slower in slow phases that last seconds to
// minutes, and the program's CPU time follows it (README.md, "Noise").
// With `slices` > 1 the loop is timed in that many equal slices and the
// fastest, times `slices`, is returned: for a thread that has just woken,
// whose first slice runs on a core that is still slow.
double ProbeCpuMs(int slices = 1);

// Slices for the probes of the open-loop senders, which sleep between sends.
constexpr int kWakeProbeSlices = 4;

// The probe's CPU time on the reference VM in a fast phase: costs are
// stated for a host on which the probe takes this long.
constexpr double kReferenceProbeMs = 0.35;

// A cost: `cpu_ms` scaled to the reference host speed by the probe's CPU
// time `probe_ms`, measured on the same host at the same time.
inline double CostMs(double cpu_ms, double probe_ms) {
  return probe_ms > 0 ? cpu_ms * kReferenceProbeMs / probe_ms : 0.0;
}

// Sizes of everything the set-up generates. The self-test shrinks them.
struct Scale {
  int fleet_images = 40;       // images ingested into the fleet
  int filler_packages = 40;    // vendor packages per fleet image
  int holdout_images = 8;      // images the TopK queries are drawn from
  int arrival_packages = 10;   // vendor packages per arriving image
  int train_packages = 8;      // training corpus packages (x 4 ISAs)
  int train_pairs = 400;       // SGD pair budget, CVE pairs included
  int setups = 2;              // set-ups per run; setup_s is their median
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale;
  std::string serve_bin;
  std::string work_dir;
};

// Named samples recorded by the benchmark's spans: durations in the unit
// the name carries, or counts.
class Samples {
 public:
  void Add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  void Append(const std::string& name, const std::vector<double>& values) {
    auto& into = values_[name];
    into.insert(into.end(), values.begin(), values.end());
  }
  const std::vector<double>& Get(const std::string& name) const;
  double Mean(const std::string& name) const;  // 0 with no samples

 private:
  std::map<std::string, std::vector<double>> values_;
};

// Linear-interpolated percentile (q in [0, 100]) of unsorted values; 0 for
// an empty set.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// One CVE-library query: a vulnerable or patched function built for an ISA.
struct CveQuery {
  std::string cve;
  bool patched = false;
  asteria::core::FunctionFeature feature;
};

// A running asteria-serve child process.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Spawns the daemon (output to `log_path`) and waits until it answers a
  // ping on `socket`.
  bool Start(const std::string& bin, const std::vector<std::string>& args,
             const std::string& socket, const std::string& log_path,
             std::string* error);
  // Peak resident set (VmHWM) in KiB, 0 if unreadable.
  std::uint64_t PeakRssKb() const;
  // CPU time in ms the daemon has used so far, exited threads included;
  // 0 if unreadable.
  double CpuMs() const;
  // Shutdown frame, then waits for exit (SIGKILL after a grace period).
  bool Stop(std::string* error);
  bool running() const { return pid_ > 0; }

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

// Everything one set-up produces.
struct Fleet {
  std::unique_ptr<asteria::core::AsteriaModel> model;
  double threshold = 0.0;  // Youden's J on held-out training pairs
  double validation_auc = 0.0;
  asteria::firmware::FirmwareCorpus corpus;  // fleet images + ground truth
  std::vector<asteria::core::FunctionFeature> queries;  // held-out TopK pool
  std::vector<CveQuery> cve;                            // Table IV library
  std::string dir;       // this set-up's directory
  std::string drop_dir;  // .fw files of the fleet
  std::string index_dir;
  std::string manifest;
  std::string weights;
  std::string socket;
  std::unique_ptr<Daemon> daemon;
};

// Runs one full set-up into `dir`, recording its spans into `samples`.
// `daemon_args` are appended to the asteria-serve command line.
bool SetUp(const Options& options, const std::string& dir,
           const std::vector<std::string>& daemon_args, Fleet* fleet,
           Samples* samples, std::string* error);

// Generates `count` images from `seed` with `packages` vendor packages
// each (the firmware module's generator, so planted CVE software included).
asteria::firmware::FirmwareCorpus GenerateImages(int count, int packages,
                                                 std::uint64_t seed);

// Path of fleet image `image`'s drop file.
std::string DropFile(const std::string& drop_dir, std::size_t image);

// File helpers.
bool WriteFile(const std::string& path, const std::vector<std::uint8_t>& bytes,
               std::string* error);
bool MakeDirs(const std::string& path, std::string* error);
void RemoveTree(const std::string& path);

}  // namespace fleetbench
