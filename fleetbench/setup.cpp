// Set-up: fleet generation, CVE library, training, threshold, ingest, daemon.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bench.h"
#include "compiler/compile.h"
#include "dataset/corpus.h"
#include "decompiler/decompile.h"
#include "eval/roc.h"
#include "firmware/vulnlib.h"
#include "ingest/ingest.h"
#include "minic/parser.h"
#include "minic/sema.h"
#include "serve/client.h"
#include "util/rng.h"

namespace fleetbench {

using namespace asteria;

namespace {

// The model is trained from a fixed seed on every run, so every workload
// seed is measured against the same score distribution.
constexpr std::uint64_t kTrainSeed = 20210621;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Compiles the whole CVE library (vulnerable and patched) for every ISA.
bool BuildCveLibrary(std::vector<CveQuery>* out, Samples* samples,
                     std::string* error) {
  for (const firmware::VulnSpec& spec : firmware::VulnLibrary()) {
    for (const bool patched : {false, true}) {
      minic::Program program;
      const std::string& source =
          patched ? spec.patched_source : spec.vulnerable_source;
      if (!minic::Parse(source, &program, error) ||
          !minic::Check(program, error)) {
        *error = spec.cve + ": " + *error;
        return false;
      }
      for (int isa = 0; isa < binary::kNumIsas; ++isa) {
        const auto start = Clock::now();
        auto compiled = compiler::CompileProgram(
            program, static_cast<binary::Isa>(isa), spec.software);
        samples->Add("compiler.compile_program_ms",
                     MillisBetween(start, Clock::now()));
        const int fn = compiled.ok
                           ? compiled.module.FindFunction(spec.function)
                           : -1;
        if (fn < 0) {
          *error = spec.cve + ": compile failed: " + compiled.error;
          return false;
        }
        const auto decompiled =
            decompiler::DecompileFunction(compiled.module, fn);
        CveQuery query;
        query.cve = spec.cve;
        query.patched = patched;
        query.feature.name = spec.cve + (patched ? "/patched/" : "/vuln/") +
                             std::to_string(isa);
        query.feature.tree = ast::ToLeftChildRightSibling(decompiled.tree);
        query.feature.callee_count = decompiled.callee_count;
        out->push_back(std::move(query));
      }
    }
  }
  return true;
}

// Trains `model` on a fixed budget of cross-ISA pairs (corpus pairs plus
// the CVE library's own cross-ISA pairs, as bench_table4_vuln_search does)
// and derives the sweep threshold by Youden's J on held-out pairs.
void TrainModel(const Scale& scale, const std::vector<CveQuery>& cve,
                core::AsteriaModel* model, double* threshold, double* auc,
                Samples* samples) {
  dataset::CorpusConfig config;
  config.packages = scale.train_packages;
  config.seed = kTrainSeed;
  const dataset::Corpus corpus = dataset::BuildCorpus(config);
  util::Rng rng(kTrainSeed);
  std::vector<dataset::CorpusPair> train;
  std::vector<dataset::CorpusPair> test;
  dataset::SplitPairs(dataset::MakeMixedPairs(corpus, rng, 0), rng, &train,
                      &test);

  struct Pair {
    const ast::BinaryAst* a;
    const ast::BinaryAst* b;
    bool homologous;
  };
  std::vector<Pair> pairs;
  std::vector<const CveQuery*> vulnerable;
  for (const CveQuery& query : cve) {
    if (!query.patched) vulnerable.push_back(&query);
  }
  // Vulnerable variants come in blocks of kNumIsas per CVE.
  for (std::size_t i = 0; i < vulnerable.size(); ++i) {
    const std::size_t same = (i / binary::kNumIsas) * binary::kNumIsas +
                             (i + 1) % binary::kNumIsas;
    const std::size_t other = (i + binary::kNumIsas) % vulnerable.size();
    pairs.push_back({&vulnerable[i]->feature.tree,
                     &vulnerable[same]->feature.tree, true});
    pairs.push_back({&vulnerable[i]->feature.tree,
                     &vulnerable[other]->feature.tree, false});
  }
  for (std::size_t i = 0;
       static_cast<int>(pairs.size()) < scale.train_pairs && !train.empty();
       ++i) {
    const dataset::CorpusPair& pair = train[i % train.size()];
    pairs.push_back({&corpus.functions[static_cast<std::size_t>(pair.a)].preprocessed,
                     &corpus.functions[static_cast<std::size_t>(pair.b)].preprocessed,
                     pair.homologous});
  }
  pairs.resize(std::min<std::size_t>(pairs.size(),
                                     static_cast<std::size_t>(scale.train_pairs)));
  rng.Shuffle(pairs);
  for (const Pair& pair : pairs) {
    const auto start = Clock::now();
    model->TrainPair(*pair.a, *pair.b, pair.homologous);
    samples->Add("nn.train_pair_ms", MillisBetween(start, Clock::now()));
  }

  // Encode each held-out function once, then score pairs with the fast
  // online head plus calibration (the deployed scoring path).
  std::map<int, nn::Matrix> encodings;
  const auto encoding = [&](int index) -> const nn::Matrix& {
    auto it = encodings.find(index);
    if (it == encodings.end()) {
      it = encodings
               .emplace(index, model->Encode(
                                   corpus.functions[static_cast<std::size_t>(index)]
                                       .preprocessed))
               .first;
    }
    return it->second;
  };
  std::vector<eval::Scored> scored;
  for (const dataset::CorpusPair& pair : test) {
    const auto& a = corpus.functions[static_cast<std::size_t>(pair.a)];
    const auto& b = corpus.functions[static_cast<std::size_t>(pair.b)];
    const double m = model->SimilarityFromEncodings(encoding(pair.a),
                                                    encoding(pair.b));
    scored.emplace_back(
        core::CalibratedSimilarity(m, a.callee_count, b.callee_count),
        pair.homologous);
  }
  const eval::RocResult roc = eval::ComputeRoc(scored);
  *threshold = eval::YoudenThreshold(roc);
  *auc = roc.auc;
}

bool PingOnce(const std::string& socket) {
  serve::Client client;
  std::string error;
  return client.Connect(socket, &error, 2) && client.Ping(&error);
}

}  // namespace

double ThreadCpuMs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

std::string DropFile(const std::string& drop_dir, std::size_t image) {
  char name[32];
  std::snprintf(name, sizeof(name), "/img-%05zu.fw", image);
  return drop_dir + name;
}

firmware::FirmwareCorpus GenerateImages(int count, int packages,
                                        std::uint64_t seed) {
  firmware::FirmwareCorpusConfig config;
  config.images = count;
  config.seed = seed;
  config.filler_packages_per_image = packages;
  return firmware::BuildFirmwareCorpus(config);
}

bool WriteFile(const std::string& path, const std::vector<std::uint8_t>& bytes,
               std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

bool MakeDirs(const std::string& path, std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    *error = "cannot create " + path + ": " + ec.message();
    return false;
  }
  return true;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

// -- Daemon ------------------------------------------------------------------

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

bool Daemon::Start(const std::string& bin, const std::vector<std::string>& args,
                   const std::string& socket, const std::string& log_path,
                   std::string* error) {
  socket_ = socket;
  std::vector<std::string> argv_storage = {bin};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::execv(bin.c_str(), argv.data());
    ::_exit(127);
  }
  pid_ = pid;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "asteria-serve exited during start-up (see " + log_path + ")";
      return false;
    }
    if (PingOnce(socket_)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  *error = "asteria-serve did not answer a ping within 30 s";
  return false;
}

std::uint64_t Daemon::PeakRssKb() const {
  if (pid_ <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

double Daemon::CpuMs() const {
  clockid_t clock{};
  timespec ts{};
  if (pid_ <= 0 || ::clock_getcpuclockid(pid_, &clock) != 0 ||
      ::clock_gettime(clock, &ts) != 0) {
    return 0.0;
  }
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

bool Daemon::Stop(std::string* error) {
  if (pid_ <= 0) return true;
  serve::Client client;
  std::string ignored;
  if (client.Connect(socket_, &ignored, 5)) client.Shutdown(&ignored);
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  int status = 0;
  while (Clock::now() < deadline) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return true;
      *error = "asteria-serve exited abnormally";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
  *error = "asteria-serve did not stop after a shutdown frame";
  return false;
}

// -- Set-up ------------------------------------------------------------------

bool SetUp(const Options& options, const std::string& dir,
           const std::vector<std::string>& daemon_args, Fleet* fleet,
           Samples* samples, std::string* error) {
  const Scale& scale = options.scale;
  const auto setup_start = Clock::now();
  fleet->dir = dir;
  fleet->drop_dir = dir + "/drop";
  fleet->index_dir = dir + "/index";
  fleet->weights = dir + "/model.weights";
  fleet->socket = dir + "/serve.sock";
  if (!MakeDirs(fleet->drop_dir, error)) return false;

  // Fleet and held-out query images, both from the workload seed.
  auto start = Clock::now();
  fleet->corpus = GenerateImages(scale.fleet_images, scale.filler_packages,
                                 util::Rng::DeriveSeed(options.seed, 1));
  const firmware::FirmwareCorpus holdout = GenerateImages(
      scale.holdout_images, scale.filler_packages,
      util::Rng::DeriveSeed(options.seed, 2));
  fleet->queries.clear();
  for (const firmware::FirmwareFunction& fn : holdout.functions) {
    fleet->queries.push_back(fn.feature);
  }
  samples->Add("setup.fleet_build_s", SecondsSince(start));
  if (fleet->corpus.unpack_failures > 0 || fleet->queries.empty()) {
    *error = "fleet generation failed";
    return false;
  }

  // CVE library, model, threshold.
  fleet->cve.clear();
  if (!BuildCveLibrary(&fleet->cve, samples, error)) return false;
  fleet->model = std::make_unique<core::AsteriaModel>(core::AsteriaConfig{});
  TrainModel(scale, fleet->cve, fleet->model.get(), &fleet->threshold,
             &fleet->validation_auc, samples);
  if (!fleet->model->Save(fleet->weights)) {
    *error = "cannot save weights to " + fleet->weights;
    return false;
  }

  // Drop files, ingested one by one.
  start = Clock::now();
  ingest::IngestConfig config;
  config.index_dir = fleet->index_dir;
  ingest::IngestService service(*fleet->model, config);
  if (!service.Open(error)) return false;
  ingest::IngestStats stats;
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < fleet->corpus.images.size(); ++i) {
    paths.push_back(DropFile(fleet->drop_dir, i));
    if (!WriteFile(paths.back(), firmware::Pack(fleet->corpus.images[i]), error)) {
      return false;
    }
  }
  ::sync();  // the drop files' writeback must not land inside an ingest
  for (const std::string& path : paths) {
    const auto image_start = Clock::now();
    const double cpu_start = ThreadCpuMs();
    if (!service.IngestFile(path, &stats, error)) return false;
    const double cpu_ms = ThreadCpuMs() - cpu_start;
    samples->Add("setup.ingest_image_ms", MillisBetween(image_start, Clock::now()));
    samples->Add("setup.ingest_cpu_ms", cpu_ms);
    samples->Add("setup.ingest_cost_ms", CostMs(cpu_ms, ProbeCpuMs()));
  }
  samples->Add("setup.ingest_s", SecondsSince(start));
  fleet->manifest = service.manifest_path();
  if (stats.images_published != static_cast<int>(fleet->corpus.images.size())) {
    *error = "fleet ingest published " +
             std::to_string(stats.images_published) + " of " +
             std::to_string(fleet->corpus.images.size()) + " images";
    return false;
  }

  // The daemon over the manifest.
  start = Clock::now();
  std::vector<std::string> args = {
      "--socket=" + fleet->socket, "--index=" + fleet->manifest,
      "--weights=" + fleet->weights, "--workers=2", "--threads=1",
      "--queue=4096", "--log_level=warn"};
  args.insert(args.end(), daemon_args.begin(), daemon_args.end());
  fleet->daemon = std::make_unique<Daemon>();
  if (!fleet->daemon->Start(options.serve_bin, args, fleet->socket,
                            dir + "/serve.log", error)) {
    return false;
  }
  samples->Add("setup.daemon_ready_s", SecondsSince(start));
  samples->Add("setup_s", SecondsSince(setup_start));
  return true;
}

}  // namespace fleetbench
