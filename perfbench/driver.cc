// perfbench driver: times the served partial/merge engine end to end and
// per layer, on seeded MISR-like bucket files, through the public
// ClusterService API (LocalService in-process, RemoteService against a
// spawned pmkm_serve daemon). perfbench/run.py builds and runs it; see
// perfbench/README.md for the workloads, metrics and layer map.
//
//   perfbench_driver --workload=paper_cells --seed=1 --seconds=15
//       --trace=0 --work_dir=.bench_work/x [--trace_out=trace.json]
//
// The last line of stdout is "PERFBENCH_REPORT <json>": host block,
// every metric with unit and sample count, output-check verdicts, the
// model digest. The process exits 1 when any job failed or any output
// check failed.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/kernels/kernel.h"
#include "cluster/metrics.h"
#include "common/flags.h"
#include "common/rng.h"
#include "data/generator.h"
#include "data/io.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "serve/local_service.h"
#include "serve/protocol.h"
#include "serve/remote_service.h"

namespace pmkm {
namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using Models = std::map<GridCellId, CellClustering>;

constexpr uint64_t kAwaitTimeoutMs = 120000;
constexpr int kSetupRepeats = 5;
// Host-parallelism probe: a run whose spin threads get less than this
// share of nproc × single-thread throughput is marked invalid.
constexpr double kMinParallelEfficiency = 0.75;
// One paper_cells job on a 4-vCPU x86-64 VM takes ~4 s; the probe
// spins that long so it sees what a job sees.
constexpr double kProbeSeconds = 4.0;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  std::vector<size_t> cell_points;  // points per cell, in path order
  int64_t k = 40;
  int64_t restarts = 10;
  bool served = false;
  bool checkpoint = false;
};

std::optional<Workload> FindWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "paper_cells") {
    // The paper's configuration: 16 cells x 20k points, k=40, R=10. With
    // the default 512 KiB budget the planner picks 2,730-point chunks and
    // 3 partial clones on a 4-core host.
    w.cell_points.assign(16, 20000);
  } else if (name == "served_small_jobs") {
    // Small jobs through pmkm_serve: engine time ~0.2 s, the rest is the
    // serve layer (admission, AwaitJob polling, wire, model codec).
    w.cell_points.assign(4, 2000);
    w.served = true;
  } else if (name == "skewed_cells_ckpt") {
    // 256 cells with a seed-independent size layout: every 16th cell from
    // the second holds 16,000 points, the rest 1,000. The planner probes
    // only the first (small) bucket and caps clones per cell, so this
    // job runs on one partial clone; the journal adds a write per cell.
    for (size_t i = 0; i < 256; ++i) {
      w.cell_points.push_back(i % 16 == 1 ? 16000 : 1000);
    }
    w.k = 8;
    w.restarts = 2;
    w.checkpoint = true;
  } else {
    return std::nullopt;
  }
  return w;
}

// ---------------------------------------------------------------------------
// Small statistics helpers

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Highest percentile of a fixed ladder that has at least ten samples
// beyond it; nullopt when the sample is too small for any of them.
std::optional<double> TailPercentile(size_t n) {
  std::optional<double> best;
  for (double p : {75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) best = p;
  }
  return best;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
  std::string note;
};

// ---------------------------------------------------------------------------
// Host block

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

// Spins for `seconds` of wall time and returns the iterations done.
uint64_t Spin(double seconds) {
  const Clock::time_point start = Clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  uint64_t iterations = 0;
  while (Since(start) < seconds) {
    for (int i = 0; i < 4096; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    iterations += 4096;
  }
  static std::atomic<uint64_t> sink{0};
  sink.fetch_xor(x, std::memory_order_relaxed);
  return iterations;
}

struct ScalingProbe {
  size_t threads = 0;
  double seconds = 0.0;
  double solo_mops = 0.0;   // one thread's spin rate, M iterations/s
  double efficiency = 0.0;  // parallel throughput / (threads x solo)
};

ScalingProbe ProbeScaling(size_t threads) {
  ScalingProbe probe;
  probe.threads = threads;
  probe.seconds = kProbeSeconds;
  constexpr double kSoloSeconds = 0.5;
  const double solo_rate =
      static_cast<double>(Spin(kSoloSeconds)) / kSoloSeconds;
  probe.solo_mops = solo_rate / 1e6;
  std::vector<uint64_t> counts(threads, 0);
  {
    std::vector<std::jthread> spinners;
    for (size_t t = 0; t < threads; ++t) {
      spinners.emplace_back([&counts, t] { counts[t] = Spin(kProbeSeconds); });
    }
  }
  double parallel_rate = 0.0;
  for (uint64_t c : counts) {
    parallel_rate += static_cast<double>(c) / kProbeSeconds;
  }
  probe.efficiency =
      parallel_rate / (static_cast<double>(threads) * solo_rate);
  return probe;
}

JsonValue HostJson(const ScalingProbe& probe) {
  JsonValue host = JsonValue::Object();
  host.Set("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
  host.Set("cpu_model", CpuModel());
  host.Set("isa", HostIsaDescription());
  host.Set("kernel", GetKernel(KernelKind::kAuto).name());
  host.Set("compiler", PERFBENCH_COMPILER);
  host.Set("build_type", PERFBENCH_BUILD_TYPE);
  host.Set("cxx_flags", PERFBENCH_CXX_FLAGS);
  JsonValue p = JsonValue::Object();
  p.Set("threads", static_cast<int64_t>(probe.threads));
  p.Set("seconds", probe.seconds);
  p.Set("solo_mops", probe.solo_mops);
  p.Set("efficiency", probe.efficiency);
  host.Set("scaling_probe", std::move(p));
  host.Set("valid", probe.efficiency >= kMinParallelEfficiency);
  return host;
}

// ---------------------------------------------------------------------------
// Process accounting (the process that executes jobs: this one, or the
// daemon)

double SelfCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double ProcCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  // Fields after the command: state(3) ... utime(14) stime(15).
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// Peak RSS (VmHWM) over the life of the process so far; pid 0 = this one.
double PeakRssMib(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// The pmkm_serve daemon, spawned and always reaped

class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  Status Start(const std::string& endpoint, const std::string& log_path) {
    // Everything the child needs is built before fork(): only
    // async-signal-safe calls may run between fork and exec.
    const std::string endpoint_flag = "--endpoint=" + endpoint;
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) return Status::Internal("fork failed");
    if (pid_ == 0) {
      // Never outlive the driver, even if it is killed.
      prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (getppid() != parent) _exit(127);
      const int fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        close(fd);
      }
      execl(PERFBENCH_SERVE_BIN, PERFBENCH_SERVE_BIN, endpoint_flag.c_str(),
            "--workers=1", static_cast<char*>(nullptr));
      _exit(127);
    }
    const Clock::time_point start = Clock::now();
    while (Since(start) < 20.0) {
      std::ifstream in(log_path);
      std::string log((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
      if (log.find("listening on") != std::string::npos) return Status::OK();
      int wstatus = 0;
      if (waitpid(pid_, &wstatus, WNOHANG) == pid_) {
        pid_ = -1;
        return Status::Internal("pmkm_serve exited during start-up: " + log);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return Status::DeadlineExceeded("pmkm_serve did not start in 20 s");
  }

  pid_t pid() const { return pid_; }

  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const Clock::time_point start = Clock::now();
    int wstatus = 0;
    while (waitpid(pid_, &wstatus, WNOHANG) == 0) {
      if (Since(start) > 10.0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &wstatus, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

// ---------------------------------------------------------------------------
// Inputs and output checks

struct Inputs {
  std::vector<std::string> paths;            // absolute, path order
  std::map<GridCellId, size_t> cell_points;  // expected input per cell
  uint64_t total_points = 0;
};

// Cell i's scene mixture (the first half of GenerateMisrLikeCell) is fixed
// by its index; the workload seed draws the points (the second half). The
// same seed always writes the same bucket bytes, and another seed draws a
// new sample from cells of the same shape.
Result<Inputs> WriteInputs(const Workload& w, uint64_t seed,
                           const fs::path& dir) {
  constexpr uint64_t kSceneSeed = 0x5eed5ce7e0000000ULL;
  Inputs inputs;
  fs::create_directories(dir / "buckets");
  for (size_t i = 0; i < w.cell_points.size(); ++i) {
    Rng scene_rng(kSceneSeed + i);
    const GaussianMixtureGenerator scene =
        MakeMisrLikeCell(MisrCellSpec{}, &scene_rng);
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + i);
    GridBucket bucket;
    bucket.cell = GridCellId{static_cast<int32_t>(i / 16),
                             static_cast<int32_t>(i % 16)};
    bucket.points = scene.Sample(w.cell_points[i], &rng);
    const fs::path path =
        fs::absolute(dir / "buckets" / (bucket.cell.ToString() + ".pmkb"));
    PMKM_RETURN_NOT_OK(WriteGridBucket(path.string(), bucket));
    inputs.paths.push_back(path.string());
    inputs.cell_points[bucket.cell] = w.cell_points[i];
    inputs.total_points += w.cell_points[i];
  }
  return inputs;
}

// Every input cell has a model of k finite centroids whose weights sum to
// the cell's point count.
Status CheckModels(const Models& models, const Inputs& inputs, size_t k) {
  if (models.size() != inputs.cell_points.size()) {
    return Status::Internal("expected " +
                            std::to_string(inputs.cell_points.size()) +
                            " cell models, got " +
                            std::to_string(models.size()));
  }
  for (const auto& [cell, points] : inputs.cell_points) {
    auto it = models.find(cell);
    if (it == models.end()) {
      return Status::Internal("no model for " + cell.ToString());
    }
    const ClusteringModel& m = it->second.model;
    if (m.k() != k || m.weights.size() != k) {
      return Status::Internal(cell.ToString() + ": model has " +
                              std::to_string(m.k()) + " centroids, want " +
                              std::to_string(k));
    }
    for (double v : m.centroids.values()) {
      if (!std::isfinite(v)) {
        return Status::Internal(cell.ToString() + ": non-finite centroid");
      }
    }
    double weight = 0.0;
    for (double w : m.weights) {
      if (!std::isfinite(w) || w < 0.0) {
        return Status::Internal(cell.ToString() + ": bad centroid weight");
      }
      weight += w;
    }
    if (weight != static_cast<double>(points)) {
      return Status::Internal(cell.ToString() + ": weights sum to " +
                              std::to_string(weight) + ", cell has " +
                              std::to_string(points) + " points");
    }
  }
  return Status::OK();
}

bool SameDoubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Bitwise equality of centroids and weights. EncodeModelSet bytes are not
// compared: they carry merge_seconds, a wall-clock reading.
bool SameModels(const Models& a, const Models& b) {
  if (a.size() != b.size()) return false;
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first ||
        !SameDoubles(ia->second.model.centroids.values(),
                     ib->second.model.centroids.values()) ||
        !SameDoubles(ia->second.model.weights, ib->second.model.weights)) {
      return false;
    }
  }
  return true;
}

// FNV-1a over cell ids, centroids and weights in cell order.
std::string ModelDigest(const Models& models) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [cell, c] : models) {
    mix(&cell.lat_index, sizeof(cell.lat_index));
    mix(&cell.lon_index, sizeof(cell.lon_index));
    const std::vector<double>& cv = c.model.centroids.values();
    mix(cv.data(), cv.size() * sizeof(double));
    mix(c.model.weights.data(), c.model.weights.size() * sizeof(double));
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ---------------------------------------------------------------------------
// One job, closed loop: submit, await, fetch

struct JobSample {
  std::string error;  // empty = the job and its output checks passed
  double job_ms = 0.0;
  double submit_ms = 0.0;
  double await_ms = 0.0;
  double fetch_ms = 0.0;
  double engine_wall_s = 0.0;  // JobInfo::wall_seconds
  uint64_t begin_us = 0;       // recorder clock, traced jobs only
  uint64_t end_us = 0;
  Models models;
  std::optional<StreamRunResult> run;  // in-process jobs only
  uint64_t journal_bytes = 0;
};

uint64_t DirBytes(const fs::path& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// `spans` (nullable) receives the benchmark's own spans around each
// ClusterService call, tagged with the job's run id.
JobSample RunJob(serve::ClusterService* service, serve::LocalService* local,
                 const serve::JobSpec& spec, TraceRecorder* spans) {
  JobSample s;
  if (spans != nullptr) s.begin_us = spans->NowMicros();
  const Clock::time_point t0 = Clock::now();
  Result<uint64_t> id = Status::Internal("not submitted");
  {
    ScopedSpan span(spans, "serve.submit", "bench");
    span.AddArg("run_id", spec.run_id);
    id = service->SubmitJob(spec);
  }
  const Clock::time_point t1 = Clock::now();
  if (!id.ok()) {
    s.error = "submit: " + id.status().ToString();
    return s;
  }
  Result<serve::JobInfo> info = Status::Internal("not awaited");
  {
    ScopedSpan span(spans, "serve.await", "bench");
    span.AddArg("run_id", spec.run_id);
    info = service->AwaitJob(*id, kAwaitTimeoutMs);
  }
  const Clock::time_point t2 = Clock::now();
  if (!info.ok()) {
    s.error = "await: " + info.status().ToString();
    return s;
  }
  if (info->state != serve::JobState::kDone) {
    s.error = std::string("job ended ") + serve::JobStateToString(info->state) +
              ": " + info->status.ToString();
    return s;
  }
  Result<Models> models = Status::Internal("not fetched");
  {
    ScopedSpan span(spans, "serve.fetch", "bench");
    span.AddArg("run_id", spec.run_id);
    models = service->FetchModel(*id);
  }
  const Clock::time_point t3 = Clock::now();
  if (spans != nullptr) {
    s.end_us = spans->NowMicros();
    TraceEvent job;
    job.name = "bench.job";
    job.category = "bench";
    job.start_us = s.begin_us;
    job.dur_us = s.end_us - s.begin_us;
    job.args.emplace_back("run_id", spec.run_id);
    spans->Add(std::move(job));
  }
  if (!models.ok()) {
    s.error = "fetch: " + models.status().ToString();
    return s;
  }
  s.submit_ms = Ms(t0, t1);
  s.await_ms = Ms(t1, t2);
  s.fetch_ms = Ms(t2, t3);
  s.job_ms = Ms(t0, t3);
  s.engine_wall_s = info->wall_seconds;
  s.models = std::move(models).value();
  if (local != nullptr) {
    Result<StreamRunResult> run = local->RunResult(*id);
    if (!run.ok()) {
      s.error = "run result: " + run.status().ToString();
      return s;
    }
    s.run = std::move(run).value();
  }
  if (!spec.engine.checkpoint_dir.empty()) {
    s.journal_bytes = DirBytes(spec.engine.checkpoint_dir);
    std::error_code ec;
    fs::remove_all(spec.engine.checkpoint_dir, ec);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Session: inputs + a running service + the warm-up job's models

std::unique_ptr<serve::LocalService> MakeLocalService(TraceRecorder* trace) {
  serve::LocalServiceOptions options;
  options.num_workers = 1;
  options.trace = trace;
  return std::make_unique<serve::LocalService>(options);
}

struct Session {
  fs::path dir;
  Inputs inputs;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<serve::RemoteService> remote;
  std::unique_ptr<serve::LocalService> local;
  // In-process trace runs alternate jobs between `local` and this
  // recorder-attached service, so one run yields both job times.
  std::unique_ptr<serve::LocalService> traced;
  Models baseline;
  uint64_t jobs = 0;

  serve::ClusterService* service() {
    return remote != nullptr ? static_cast<serve::ClusterService*>(remote.get())
                             : local.get();
  }
  pid_t exec_pid() const { return daemon != nullptr ? daemon->pid() : 0; }

  serve::JobSpec NextSpec(const Workload& w, const std::string& tag) {
    serve::JobSpec spec;
    spec.bucket_paths = inputs.paths;
    spec.engine.k = w.k;
    spec.engine.restarts = w.restarts;
    const std::string id = tag + "-j" + std::to_string(jobs++);
    if (w.checkpoint) {
      // A fresh journal per job, fsync'd after every cell.
      spec.engine.checkpoint_dir = fs::absolute(dir / ("ckpt-" + id)).string();
      spec.engine.checkpoint_sync = 1;
    }
    spec.run_id = id;
    spec.client = "perfbench";
    return spec;
  }

  // Services first (the client disconnects before the daemon stops), then
  // the inputs they read.
  ~Session() {
    traced.reset();
    local.reset();
    remote.reset();
    daemon.reset();
    std::error_code ec;
    if (!dir.empty()) fs::remove_all(dir, ec);
  }
};

Result<std::unique_ptr<Session>> SetUp(const Workload& w, uint64_t seed,
                                       const fs::path& dir, const std::string& tag,
                                       TraceRecorder* trace) {
  auto session = std::make_unique<Session>();
  session->dir = dir;
  PMKM_ASSIGN_OR_RETURN(session->inputs, WriteInputs(w, seed, dir));
  if (w.served) {
    session->daemon = std::make_unique<Daemon>();
    // Relative to the shared working directory: keeps the socket path
    // under the unix-socket length limit wherever the checkout lives.
    const std::string endpoint =
        "unix:" + fs::relative(dir / "serve.sock").string();
    PMKM_RETURN_NOT_OK(
        session->daemon->Start(endpoint, (dir / "daemon.log").string()));
    session->remote = std::make_unique<serve::RemoteService>();
    PMKM_RETURN_NOT_OK(session->remote->Connect(endpoint));
  } else {
    session->local = MakeLocalService(nullptr);
    if (trace != nullptr) session->traced = MakeLocalService(trace);
  }
  JobSample warm = RunJob(session->service(), session->local.get(),
                          session->NextSpec(w, tag + "-warmup"), nullptr);
  if (!warm.error.empty()) return Status::Internal("warm-up job: " + warm.error);
  PMKM_RETURN_NOT_OK(
      CheckModels(warm.models, session->inputs, static_cast<size_t>(w.k)));
  session->baseline = std::move(warm.models);
  return session;
}

// ---------------------------------------------------------------------------
// Per-layer metrics from the trace and StreamRunResult

struct EngineJob {
  StreamRunResult run;
  uint64_t begin_us = 0;
  uint64_t end_us = 0;
  uint64_t journal_bytes = 0;
};

// Length of the union of [start, start+dur) intervals.
double UnionUs(std::vector<std::pair<uint64_t, uint64_t>> spans) {
  std::sort(spans.begin(), spans.end());
  double total = 0.0;
  uint64_t cur_lo = 0;
  uint64_t cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : spans) {
    if (!open || lo > cur_hi) {
      if (open) total += static_cast<double>(cur_hi - cur_lo);
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (open) total += static_cast<double>(cur_hi - cur_lo);
  return total;
}

bool Contains(const TraceEvent& parent, const TraceEvent& child) {
  return child.tid == parent.tid && &child != &parent &&
         child.start_us >= parent.start_us &&
         child.start_us + child.dur_us <= parent.start_us + parent.dur_us;
}

// A span's self time: its duration minus what its child spans (same
// thread, nested interval) cover.
double SelfUs(const TraceEvent& parent, const std::vector<TraceEvent>& events) {
  std::vector<std::pair<uint64_t, uint64_t>> children;
  for (const TraceEvent& e : events) {
    if (Contains(parent, e)) children.emplace_back(e.start_us, e.start_us + e.dur_us);
  }
  return static_cast<double>(parent.dur_us) - UnionUs(std::move(children));
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

struct OpTotals {
  OperatorStats scan;
  OperatorStats partial;
  OperatorStats merge;
};

OpTotals SumOperators(const StreamRunResult& run) {
  OpTotals t;
  for (const OperatorStats& op : run.operator_stats) {
    if (StartsWith(op.name, "partial")) {
      t.partial.MergeFrom(op);
    } else if (StartsWith(op.name, "merge")) {
      t.merge.MergeFrom(op);
    } else {
      t.scan.MergeFrom(op);
    }
  }
  return t;
}

void EngineLayerMetrics(const std::vector<EngineJob>& jobs,
                        const std::vector<TraceEvent>& events,
                        std::vector<Metric>* out) {
  std::vector<double> busy, scan_self, scan_wait, merge_wait, high_water,
      partial_cpu, partial_iters, partial_restarts, merge_iters, partial_share,
      journal, chunk_ms, merge_ms, ckpt_ms;
  const PhysicalPlan plan = jobs.front().run.plan;
  for (const EngineJob& job : jobs) {
    std::vector<TraceEvent> mine;
    for (const TraceEvent& e : events) {
      if (e.category != "bench" && e.start_us >= job.begin_us &&
          e.start_us <= job.end_us) {
        mine.push_back(e);
      }
    }
    const OpTotals ops = SumOperators(job.run);
    const double wall = job.run.wall_seconds;
    busy.push_back(ops.partial.cpu_seconds /
                   (static_cast<double>(job.run.plan.partial_clones) * wall));
    partial_cpu.push_back(ops.partial.cpu_seconds);
    partial_iters.push_back(static_cast<double>(ops.partial.kmeans_iterations));
    partial_restarts.push_back(static_cast<double>(ops.partial.kmeans_restarts));
    merge_iters.push_back(static_cast<double>(ops.merge.kmeans_iterations));
    scan_wait.push_back(ops.scan.queue_wait_seconds * 1e3);
    merge_wait.push_back(ops.merge.queue_wait_seconds * 1e3);
    for (const QueueStatsSnapshot& q : job.run.queues) {
      if (q.name == "points") {
        high_water.push_back(static_cast<double>(q.high_water_mark));
      }
    }
    journal.push_back(static_cast<double>(job.journal_bytes));
    double bucket_us = 0.0;
    std::vector<std::pair<uint64_t, uint64_t>> partial_spans;
    for (const TraceEvent& e : mine) {
      if (e.name == "scan.bucket") {
        bucket_us += static_cast<double>(e.dur_us);
      } else if (e.name == "partial.chunk") {
        chunk_ms.push_back(static_cast<double>(e.dur_us) / 1e3);
        partial_spans.emplace_back(e.start_us, e.start_us + e.dur_us);
      } else if (e.name == "merge.cell") {
        merge_ms.push_back(SelfUs(e, mine) / 1e3);
      } else if (e.name == "checkpoint.cell") {
        ckpt_ms.push_back(static_cast<double>(e.dur_us) / 1e3);
      }
    }
    // Scan self time: reading and decoding buckets, less the time its
    // pushes were blocked on a full points queue.
    scan_self.push_back(bucket_us / 1e3 - ops.scan.queue_wait_seconds * 1e3);
    partial_share.push_back(UnionUs(std::move(partial_spans)) / (wall * 1e6));
  }
  const size_t n = jobs.size();
  auto add = [&](const char* name, const std::vector<double>& v,
                 const char* unit) {
    out->push_back({name, Median(v), unit, v.size(), ""});
  };
  out->push_back({"stream.partial_clones",
                  static_cast<double>(plan.partial_clones), "count", n, ""});
  out->push_back({"stream.chunk_points", static_cast<double>(plan.chunk_points),
                  "points", n, ""});
  add("stream.partial.busy_frac", busy, "ratio");
  add("stream.scan.self_ms", scan_self, "ms");
  add("stream.scan.queue_wait_ms", scan_wait, "ms");
  add("stream.merge.queue_wait_ms", merge_wait, "ms");
  add("stream.points_queue.high_water", high_water, "count");
  add("cluster.partial.chunk_ms_p50", chunk_ms, "ms");
  add("cluster.partial.cpu_s", partial_cpu, "s");
  add("cluster.partial.iterations", partial_iters, "count");
  add("cluster.partial.restarts", partial_restarts, "count");
  add("cluster.partial.wall_share", partial_share, "ratio");
  add("cluster.merge.cell_ms_p50", merge_ms, "ms");
  add("cluster.merge.iterations", merge_iters, "count");
  add("checkpoint.cell_ms_p50", ckpt_ms, "ms");
  add("checkpoint.journal_bytes", journal, "bytes");
}

// ReadGridBucket (checksum included) over every input bucket, repeated
// until at least `min_seconds` have passed.
Metric ReadThroughput(const Inputs& inputs, TraceRecorder* spans,
                      double min_seconds, uint64_t* bytes_per_pass,
                      Status* error) {
  *bytes_per_pass = 0;
  for (const std::string& p : inputs.paths) *bytes_per_pass += fs::file_size(p);
  ScopedSpan span(spans, "bench.data.read", "bench");
  size_t passes = 0;
  const Clock::time_point start = Clock::now();
  do {
    for (const std::string& p : inputs.paths) {
      Result<GridBucket> bucket = ReadGridBucket(p);
      if (!bucket.ok()) {
        *error = bucket.status();
        return {};
      }
    }
    ++passes;
  } while (Since(start) < min_seconds);
  const double mib = static_cast<double>(*bytes_per_pass * passes) / (1 << 20);
  return {"data.read_mib_per_s", mib / Since(start), "MiB/s", passes, ""};
}

// AssignBlock of one chunk's points against 40 of those points as
// centroids, on the kernel kAuto resolves to.
Result<Metric> AssignThroughput(const Inputs& inputs, size_t chunk_points,
                                TraceRecorder* spans) {
  const auto largest = std::max_element(
      inputs.cell_points.begin(), inputs.cell_points.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  const size_t index = static_cast<size_t>(
      std::distance(inputs.cell_points.begin(), largest));
  PMKM_ASSIGN_OR_RETURN(GridBucket bucket, ReadGridBucket(inputs.paths[index]));
  const size_t n = std::min(chunk_points, bucket.points.size());
  constexpr size_t kCentroids = 40;
  const Dataset chunk = bucket.points.Slice(0, n);
  CentroidBlock block;
  block.Load(chunk.data(), std::min(kCentroids, n), chunk.dim());
  std::vector<uint32_t> assign(n);
  std::vector<double> dist2(n);
  const DistanceKernel& kernel = GetKernel(KernelKind::kAuto);
  ScopedSpan span(spans, "bench.cluster.assign", "bench");
  size_t reps = 0;
  const Clock::time_point start = Clock::now();
  do {
    kernel.AssignBlock(chunk.data(), n, chunk.dim(), block, assign.data(),
                       dist2.data());
    ++reps;
  } while (Since(start) < 0.3);
  const double mpoints = static_cast<double>(n * reps) / 1e6;
  return Metric{"cluster.assign.mpoints_per_s", mpoints / Since(start),
                "Mpoints/s", reps, ""};
}

// EncodeModelSet + DecodeModelSet round trips on one job's models.
Result<std::pair<Metric, Metric>> CodecCost(const Models& models,
                                            TraceRecorder* spans) {
  std::vector<double> us;
  size_t bytes = 0;
  const Clock::time_point start = Clock::now();
  while (us.size() < 20 || Since(start) < 0.2) {
    ScopedSpan span(spans, "bench.serve.codec", "bench");
    const Clock::time_point t0 = Clock::now();
    const std::vector<uint8_t> encoded = serve::EncodeModelSet(models);
    PMKM_ASSIGN_OR_RETURN(Models decoded, serve::DecodeModelSet(encoded));
    us.push_back(Ms(t0, Clock::now()) * 1e3);
    bytes = encoded.size();
    if (decoded.size() != models.size()) {
      return Status::Internal("model codec lost cells");
    }
  }
  return std::make_pair(
      Metric{"serve.model_codec_us", Median(us), "us", us.size(), ""},
      Metric{"serve.model_bytes", static_cast<double>(bytes), "bytes", 1, ""});
}

Result<Metric> PingRtt(serve::RemoteService* remote, TraceRecorder* spans) {
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    ScopedSpan span(spans, "bench.serve.ping", "bench");
    const Clock::time_point t0 = Clock::now();
    PMKM_RETURN_NOT_OK(remote->Ping());
    us.push_back(Ms(t0, Clock::now()) * 1e3);
  }
  return Metric{"serve.rpc_rtt_us_p50", Median(us), "us", us.size(), ""};
}

// Adds the trace's job id to every engine span inside a job's window
// (the engine spans carry no run id of their own) and writes the file.
Status WriteTrace(const std::vector<TraceEvent>& events,
                  const std::vector<std::pair<std::string, std::pair<uint64_t, uint64_t>>>& windows,
                  const std::string& path) {
  JsonValue list = JsonValue::Array();
  for (const TraceEvent& e : events) {
    JsonValue j = JsonValue::Object();
    j.Set("name", e.name);
    j.Set("cat", e.category);
    j.Set("ph", "X");
    j.Set("ts", e.start_us);
    j.Set("dur", e.dur_us);
    j.Set("pid", 1);
    j.Set("tid", e.tid);
    JsonValue args = JsonValue::Object();
    for (const auto& [k, v] : e.args) args.Set(k, v);
    if (!args.Has("run_id")) {
      for (const auto& [run_id, window] : windows) {
        if (e.start_us >= window.first && e.start_us <= window.second) {
          args.Set("run_id", run_id);
        }
      }
    }
    j.Set("args", std::move(args));
    list.Append(std::move(j));
  }
  JsonValue root = JsonValue::Object();
  root.Set("traceEvents", std::move(list));
  root.Set("displayTimeUnit", "ms");
  std::ofstream out(path, std::ios::trunc);
  out << root.Dump() << "\n";
  return out ? Status::OK() : Status::IOError("cannot write " + path);
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  int64_t seed = 1;
  int64_t seconds = 10;
  int64_t trace = 0;
  std::string work_dir = ".bench_work/driver";
  std::string trace_out;
};

JsonValue MetricsJson(const std::vector<Metric>& metrics) {
  JsonValue out = JsonValue::Object();
  for (const Metric& m : metrics) {
    JsonValue j = JsonValue::Object();
    j.Set("value", m.value);
    j.Set("unit", m.unit);
    j.Set("samples", static_cast<int64_t>(m.samples));
    if (!m.note.empty()) j.Set("note", m.note);
    out.Set(m.name, std::move(j));
  }
  return out;
}

int Run(const Args& args) {
  const std::optional<Workload> found = FindWorkload(args.workload);
  if (!found) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const Workload& w = *found;
  const bool trace = args.trace != 0;
  const uint64_t seed = static_cast<uint64_t>(args.seed);
  const std::string tag = w.name + "-s" + std::to_string(seed);

  const ScalingProbe probe = ProbeScaling(std::thread::hardware_concurrency());
  JsonValue report = JsonValue::Object();
  report.Set("workload", w.name);
  report.Set("seed", args.seed);
  report.Set("seconds", args.seconds);
  report.Set("trace", trace);
  report.Set("host", HostJson(probe));

  std::vector<std::string> errors;
  auto finish = [&](std::vector<Metric> metrics, uint64_t attempted,
                    uint64_t failed) {
    report.Set("attempted", attempted);
    report.Set("failed", failed);
    report.Set("failed_frac", attempted == 0
                                  ? 1.0
                                  : static_cast<double>(failed) /
                                        static_cast<double>(attempted));
    report.Set("correct", errors.empty() && failed == 0);
    JsonValue errs = JsonValue::Array();
    for (const std::string& e : errors) errs.Append(e);
    report.Set("errors", std::move(errs));
    report.Set("metrics", MetricsJson(metrics));
    for (const std::string& e : errors) std::cerr << "perfbench: " << e << "\n";
    std::cout << "PERFBENCH_REPORT " << report.Dump() << std::endl;
    return errors.empty() && failed == 0 ? 0 : 1;
  };

  TraceRecorder recorder;
  TraceRecorder* rec = trace ? &recorder : nullptr;
  const fs::path work = args.work_dir;

  // Set-up: generate and write the buckets, start the service (and the
  // daemon), run one warm-up job. Repeated and reported as a median.
  std::vector<double> setup_s;
  std::unique_ptr<Session> session;
  const int repeats = trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    session.reset();
    const Clock::time_point start = Clock::now();
    auto made = SetUp(w, seed, work / ("setup" + std::to_string(i)), tag, rec);
    if (!made.ok()) {
      errors.push_back("set-up: " + made.status().ToString());
      return finish({}, 1, 1);
    }
    setup_s.push_back(Since(start));
    session = std::move(made).value();
  }
  report.Set("model_digest", ModelDigest(session->baseline));
  JsonValue setup_list = JsonValue::Array();
  for (double s : setup_s) setup_list.Append(s);
  report.Set("setup_s", std::move(setup_list));

  // Timed closed loop: one client, next job only after the previous
  // reply. Trace runs alternate traced and untraced jobs.
  const pid_t exec_pid = session->exec_pid();
  std::vector<JobSample> jobs;
  uint64_t failed = 0;
  uint64_t points = 0;
  const double cpu0 = w.served ? ProcCpuSeconds(exec_pid) : SelfCpuSeconds();
  const Clock::time_point loop_start = Clock::now();
  do {
    const bool traced = trace && jobs.size() % 2 == 0;
    serve::ClusterService* service = session->service();
    serve::LocalService* local = session->local.get();
    if (traced && session->traced != nullptr) {
      service = local = session->traced.get();
    }
    JobSample s = RunJob(service, local, session->NextSpec(w, tag),
                         traced ? rec : nullptr);
    if (s.error.empty()) {
      const Status st =
          CheckModels(s.models, session->inputs, static_cast<size_t>(w.k));
      if (!st.ok()) {
        s.error = st.ToString();
      } else if (!SameModels(s.models, session->baseline)) {
        s.error = "models differ bitwise from the warm-up job's";
      }
    }
    if (s.error.empty()) {
      points += session->inputs.total_points;
    } else {
      ++failed;
      if (errors.size() < 5) errors.push_back("job: " + s.error);
    }
    s.models.clear();
    const bool ok = s.error.empty();
    jobs.push_back(std::move(s));
    if (!ok) break;  // the run is already incorrect; stop loading it
  } while (Since(loop_start) < static_cast<double>(args.seconds));
  const double loop_s = Since(loop_start);
  const double cpu_s =
      (w.served ? ProcCpuSeconds(exec_pid) : SelfCpuSeconds()) - cpu0;
  const double rss_mib = PeakRssMib(exec_pid);

  // Outside the timed loop: the daemon's models must equal an in-process
  // LocalService run of the same spec.
  std::optional<EngineJob> reference;
  if (w.served) {
    auto local = MakeLocalService(rec);
    JobSample ref = RunJob(local.get(), local.get(),
                           session->NextSpec(w, tag + "-local"), rec);
    if (!ref.error.empty()) {
      errors.push_back("local reference job: " + ref.error);
    } else if (!SameModels(ref.models, session->baseline)) {
      errors.push_back("pmkm_serve models differ from a LocalService run");
      failed = jobs.size();
    } else {
      reference = EngineJob{std::move(*ref.run), ref.begin_us, ref.end_us,
                            ref.journal_bytes};
    }
  }

  double e_pm = 0.0;
  double sse_raw = 0.0;
  for (size_t i = 0; i < session->inputs.paths.size(); ++i) {
    Result<GridBucket> bucket = ReadGridBucket(session->inputs.paths[i]);
    if (!bucket.ok()) {
      errors.push_back("re-reading input: " + bucket.status().ToString());
      break;
    }
    const ClusteringModel& m = session->baseline.at(bucket->cell).model;
    e_pm += m.sse;
    sse_raw += Sse(m.centroids, bucket->points);
  }

  std::vector<double> job_ms, traced_ms, untraced_ms, submit, await, fetch,
      overhead;
  for (const JobSample& s : jobs) {
    if (!s.error.empty()) continue;
    job_ms.push_back(s.job_ms);
    (s.end_us != 0 ? traced_ms : untraced_ms).push_back(s.job_ms);
    if (trace && s.end_us == 0) continue;
    submit.push_back(s.submit_ms);
    await.push_back(s.await_ms);
    fetch.push_back(s.fetch_ms);
    overhead.push_back(s.job_ms - s.engine_wall_s * 1e3);
  }
  const double mpoints = static_cast<double>(points) / 1e6;
  JsonValue job_ms_list = JsonValue::Array();
  for (double ms : job_ms) job_ms_list.Append(ms);
  report.Set("job_ms", std::move(job_ms_list));

  const size_t cells = session->inputs.cell_points.size();
  std::vector<Metric> metrics;
  if (!trace) {
    metrics.push_back(
        {"setup_s", Median(setup_s), "s", setup_s.size(), ""});
    metrics.push_back({"job_ms_p50", Median(job_ms), "ms", job_ms.size(), ""});
    if (const auto p = TailPercentile(job_ms.size())) {
      char name[32];
      std::snprintf(name, sizeof(name), "p%g", *p);
      metrics.push_back({"job_ms_tail", Quantile(job_ms, *p / 100.0), "ms",
                         job_ms.size(), name});
    }
    metrics.push_back(
        {"points_per_s", static_cast<double>(points) / loop_s, "points/s",
         job_ms.size(), ""});
    metrics.push_back({"cpu_s_per_mpoint", mpoints > 0 ? cpu_s / mpoints : 0.0,
                       "s/Mpoint", job_ms.size(),
                       w.served ? "pmkm_serve daemon" : "driver process"});
    metrics.push_back({"peak_rss_mib", rss_mib, "MiB", 1,
                       w.served ? "pmkm_serve daemon" : "driver process"});
    metrics.push_back({"sse_raw", sse_raw, "sse", cells, ""});
    metrics.push_back({"e_pm", e_pm, "sse", cells, "report only: 0 when cells fit one chunk"});
  } else {
    metrics.push_back({"cluster.merge.e_pm", e_pm, "sse", cells, ""});
    std::vector<EngineJob> engine_jobs;
    std::vector<std::pair<std::string, std::pair<uint64_t, uint64_t>>> windows;
    for (JobSample& s : jobs) {
      if (s.error.empty() && s.end_us != 0 && s.run) {
        engine_jobs.push_back(
            EngineJob{std::move(*s.run), s.begin_us, s.end_us, s.journal_bytes});
      }
    }
    if (reference) engine_jobs.push_back(std::move(*reference));
    for (const EngineJob& j : engine_jobs) {
      windows.push_back({j.run.run_id, {j.begin_us, j.end_us}});
    }

    uint64_t bytes_per_job = 0;
    Status read_error;
    metrics.push_back(ReadThroughput(session->inputs, rec, 0.3, &bytes_per_job,
                                     &read_error));
    if (!read_error.ok()) errors.push_back("read: " + read_error.ToString());
    metrics.push_back({"data.bytes_read", static_cast<double>(bytes_per_job),
                       "bytes", 1, "bucket bytes per job"});
    if (engine_jobs.empty()) {
      errors.push_back("no traced engine job completed");
    } else {
      EngineLayerMetrics(engine_jobs, recorder.Events(), &metrics);
      auto assign = AssignThroughput(session->inputs,
                                     engine_jobs.front().run.plan.chunk_points,
                                     rec);
      if (assign.ok()) {
        metrics.push_back(*assign);
      } else {
        errors.push_back("assign: " + assign.status().ToString());
      }
    }
    metrics.push_back({"serve.submit_ms_p50", Median(submit), "ms", submit.size(), ""});
    metrics.push_back({"serve.await_ms_p50", Median(await), "ms", await.size(), ""});
    metrics.push_back({"serve.fetch_ms_p50", Median(fetch), "ms", fetch.size(), ""});
    metrics.push_back({"serve.overhead_ms_p50", Median(overhead), "ms",
                       overhead.size(), "job_ms - JobInfo::wall_seconds"});
    if (session->remote != nullptr) {
      auto rtt = PingRtt(session->remote.get(), rec);
      if (rtt.ok()) {
        metrics.push_back(*rtt);
      } else {
        errors.push_back("ping: " + rtt.status().ToString());
      }
    } else {
      metrics.push_back({"serve.rpc_rtt_us_p50", 0.0, "us", 0, "in-process: no RPC"});
    }
    auto codec = CodecCost(session->baseline, rec);
    if (codec.ok()) {
      metrics.push_back(codec->first);
      metrics.push_back(codec->second);
    } else {
      errors.push_back("codec: " + codec.status().ToString());
    }
    metrics.push_back({"trace.job_ms_p50", Median(traced_ms), "ms", traced_ms.size(),
                       "traced jobs of this run"});
    metrics.push_back({"trace.untraced_job_ms_p50", Median(untraced_ms), "ms",
                       untraced_ms.size(), "untraced jobs of this run"});
    if (!args.trace_out.empty()) {
      const Status st = WriteTrace(recorder.Events(), windows, args.trace_out);
      if (!st.ok()) errors.push_back(st.ToString());
    }
  }
  return finish(std::move(metrics), jobs.size(), failed);
}

}  // namespace
}  // namespace perfbench
}  // namespace pmkm

int main(int argc, char** argv) {
  pmkm::perfbench::Args args;
  pmkm::FlagParser parser;
  parser.SetDescription("perfbench driver: times the served pmkm engine")
      .AddString("workload", &args.workload,
                 "paper_cells | served_small_jobs | skewed_cells_ckpt")
      .AddInt("seed", &args.seed, "input seed")
      .AddInt("seconds", &args.seconds, "length of the timed loop")
      .AddInt("trace", &args.trace, "1 = traced run with per-layer metrics")
      .AddString("work_dir", &args.work_dir, "scratch directory for inputs")
      .AddString("trace_out", &args.trace_out, "trace JSON output (trace=1)");
  const pmkm::Status st = parser.Parse(argc, argv);
  if (st.IsCancelled()) return 0;
  if (!st.ok() || args.seconds < 1 || args.seed < 0) {
    std::cerr << parser.Usage(argv[0]) << st.ToString() << "\n";
    return 2;
  }
  return pmkm::perfbench::Run(args);
}
