// Fleet supervision overhead: the same single-shard population driven
// through runtime::SuperviseFleet (fork()ed worker, liveness heartbeat
// armed, the production poll cadence) against a bare fork + waitpid of the
// identical worker, in cells/sec. Fault tolerance must be close to free when
// nothing faults: the bar is >= 0.95x.
//
// Cells are screening-length but not vacuous: an 8 kHz PIT over 0.4 virtual
// seconds of stress keeps well over 1,000 samples per cell, and the bench
// fails if any cell keeps fewer (a regime where per-cell fixed costs are all
// there is would measure nothing the paper's cells pay).
//
//   WDMLAT_CELLS=256 WDMLAT_CELL_MINUTES=0.00667 WDMLAT_JOBS=1 fleet_throughput

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/lab/fleet.h"
#include "src/runtime/fleet_supervisor.h"

namespace {

using namespace wdmlat;
using Clock = std::chrono::steady_clock;

double EnvDouble(const char* name, double fallback) {
  if (const char* env = std::getenv(name)) {
    const double value = std::atof(env);
    if (value > 0.0) {
      return value;
    }
  }
  return fallback;
}

lab::FleetSpec Population(std::uint64_t cells, double cell_minutes, double pit_hz) {
  lab::FleetSpec spec;
  spec.name = "throughput";
  spec.master_seed = bench::BenchSeed();
  lab::FleetCohort nt;
  nt.name = "nt-mixed";
  nt.os = "nt4";
  nt.workloads = {"office", "web"};
  nt.count = (cells + 1) / 2;
  nt.stress_minutes = cell_minutes;
  nt.warmup_seconds = 0.005;
  nt.pit_hz = pit_hz;
  nt.speed_mhz_lo = 150.0;
  nt.speed_mhz_hi = 450.0;
  lab::FleetCohort w98 = nt;
  w98.name = "98-games";
  w98.os = "win98";
  w98.workloads = {"games"};
  w98.count = cells / 2;
  spec.cohorts = {nt, w98};
  return spec;
}

}  // namespace

int main() {
  // 256 cells make a trial ~1.5 s of wall time, so the one-time end-of-run
  // cost — the supervisor learns of the worker's exit up to one poll
  // interval late — stays well under the bar instead of posing as per-cell
  // watching cost.
  const std::uint64_t cells =
      static_cast<std::uint64_t>(EnvDouble("WDMLAT_CELLS", 256.0));
  const double cell_minutes = EnvDouble("WDMLAT_CELL_MINUTES", 0.4 / 60.0);
  const double pit_hz = EnvDouble("WDMLAT_PIT_HZ", 8000.0);
  const int jobs = bench::BenchJobs();
  const lab::Fleet fleet(Population(cells, cell_minutes, pit_hz));
  if (!fleet.error().empty()) {
    std::fprintf(stderr, "fleet_throughput: %s\n", fleet.error().c_str());
    return 1;
  }

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("wdmlat_fleet_throughput_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  std::printf(
      "fleet_throughput: %llu cells x %.4f virtual minutes, %d job(s)\n"
      "(WDMLAT_CELLS / WDMLAT_CELL_MINUTES / WDMLAT_JOBS to change)\n\n",
      static_cast<unsigned long long>(fleet.cell_count()), cell_minutes, jobs);

  const auto fork_worker = [&](const std::string& out_path, std::uint64_t lo,
                               std::uint64_t hi) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      lab::FleetShardOptions options;
      options.jobs = jobs;
      options.out_path = out_path;
      options.cell_lo = lo;
      options.cell_hi = hi;
      const lab::FleetShardResult result = RunFleetShard(fleet, options);
      std::_Exit(result.ok() ? 0 : 3);
    }
    return pid;
  };
  const std::string plain_path = (dir / "plain_shard.jsonl").string();
  const std::string sup_path = (dir / "sup_shard.jsonl").string();
  bool supervised_failed = false;
  const auto run_plain_trial = [&]() {
    std::filesystem::remove(plain_path);
    const Clock::time_point start = Clock::now();
    const pid_t pid = fork_worker(plain_path, 0, 0);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      supervised_failed = true;
    }
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const auto run_supervised_trial = [&]() {
    std::filesystem::remove(sup_path);
    runtime::FleetSupervisorOptions sup;
    sup.shards = 1;
    sup.cell_count = static_cast<std::size_t>(fleet.cell_count());
    sup.max_parallel = 1;
    sup.shard_timeout_s = 30.0;  // armed: every poll stats the shard file
    sup.shard_path = [&](std::size_t) { return sup_path; };
    sup.cell_seed = [&](std::size_t cell) { return fleet.CellAt(cell).seed; };
    sup.spawn = [&](const runtime::FleetWorkerRequest& request, pid_t* pid,
                    std::string* error) {
      *pid = fork_worker(request.out_path, request.cell_lo,
                         request.cell_hi < fleet.cell_count() ? request.cell_hi : 0);
      if (*pid < 0) {
        *error = "fork failed";
        return false;
      }
      return true;
    };
    const Clock::time_point start = Clock::now();
    const runtime::FleetSupervisorResult result = runtime::SuperviseFleet(sup);
    if (!result.ok()) {
      std::fprintf(stderr, "fleet_throughput: supervised run failed: %s\n",
                   result.error.c_str());
      supervised_failed = true;
    }
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  // Alternating plain/supervised pairs, scored by the median of the per-pair
  // ratios: host load drifts over seconds on a shared machine, and a ratio
  // taken within one pair cancels the drift a ratio of separate medians
  // keeps.
  constexpr int kPairs = 5;
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  std::vector<double> plain_walls;
  std::vector<double> sup_walls;
  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    plain_walls.push_back(run_plain_trial());
    sup_walls.push_back(run_supervised_trial());
    if (supervised_failed) {
      return 1;
    }
    ratios.push_back(plain_walls.back() / sup_walls.back());
  }
  const double plain_seconds = median(plain_walls);
  const double sup_seconds = median(sup_walls);
  const double plain_rate = static_cast<double>(fleet.cell_count()) / plain_seconds;
  const double sup_rate = static_cast<double>(fleet.cell_count()) / sup_seconds;
  const double sup_cost = median(ratios);
  std::printf("\n  %-28s %12s %12s\n", "worker-process path", "median s/5",
              "cells/sec");
  std::printf("  %-28s %12.3f %12.1f\n", "plain fork + waitpid", plain_seconds,
              plain_rate);
  std::printf("  %-28s %12.3f %12.1f\n", "supervised (heartbeat on)", sup_seconds,
              sup_rate);
  std::printf("\n  supervised/plain cells-per-second: %.3fx, median of %d pairs "
              "(bar: >= 0.95x)\n",
              sup_cost, kPairs);


  // Vacuous-regime guard: every cell of the last plain run must keep at
  // least kMinSamples post-warmup samples.
  constexpr std::uint64_t kMinSamples = 1000;
  std::uint64_t records = 0;
  std::uint64_t min_samples = ~std::uint64_t{0};
  {
    std::ifstream shard(plain_path, std::ios::binary);
    std::string line;
    while (std::getline(shard, line)) {
      lab::FleetCellRecord record;
      std::string error;
      if (!lab::FleetRecordFromLine(line, &record, &error)) {
        std::fprintf(stderr, "fleet_throughput: bad shard record: %s\n", error.c_str());
        return 1;
      }
      ++records;
      min_samples = std::min(min_samples, record.samples);
    }
  }
  std::printf("  kept samples/cell: min %llu over %llu cells (bar: >= %llu)\n",
              static_cast<unsigned long long>(min_samples),
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(kMinSamples));

  std::filesystem::remove_all(dir);
  if (sup_cost < 0.95) {
    std::fprintf(stderr,
                 "fleet_throughput: FAIL — heartbeat watching costs more than "
                 "5%% cells/sec\n");
    return 1;
  }
  if (records != fleet.cell_count() || min_samples < kMinSamples) {
    std::fprintf(stderr,
                 "fleet_throughput: FAIL — a cell kept fewer than %llu samples; "
                 "lengthen WDMLAT_CELL_MINUTES\n",
                 static_cast<unsigned long long>(kMinSamples));
    return 1;
  }
  std::printf("  PASS\n");
  return 0;
}
