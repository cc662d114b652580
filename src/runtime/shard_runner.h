// runtime::ShardRunner — multi-process fan-out for fleet shards.
//
// The orchestrating wdmlat_run re-executes itself (one child per shard,
// bounded parallelism) so every shard gets its own address space: a cell
// that corrupts a heap or trips an abort takes down one shard's worker, not
// the population run — the shard's flushed record prefix survives and a
// re-run resumes it. fork/execv/waitpid only; no shell, no new dependencies.
//
// Spawn/Poll/Kill ShardProcess are non-blocking primitives for a supervisor
// that watches liveness, enforces deadlines and retries — see
// runtime::FleetSupervisor.

#ifndef SRC_RUNTIME_SHARD_RUNNER_H_
#define SRC_RUNTIME_SHARD_RUNNER_H_

#include <sys/types.h>

#include <string>
#include <vector>

namespace wdmlat::runtime {

// One child process: argv[0] is the executable path.
struct ShardProcess {
  std::vector<std::string> argv;
};

struct ShardProcessResult {
  int exit_code = -1;      // child's exit status, or -1 when not exited normally
  bool signaled = false;   // killed by a signal (exit_code holds the signal)
  std::string error;       // spawn/wait failure; empty when the child ran

  bool ok() const { return error.empty() && !signaled && exit_code == 0; }
};

// Absolute path of the current executable (/proc/self/exe), empty on failure.
std::string SelfExecutable();

// fork+execv one process. On success stores the child's pid and returns
// true; on failure fills *error and returns false (no child left behind —
// an execv failure inside the child _exit(127)s and surfaces via wait).
bool SpawnShardProcess(const ShardProcess& process, pid_t* pid, std::string* error);

// Non-blocking wait: returns true when the child was reaped (result filled),
// false while it is still running. EINTR-safe; an unexpected waitpid error
// reaps as an error result (returns true) so callers never spin on a lost pid.
bool PollShardProcess(pid_t pid, ShardProcessResult* result);

// SIGKILL the child and block until it is reaped (EINTR-safe). The result
// records the termination signal like any other signaled exit.
void KillShardProcess(pid_t pid, ShardProcessResult* result);

}  // namespace wdmlat::runtime

#endif  // SRC_RUNTIME_SHARD_RUNNER_H_
