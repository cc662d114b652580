#include "src/runtime/shard_runner.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace wdmlat::runtime {

std::string SelfExecutable() {
  char buffer[4096];
  ssize_t n = -1;
  do {
    n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) {
    return "";
  }
  buffer[n] = '\0';
  return std::string(buffer);
}

namespace {

void FillFromStatus(int status, ShardProcessResult* result) {
  if (WIFEXITED(status)) {
    result->exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result->signaled = true;
    result->exit_code = WTERMSIG(status);
  } else {
    result->error = "child neither exited nor was signaled";
  }
}

void Reap(pid_t pid, ShardProcessResult* result) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      result->error = std::string("waitpid failed: ") + std::strerror(errno);
      return;
    }
  }
  FillFromStatus(status, result);
}

}  // namespace

bool SpawnShardProcess(const ShardProcess& process, pid_t* pid, std::string* error) {
  if (process.argv.empty()) {
    *error = "shard process has an empty argv";
    return false;
  }
  std::vector<char*> argv;
  argv.reserve(process.argv.size() + 1);
  for (const std::string& arg : process.argv) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  const pid_t child = ::fork();
  if (child < 0) {
    *error = std::string("fork failed: ") + std::strerror(errno);
    return false;
  }
  if (child == 0) {
    ::execv(argv[0], argv.data());
    // Only reached when execv itself failed; _exit keeps the child from
    // running the parent's atexit/stdio state.
    ::_exit(127);
  }
  *pid = child;
  return true;
}

bool PollShardProcess(pid_t pid, ShardProcessResult* result) {
  int status = 0;
  pid_t done = -1;
  do {
    done = ::waitpid(pid, &status, WNOHANG);
  } while (done < 0 && errno == EINTR);
  if (done == 0) {
    return false;  // still running
  }
  if (done < 0) {
    result->error = std::string("waitpid failed: ") + std::strerror(errno);
    return true;
  }
  FillFromStatus(status, result);
  return true;
}

void KillShardProcess(pid_t pid, ShardProcessResult* result) {
  // ESRCH just means the child already exited; the reap below collects it
  // either way (the parent has not waited yet, so the zombie persists).
  (void)::kill(pid, SIGKILL);
  Reap(pid, result);
}

}  // namespace wdmlat::runtime
