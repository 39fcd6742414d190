// perfbench_spawn — runs one command and reports what it cost, as one JSON line on
// stdout:
//
//   perfbench_spawn -- PROGRAM ARG...
//   {"exit": 0, "wall_s": 1.234, "user_s": 1.1, "sys_s": 0.05,
//    "maxrss_kb": 47104}
//
// The child's stdout goes to /dev/null; its stderr is inherited.
//
// Why a launcher of its own: Linux keeps a process's RSS high-water mark
// (ru_maxrss) across execve, and a forked child starts from a copy of its
// parent's address space. A tool forked straight from a Python harness
// therefore reports at least the interpreter's footprint. This program is
// small, so the child it forks starts from a few hundred KB and the
// reported high-water mark is the tool's own. The wall time is taken
// around fork..wait4 only, so it excludes the harness as well.
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <ctime>

namespace {

double Now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

int Usage() {
  std::fprintf(stderr, "usage: perfbench_spawn -- PROGRAM ARG...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3 || std::strcmp(argv[1], "--") != 0) return Usage();
  char** command = argv + 2;

  const double start = Now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench_spawn: fork");
    return 2;
  }
  if (pid == 0) {
    const int fd = open("/dev/null", O_WRONLY);
    if (fd < 0 || dup2(fd, STDOUT_FILENO) < 0) _exit(126);
    close(fd);
    execvp(command[0], command);
    std::perror("perfbench_spawn: exec");
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("perfbench_spawn: wait4");
    return 2;
  }
  const double wall = Now() - start;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  std::printf(
      "{\"exit\": %d, \"wall_s\": %.6f, \"user_s\": %.6f, \"sys_s\": %.6f, "
      "\"maxrss_kb\": %ld}\n",
      code, wall, Seconds(usage.ru_utime), Seconds(usage.ru_stime),
      usage.ru_maxrss);
  return 0;
}
