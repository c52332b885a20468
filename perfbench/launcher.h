// Runs the benchmark's child processes (dice_cli on ingest) from a small
// helper process forked before the benchmark builds any input.
//
// A child forked straight from the benchmark would start with the
// benchmark's resident pages, and Linux carries that high-water mark through
// execve into the child's ru_maxrss. After the benchmark has generated a
// full-table corpus, the child's reported peak would then be at least the
// benchmark's own footprint, and a cut in the program's memory could not show.
// The helper stays as small as the benchmark was when it forked, so the
// child's peak is its own.

#ifndef PERFBENCH_LAUNCHER_H_
#define PERFBENCH_LAUNCHER_H_

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

struct ChildRun {
  int exit_code = -1;       // -signal when killed
  double wall_s = 0;        // fork to reaped, timed in the helper
  double peak_rss_mb = 0;   // the child's ru_maxrss
  double floor_rss_mb = 0;  // the helper's resident set when it forked the child
  std::string error;        // why it could not run
};

class Launcher {
 public:
  Launcher() = default;
  // Tells the helper to exit and waits for it.
  ~Launcher();
  Launcher(const Launcher&) = delete;
  Launcher& operator=(const Launcher&) = delete;

  // Forks the helper. Returns false, with a reason, when it cannot.
  bool Start(std::string* error);

  // Runs argv[0] with `argv`, its stdout and stderr going to `output_path`,
  // and waits for it. The child is killed if the helper dies.
  ChildRun Run(const std::vector<std::string>& argv, const std::string& output_path);

 private:
  pid_t pid_ = -1;
  int fd_ = -1;  // the benchmark's end of a socket pair with the helper
};

}  // namespace perfbench

#endif  // PERFBENCH_LAUNCHER_H_
