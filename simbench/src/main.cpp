// simbench: run one repetition of one benchmark workload and print its
// record as one JSON line. simbench/run.py drives it, one process per
// rep, so each record's peak RSS is that of a process that ran exactly
// one simulation, and a rep that aborts is counted without ending the
// benchmark.
//
//   simbench --workload radix-ccnuma --seed 1 --trace 0
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "simbench.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "simbench: %s\n", why);
  std::fprintf(stderr,
               "usage: simbench --workload NAME [--seed N] [--trace 0|1]\n"
               "workloads:");
  for (const simbench::Cell& c : simbench::cells(0, dsm::Scale::kDefault))
    std::fprintf(stderr, " %s", c.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*s == '\0' || *s == '-' || *end != '\0' || errno != 0)
    usage((std::string("bad value for ") + flag + ": " + s).c_str());
  return v;
}

// Peak resident set of this process image, in MiB. VmHWM is reset by
// exec, unlike getrusage's ru_maxrss, which also keeps the high-water
// mark of the parent process this one was spawned from.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  char line[256];
  unsigned long kib = 0;
  bool found = false;
  while (f && !found && std::fgets(line, sizeof line, f))
    found = std::sscanf(line, "VmHWM: %lu kB", &kib) == 1;
  if (f) std::fclose(f);
  if (!found) {
    std::fprintf(stderr, "simbench: no VmHWM in /proc/self/status\n");
    std::exit(1);
  }
  return double(kib) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) usage((std::string("missing value for ") + flag).c_str());
    const char* val = argv[++i];
    if (!std::strcmp(flag, "--workload")) {
      workload = val;
    } else if (!std::strcmp(flag, "--seed")) {
      seed = parse_u64(val, flag);
    } else if (!std::strcmp(flag, "--trace")) {
      if (std::strcmp(val, "0") && std::strcmp(val, "1"))
        usage("--trace takes 0 or 1");
      traced = val[0] == '1';
    } else {
      usage((std::string("unknown flag ") + flag).c_str());
    }
  }
  if (workload.empty()) usage("--workload is required");

  for (const simbench::Cell& cell : simbench::cells(seed, dsm::Scale::kDefault)) {
    if (cell.name != workload) continue;
    simbench::RepResult r = simbench::run_rep(cell, traced);
    const double rss = peak_rss_mb();
    simbench::calibrate(r);
    std::printf("%s\n", simbench::rep_json(cell, seed, r, rss).c_str());
    return 0;
  }
  usage(("unknown workload " + workload).c_str());
}
