// Benchmark runner: runs one workload and prints its RunResult as the last
// line of stdout.
//
//   e2e_runner --workload NAME --seed N --seconds S --trace 0|1
//              --pghive PATH --work-dir DIR
//
// Exit code 0 when the workload ran to its end (output checks may still
// have failed; the result says so in "correct"), 2 on bad arguments, 1 when
// the workload could not run.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "measure.h"
#include "simd/simd.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2e_runner: %s\nusage: e2e_runner --workload "
               "oneshot-iyp|feed-iyp|drift-stream --seed N --seconds S "
               "--trace 0|1 --pghive PATH --work-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) return Usage("expected a --flag");
    flags[flag.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "pghive", "work-dir"}) {
    if (flags.count(required) == 0) {
      return Usage((std::string("missing --") + required).c_str());
    }
  }

  e2e::RunConfig config;
  config.workload = flags["workload"];
  config.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  config.seconds = std::atof(flags["seconds"].c_str());
  config.trace = flags["trace"] == "1";
  config.pghive = flags["pghive"];
  config.work_dir = flags["work-dir"];
  if (config.seconds <= 0) return Usage("--seconds must be positive");

  using Runner = e2e::RunResult (*)(const e2e::RunConfig&);
  const std::map<std::string, Runner> workloads = {
      {"oneshot-iyp", e2e::RunOneshot},
      {"feed-iyp", e2e::RunFeed},
      {"drift-stream", e2e::RunDriftStream},
  };
  const auto it = workloads.find(config.workload);
  if (it == workloads.end()) return Usage("unknown workload");

  e2e::Note("host: nproc " +
            std::to_string(std::thread::hardware_concurrency()) + ", simd " +
            pghive::simd::ModeName() + ", compiler gcc " + __VERSION__);
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  e2e::RunResult result;
  try {
    result = it->second(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_runner: %s failed: %s\n",
                 config.workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  }
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}
