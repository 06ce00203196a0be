// Session-level benchmark driver: runs one workload against the library's
// public entry points and prints its report as a JSON line.
//
//   coreda_perfbench --workload=home_serve|fleet_zipf|nightly_retrain
//       --seed=N --seconds=S --trace=0|1 [--jobs=J] --out-dir=DIR
//
// perfbench/run.py builds this program, runs it and checks its digests.

#include <cstdio>
#include <exception>
#include <filesystem>
#include <thread>

#include "bench.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const coreda::util::Flags flags = coreda::util::Flags::parse(argc, argv);
    Options options;
    options.workload = flags.get("workload");
    options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    options.seconds = flags.get_double("seconds", 10.0);
    options.trace = flags.get_int("trace", 0) != 0;
    options.jobs = resolve_jobs(
        static_cast<std::size_t>(flags.get_int("jobs", 0)));
    options.out_dir = flags.get("out-dir");
    if (options.out_dir.empty() || options.seconds <= 0.0) {
      std::fprintf(stderr, "usage: coreda_perfbench --workload=W --seed=N "
                           "--seconds=S --trace=0|1 --out-dir=DIR\n");
      return 2;
    }
    std::filesystem::create_directories(options.out_dir);
    std::printf("# workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
                "jobs=%zu cpu=\"%s\"\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0,
                std::thread::hardware_concurrency(), options.jobs,
                cpu_model().c_str());
    std::fflush(stdout);

    Report report;
    if (options.workload == "home_serve") {
      report = run_home_serve(options);
    } else if (options.workload == "fleet_zipf") {
      report = run_fleet_zipf(options);
    } else if (options.workload == "nightly_retrain") {
      report = run_nightly_retrain(options);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
    print_report(options, report);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coreda_perfbench: %s\n", e.what());
    return 1;
  }
}
