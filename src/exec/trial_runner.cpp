#include "exec/trial_runner.hpp"

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace coreda::exec {

std::size_t jobs_from_flags(const util::Flags& flags) {
  const std::int64_t jobs = flags.get_int("jobs", 0);
  if (jobs < 0) {
    throw std::invalid_argument("--jobs must be >= 0 (0 = hardware)");
  }
  return jobs == 0 ? ThreadPool::hardware_workers()
                   : static_cast<std::size_t>(jobs);
}

void append_timing_record(const std::string& path, const std::string& bench,
                          std::size_t jobs, std::size_t trials, double seconds,
                          const std::string& extra) {
  if (path.empty()) return;
  std::ostringstream line;
  line << "{\"bench\": \"" << bench << "\", \"jobs\": " << jobs
       << ", \"hardware_concurrency\": " << ThreadPool::hardware_workers()
       << ", \"trials\": " << trials << ", \"seconds\": " << seconds
       << ", \"trials_per_sec\": "
       << (seconds > 0.0 ? static_cast<double>(trials) / seconds : 0.0);
  if (!extra.empty()) line << ", " << extra;
  line << "}\n";
  std::ofstream out(path, std::ios::app);
  out << line.str();
}

Stopwatch::Stopwatch()
    : start_ns_(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count())) {}

double Stopwatch::seconds() const {
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return static_cast<double>(now - start_ns_) * 1e-9;
}

}  // namespace coreda::exec
