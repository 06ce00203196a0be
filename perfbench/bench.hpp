#pragma once

// Shared pieces of the session-level benchmark: options, the span tracer,
// the metric report and small helpers. Each workload lives in its own .cpp
// and returns one Report; main.cpp prints it.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "rl/q_table.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t jobs = 0;  ///< worker threads; 0 = hardware concurrency
  std::string out_dir;   ///< scratch directory for stores and span files
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Spans. Every span the benchmark records wraps one call it makes into a
// library layer (or one of its own loops, layer "bench"). The layer is the
// prefix of the span name.
// ---------------------------------------------------------------------------

enum SpanName : std::uint32_t {
  kHomeLoop,        // bench: one job's closed loop over its homes
  kRunSession,      // core: CoredaSystem::run_session_inplace
  kBatch,           // bench: one fleet batch, enqueue to drain return
  kEnqueue,         // serve: FleetEngine::enqueue of a whole batch
  kDrain,           // serve: FleetEngine::drain
  kFlush,           // serve: FleetEngine::flush_residents
  kEmptyDrain,      // exec: FleetEngine::drain with nothing queued
  kNightPartition,  // bench: one writer's share of a night
  kLoad,            // store: SegmentStore::load
  kRetrain,         // planning: begin_retraining .. export_q of a batch
  kAppend,          // store: SegmentStore::append
  kReopen,          // store: SegmentStore close + open
  kPipelineProbe,   // sensors: trace::SensingPipeline::run
  kPredictProbe,    // planning: RoutineLearner::predict sweep
  kNumSpanNames
};

/// Layer of a span: its name up to the first '.'.
std::string span_layer(SpanName name);

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;  ///< session, batch or user id
  std::uint32_t name = 0;
  std::uint32_t parent = 0;
};

/// One thread's span buffer. Sized before timing starts; a span that would
/// grow it is dropped and counted instead, so recording never allocates.
class SpanLog {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  void reserve(std::size_t capacity) { spans_.reserve(capacity); }

  std::uint32_t open(SpanName name, std::uint64_t id, std::uint32_t parent) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return kNone;
    }
    spans_.push_back(Span{now_ns(), 0, id, name, parent});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void close(std::uint32_t index) {
    if (index != kNone) spans_[index].end_ns = now_ns();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// RAII span; a null log records nothing (the untraced run).
class Scoped {
 public:
  Scoped(SpanLog* log, SpanName name, std::uint64_t id,
         std::uint32_t parent = SpanLog::kNone)
      : log_(log), index_(log ? log->open(name, id, parent) : SpanLog::kNone) {}
  ~Scoped() {
    if (log_) log_->close(index_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  std::uint32_t index() const noexcept { return index_; }

 private:
  SpanLog* log_;
  std::uint32_t index_;
};

/// Per-thread span buffers of one traced phase.
struct Trace {
  std::vector<SpanLog> logs;

  explicit Trace(std::size_t threads, std::size_t capacity_per_thread)
      : logs(threads) {
    for (SpanLog& log : logs) log.reserve(capacity_per_thread);
  }
  SpanLog* log(std::size_t thread) { return &logs[thread]; }
  std::uint64_t spans() const;
  std::uint64_t dropped() const;
  /// Durations (ns) of every closed span with this name.
  std::vector<double> durations(SpanName name) const;
  /// Self time (span minus the time its child spans cover) summed per
  /// layer, in ns.
  std::vector<std::pair<std::string, double>> self_time_by_layer() const;
  /// Writes every span as a TSV row: thread, name, id, parent, start, end.
  void write_tsv(const std::string& path) const;
};

// ---------------------------------------------------------------------------
// Timed ops. End-to-end numbers are medians over fixed windows of the timed
// phase, so a burst of outside interference moves one window, not the run.
// ---------------------------------------------------------------------------

/// One thread's timed ops, binned by the window they end in. Ops record in
/// time order, so a window is a contiguous run of the latency array; 4 bytes
/// per op keep the benchmark's own memory out of peak_rss_mb.
class OpLog {
 public:
  /// Starts a phase of `windows` windows of `window_ns` from `start_ns`.
  void start(std::uint64_t start_ns, std::uint64_t window_ns,
             std::size_t windows, std::size_t capacity) {
    start_ns_ = start_ns;
    window_ns_ = window_ns;
    latency_ns_.clear();
    latency_ns_.reserve(capacity);
    window_end_.assign(windows, 0);
    units_.assign(windows, 0.0);
    current_ = 0;
  }
  /// An op's work units are spread over the windows its run overlaps, so a
  /// window's rate is the work done inside it. Its latency counts in the
  /// window it ends in; ops ending outside the windows, or past the
  /// capacity, keep no latency.
  void record(std::uint64_t end_ns, std::uint64_t latency_ns,
              std::uint64_t weight) {
    const std::uint64_t begin_ns = end_ns - std::min(latency_ns, end_ns);
    for (std::uint64_t t = std::max(begin_ns, start_ns_); t < end_ns;) {
      const std::uint64_t w = (t - start_ns_) / window_ns_;
      if (w >= units_.size()) break;
      const std::uint64_t until =
          std::min(end_ns, start_ns_ + (w + 1) * window_ns_);
      units_[w] += static_cast<double>(weight) *
                   static_cast<double>(until - t) /
                   static_cast<double>(std::max<std::uint64_t>(latency_ns, 1));
      t = until;
    }
    if (end_ns < start_ns_) return;
    const std::uint64_t w = (end_ns - start_ns_) / window_ns_;
    if (w >= units_.size() || latency_ns_.size() == latency_ns_.capacity()) {
      return;
    }
    for (; current_ < w; ++current_) {
      window_end_[current_] = latency_ns_.size();
    }
    latency_ns_.push_back(static_cast<std::uint32_t>(
        latency_ns < 0xffffffffu ? latency_ns : 0xffffffffu));
    window_end_[w] = latency_ns_.size();
  }
  std::size_t windows() const noexcept { return units_.size(); }
  std::uint64_t window_ns() const noexcept { return window_ns_; }
  double units(std::size_t w) const { return units_[w]; }
  /// Latencies (ns) of the ops that ended in window `w`.
  std::vector<double> latencies(std::size_t w) const {
    const std::size_t begin = w == 0 ? 0 : window_end_[w - 1];
    const std::size_t end = std::max(begin, window_end_[w]);
    return std::vector<double>(latency_ns_.begin() + begin,
                               latency_ns_.begin() + end);
  }

 private:
  std::uint64_t start_ns_ = 0;
  std::uint64_t window_ns_ = 1;
  std::vector<std::uint32_t> latency_ns_;
  std::vector<std::size_t> window_end_;  ///< one past each window's last op
  std::vector<double> units_;
  std::size_t current_ = 0;
};

struct WindowStats {
  double units_per_s = 0.0;  ///< median over windows
  double p50_ms = 0.0;       ///< median over windows of the window's p50
  double p95_ms = 0.0;       ///< median over windows of the window's p95
  double mean_ms = 0.0;      ///< mean op wall time over every window
  std::size_t ops = 0;       ///< ops inside the windows
  std::vector<double> rates;  ///< units/s of each window, in time order
};

/// Summarizes the threads' logs of one phase, window by window.
WindowStats summarize(const std::vector<OpLog>& logs);

/// Prints the per-window throughputs as one '#' line.
void print_windows(const char* workload, const WindowStats& stats);

/// Number of whole windows of `window_s` seconds in `seconds`, at least 1.
std::size_t window_count(double seconds, double window_s);

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. Every end-to-end metric and every
/// per-layer metric named in report.cpp's tables is printed for every
/// workload; a per-layer metric a workload leaves unset reads 0 (the layer
/// does no work there).
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::pair<std::string, std::string>> digests;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::size_t jobs = 0;

  void e2e(const std::string& name, double value);
  void layer(const std::string& name, double value);
  void digest(const std::string& name, std::uint64_t value);
  /// Counts one attempted op; `ok == false` also counts it failed.
  void op(bool ok, const std::string& what = "");
  void ops(std::uint64_t n) { attempted += n; }
  void fail(const std::string& what);
};

/// Prints `report` as one JSON object on its own line.
void print_report(const Options& options, const Report& report);

Report run_home_serve(const Options& options);
Report run_fleet_zipf(const Options& options);
Report run_nightly_retrain(const Options& options);

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

std::size_t resolve_jobs(std::size_t requested);
std::string cpu_model();
double peak_rss_mb();

/// Nearest-rank quantile of `values` (sorted in place). 0 when empty.
double quantile(std::vector<double>& values, double q);
double median(std::vector<double> values);

/// Word-wise FNV-1a with a final avalanche: a cheap, order-sensitive digest.
struct Hasher {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
  std::uint64_t value() const {
    std::uint64_t x = h;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
  }
};

std::uint64_t table_hash(const coreda::rl::QTable& q);

/// `n` dementia severities in [0.1, 0.5), one drawn from each of n equal
/// strata, in an order shuffled by `seed`: every seed draws a different
/// population with the same spread, so runs on different seeds measure the
/// same amount of work.
std::vector<double> stratified_severities(std::uint64_t seed, std::size_t n);

/// Runs `setup` `reps` times (keeping the last result) and returns the
/// median wall time in seconds.
template <typename Fn>
double timed_setups(int reps, Fn&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    setup();
    seconds.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(std::move(seconds));
}

/// Set-up repetitions per run: setup_s is their median.
inline constexpr int kSetupReps = 5;

}  // namespace perfbench
