// fleet_zipf: the same session loop wrapped in FleetEngine's residency,
// SegmentStore reads, delta appends and shard dispatch. One million
// registered users, 4 shards x 2 slots, learning on and a write-back every
// session. One caller enqueues a fixed-size batch of Zipf(1.1) arrivals,
// waits for drain to return, then sends the next batch (a closed loop).

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adl/library.hpp"
#include "bench.hpp"
#include "exec/trial_runner.hpp"
#include "planning/learner.hpp"
#include "serve/arrivals.hpp"
#include "serve/fleet_engine.hpp"
#include "serve/segment_store.hpp"

namespace perfbench {
namespace {

using namespace coreda;

constexpr std::uint64_t kUsers = 1'000'000;
constexpr std::size_t kShards = 4;
constexpr std::size_t kSlotsPerShard = 2;
constexpr double kZipfExponent = 1.1;
constexpr std::size_t kBatchSize = 64;
constexpr std::size_t kWarmBatches = 16;
constexpr std::size_t kCountBatches = 32;
constexpr std::size_t kArrivals = std::size_t{1} << 20;
constexpr std::size_t kOpReserve = std::size_t{1} << 20;
constexpr double kWindowSeconds = 3.0;
constexpr std::size_t kSpanReserve = std::size_t{1} << 20;
constexpr std::size_t kEmptyDrains = 256;
/// Users 0..kFixedRanks-1 are the most popular and take ~69% of Zipf(1.1)
/// arrivals; the hottest alone takes ~12%.
constexpr std::uint64_t kFixedRanks = 1024;

/// Dementia severity of user `u` (0 = the most popular), in [0.1, 0.5).
/// Drawn from the seed, the severities of the few hottest users would move
/// the work per session by ~10% from seed to seed. So the kFixedRanks hottest
/// follow a fixed golden-ratio sequence, which spreads every prefix of them
/// evenly over the range (the hottest gets the midpoint), and only the long
/// tail draws from the seed.
double severity(std::uint64_t u, std::uint64_t severity_seed) {
  if (u < kFixedRanks) {
    const double golden = 0.6180339887498949;
    const double x = 0.5 + golden * static_cast<double>(u);
    return 0.1 + 0.4 * (x - std::floor(x));
  }
  util::Rng rng(exec::trial_seed(severity_seed, u));
  return 0.1 + 0.4 * rng.uniform();
}

struct Fixture {
  adl::AdlLibrary library;
  std::unique_ptr<planning::RoutineLearner> donor;
  /// The whole arrival stream, generated up front from the seed; batches
  /// consume it in order and wrap around at the end.
  std::vector<std::uint32_t> arrivals;
  std::size_t consumed = 0;
  serve::FleetReport last;  ///< cumulative report of the latest drain
  std::unique_ptr<serve::SegmentStore> store;
  std::unique_ptr<serve::FleetEngine> fleet;  // destroyed before the store

  std::uint32_t arrival(std::size_t i) const {
    return arrivals[i % arrivals.size()];
  }
};

std::unique_ptr<serve::SegmentStore> open_store(
    const planning::RoutineLearner& donor, const std::string& dir) {
  serve::SegmentStoreParams p;
  p.dir = dir;
  p.writers = kShards;
  return std::make_unique<serve::SegmentStore>(
      donor.state_codec().symbols(), donor.action_codec().tools(),
      donor.q().num_states(), donor.q().num_actions(), p);
}

/// Enqueues the next batch and drains it; false when the drain did not
/// serve exactly the batch (a dropped or lost session).
bool serve_batch(Fixture& f, exec::TrialRunner& runner, SpanLog* log,
                 std::uint64_t batch, std::uint32_t parent = SpanLog::kNone) {
  const std::uint64_t before = f.last.sessions;
  {
    const Scoped span(log, kEnqueue, batch, parent);
    for (std::size_t i = 0; i < kBatchSize; ++i) {
      f.fleet->enqueue(f.arrival(f.consumed + i));
    }
  }
  f.consumed += kBatchSize;
  {
    const Scoped span(log, kDrain, batch, parent);
    f.last = f.fleet->drain(runner);
  }
  return f.last.sessions - before == kBatchSize &&
         f.last.dropped_sessions == 0 && f.last.crashed_appends == 0;
}

std::unique_ptr<Fixture> build_fixture(std::uint64_t seed,
                                       const std::string& dir,
                                       exec::TrialRunner& runner) {
  std::filesystem::remove_all(dir);
  auto f = std::make_unique<Fixture>();
  const adl::Adl& tea = f->library.tea_making();
  std::vector<adl::StepId> routine;
  for (const adl::AdlStep& s : tea.primary_routine().steps()) {
    routine.push_back(s.step_id());
  }
  f->donor = std::make_unique<planning::RoutineLearner>(tea, util::Rng(17));
  for (int i = 0; i < 80; ++i) f->donor->train_episode(routine);

  serve::ZipfianArrivals zipf(kUsers, kZipfExponent,
                              exec::trial_seed(seed, 11));
  f->arrivals.resize(kArrivals);
  for (std::uint32_t& a : f->arrivals) {
    a = static_cast<std::uint32_t>(zipf.next());
  }

  f->store = open_store(*f->donor, dir);
  serve::FleetEngineParams params;
  params.shards = kShards;
  params.slots_per_shard = kSlotsPerShard;
  params.seed = exec::trial_seed(seed, 12);
  params.system.learn_from_sessions = true;
  params.write_back_every = 1;
  f->fleet = std::make_unique<serve::FleetEngine>(f->library, tea, *f->store,
                                                  f->donor->q(), params);
  f->fleet->reserve_users(kUsers);
  const std::uint64_t severity_seed = exec::trial_seed(seed, 13);
  for (std::uint64_t u = 0; u < kUsers; ++u) {
    f->fleet->register_user(severity(u, severity_seed));
  }
  for (std::size_t b = 0; b < kWarmBatches; ++b) {
    if (!serve_batch(*f, runner, nullptr, b)) {
      throw std::runtime_error("warm-up batch lost sessions");
    }
  }
  f->fleet->reset_latency();
  return f;
}

struct PhaseResult {
  std::uint64_t batches = 0;
  std::uint64_t failed = 0;
  double seconds = 0.0;
};

/// Serves batch after batch for `windows` windows; batches land in `ops`.
PhaseResult run_phase(Fixture& f, exec::TrialRunner& runner,
                      std::size_t windows, OpLog& ops, Trace* trace) {
  PhaseResult out;
  SpanLog* log = trace ? trace->log(0) : nullptr;
  const auto window_ns = static_cast<std::uint64_t>(kWindowSeconds * 1e9);
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline = start + windows * window_ns;
  ops.start(start, window_ns, windows, kOpReserve);
  std::uint64_t t = start;
  while (t < deadline) {
    const std::uint64_t t0 = now_ns();
    bool ok = false;
    {
      const Scoped span(log, kBatch, out.batches);
      ok = serve_batch(f, runner, log, out.batches, span.index());
    }
    t = now_ns();
    ++out.batches;
    if (!ok) ++out.failed;
    ops.record(t, t - t0, kBatchSize);
  }
  out.seconds = static_cast<double>(t - start) * 1e-9;
  return out;
}

}  // namespace

Report run_fleet_zipf(const Options& options) {
  Report report;
  const std::size_t jobs = std::min(options.jobs, kShards);
  report.jobs = jobs;
  exec::TrialRunner runner(jobs);
  const std::string dir = options.out_dir + "/fleet_zipf.store";

  std::unique_ptr<Fixture> fixture;
  report.e2e("setup_s", timed_setups(kSetupReps, [&] {
               fixture.reset();
               fixture = build_fixture(options.seed, dir, runner);
             }));
  Fixture& f = *fixture;
  serve::SegmentStore& store = *f.store;
  serve::FleetEngine& fleet = *f.fleet;

  // Count pass: kCountBatches fixed batches, so every count and digest is a
  // pure function of the seed at any job count.
  const serve::FleetReport before = f.last;
  const std::uint64_t appends0 = store.appends();
  const std::uint64_t bytes0 = store.appended_bytes();
  const std::uint64_t anchors0 = store.anchor_records_written();
  const std::uint64_t deltas0 = store.delta_records_written();
  double skew_sum = 0.0;
  for (std::size_t b = 0; b < kCountBatches; ++b) {
    std::size_t per_shard[kShards] = {};
    for (std::size_t i = 0; i < kBatchSize; ++i) {
      ++per_shard[fleet.shard_for(f.arrival(f.consumed + i))];
    }
    skew_sum += static_cast<double>(
                    *std::max_element(per_shard, per_shard + kShards)) /
                (static_cast<double>(kBatchSize) / kShards);
    report.ops(kBatchSize);
    report.op(serve_batch(f, runner, nullptr, b),
              "count-pass drain lost sessions");
  }
  const serve::FleetReport counted = f.last;
  const double sessions =
      static_cast<double>(counted.sessions - before.sessions);
  {
    std::ostringstream dump;
    fleet.dump_policies(dump);
    Hasher h;
    for (const char c : dump.str()) h.add(static_cast<std::uint64_t>(c));
    report.digest("fleet_checksum", counted.checksum);
    report.digest("policies", h.value());
  }
  const auto share = [&](std::uint64_t now, std::uint64_t then) {
    return static_cast<double>(now - then) / sessions;
  };
  const double pool_hit_rate = share(counted.pool_hits, before.pool_hits);
  const double cold_share = share(counted.cold_loads, before.cold_loads);
  const double reference_share =
      share(counted.reference_starts, before.reference_starts);
  const double completion = share(counted.completed, before.completed);
  const double prompts = share(counted.prompts, before.prompts);
  const double appends = static_cast<double>(store.appends() - appends0);
  const double bytes_per_append =
      static_cast<double>(store.appended_bytes() - bytes0) / appends;
  const double anchors =
      static_cast<double>(store.anchor_records_written() - anchors0);
  const double deltas =
      static_cast<double>(store.delta_records_written() - deltas0);
  const double live = static_cast<double>(store.live_records());
  const double dead = static_cast<double>(store.dead_records());
  const double segments = static_cast<double>(store.num_segments());
  const double compactions = static_cast<double>(store.compactions());
  const double resident_per_user =
      static_cast<double>(fleet.resident_state_bytes() +
                          store.index_slab_bytes()) /
      static_cast<double>(kUsers);

  // Peak memory through set-up and the count pass (see home_serve.cpp).
  report.e2e("peak_rss_mb", peak_rss_mb());

  // Timed phase (see home_serve.cpp for the traced split).
  std::vector<OpLog> ops(1);
  const std::size_t windows = window_count(
      options.trace ? options.seconds / 2 : options.seconds, kWindowSeconds);
  const PhaseResult timed = run_phase(f, runner, windows, ops[0], nullptr);
  report.ops(timed.batches * (kBatchSize + 1));
  for (std::uint64_t i = 0; i < timed.failed; ++i) {
    report.fail("timed drain lost sessions");
  }
  const WindowStats stats = summarize(ops);
  report.e2e("ops_per_s", stats.units_per_s);
  report.e2e("op_p50_ms", stats.p50_ms);
  report.e2e("op_p95_ms", stats.p95_ms);
  print_windows("fleet_zipf", stats);
  const double rate =
      static_cast<double>(timed.batches * kBatchSize) / timed.seconds;
  std::printf("# fleet_zipf: %llu users, %llu timed batches of %zu in %.3f "
              "s; count pass %.0f sessions, hit rate %.4f, cold loads %.4f\n",
              static_cast<unsigned long long>(kUsers),
              static_cast<unsigned long long>(timed.batches), kBatchSize,
              timed.seconds, sessions, pool_hit_rate, cold_share);

  Trace trace(1, kSpanReserve);
  double traced_rate = 0.0;
  if (options.trace) {
    const PhaseResult traced =
        run_phase(f, runner, windows, ops[0], &trace);
    report.ops(traced.batches * (kBatchSize + 1));
    for (std::uint64_t i = 0; i < traced.failed; ++i) {
      report.fail("traced drain lost sessions");
    }
    traced_rate =
        static_cast<double>(traced.batches * kBatchSize) / traced.seconds;
  }

  // Untimed epilogue: flush, then probe dispatch cost with empty drains.
  Trace probes(1, 1 << 16);
  {
    const Scoped span(probes.log(0), kFlush, 0);
    fleet.flush_residents();
  }
  for (std::size_t i = 0; i < kEmptyDrains; ++i) {
    const Scoped span(probes.log(0), kEmptyDrain, i);
    fleet.drain(runner);
  }

  // Read-after-write: every user served must reopen at the version the
  // engine reached.
  std::vector<std::uint32_t> served;
  for (std::size_t i = 0; i < std::min(f.consumed, f.arrivals.size()); ++i) {
    served.push_back(f.arrivals[i]);
  }
  std::sort(served.begin(), served.end());
  served.erase(std::unique(served.begin(), served.end()), served.end());
  std::vector<std::uint64_t> versions;
  versions.reserve(served.size());
  for (std::uint32_t u : served) versions.push_back(fleet.version(u));
  f.fleet.reset();  // close the engine, then its store
  f.store.reset();
  std::unique_ptr<serve::SegmentStore> reopened;
  const std::uint64_t r0 = now_ns();
  {
    const Scoped span(probes.log(0), kReopen, 0);
    reopened = open_store(*f.donor, dir);
  }
  const double reopen_ns = static_cast<double>(now_ns() - r0);
  report.op(reopened->scanned_records() > 0, "reopen found no records");
  rl::QTable q(f.donor->q().num_states(), f.donor->q().num_actions());
  for (std::size_t i = 0; i < served.size(); ++i) {
    bool ok = false;
    try {
      const std::optional<std::uint64_t> v = reopened->load(served[i], q);
      ok = v && *v == versions[i];
    } catch (const std::exception&) {
    }
    report.op(ok, "reopened store lost user " + std::to_string(served[i]));
  }
  const double scanned = static_cast<double>(reopened->scanned_records());
  reopened.reset();
  std::filesystem::remove_all(dir);

  if (options.trace) {
    report.layer("serve.drain_ns", median(trace.durations(kDrain)));
    report.layer("serve.shard_skew", skew_sum / kCountBatches);
    report.layer("serve.pool_hit_rate", pool_hit_rate);
    report.layer("serve.cold_load_share", cold_share);
    report.layer("serve.reference_start_share", reference_share);
    report.layer("serve.resident_bytes_per_user", resident_per_user);
    report.layer("serve.flush_ns", median(probes.durations(kFlush)));
    report.layer("core.completion_rate", completion);
    report.layer("reminding.prompts_per_session", prompts);
    report.layer("store.bytes_per_append", bytes_per_append);
    report.layer("store.anchor_share", anchors / (anchors + deltas));
    report.layer("store.compactions", compactions);
    report.layer("store.dead_ratio", dead / (live + dead));
    report.layer("store.segments", segments);
    report.layer("store.appends_per_session", appends / sessions);
    report.layer("store.reopen_ms", reopen_ns * 1e-6);
    report.layer("store.reopen_ns_per_record", reopen_ns / scanned);
    report.layer("exec.empty_drain_ns",
                 median(probes.durations(kEmptyDrain)));
    report.layer("exec.sessions_per_drain", static_cast<double>(kBatchSize));
    double total = 0.0;
    const auto self = trace.self_time_by_layer();
    for (const auto& [layer, ns] : self) total += ns;
    for (const auto& [layer, ns] : self) {
      report.layer("self_share." + layer, ns / total);
    }
    report.layer("trace.overhead_share", rate / traced_rate - 1.0);
    report.layer("trace.spans", static_cast<double>(trace.spans()));
    report.layer("trace.dropped_spans", static_cast<double>(trace.dropped()));
    trace.write_tsv(options.out_dir + "/fleet_zipf.spans.tsv");
    probes.write_tsv(options.out_dir + "/fleet_zipf.probes.tsv");
  }
  return report;
}

}  // namespace perfbench
