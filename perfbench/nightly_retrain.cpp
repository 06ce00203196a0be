// nightly_retrain: a maintenance job with no sessions. Set-up seeds a cohort
// into a SegmentStore as mid-depth anchor+delta chains. Each night then
// loads every user, retrains it on replayed transcripts through the SoA lane
// engine in lockstep batches, appends the new table, and finally closes and
// reopens the store. Users are partitioned by `user % writers` across the
// jobs, as FleetEngine partitions its shards.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "adl/library.hpp"
#include "bench.hpp"
#include "exec/trial_runner.hpp"
#include "patient/generator.hpp"
#include "planning/lane_trainer.hpp"
#include "planning/learner.hpp"
#include "serve/segment_store.hpp"

namespace perfbench {
namespace {

using namespace coreda;

constexpr std::uint64_t kCohort = 8192;
constexpr std::size_t kWriters = 4;
constexpr std::size_t kLanes = 8;
/// Replay transcripts per user and night. Chosen so that neither the store
/// nor the planner is under a quarter of traced time (LAYERS.md).
constexpr std::size_t kReplays = 48;
constexpr std::size_t kProfiles = 64;
constexpr std::size_t kTranscriptsPerProfile = 64;
/// Seeded chain depth per user: an anchor plus 3..11 deltas, mid-way to the
/// store's default rebase_every of 16.
constexpr std::size_t kMinDepth = 4;
constexpr std::size_t kMaxDepth = 12;
constexpr std::size_t kOpReserve = std::size_t{1} << 16;
constexpr double kWindowSeconds = 4.0;
constexpr std::size_t kSpanReserve = std::size_t{1} << 21;

struct Fixture {
  adl::AdlLibrary library;
  std::unique_ptr<planning::RoutineLearner> donor;
  std::vector<std::vector<adl::StepId>> transcripts;
  std::unique_ptr<serve::SegmentStore> store;
  /// Version and table digest of each user's last append: what the next
  /// load must return.
  std::vector<std::uint64_t> version;
  std::vector<std::uint64_t> table_digest;
  std::vector<std::unique_ptr<planning::LaneTrainer>> trainers;  // per writer
  std::vector<std::vector<rl::QTable>> tables;                   // per writer
};

std::unique_ptr<serve::SegmentStore> open_store(const Fixture& f,
                                                const std::string& dir) {
  serve::SegmentStoreParams p;
  p.dir = dir;
  p.writers = kWriters;
  return std::make_unique<serve::SegmentStore>(
      f.donor->state_codec().symbols(), f.donor->action_codec().tools(),
      f.donor->q().num_states(), f.donor->q().num_actions(), p);
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

  // Replay transcripts: noisy processes of kProfiles patients.
  const std::vector<double> severity =
      stratified_severities(exec::trial_seed(seed, 21), kProfiles);
  std::size_t max_steps = 0;
  for (std::size_t p = 0; p < kProfiles; ++p) {
    patient::BehaviorGenerator gen(
        tea, f->library.tools(),
        patient::PatientProfile::with_severity("P", severity[p]),
        util::Rng(exec::trial_seed(exec::trial_seed(seed, 24), p)));
    for (std::size_t t = 0; t < kTranscriptsPerProfile; ++t) {
      f->transcripts.push_back(gen.noisy_steps());
      max_steps = std::max(max_steps, f->transcripts.back().size());
    }
  }

  const rl::QTable& q0 = f->donor->q();
  for (std::size_t w = 0; w < kWriters; ++w) {
    f->trainers.push_back(std::make_unique<planning::LaneTrainer>(
        tea, kLanes, planning::LearnerConfig(), max_steps + 1));
    f->tables.emplace_back(kLanes, q0);
  }
  f->version.assign(kCohort, 0);
  f->table_digest.assign(kCohort, 0);

  // Seed every user's chain: an anchor then deltas, each version changing
  // two rows of the previous table.
  f->store = open_store(*f, dir);
  f->store->reserve_users(kCohort);
  const std::uint64_t chain_seed = exec::trial_seed(seed, 22);
  runner.run(kWriters, 0, [&](exec::TrialContext& ctx) {
    rl::QTable& q = f->tables[ctx.index][0];
    for (std::uint64_t u = ctx.index; u < kCohort; u += kWriters) {
      util::Rng rng(exec::trial_seed(chain_seed, u));
      q = q0;
      const std::size_t depth =
          kMinDepth + rng.pick_index(kMaxDepth - kMinDepth + 1);
      for (std::uint64_t v = 1; v <= depth; ++v) {
        for (int r = 0; r < 2; ++r) {
          const auto s = static_cast<rl::StateId>(
              rng.pick_index(q.num_states()));
          for (double& x : q.row_mut(s)) x += rng.uniform(-1.0, 1.0);
        }
        f->store->append(u, q, v);
      }
      f->version[u] = depth;
      f->table_digest[u] = table_hash(q);
    }
    return 0;
  });
  f->store.reset();  // close and reopen: the night starts from a scan
  f->store = open_store(*f, dir);
  return f;
}

struct NightResult {
  std::uint64_t users = 0;
  std::uint64_t batches = 0;
  std::uint64_t skipped = 0;
  std::uint64_t loads = 0;
  std::uint64_t appends = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;  ///< order-independent sum over retrained users
  std::string failure;
  // The night's store counters (the store is reopened every night).
  std::uint64_t stored = 0;
  std::uint64_t stored_bytes = 0;
  std::uint64_t anchors = 0;
  std::uint64_t deltas = 0;
  std::uint64_t compactions = 0;
  double reopen_ns = 0.0;
  std::uint64_t scanned = 0;

  void merge(const NightResult& o) {
    users += o.users;
    batches += o.batches;
    skipped += o.skipped;
    loads += o.loads;
    appends += o.appends;
    failed += o.failed;
    digest += o.digest;
    if (failure.empty()) failure = o.failure;
  }
};

/// One night over the whole cohort, then the store's close + reopen. Spans
/// go to `trace` when given (writer logs 0..kWriters-1, the main thread's
/// log kWriters).
NightResult run_night(Fixture& f, const std::string& dir,
                      exec::TrialRunner& runner, std::uint64_t night,
                      std::uint64_t seed, Trace* trace) {
  const std::uint64_t night_seed =
      exec::trial_seed(exec::trial_seed(seed, 23), night);
  serve::SegmentStore& store = *f.store;
  const std::vector<NightResult> parts =
      runner.run(kWriters, 0, [&](exec::TrialContext& ctx) {
        const std::size_t w = ctx.index;
        planning::LaneTrainer& trainer = *f.trainers[w];
        std::vector<rl::QTable>& tables = f.tables[w];
        SpanLog* log = trace ? trace->log(w) : nullptr;
        NightResult r;
        const Scoped part(log, kNightPartition, night);
        std::uint64_t users[kLanes];
        for (std::uint64_t base = w; base < kCohort;
             base += kWriters * kLanes) {
          std::size_t n = 0;
          for (std::uint64_t u = base; n < kLanes && u < kCohort;
               u += kWriters) {
            users[n++] = u;
          }
          bool loaded[kLanes] = {};
          for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t u = users[i];
            ++r.loads;
            try {
              std::optional<std::uint64_t> v;
              {
                const Scoped span(log, kLoad, u, part.index());
                v = store.load(u, tables[i]);
              }
              loaded[i] = v && *v == f.version[u] &&
                          table_hash(tables[i]) == f.table_digest[u];
            } catch (const std::exception& e) {
              r.failure = e.what();
            }
            if (!loaded[i]) {
              ++r.failed;
              if (r.failure.empty()) {
                r.failure = "load of user " + std::to_string(u) +
                            " did not return its last append";
              }
            }
          }
          {
            const Scoped span(log, kRetrain, base, part.index());
            std::uint64_t skipped0[kLanes];
            for (std::size_t i = 0; i < n; ++i) {
              trainer.begin_retraining(
                  i, tables[i], util::Rng(exec::trial_seed(night_seed,
                                                           users[i])));
              skipped0[i] = trainer.skipped_steps(i);
            }
            for (std::size_t rep = 0; rep < kReplays; ++rep) {
              for (std::size_t i = 0; i < n; ++i) {
                const std::size_t pick =
                    exec::trial_seed(night_seed ^ rep, users[i]) %
                    f.transcripts.size();
                trainer.queue_episode(i, f.transcripts[pick]);
              }
              trainer.train_queued();
            }
            for (std::size_t i = 0; i < n; ++i) {
              trainer.export_q(i, tables[i]);
              r.skipped += trainer.skipped_steps(i) - skipped0[i];
            }
          }
          for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t u = users[i];
            ++r.appends;
            if (!loaded[i]) continue;  // never write over a bad read
            try {
              const Scoped span(log, kAppend, u, part.index());
              store.append(u, tables[i], f.version[u] + 1);
            } catch (const std::exception& e) {
              ++r.failed;
              r.failure = e.what();
              continue;
            }
            ++f.version[u];
            f.table_digest[u] = table_hash(tables[i]);
            Hasher h;
            h.add(u);
            h.add(f.version[u]);
            h.add(f.table_digest[u]);
            r.digest += h.value();
          }
          r.users += n;
          ++r.batches;
        }
        return r;
      });
  NightResult night_result;
  for (const NightResult& p : parts) night_result.merge(p);

  night_result.stored = store.appends();
  night_result.stored_bytes = store.appended_bytes();
  night_result.anchors = store.anchor_records_written();
  night_result.deltas = store.delta_records_written();
  night_result.compactions = store.compactions();
  const std::uint64_t r0 = now_ns();
  {
    const Scoped span(trace ? trace->log(kWriters) : nullptr, kReopen, night);
    f.store.reset();
    f.store = open_store(f, dir);
  }
  night_result.reopen_ns = static_cast<double>(now_ns() - r0);
  night_result.scanned = f.store->scanned_records();
  return night_result;
}

/// Reloads every user from the reopened store and compares it with its
/// last append.
void verify_all(Fixture& f, Report& report) {
  rl::QTable& q = f.tables[0][0];
  for (std::uint64_t u = 0; u < kCohort; ++u) {
    bool ok = false;
    try {
      const std::optional<std::uint64_t> v = f.store->load(u, q);
      ok = v && *v == f.version[u] && table_hash(q) == f.table_digest[u];
    } catch (const std::exception&) {
    }
    report.op(ok, "reopened store returned a stale table for user " +
                      std::to_string(u));
  }
}

void count_night(const NightResult& r, Report& report) {
  report.ops(r.loads + r.appends + 1);  // + the reopen
  for (std::uint64_t i = 0; i < r.failed; ++i) report.fail(r.failure);
  if (r.scanned == 0) report.fail("reopen scanned no records");
}

}  // namespace

Report run_nightly_retrain(const Options& options) {
  Report report;
  const std::size_t jobs = std::min(options.jobs, kWriters);
  report.jobs = jobs;
  exec::TrialRunner runner(jobs);
  const std::string dir = options.out_dir + "/nightly_retrain.store";

  std::unique_ptr<Fixture> fixture;
  report.e2e("setup_s", timed_setups(kSetupReps, [&] {
               fixture.reset();
               fixture = build_fixture(options.seed, dir, runner);
             }));
  Fixture& f = *fixture;
  std::vector<OpLog> ops(1);  // one op per night

  // Count pass: night 0, untimed. Its counts and digests are pure
  // functions of the seed at any job count.
  const NightResult counted =
      run_night(f, dir, runner, 0, options.seed, nullptr);
  count_night(counted, report);
  verify_all(f, report);
  report.digest("tables", counted.digest);
  report.digest("store_bytes", counted.stored_bytes);
  const double segments = static_cast<double>(f.store->num_segments());
  const double live = static_cast<double>(f.store->live_records());
  const double dead = static_cast<double>(f.store->dead_records());

  // Peak memory through set-up and the count pass (see home_serve.cpp).
  report.e2e("peak_rss_mb", peak_rss_mb());

  // Timed phase: whole nights until the deadline (see home_serve.cpp for
  // the traced split).
  const std::size_t windows = window_count(
      options.trace ? options.seconds / 2 : options.seconds, kWindowSeconds);
  const auto window_ns = static_cast<std::uint64_t>(kWindowSeconds * 1e9);
  std::uint64_t night = 1;
  const auto run_nights = [&](Trace* trace, std::vector<double>* reopen_ns,
                              std::vector<double>* reopen_per_record) {
    const std::uint64_t start = now_ns();
    const std::uint64_t deadline = start + windows * window_ns;
    ops[0].start(start, window_ns, windows, kOpReserve);
    std::uint64_t users = 0;
    for (std::uint64_t t = start; t < deadline;) {
      const NightResult r =
          run_night(f, dir, runner, night++, options.seed, trace);
      const std::uint64_t end = now_ns();
      ops[0].record(end, end - t, r.users);
      t = end;
      count_night(r, report);
      users += r.users;
      if (reopen_ns) {
        reopen_ns->push_back(r.reopen_ns);
        reopen_per_record->push_back(r.reopen_ns /
                                     static_cast<double>(r.scanned));
      }
    }
    return static_cast<double>(users) /
           (static_cast<double>(now_ns() - start) * 1e-9);
  };
  const double rate = run_nights(nullptr, nullptr, nullptr);
  const WindowStats stats = summarize(ops);
  report.e2e("ops_per_s", stats.units_per_s);
  report.e2e("op_p50_ms", stats.p50_ms);
  report.e2e("op_p95_ms", stats.p95_ms);
  print_windows("nightly_retrain", stats);
  std::printf("# nightly_retrain: %llu users x %zu replays, %llu nights, "
              "%.1f users/s; night 0: %llu appends, %llu bytes\n",
              static_cast<unsigned long long>(kCohort), kReplays,
              static_cast<unsigned long long>(night - 1), rate,
              static_cast<unsigned long long>(counted.stored),
              static_cast<unsigned long long>(counted.stored_bytes));

  if (options.trace) {
    Trace trace(kWriters + 1, kSpanReserve);
    std::vector<double> reopen_ns, reopen_per_record;
    const double traced_rate =
        run_nights(&trace, &reopen_ns, &reopen_per_record);
    std::vector<double> loads = trace.durations(kLoad);
    std::vector<double> appends = trace.durations(kAppend);
    std::vector<double> retrains = trace.durations(kRetrain);
    double retrain_ns = 0.0;
    for (double v : retrains) retrain_ns += v;
    report.layer("store.load_ns_p50", quantile(loads, 0.50));
    report.layer("store.load_ns_p99", quantile(loads, 0.99));
    report.layer("store.append_ns_p50", quantile(appends, 0.50));
    report.layer("store.append_ns_p99", quantile(appends, 0.99));
    report.layer("store.reopen_ms", median(reopen_ns) * 1e-6);
    report.layer("store.reopen_ns_per_record", median(reopen_per_record));
    report.layer("planning.retrain_ns_per_user",
                 retrain_ns / static_cast<double>(retrains.size() * kLanes));
    double total = 0.0;
    const auto self = trace.self_time_by_layer();
    for (const auto& [layer, ns] : self) total += ns;
    for (const auto& [layer, ns] : self) {
      report.layer("self_share." + layer, ns / total);
    }
    report.layer("trace.overhead_share", rate / traced_rate - 1.0);
    report.layer("trace.spans", static_cast<double>(trace.spans()));
    report.layer("trace.dropped_spans", static_cast<double>(trace.dropped()));
    trace.write_tsv(options.out_dir + "/nightly_retrain.spans.tsv");

    const double users = static_cast<double>(counted.users);
    report.layer("planning.lane_occupancy",
                 users / static_cast<double>(counted.batches * kLanes));
    report.layer("planning.skipped_steps_per_user",
                 static_cast<double>(counted.skipped) / users);
    report.layer("store.bytes_per_append",
                 static_cast<double>(counted.stored_bytes) /
                     static_cast<double>(counted.stored));
    report.layer("store.anchor_share",
                 static_cast<double>(counted.anchors) /
                     static_cast<double>(counted.anchors + counted.deltas));
    report.layer("store.compactions",
                 static_cast<double>(counted.compactions));
    report.layer("store.dead_ratio", dead / (live + dead));
    report.layer("store.segments", segments);
  }
  verify_all(f, report);
  fixture.reset();
  std::filesystem::remove_all(dir);
  return report;
}

}  // namespace perfbench
