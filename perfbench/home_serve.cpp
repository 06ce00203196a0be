// home_serve: the paper's closed loop with no store. kHomes warm homes, each
// one CoredaSystem with an imported donor policy and learning off, serve
// sessions back to back through run_session_inplace. Each home is a client
// that asks for its next session when the previous one returns; job j owns
// homes j, j + jobs, ... and serves them round-robin.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "adl/library.hpp"
#include "bench.hpp"
#include "core/system.hpp"
#include "exec/trial_runner.hpp"
#include "patient/generator.hpp"
#include "planning/learner.hpp"
#include "trace/sensing_pipeline.hpp"

namespace perfbench {
namespace {

using namespace coreda;

constexpr std::size_t kHomes = 64;
constexpr std::size_t kWarmSessions = 1;
constexpr std::size_t kCountSessions = 8;
constexpr std::size_t kOpReserve = std::size_t{1} << 22;
constexpr double kWindowSeconds = 1.0;
constexpr std::size_t kSpanReserve = std::size_t{1} << 20;
constexpr sim::Duration kSessionCap = sim::Duration::minutes(15.0);

/// Keeps the predict probe's results observable.
volatile double g_sink = 0.0;

struct Home {
  const adl::Adl* adl = nullptr;
  std::vector<adl::ToolId> tools;
  patient::PatientProfile profile;
  std::unique_ptr<core::CoredaSystem> system;
  core::SessionResult result;
};

struct Fixture {
  adl::AdlLibrary library;
  std::unique_ptr<planning::RoutineLearner> tea_donor;
  std::unique_ptr<planning::RoutineLearner> tooth_donor;
  std::vector<Home> homes;
};

std::unique_ptr<planning::RoutineLearner> train_donor(const adl::Adl& adl) {
  std::vector<adl::StepId> routine;
  for (const adl::AdlStep& s : adl.primary_routine().steps()) {
    routine.push_back(s.step_id());
  }
  auto donor = std::make_unique<planning::RoutineLearner>(adl, util::Rng(17));
  for (int i = 0; i < 80; ++i) donor->train_episode(routine);
  return donor;
}

/// Home `index` of seed `seed`: even homes make tea, odd homes brush
/// teeth.
Home make_home(const Fixture& f, std::size_t index, std::uint64_t seed,
               double severity) {
  Home h;
  const bool tea = index % 2 == 0;
  h.adl = tea ? &f.library.tea_making() : &f.library.tooth_brushing();
  h.tools = h.adl->tools();
  h.profile = patient::PatientProfile::with_severity(
      "home" + std::to_string(index), severity);
  core::SystemConfig config;
  config.seed = exec::trial_seed(exec::trial_seed(seed, 2), index);
  config.learn_from_sessions = false;
  h.system = std::make_unique<core::CoredaSystem>(f.library, *h.adl, config);
  h.system->import_policy(tea ? f.tea_donor->q() : f.tooth_donor->q());
  for (std::size_t s = 0; s < kWarmSessions; ++s) {
    h.system->run_session_inplace(h.profile, kSessionCap, {}, h.result);
  }
  return h;
}

std::unique_ptr<Fixture> build_fixture(std::uint64_t seed) {
  auto f = std::make_unique<Fixture>();
  f->tea_donor = train_donor(f->library.tea_making());
  f->tooth_donor = train_donor(f->library.tooth_brushing());
  const std::vector<double> severity =
      stratified_severities(exec::trial_seed(seed, 1), kHomes);
  f->homes.reserve(kHomes);
  for (std::size_t i = 0; i < kHomes; ++i) {
    f->homes.push_back(make_home(*f, i, seed, severity[i]));
  }
  return f;
}

/// Exact work counts of the count pass, summed over sessions.
struct Counts {
  std::uint64_t sessions = 0;
  std::uint64_t completed = 0;
  std::uint64_t samples = 0;
  std::uint64_t announcements = 0;
  std::uint64_t detections = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t station_packets = 0;
  std::uint64_t virtual_us = 0;
  std::uint64_t steps = 0;
  std::uint64_t prompts = 0;
  std::uint64_t minimal = 0;
  std::uint64_t praises = 0;
  std::uint64_t failed = 0;
  std::string failure;

  void merge(const Counts& o) {
    sessions += o.sessions;
    completed += o.completed;
    samples += o.samples;
    announcements += o.announcements;
    detections += o.detections;
    frames_sent += o.frames_sent;
    frames_delivered += o.frames_delivered;
    station_packets += o.station_packets;
    virtual_us += o.virtual_us;
    steps += o.steps;
    prompts += o.prompts;
    minimal += o.minimal;
    praises += o.praises;
    failed += o.failed;
    if (failure.empty()) failure = o.failure;
  }
};

/// Digest of one session's observable outcome.
void digest_session(const core::SessionResult& r, Hasher& h) {
  h.add(static_cast<std::uint64_t>(r.observed_steps.size()));
  for (adl::StepId id : r.observed_steps) h.add(std::uint64_t{id});
  h.add(static_cast<std::uint64_t>(r.prompts_total));
  h.add(static_cast<std::uint64_t>(r.completed));
}

/// Serves one session and adds its work counts, read from the layers'
/// public accessors, to `c`.
void serve_counted(Home& h, Counts& c, Hasher& digest) {
  core::CoredaSystem& sys = *h.system;
  std::uint64_t samples0 = 0, announcements0 = 0;
  for (adl::ToolId t : h.tools) {
    samples0 += sys.node(t).samples();
    announcements0 += sys.node(t).announcements();
  }
  const pavenet::ChannelStats radio0 = sys.channel().stats();
  const std::uint64_t packets0 = sys.station().packets_received();
  sys.run_session_inplace(h.profile, kSessionCap, {}, h.result);
  for (adl::ToolId t : h.tools) {
    c.samples += sys.node(t).samples();
    c.announcements += sys.node(t).announcements();
  }
  c.samples -= samples0;
  c.announcements -= announcements0;
  c.detections += sys.station().episodes().size();
  c.frames_sent += sys.channel().stats().sent - radio0.sent;
  c.frames_delivered += sys.channel().stats().delivered - radio0.delivered;
  c.station_packets += sys.station().packets_received() - packets0;
  const core::SessionResult& r = h.result;
  ++c.sessions;
  c.completed += r.completed;
  c.virtual_us += static_cast<std::uint64_t>(r.elapsed.total_micros());
  c.steps += r.steps_completed;
  c.prompts += r.prompts_total;
  c.minimal += r.prompts_minimal;
  c.praises += r.praises;
  digest_session(r, digest);
}

struct PhaseResult {
  std::uint64_t sessions = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::string failure;
  double seconds = 0.0;
};

/// The timed closed loop: every job serves its homes round-robin for
/// `windows` windows. Sessions land in `ops[job]`.
PhaseResult run_phase(Fixture& f, exec::TrialRunner& runner, std::size_t jobs,
                      std::size_t windows, std::vector<OpLog>& ops,
                      Trace* trace) {
  struct JobResult {
    std::uint64_t sessions = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t end_ns = 0;
    std::string failure;
  };
  const auto window_ns = static_cast<std::uint64_t>(kWindowSeconds * 1e9);
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline = start + windows * window_ns;
  for (OpLog& log : ops) log.start(start, window_ns, windows, kOpReserve);
  const std::vector<JobResult> results =
      runner.run(jobs, 0, [&](exec::TrialContext& ctx) {
        JobResult r;
        OpLog& log_ops = ops[ctx.index];
        SpanLog* log = trace ? trace->log(ctx.index) : nullptr;
        const Scoped loop(log, kHomeLoop, ctx.index);
        std::size_t next = ctx.index;
        std::uint64_t t = now_ns();
        while (t < deadline) {
          const std::size_t home = next;
          Home& h = f.homes[home];
          next += jobs;
          if (next >= f.homes.size()) next = ctx.index;
          const std::uint64_t t0 = now_ns();
          try {
            const Scoped span(log, kRunSession,
                              (std::uint64_t{home} << 32) | r.sessions,
                              loop.index());
            h.system->run_session_inplace(h.profile, kSessionCap, {},
                                          h.result);
            r.completed += h.result.completed;
            if (h.result.observed_steps.size() > core::kMaxSessionSteps) {
              ++r.failed;
              r.failure = "session recorded more steps than provisioned";
            }
          } catch (const std::exception& e) {
            ++r.failed;
            r.failure = e.what();
          }
          t = now_ns();
          ++r.sessions;
          log_ops.record(t, t - t0, 1);
        }
        r.end_ns = t;
        return r;
      });
  PhaseResult out;
  std::uint64_t end = start;
  for (const JobResult& r : results) {
    out.sessions += r.sessions;
    out.completed += r.completed;
    out.failed += r.failed;
    if (out.failure.empty()) out.failure = r.failure;
    end = std::max(end, r.end_ns);
  }
  out.seconds = static_cast<double>(end - start) * 1e-9;
  return out;
}

/// Marginal ns per synthesized sample of the offline sensing stack, on
/// timed episodes scripted from the workload's own home profiles. Each
/// script runs once as is and once played twice over; the difference
/// cancels the per-run cost of building a fresh stack, leaving the cost of
/// sampling, voting, radio and station work per sample.
double pipeline_probe(const Fixture& f, std::uint64_t seed, Trace& probes) {
  struct Script {
    const adl::Adl* adl = nullptr;
    std::vector<patient::TimedStep> once;
    std::vector<patient::TimedStep> twice;
    std::int64_t virtual_us = 0;  ///< length of `once`
  };
  std::vector<Script> scripts;
  for (std::size_t i = 0; i < 16; ++i) {
    const Home& h = f.homes[i];
    patient::BehaviorGenerator gen(
        *h.adl, f.library.tools(), h.profile,
        util::Rng(exec::trial_seed(exec::trial_seed(seed, 3), i)));
    Script s;
    s.adl = h.adl;
    s.once = gen.timed_episode();
    s.twice = s.once;
    s.twice.insert(s.twice.end(), s.once.begin(), s.once.end());
    for (const patient::TimedStep& step : s.once) {
      s.virtual_us += step.think.total_micros() + step.manipulation.total_micros();
    }
    scripts.push_back(std::move(s));
  }
  const std::uint64_t pipe_seed = exec::trial_seed(seed, 4);
  trace::SensingPipeline tea(f.library.tools(), f.library.tea_making().tools(),
                             pipe_seed);
  trace::SensingPipeline tooth(f.library.tools(),
                               f.library.tooth_brushing().tools(), pipe_seed);
  const std::int64_t period_us =
      1'000'000 / tea.params().firmware.sampling_hz;
  const auto timed_run = [&](trace::SensingPipeline& pipe,
                             const std::vector<patient::TimedStep>& script,
                             std::uint64_t id) {
    const std::uint64_t t0 = now_ns();
    {
      const Scoped span(probes.log(0), kPipelineProbe, id);
      pipe.run(script);
    }
    return static_cast<double>(now_ns() - t0);
  };
  double extra_ns = 0.0, extra_samples = 0.0;
  const std::uint64_t stop = now_ns() + 300'000'000;  // 0.3 s of probing
  for (std::size_t run = 0; run < 32 || now_ns() < stop; ++run) {
    const Script& s = scripts[run % scripts.size()];
    trace::SensingPipeline& pipe =
        s.adl == &f.library.tea_making() ? tea : tooth;
    extra_ns += timed_run(pipe, s.twice, 2 * run + 1) -
                timed_run(pipe, s.once, 2 * run);
    // Every node samples at the firmware rate for the whole script, so the
    // second playing adds the script's length times the rate per node.
    extra_samples += static_cast<double>(s.adl->tools().size()) *
                     static_cast<double>(s.virtual_us / period_us);
  }
  return extra_ns / extra_samples;
}

/// ns per RoutineLearner::predict call over the count pass's observed
/// <prev, cur> step pairs, on one home of each ADL.
double predict_probe(const Fixture& f,
                     const std::vector<std::vector<std::vector<adl::StepId>>>&
                         observed,
                     Trace& probes) {
  double ns = 0.0, calls = 0.0, sink = 0.0;
  const std::uint64_t stop = now_ns() + 200'000'000;  // 0.2 s of probing
  for (std::uint64_t pass = 0; pass < 4 || now_ns() < stop; ++pass) {
    for (std::size_t home = 0; home < 2; ++home) {
      const planning::RoutineLearner& learner =
          f.homes[home].system->learner();
      const std::uint64_t t0 = now_ns();
      std::uint64_t n = 0;
      {
        const Scoped span(probes.log(0), kPredictProbe, pass);
        for (std::size_t i = home; i < observed.size(); i += 2) {
          for (const std::vector<adl::StepId>& steps : observed[i]) {
            adl::StepId prev = adl::kIdleStep;
            for (adl::StepId cur : steps) {
              const auto prompt = learner.predict(prev, cur);
              sink += prompt ? prompt->q : 0.0;
              prev = cur;
              ++n;
            }
          }
        }
      }
      ns += static_cast<double>(now_ns() - t0);
      calls += static_cast<double>(n);
    }
  }
  g_sink = sink;
  return ns / std::max(calls, 1.0);
}

}  // namespace

Report run_home_serve(const Options& options) {
  Report report;
  const std::size_t jobs = std::min(options.jobs, kHomes);
  report.jobs = jobs;
  exec::TrialRunner runner(jobs);

  std::unique_ptr<Fixture> fixture;
  report.e2e("setup_s", timed_setups(kSetupReps, [&] {
               fixture.reset();
               fixture = build_fixture(options.seed);
             }));
  Fixture& f = *fixture;

  // Count pass: a fixed kCountSessions per home, so every count (and the
  // digest) is a pure function of the seed at any job count.
  std::vector<Hasher> home_digest(kHomes);
  std::vector<std::vector<std::vector<adl::StepId>>> observed(kHomes);
  const std::vector<Counts> parts =
      runner.run(jobs, 0, [&](exec::TrialContext& ctx) {
        Counts c;
        for (std::size_t i = ctx.index; i < kHomes; i += jobs) {
          for (std::size_t s = 0; s < kCountSessions; ++s) {
            try {
              serve_counted(f.homes[i], c, home_digest[i]);
              observed[i].push_back(f.homes[i].result.observed_steps);
            } catch (const std::exception& e) {
              ++c.failed;
              c.failure = e.what();
            }
          }
        }
        return c;
      });
  Counts counts;
  for (const Counts& c : parts) counts.merge(c);
  report.ops(kHomes * kCountSessions);
  for (std::uint64_t i = 0; i < counts.failed; ++i) report.fail(counts.failure);
  Hasher digest;
  for (const Hasher& h : home_digest) digest.add(h.value());
  report.digest("sessions", digest.value());

  // Peak memory through set-up and the fixed count pass: the timed phase's
  // growth would depend on how many ops the host lets it fit.
  report.e2e("peak_rss_mb", peak_rss_mb());

  // Replay check: a freshly built home 0 must serve the same sessions as the
  // warm one did (reset-don't-rebuild leaks no state between sessions).
  {
    Home replay = make_home(f, 0, options.seed, f.homes[0].profile.severity);
    Counts scratch;
    Hasher h;
    for (std::size_t s = 0; s < kCountSessions; ++s) {
      serve_counted(replay, scratch, h);
    }
    report.op(h.value() == home_digest[0].value(),
              "home 0 replay digest differs from its count pass");
  }

  // Timed phase. The traced run measures the first half untraced (its
  // end-to-end numbers) and the second half traced, so the gap between the
  // halves is the tracing overhead.
  std::vector<OpLog> ops(jobs);
  const std::size_t windows = window_count(
      options.trace ? options.seconds / 2 : options.seconds, kWindowSeconds);
  const PhaseResult timed = run_phase(f, runner, jobs, windows, ops, nullptr);
  report.ops(timed.sessions);
  for (std::uint64_t i = 0; i < timed.failed; ++i) report.fail(timed.failure);
  const WindowStats stats = summarize(ops);
  report.e2e("ops_per_s", stats.units_per_s);
  report.e2e("op_p50_ms", stats.p50_ms);
  report.e2e("op_p95_ms", stats.p95_ms);
  print_windows("home_serve", stats);
  const double mean_ns = stats.mean_ms * 1e6;

  std::printf("# home_serve: %zu homes, %llu timed sessions in %.3f s, "
              "%llu completed; count pass %llu sessions\n",
              kHomes, static_cast<unsigned long long>(timed.sessions),
              timed.seconds, static_cast<unsigned long long>(timed.completed),
              static_cast<unsigned long long>(counts.sessions));

  if (options.trace) {
    Trace trace(jobs, kSpanReserve);
    const PhaseResult traced =
        run_phase(f, runner, jobs, windows, ops, &trace);
    report.ops(traced.sessions);
    for (std::uint64_t i = 0; i < traced.failed; ++i) {
      report.fail(traced.failure);
    }
    const double traced_rate =
        static_cast<double>(traced.sessions) / traced.seconds;

    Trace probes(1, 1 << 16);
    const double ns_per_sample = pipeline_probe(f, options.seed, probes);
    const double predict_ns = predict_probe(f, observed, probes);

    const auto per_session = [&](std::uint64_t v) {
      return static_cast<double>(v) / static_cast<double>(counts.sessions);
    };
    const double samples_per_session = per_session(counts.samples);
    report.layer("sensors.samples_per_session", samples_per_session);
    report.layer("sensors.samples_per_virtual_s",
                 static_cast<double>(counts.samples) /
                     (static_cast<double>(counts.virtual_us) * 1e-6));
    report.layer("sensors.pipeline_ns_per_sample", ns_per_sample);
    report.layer("sensors.share_est",
                 samples_per_session * ns_per_sample / mean_ns);
    report.layer("pavenet.announcements_per_session",
                 per_session(counts.announcements));
    report.layer("pavenet.detect_per_ksample",
                 1000.0 * static_cast<double>(counts.detections) /
                     static_cast<double>(counts.samples));
    report.layer("pavenet.frames_sent_per_session",
                 per_session(counts.frames_sent));
    report.layer("pavenet.delivery_ratio",
                 static_cast<double>(counts.frames_delivered) /
                     static_cast<double>(counts.frames_sent));
    report.layer("pavenet.station_packets_per_session",
                 per_session(counts.station_packets));
    report.layer("core.virtual_s_per_session",
                 per_session(counts.virtual_us) * 1e-6);
    report.layer("core.completion_rate", per_session(counts.completed));
    report.layer("core.session_ns", median(trace.durations(kRunSession)));
    report.layer("patient.steps_per_session", per_session(counts.steps));
    report.layer("planning.predict_ns", predict_ns);
    report.layer("reminding.prompts_per_session", per_session(counts.prompts));
    report.layer("reminding.minimal_share",
                 counts.prompts ? static_cast<double>(counts.minimal) /
                                      static_cast<double>(counts.prompts)
                                : 0.0);
    report.layer("reminding.praises_per_session", per_session(counts.praises));
    double total = 0.0;
    const auto self = trace.self_time_by_layer();
    for (const auto& [layer, ns] : self) total += ns;
    for (const auto& [layer, ns] : self) {
      report.layer("self_share." + layer, ns / total);
    }
    report.layer("trace.overhead_share",
                 static_cast<double>(timed.sessions) / timed.seconds /
                         traced_rate -
                     1.0);
    report.layer("trace.spans", static_cast<double>(trace.spans()));
    report.layer("trace.dropped_spans", static_cast<double>(trace.dropped()));
    trace.write_tsv(options.out_dir + "/home_serve.spans.tsv");
    probes.write_tsv(options.out_dir + "/home_serve.probes.tsv");
  }
  return report;
}

}  // namespace perfbench
