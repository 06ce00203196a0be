// P1 (DESIGN.md): micro-benchmarks of the hot paths, for the record the
// paper keeps implicitly ("running on IBM ThinkPad X32 with Pentium M
// 1.8 GHz") — absolute numbers differ on modern hardware, but the costs
// stay microscopic relative to the 10 Hz sensing cadence.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <numeric>
#include <sstream>

#include "adl/library.hpp"
#include "pavenet/detector.hpp"
#include "pavenet/node.hpp"
#include "planning/learner.hpp"
#include "planning/serialize.hpp"
#include "rl/lane_kernels.hpp"
#include "serve/segment_store.hpp"
#include "serve/user_index.hpp"
#include "rl/td_lambda.hpp"
#include "sensors/models.hpp"
#include "sim/scheduler.hpp"
#include "trace/dataset.hpp"
#include "trace/sensing_pipeline.hpp"
// Global allocation counter (replaces this binary's operator new): the
// scheduler and train_episode benches assert their "zero allocations per
// event / episode at steady state" claims through it.
#include "util/alloc_counter.hpp"

namespace {

using namespace coreda;

void BM_QTableUpdate(benchmark::State& state) {
  rl::TdLambdaQLearning learner(25, 8);
  rl::Transition t{3, 2, 100.0, 7, false};
  for (auto _ : state) {
    benchmark::DoNotOptimize(learner.observe(t));
  }
}
BENCHMARK(BM_QTableUpdate);

void BM_CounterfactualSweep(benchmark::State& state) {
  rl::TdLambdaQLearning learner(25, 8);
  for (auto _ : state) {
    for (rl::ActionId a = 0; a < 8; ++a) {
      benchmark::DoNotOptimize(
          learner.update_counterfactual(3, a, 100.0, 7, false));
    }
  }
}
BENCHMARK(BM_CounterfactualSweep);

void BM_TrainEpisode(benchmark::State& state) {
  adl::AdlLibrary library;
  planning::RoutineLearner learner(library.tea_making(), util::Rng(1));
  const std::vector<adl::StepId> steps{
      adl::tools::kTeaBox, adl::tools::kElectricPot, adl::tools::kKettle,
      adl::tools::kTeaCup};
  // Warm the scratch buffers past their growth phase, then assert the
  // training hot path's contract: allocs_per_episode == 0 at steady state.
  for (int i = 0; i < 8; ++i) learner.train_episode(steps);
  std::uint64_t episodes = 0;
  const std::uint64_t allocs_before = util::allocation_count();
  for (auto _ : state) {
    learner.train_episode(steps);
    ++episodes;
  }
  state.counters["allocs_per_episode"] =
      static_cast<double>(util::allocation_count() - allocs_before) /
      static_cast<double>(episodes);
}
BENCHMARK(BM_TrainEpisode);

void BM_Predict(benchmark::State& state) {
  adl::AdlLibrary library;
  planning::RoutineLearner learner(library.tea_making(), util::Rng(1));
  const std::vector<adl::StepId> steps{
      adl::tools::kTeaBox, adl::tools::kElectricPot, adl::tools::kKettle,
      adl::tools::kTeaCup};
  for (int i = 0; i < 120; ++i) learner.train_episode(steps);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        learner.predict(adl::tools::kTeaBox, adl::tools::kElectricPot));
  }
}
BENCHMARK(BM_Predict);

void BM_DetectorSample(benchmark::State& state) {
  pavenet::ThresholdDetector detector(0.3, 10, 3);
  double x = 0.1;
  for (auto _ : state) {
    x = x > 0.5 ? 0.1 : x + 0.07;
    benchmark::DoNotOptimize(detector.add_sample(x));
  }
}
BENCHMARK(BM_DetectorSample);

void BM_SensorSample(benchmark::State& state) {
  sensors::AccelerometerModel model;
  util::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.sample(sim::TimePoint::origin(), 0.7, 1.0, rng));
  }
}
BENCHMARK(BM_SensorSample);

// --- Idle accelerometer windows: full values vs decisions vs draws ---------
// One 10-sample idle vote window per iteration at the default threshold
// (items = samples). The draws-only floor makes the same generator calls
// as the kernel and nothing else.

constexpr std::size_t kIdleWindow = 10;

void BM_AccelIdleSampleLoop(benchmark::State& state) {
  sensors::AccelerometerModel model;
  util::Rng rng(5);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kIdleWindow; ++i) {
      benchmark::DoNotOptimize(
          model.sample(sim::TimePoint::origin(), 0.0, 1.0, rng));
    }
  }
  state.SetItemsProcessed(state.iterations() * kIdleWindow);
}
BENCHMARK(BM_AccelIdleSampleLoop);

void BM_AccelIdleHitBlock(benchmark::State& state) {
  sensors::AccelerometerModel model;
  util::Rng rng(5);
  const double activations[kIdleWindow] = {};
  std::uint8_t hits[kIdleWindow];
  for (auto _ : state) {
    model.hit_block(sim::TimePoint::origin(), sim::Duration::millis(100),
                    activations, kIdleWindow, 1.0,
                    model.recommended_threshold(), rng, hits);
    benchmark::DoNotOptimize(hits);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kIdleWindow);
}
BENCHMARK(BM_AccelIdleHitBlock);

void BM_AccelIdleDrawsOnly(benchmark::State& state) {
  const sensors::AccelerometerModel::Params params;
  util::Rng rng(5);
  for (auto _ : state) {
    // Per sample: bump trial, two tilt angles, 1.5 polar pairs.
    for (std::size_t i = 0; i < kIdleWindow; ++i) {
      benchmark::DoNotOptimize(rng.bernoulli(params.bump_probability));
      benchmark::DoNotOptimize(rng.uniform());
      benchmark::DoNotOptimize(rng.uniform());
      benchmark::DoNotOptimize(rng.polar());
      if (i % 2 == 0) benchmark::DoNotOptimize(rng.polar());
    }
  }
  state.SetItemsProcessed(state.iterations() * kIdleWindow);
}
BENCHMARK(BM_AccelIdleDrawsOnly);

// --- Scheduler hot paths ---------------------------------------------------
// Before the slot-pool rewrite every schedule_* call heap-allocated a
// shared_ptr<bool> control block and every periodic reschedule copied the
// std::function; the benches below record the rewrite's contract:
// allocs_per_event == 0 at steady state.

void BM_SchedulerOneShotScheduleFire(benchmark::State& state) {
  sim::Scheduler s;
  // Warm the slot pool and heap storage past their growth phase.
  for (int i = 0; i < 64; ++i) {
    s.schedule_after(sim::Duration::millis(1), [] {});
  }
  s.run();
  std::uint64_t events = 0;
  const std::uint64_t allocs_before = util::allocation_count();
  for (auto _ : state) {
    s.schedule_after(sim::Duration::millis(1), [] {});
    s.run(1);
    ++events;
  }
  state.counters["allocs_per_event"] =
      static_cast<double>(util::allocation_count() - allocs_before) /
      static_cast<double>(events);
}
BENCHMARK(BM_SchedulerOneShotScheduleFire);

void BM_SchedulerScheduleCancel(benchmark::State& state) {
  sim::Scheduler s;
  for (int i = 0; i < 64; ++i) {
    s.schedule_after(sim::Duration::millis(1), [] {}).cancel();
  }
  s.run();
  std::uint64_t events = 0;
  const std::uint64_t allocs_before = util::allocation_count();
  for (auto _ : state) {
    sim::EventHandle h = s.schedule_after(sim::Duration::millis(1), [] {});
    h.cancel();
    s.run_until(s.now());  // reaps the cancelled event without firing
    ++events;
  }
  state.counters["allocs_per_event"] =
      static_cast<double>(util::allocation_count() - allocs_before) /
      static_cast<double>(events);
}
BENCHMARK(BM_SchedulerScheduleCancel);

void BM_SchedulerPeriodicFire(benchmark::State& state) {
  // The dominant workload: a long-lived periodic series (a firmware task)
  // firing event after event. The series must reuse its slot and callback.
  sim::Scheduler s;
  std::uint64_t ticks = 0;
  s.schedule_periodic(sim::Duration::millis(100), [&ticks] { ++ticks; });
  s.run(64);  // steady state
  std::uint64_t events = 0;
  const std::uint64_t allocs_before = util::allocation_count();
  for (auto _ : state) {
    s.run(1);
    ++events;
  }
  benchmark::DoNotOptimize(ticks);
  state.counters["allocs_per_event"] =
      static_cast<double>(util::allocation_count() - allocs_before) /
      static_cast<double>(events);
}
BENCHMARK(BM_SchedulerPeriodicFire);

void BM_SchedulerManyPeriodicTasks(benchmark::State& state) {
  // Eight co-scheduled firmware tasks (one per instrumented tool) for one
  // virtual second per iteration — the per-trial scheduler load of a
  // deployment-sized simulation.
  sim::Scheduler s;
  std::uint64_t ticks = 0;
  for (int i = 0; i < 8; ++i) {
    s.schedule_periodic(sim::Duration::millis(100), [&ticks] { ++ticks; });
  }
  s.run_for(sim::Duration::seconds(1.0));
  for (auto _ : state) {
    s.run_for(sim::Duration::seconds(1.0));
  }
  benchmark::DoNotOptimize(ticks);
}
BENCHMARK(BM_SchedulerManyPeriodicTasks);

// --- Firmware sampling: per-tick vs batched --------------------------------
// 100 virtual seconds of one node with scripted manipulations; the batched
// task (FirmwareConfig::batch_sampling) takes the same samples with 10x
// fewer scheduler events.

void node_sampling_run(benchmark::State& state, bool batch) {
  adl::AdlLibrary library;
  for (auto _ : state) {
    sim::Scheduler scheduler;
    sensors::ManipulationWorld world;
    pavenet::RadioChannel channel(scheduler, util::Rng(1));
    pavenet::FirmwareConfig config;
    config.batch_sampling = batch;
    pavenet::PavenetNode node(library.tools().at(adl::tools::kKettle),
                              scheduler, world, channel, util::Rng(7),
                              config);
    node.power_on();
    for (int m = 0; m < 10; ++m) {
      scheduler.schedule_at(
          sim::TimePoint::from_seconds(m * 10.0 + 1.3), [&scheduler, &world] {
            world.begin(adl::tools::kKettle, scheduler.now(),
                        sim::Duration::seconds(6.0));
          });
    }
    scheduler.run_until(sim::TimePoint::from_seconds(100.0));
    node.power_off();
    benchmark::DoNotOptimize(node.samples());
  }
}

void BM_NodeSamplingPerTick(benchmark::State& state) {
  node_sampling_run(state, false);
}
BENCHMARK(BM_NodeSamplingPerTick)->Unit(benchmark::kMillisecond);

void BM_NodeSamplingBatched(benchmark::State& state) {
  node_sampling_run(state, true);
}
BENCHMARK(BM_NodeSamplingBatched)->Unit(benchmark::kMillisecond);

// --- P7 lane-engine & v3 snapshot kernels ----------------------------------
// The batched trace-decay kernel is the only per-step lane operation that
// touches every trace entry; the v3 delta codec is the nightly flush path.

void BM_LaneTraceDecayBatch(benchmark::State& state) {
  // Eight lane slots of compact traces decayed in lockstep. Cutoff 0.0
  // keeps the entry count fixed so every iteration does identical work
  // (entries decay toward zero but are never compacted out).
  constexpr std::size_t kSlots = 8;
  constexpr std::uint32_t kEntries = 32;
  std::vector<double> vals(kSlots * kEntries, 1.0);
  std::vector<std::uint32_t> idxs(kSlots * kEntries);
  std::iota(idxs.begin(), idxs.end(), 0u);
  std::vector<std::uint32_t> lens(kSlots, kEntries);
  for (auto _ : state) {
    for (std::size_t s = 0; s < kSlots; ++s) {
      rl::kern::decay_compact(vals.data() + s * kEntries,
                              idxs.data() + s * kEntries, &lens[s],
                              0.9 * 0.7, 0.0);
    }
    benchmark::DoNotOptimize(vals.data());
    benchmark::DoNotOptimize(lens.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSlots * kEntries);
}
BENCHMARK(BM_LaneTraceDecayBatch);

void BM_LaneCfUpdateRow(benchmark::State& state) {
  // One fused counterfactual row backup — the kernel behind the lane
  // engine's per-step full-row sweep.
  constexpr std::size_t kActions = 8;
  double row[kActions];
  double rewards[kActions];
  for (std::size_t a = 0; a < kActions; ++a) {
    row[a] = 1000.0 - static_cast<double>(a);
    rewards[a] = a == 3 ? 100.0 : -10.0;
  }
  for (auto _ : state) {
    rl::kern::cf_update(row, rewards, 0.9 * 900.0, 0.1, 3, kActions);
    benchmark::DoNotOptimize(row);
  }
}
BENCHMARK(BM_LaneCfUpdateRow);

void BM_PolicyV3DeltaEncode(benchmark::State& state) {
  // Diff + serialize one nightly retrain's worth of changed rows (three of
  // the trained table's rows) against the last committed snapshot.
  adl::AdlLibrary library;
  planning::RoutineLearner learner(library.tea_making(), util::Rng(1));
  const std::vector<adl::StepId> steps{
      adl::tools::kTeaBox, adl::tools::kElectricPot, adl::tools::kKettle,
      adl::tools::kTeaCup};
  for (int i = 0; i < 80; ++i) learner.train_episode(steps);
  const rl::QTable base = learner.q();
  rl::QTable next = base;
  for (rl::StateId s : {0, 2, 5}) {
    for (rl::ActionId a = 0;
         a < static_cast<rl::ActionId>(next.num_actions()); ++a) {
      next.set(s, a, next.get(s, a) + 0.25);
    }
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string record = planning::encode_policy_v3_delta(base, next,
                                                                2, 1);
    bytes += record.size();
    benchmark::DoNotOptimize(record.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_PolicyV3DeltaEncode);

void BM_PolicyV3ChainDecode(benchmark::State& state) {
  // Restore an anchor + 8-delta chain (a week of nightly single-row
  // retrains between rebases) into a scratch table.
  adl::AdlLibrary library;
  planning::RoutineLearner learner(library.tea_making(), util::Rng(1));
  const std::vector<adl::StepId> steps{
      adl::tools::kTeaBox, adl::tools::kElectricPot, adl::tools::kKettle,
      adl::tools::kTeaCup};
  for (int i = 0; i < 80; ++i) learner.train_episode(steps);
  const auto step_vocab = learner.state_codec().symbols();
  const auto tool_vocab = learner.action_codec().tools();
  rl::QTable cur = learner.q();
  std::ostringstream blob;
  planning::save_policy_v3_full(blob, step_vocab, tool_vocab, cur, 1);
  for (std::uint64_t d = 0; d < 8; ++d) {
    rl::QTable next = cur;
    const rl::StateId s = static_cast<rl::StateId>(d % cur.num_states());
    next.set(s, 0, next.get(s, 0) + 1.0);
    blob << planning::encode_policy_v3_delta(cur, next, d + 2, d + 1);
    cur = next;
  }
  const std::string bytes = blob.str();
  rl::QTable scratch(cur.num_states(), cur.num_actions());
  for (auto _ : state) {
    std::istringstream in(bytes);
    benchmark::DoNotOptimize(
        planning::load_policy_v3(in, step_vocab, tool_vocab, scratch));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_PolicyV3ChainDecode);

void BM_SegmentDeltaAppend(benchmark::State& state) {
  // One fleet write-back on the delta path: diff the session's touched row
  // against the user's previous record and append a CRDADEL2 record into
  // the mmap tail (anchor every rebase_every-th iteration, amortized in).
  adl::AdlLibrary library;
  planning::RoutineLearner learner(library.tea_making(), util::Rng(1));
  const std::vector<adl::StepId> steps{
      adl::tools::kTeaBox, adl::tools::kElectricPot, adl::tools::kKettle,
      adl::tools::kTeaCup};
  for (int i = 0; i < 80; ++i) learner.train_episode(steps);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "coreda_micro_delta")
          .string();
  std::filesystem::remove_all(dir);
  serve::SegmentStoreParams params;
  params.dir = dir;
  params.compact_min_records = std::size_t{1} << 30;  // never compact
  serve::SegmentStore store(learner.state_codec().symbols(),
                            learner.action_codec().tools(),
                            learner.q().num_states(),
                            learner.q().num_actions(), params);
  store.reserve_users(1);
  rl::QTable q = learner.q();
  std::uint64_t version = 0;
  store.append(0, q, ++version);
  for (auto _ : state) {
    const auto s = static_cast<rl::StateId>(version % q.num_states());
    q.set(s, 0, q.get(s, 0) + 1.0);
    store.append(0, q, ++version);
    benchmark::DoNotOptimize(version);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(store.appended_bytes()));
  state.counters["bytes_per_append"] =
      static_cast<double>(store.appended_bytes()) /
      static_cast<double>(store.appends());
}
BENCHMARK(BM_SegmentDeltaAppend);

void BM_SegmentChainLoad(benchmark::State& state) {
  // Cold checkout of a user sitting at the deep end of a delta chain:
  // walk back-pointers to the anchor, then apply every delta forward.
  adl::AdlLibrary library;
  planning::RoutineLearner learner(library.tea_making(), util::Rng(1));
  const std::vector<adl::StepId> steps{
      adl::tools::kTeaBox, adl::tools::kElectricPot, adl::tools::kKettle,
      adl::tools::kTeaCup};
  for (int i = 0; i < 80; ++i) learner.train_episode(steps);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "coreda_micro_chain")
          .string();
  std::filesystem::remove_all(dir);
  serve::SegmentStoreParams params;
  params.dir = dir;
  params.rebase_every = 16;
  serve::SegmentStore store(learner.state_codec().symbols(),
                            learner.action_codec().tools(),
                            learner.q().num_states(),
                            learner.q().num_actions(), params);
  store.reserve_users(1);
  rl::QTable q = learner.q();
  for (std::uint64_t v = 1; v <= 16; ++v) {  // anchor + 15 deltas
    store.append(0, q, v);
    const auto s = static_cast<rl::StateId>(v % q.num_states());
    q.set(s, 0, q.get(s, 0) + 1.0);
  }
  rl::QTable scratch(q.num_states(), q.num_actions());
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.load(0, scratch));
  }
}
BENCHMARK(BM_SegmentChainLoad);

void BM_UserIndexProbe(benchmark::State& state) {
  // The per-serve index lookup at fleet scale: 1M dense user ids in the
  // open-addressed robin-hood slab at 7/8 load, hit probes only.
  constexpr std::uint64_t kUsers = 1'000'000;
  serve::UserIndex index;
  index.reserve(kUsers);
  for (std::uint64_t u = 0; u < kUsers; ++u) {
    index.put(u, {static_cast<std::uint32_t>(u & 0x3FFF),
                  static_cast<std::uint32_t>(u & 0xFFFFF)});
  }
  serve::UserIndex::Loc loc;
  std::uint64_t u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.find(u, loc));
    u = (u + 777779) % kUsers;  // co-prime stride: visit every id
  }
  state.counters["slab_bytes_per_user"] =
      static_cast<double>(index.slab_bytes()) / static_cast<double>(kUsers);
}
BENCHMARK(BM_UserIndexProbe);

void BM_FullSensedEpisode(benchmark::State& state) {
  adl::AdlLibrary library;
  trace::SensingPipeline pipeline(library.tools(),
                                  library.tea_making().tools(), 9);
  patient::BehaviorGenerator gen(
      library.tea_making(), library.tools(),
      patient::PatientProfile::with_severity("U", 0.0), util::Rng(10));
  const auto episode = gen.timed_episode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.run(episode));
  }
}
BENCHMARK(BM_FullSensedEpisode)->Unit(benchmark::kMillisecond);

}  // namespace
