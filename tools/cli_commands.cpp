#include "tools/cli_commands.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "core/home.hpp"
#include "core/scenario.hpp"
#include "core/system.hpp"
#include "faults/faults.hpp"
#include "planning/serialize.hpp"
#include "serve/chaos.hpp"
#include "serve/engine.hpp"
#include "serve/scenario_runner.hpp"
#include "sim/scenario_dsl.hpp"
#include "serve/segment_store.hpp"
#include "trace/dataset.hpp"
#include "util/table.hpp"

namespace coreda::cli {

namespace {

constexpr const char* kUsage = R"(coreda — context-aware ADL reminding (CoReDA reproduction)

usage: coreda <command> [--flags]

commands:
  list                         the deployment catalog (ADLs, tools, uids)
  simulate  --adl=<name> [--severity=0.5] [--sessions=3] [--seed=42]
            [--transcript]    closed-loop assisted sessions
  train     --adl=<name> --out=<file> [--episodes=120] [--seed=42]
                              train a planner, save a v2 policy snapshot
  prompt    --adl=<name> --policy=<file> [--prev=<uid>] [--cur=<uid>]
                              next-step prompt from a saved policy
  policy save    --adl=<name> --out=<file> [--episodes=120] [--seed=42]
                 [--format=v2|v3] [--version=1]
                              train and save a policy snapshot
  policy load    --adl=<name> --in=<file>
                              load a snapshot (v2 or v3), report accuracy
  policy inspect --in=<file|store dir>
                              decode a snapshot header (v3: walk the delta
                              chain), or summarize a segment-store
                              directory, without loading it
  policy migrate --adl=<name> --from=<v2 dir> --out=<store dir>
                 [--writers=1] [--to=store|v3]
                              migrate per-file v2 snapshots into a
                              fleet-tier segment store, or (--to=v3) into
                              per-file delta-encoded v3 snapshots
  faults plan    [--seed=1] [--rounds=6] [--out=<file>]
                              write the standard chaos fault plan (text,
                              editable, re-playable)
  faults replay  [--seed=1] [--plan=<file>] [--users=96] [--active=48]
                 [--rounds=4] [--tail-rounds=1] [--dir=<store dir>]
                 [--jobs=N]   deterministic chaos replay: soak the fleet
                              tier under {seed, plan}, print the per-round
                              invariant log and the per-site injection
                              log (byte-identical at any --jobs)
  scenario                     replay the paper's Figure 1 timeline
  scenario run <file> [--jobs=N]
                              execute a .scenario plan through the
                              multi-ADL serving tier; metrics are
                              byte-identical at any --jobs
  scenario check <file>        parse a .scenario plan and print its
                              canonical form (round-trip validated)
  report    [--days=7] [--seed=42]
                              multi-day caregiver summary
  retrain   [--users=12] [--slots=3] [--drifted=3] [--rounds=8]
            [--burst=2] [--threshold=2.5] [--jobs=N]
                              closed-loop drift recovery: serve a fleet
                              where some users start from a stale policy,
                              flag them, retrain on their transcripts and
                              report the recovery
  home      [--severity=0.5] [--sessions=6] [--seed=42] [--hints]
                              multi-ADL sessions with activity recognition
  help                         this message
)";

patient::PatientProfile profile_from(const util::Flags& flags) {
  patient::PatientProfile profile = patient::PatientProfile::with_severity(
      flags.get("user", "Resident"), flags.get_double("severity", 0.5));
  return profile;
}

int cmd_list(std::ostream& out) {
  adl::AdlLibrary library;
  util::TextTable table("Deployment catalog");
  table.set_header({"ADL", "Step", "Tool (node uid)", "Sensor"});
  for (const adl::Adl& adl : library.adls()) {
    for (const adl::AdlRoutine& routine : adl.routines()) {
      for (const adl::AdlStep& step : routine.steps()) {
        const adl::Tool& tool = library.tools().at(step.tool);
        table.add_row({adl.name() + " (" + routine.name() + ")", step.name,
                       tool.name + " (" + std::to_string(tool.id) + ")",
                       std::string(to_string(tool.sensor))});
      }
    }
  }
  out << table.render();
  return 0;
}

int cmd_simulate(const util::Flags& flags, std::ostream& out,
                 std::ostream& err) {
  const std::string adl_name = flags.get("adl");
  if (adl_name.empty()) {
    err << "simulate: --adl=<name> is required (see 'coreda list')\n";
    return 1;
  }
  adl::AdlLibrary library;
  const adl::Adl& adl = library.by_name(adl_name);

  core::SystemConfig config;
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  core::CoredaSystem system(library, adl, config);
  trace::DatasetBuilder datasets(
      library, patient::PatientProfile::with_severity("Trainer", 0.0),
      config.seed + 1);
  system.pretrain(datasets.sensed_training_set(adl, 120));

  const auto sessions = flags.get_int("sessions", 3);
  const patient::PatientProfile profile = profile_from(flags);

  util::TextTable table("Assisted sessions — " + adl.name());
  table.set_header({"#", "Completed", "Steps", "Prompts", "Praises",
                    "Elapsed (s)"});
  int completed = 0;
  for (std::int64_t i = 0; i < sessions; ++i) {
    const core::SessionResult result =
        system.run_session(profile, sim::Duration::minutes(40.0));
    completed += result.completed;
    table.add_row({std::to_string(i + 1), result.completed ? "yes" : "no",
                   std::to_string(result.steps_completed),
                   std::to_string(result.prompts_total),
                   std::to_string(result.praises),
                   util::format_fixed(result.elapsed.to_seconds(), 0)});
    if (flags.get_bool("transcript")) {
      for (const auto& r : system.reminder().log()) {
        out << "  [" << util::format_fixed(r.at.to_seconds(), 1) << "s] "
            << to_string(r.trigger) << " -> " << r.text << '\n';
      }
    }
  }
  out << table.render();
  out << completed << "/" << sessions << " sessions completed\n";
  return 0;
}

/// Trains a planner on sensed episodes and writes its snapshot to --out in
/// `format` (v2 or v3) stamped with `version`. `train` and `policy save`
/// are both this helper.
int train_and_save(const util::Flags& flags, const std::string& cmd,
                   const std::string& format, std::uint64_t version,
                   std::ostream& out, std::ostream& err) {
  const std::string adl_name = flags.get("adl");
  const std::string out_path = flags.get("out");
  if (adl_name.empty() || out_path.empty()) {
    err << cmd << ": --adl=<name> and --out=<file> are required\n";
    return 1;
  }
  adl::AdlLibrary library;
  const adl::Adl& adl = library.by_name(adl_name);
  const std::size_t episodes = flags.get_count("episodes", 120);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  planning::RoutineLearner learner(adl, util::Rng(seed));
  trace::DatasetBuilder datasets(
      library, patient::PatientProfile::with_severity("Trainer", 0.0),
      seed + 1);
  for (const auto& ep : datasets.sensed_training_set(adl, episodes)) {
    learner.train_episode(ep);
  }

  std::ofstream file(out_path, std::ios::binary);
  if (!file) {
    err << cmd << ": cannot write '" << out_path << "'\n";
    return 2;
  }
  if (format == "v3") {
    planning::save_policy_v3_full(file, learner.state_codec().symbols(),
                                  learner.action_codec().tools(), learner.q(),
                                  version);
  } else {
    planning::save_policy_v2(file, learner, version);
  }
  out << "Trained " << adl.name() << " on " << episodes
      << " sensed episodes (policy accuracy "
      << util::format_percent(learner.greedy_accuracy()) << "); saved "
      << format << " snapshot to " << out_path << '\n';
  return 0;
}

int cmd_train(const util::Flags& flags, std::ostream& out,
              std::ostream& err) {
  return train_and_save(flags, "train", "v2", 1, out, err);
}

int cmd_prompt(const util::Flags& flags, std::ostream& out,
               std::ostream& err) {
  const std::string adl_name = flags.get("adl");
  const std::string policy_path = flags.get("policy");
  if (adl_name.empty() || policy_path.empty()) {
    err << "prompt: --adl=<name> and --policy=<file> are required\n";
    return 1;
  }
  adl::AdlLibrary library;
  const adl::Adl& adl = library.by_name(adl_name);
  planning::RoutineLearner learner(adl, util::Rng(1));
  std::ifstream file(policy_path, std::ios::binary);
  if (!file) {
    err << "prompt: cannot read '" << policy_path << "'\n";
    return 2;
  }
  planning::load_policy_any(file, learner);

  const auto prev = static_cast<adl::StepId>(flags.get_int("prev", 0));
  const auto cur = static_cast<adl::StepId>(flags.get_int("cur", 0));
  const auto prompt = learner.predict(prev, cur);
  if (!prompt) {
    err << "prompt: context <" << prev << ", " << cur
        << "> is outside this ADL's vocabulary\n";
    return 1;
  }
  out << "context <" << prev << ", " << cur << "> -> use "
      << library.tools().at(prompt->action.tool).name << " (uid "
      << prompt->action.tool << ", "
      << planning::to_string(prompt->action.level) << " reminder)\n";
  return 0;
}

int cmd_policy_save(const util::Flags& flags, std::ostream& out,
                    std::ostream& err) {
  const std::string format = flags.get("format", "v2");
  if (format != "v2" && format != "v3") {
    err << "policy save: --format must be v2 or v3\n";
    return 1;
  }
  return train_and_save(
      flags, "policy save", format,
      static_cast<std::uint64_t>(flags.get_int("version", 1)), out, err);
}

int cmd_policy_load(const util::Flags& flags, std::ostream& out,
                    std::ostream& err) {
  const std::string adl_name = flags.get("adl");
  const std::string in_path = flags.get("in");
  if (adl_name.empty() || in_path.empty()) {
    err << "policy load: --adl=<name> and --in=<file> are required\n";
    return 1;
  }
  adl::AdlLibrary library;
  const adl::Adl& adl = library.by_name(adl_name);
  std::ifstream file(in_path, std::ios::binary);
  if (!file) {
    err << "policy load: cannot read '" << in_path << "'\n";
    return 2;
  }
  const planning::PolicyFormat format = planning::detect_policy_format(file);
  planning::RoutineLearner learner(adl, util::Rng(1));
  const std::uint64_t version = planning::load_policy_any(file, learner);
  out << "Loaded "
      << (format == planning::PolicyFormat::kBinaryV3
              ? "v3 (binary, delta chain)"
              : "v2 (binary)")
      << " snapshot, user version " << version << ": " << adl.name()
      << ", " << learner.q().num_states() << " states x "
      << learner.q().num_actions()
      << " actions, greedy accuracy "
      << util::format_percent(learner.greedy_accuracy()) << '\n';
  return 0;
}

int inspect_segment_store(const std::string& dir, std::ostream& out,
                          std::ostream& err) {
  if (!serve::SegmentStore::is_store_dir(dir)) {
    err << "policy inspect: '" << dir
        << "' is a directory without a store.meta — not a segment store\n";
    return 2;
  }
  const serve::SegmentStore::Info info = serve::SegmentStore::inspect(dir);
  const std::uint64_t dead =
      info.records - info.live_records - info.corrupt_records;
  out << "format: coreda-policy store v1 (segmented)\n"
      << "meta: " << (info.meta_ok ? "ok" : "MISMATCH") << '\n'
      << "q-table: " << info.num_states << " states x " << info.num_actions
      << " actions\n"
      << "vocabulary: " << info.num_steps << " steps, " << info.num_tools
      << " tools\n"
      << "segments: " << info.segments << '\n'
      << "records: " << info.records << " (" << info.live_records
      << " live, " << dead << " dead, " << info.corrupt_records
      << " corrupt)\n"
      << "users: " << info.users << " (max version " << info.max_version
      << ")\n";
  // Chain shape: how well the delta encoding is amortizing appends. A mean
  // chain length near rebase_every means most appends were deltas; 1.0
  // means every record is a full anchor.
  out << "chain shape: " << info.anchors << " anchors, " << info.deltas
      << " deltas, mean chain length "
      << util::format_fixed(info.mean_chain_length, 2) << '\n';
  for (const serve::SegmentStore::SegmentInfo& seg : info.segment_details) {
    out << "  seg w" << seg.writer << '/' << seg.seq << ": " << seg.anchors
        << " anchors, " << seg.deltas << " deltas, " << seg.live
        << " live chains, mean length "
        << util::format_fixed(seg.mean_chain_length, 2) << '\n';
  }
  return info.meta_ok && info.corrupt_records == 0 ? 0 : 2;
}

int cmd_policy_inspect(const util::Flags& flags, std::ostream& out,
                       std::ostream& err) {
  const std::string in_path = flags.get("in");
  if (in_path.empty()) {
    err << "policy inspect: --in=<file|store dir> is required\n";
    return 1;
  }
  if (std::filesystem::is_directory(in_path)) {
    return inspect_segment_store(in_path, out, err);
  }
  std::ifstream file(in_path, std::ios::binary);
  if (!file) {
    err << "policy inspect: cannot read '" << in_path << "'\n";
    return 2;
  }
  switch (planning::detect_policy_format(file)) {
    case planning::PolicyFormat::kBinaryV2: {
      const planning::PolicyV2Info info = planning::inspect_policy_v2(file);
      out << "format: coreda-policy v2 (binary)\n"
          << "user version: " << info.version << '\n'
          << "q-table: " << info.num_states << " states x "
          << info.num_actions << " actions\n"
          << "vocabulary: " << info.steps.size() << " steps, "
          << info.tools.size() << " tools\n"
          << "checksum: " << (info.checksum_ok ? "ok" : "MISMATCH") << '\n';
      return info.checksum_ok ? 0 : 2;
    }
    case planning::PolicyFormat::kBinaryV3: {
      const planning::PolicyV3Info info = planning::inspect_policy_v3(file);
      out << "format: coreda-policy v3 (binary, delta chain)\n"
          << "anchor version: " << info.anchor.version << '\n'
          << "q-table: " << info.anchor.num_states << " states x "
          << info.anchor.num_actions << " actions\n"
          << "vocabulary: " << info.anchor.steps.size() << " steps, "
          << info.anchor.tools.size() << " tools\n"
          << "anchor checksum: "
          << (info.anchor.checksum_ok ? "ok" : "MISMATCH") << '\n';
      if (!info.anchor.checksum_ok) return 2;
      out << "chain version: " << info.version << '\n'
          << "deltas since last full: " << info.delta_count << '\n'
          << "on-disk bytes: " << info.on_disk_bytes << " (full snapshot: "
          << info.reconstructed_bytes << ")\n"
          << "tail: "
          << (info.tail_skipped ? "SKIPPED invalid record(s)" : "ok") << '\n';
      return info.tail_skipped ? 2 : 0;
    }
    case planning::PolicyFormat::kUnknown:
      break;
  }
  err << "policy inspect: '" << in_path
      << "' is not a coreda policy snapshot\n";
  return 2;
}

int cmd_policy_migrate(const util::Flags& flags, std::ostream& out,
                       std::ostream& err) {
  const std::string adl_name = flags.get("adl");
  const std::string from_dir = flags.get("from");
  const std::string out_dir = flags.get("out");
  if (adl_name.empty() || from_dir.empty() || out_dir.empty()) {
    err << "policy migrate: --adl=<name>, --from=<v2 dir> and --out=<store "
           "dir> are required\n";
    return 1;
  }
  if (!std::filesystem::is_directory(from_dir)) {
    err << "policy migrate: '" << from_dir << "' is not a directory\n";
    return 2;
  }
  adl::AdlLibrary library;
  const adl::Adl& adl = library.by_name(adl_name);

  // Register every snapshot's stem as a user, in sorted order so user ids
  // (and hence writer lanes) never depend on directory iteration order.
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(from_dir)) {
    if (entry.path().extension() == ".policy") {
      names.push_back(entry.path().stem().string());
    }
  }
  std::sort(names.begin(), names.end());
  if (names.empty()) {
    err << "policy migrate: no *.policy snapshots in '" << from_dir << "'\n";
    return 2;
  }

  const std::string to = flags.get("to", "store");
  if (to != "store" && to != "v3") {
    err << "policy migrate: --to must be store or v3\n";
    return 1;
  }

  // An untrained learner carries the ADL's schema (codecs + table shape);
  // every table the store ends up holding comes from the snapshots.
  planning::RoutineLearner reference(adl, util::Rng(1));
  const auto steps = reference.state_codec().symbols();
  const auto tools = reference.action_codec().tools();
  rl::QTable q(reference.q().num_states(), reference.q().num_actions());

  if (to == "v3") {
    // Per-file migration: each v2 snapshot is rewritten as a v3 anchor
    // (atomic tmp+rename), preserving its version. A v3-mode PolicyStore
    // pointed at --out then extends each file with delta appends.
    std::filesystem::create_directories(out_dir);
    std::size_t migrated = 0;
    for (const std::string& name : names) {
      const std::string src = from_dir + "/" + name + ".policy";
      std::ifstream in(src, std::ios::binary);
      std::uint64_t version = 0;
      try {
        version = planning::load_policy_v2(in, steps, tools, q);
      } catch (const std::exception& ex) {
        err << "policy migrate: skipping '" << src << "': " << ex.what()
            << '\n';
        continue;
      }
      const std::string dst = out_dir + "/" + name + ".policy";
      const std::string tmp = dst + ".tmp";
      {
        std::ofstream dst_file(tmp, std::ios::binary | std::ios::trunc);
        if (!dst_file) {
          err << "policy migrate: cannot write '" << tmp << "'\n";
          continue;
        }
        planning::save_policy_v3_full(dst_file, steps, tools, q, version);
        if (!dst_file.flush()) {
          err << "policy migrate: short write to '" << tmp << "'\n";
          continue;
        }
      }
      std::error_code rename_error;
      std::filesystem::rename(tmp, dst, rename_error);
      if (rename_error) {
        err << "policy migrate: cannot publish '" << dst << "'\n";
        continue;
      }
      ++migrated;
    }
    out << "Migrated " << migrated << "/" << names.size()
        << " v2 snapshots from " << from_dir << " into v3 snapshots in "
        << out_dir << '\n';
    return migrated == names.size() ? 0 : 2;
  }
  // Store migration: user id = the name's sorted position; each snapshot
  // lands as one anchor record stamped with its own version.
  serve::SegmentStoreParams params;
  params.dir = out_dir;
  params.writers = flags.get_count("writers", 1);
  std::size_t imported = 0;
  {
    serve::SegmentStore store(steps, tools, q.num_states(), q.num_actions(),
                              params);
    store.reserve_users(names.size());
    for (std::size_t user = 0; user < names.size(); ++user) {
      std::ifstream in(from_dir + "/" + names[user] + ".policy",
                       std::ios::binary);
      if (!in) continue;
      store.append(user, q, planning::load_policy_v2(in, steps, tools, q));
      ++imported;
    }
  }  // unmapped: inspect below reads the closed store

  const serve::SegmentStore::Info info = serve::SegmentStore::inspect(out_dir);
  out << "Migrated " << imported << "/" << names.size()
      << " v2 snapshots from " << from_dir << " into segment store "
      << out_dir << " (" << info.segments << " segments, "
      << info.live_records << " live records, max version "
      << info.max_version << ")\n";
  return imported == names.size() ? 0 : 2;
}

int cmd_policy(const util::Flags& flags, std::ostream& out,
               std::ostream& err) {
  const std::string sub =
      flags.positional().empty() ? "" : flags.positional().front();
  if (sub == "save") return cmd_policy_save(flags, out, err);
  if (sub == "load") return cmd_policy_load(flags, out, err);
  if (sub == "inspect") return cmd_policy_inspect(flags, out, err);
  if (sub == "migrate") return cmd_policy_migrate(flags, out, err);
  err << "policy: expected a subcommand save|load|inspect|migrate (try "
         "'coreda help')\n";
  return 1;
}

int cmd_faults_plan(const util::Flags& flags, std::ostream& out,
                    std::ostream& err) {
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::size_t rounds = flags.get_count("rounds", 6);
  const faults::FaultPlan plan = faults::FaultPlan::standard_chaos(seed, rounds);
  const std::string out_path = flags.get("out");
  if (out_path.empty()) {
    plan.save(out);
    return 0;
  }
  std::ofstream file(out_path);
  if (!file) {
    err << "faults plan: cannot write '" << out_path << "'\n";
    return 2;
  }
  plan.save(file);
  out << "Wrote standard chaos plan (seed " << seed << ", " << rounds
      << " chaos epochs, " << plan.sites.size() << " sites) to " << out_path
      << '\n';
  return 0;
}

int cmd_faults_replay(const util::Flags& flags, std::ostream& out,
                      std::ostream& err) {
  serve::ChaosFleetParams p;
  p.users = flags.get_count("users", 96);
  p.active = flags.get_count("active", 48);
  p.chaos_rounds = flags.get_count("rounds", 4);
  p.tail_rounds = flags.get_count("tail-rounds", 1);
  p.dir = flags.get("dir");
  if (p.dir.empty()) {
    p.dir = (std::filesystem::temp_directory_path() / "coreda_faults_replay")
                .string();
  }

  // The replay contract is {seed, plan}: a plan file fixes the schedule, an
  // explicit --seed re-rolls it without editing the file.
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  faults::FaultPlan plan;
  const std::string plan_path = flags.get("plan");
  if (plan_path.empty()) {
    plan = faults::FaultPlan::standard_chaos(seed, p.chaos_rounds);
  } else {
    std::ifstream file(plan_path);
    if (!file) {
      err << "faults replay: cannot read '" << plan_path << "'\n";
      return 2;
    }
    try {
      plan = faults::FaultPlan::parse(file);
    } catch (const std::exception& ex) {
      err << "faults replay: " << plan_path << ": " << ex.what() << '\n';
      return 2;
    }
    if (flags.has("seed")) plan.seed = seed;
  }

  out << "Replaying fault plan seed " << plan.seed << " (" << plan.sites.size()
      << " sites) over " << p.users << " fleet users, " << p.chaos_rounds
      << " chaos + " << p.tail_rounds << " tail rounds x " << p.active
      << " sessions\n\n";

  serve::ChaosFleetSoak soak(p, std::move(plan));
  exec::TrialRunner runner(exec::jobs_from_flags(flags));
  const serve::ChaosFleetResult result = soak.run(runner);

  util::TextTable rounds("Replay per round (cumulative counters)");
  rounds.set_header({"round", "epoch", "sessions", "dropped", "crashed",
                     "radio lost", "committed", "lost", "reopen bad"});
  for (std::size_t r = 0; r < result.rounds.size(); ++r) {
    const serve::ChaosRoundStats& rs = result.rounds[r];
    rounds.add_row({std::to_string(r), std::to_string(rs.epoch),
                    std::to_string(rs.sessions), std::to_string(rs.dropped),
                    std::to_string(rs.crashed_appends),
                    std::to_string(rs.radio_lost),
                    std::to_string(rs.committed_users),
                    std::to_string(rs.round_versions_lost),
                    std::to_string(rs.round_reopen_mismatches +
                                   rs.round_reopen_load_failures)});
  }
  out << rounds.render();

  out << "\nPer-site injection log:\n";
  soak.injector().report(out);
  out << '\n'
      << result.injected_crashes << " injected crashes, "
      << result.injected_corruptions << " corruptions, "
      << result.report.dropped_sessions << " dropped sessions, "
      << result.report.radio_lost_frames << " radio frames lost; "
      << result.invariant_violations << " invariant violations\n";
  if (result.invariant_violations != 0) {
    err << "faults replay: " << result.invariant_violations
        << " invariant violation(s) — committed_versions_lost="
        << result.committed_versions_lost
        << " reopen_mismatches=" << result.reopen_mismatches
        << " reopen_load_failures=" << result.reopen_load_failures << '\n';
    return 2;
  }
  return 0;
}

int cmd_faults(const util::Flags& flags, std::ostream& out,
               std::ostream& err) {
  const std::string sub =
      flags.positional().empty() ? "" : flags.positional().front();
  if (sub == "plan") return cmd_faults_plan(flags, out, err);
  if (sub == "replay") return cmd_faults_replay(flags, out, err);
  err << "faults: expected a subcommand plan|replay (try 'coreda help')\n";
  return 1;
}

int cmd_scenario_run(const util::Flags& flags, std::ostream& out,
                     std::ostream& err) {
  if (flags.positional().size() < 2) {
    err << "scenario run: expected a .scenario file "
           "(coreda scenario run tests/scenarios/interleaved_tea_brush"
           ".scenario)\n";
    return 1;
  }
  const std::string& path = flags.positional()[1];
  std::ifstream in(path);
  if (!in) {
    err << "scenario run: cannot read " << path << '\n';
    return 1;
  }
  const sim::ScenarioPlan plan = sim::ScenarioPlan::parse(in);
  const std::size_t jobs = flags.get_count("jobs", 1);
  const serve::ScenarioRunner runner;
  const serve::ScenarioSummary sum = runner.run(plan, jobs == 0 ? 1 : jobs);
  out << serve::format_scenario_report(
      std::filesystem::path(path).stem().string(), plan, sum);
  // Incomplete sessions are a scenario outcome (high severity is supposed
  // to defeat some residents), not a failure of the run itself.
  return 0;
}

int cmd_scenario_check(const util::Flags& flags, std::ostream& out,
                       std::ostream& err) {
  if (flags.positional().size() < 2) {
    err << "scenario check: expected a .scenario file\n";
    return 1;
  }
  const std::string& path = flags.positional()[1];
  std::ifstream in(path);
  if (!in) {
    err << "scenario check: cannot read " << path << '\n';
    return 1;
  }
  const sim::ScenarioPlan plan = sim::ScenarioPlan::parse(in);
  std::stringstream canonical;
  plan.save(canonical);
  if (sim::ScenarioPlan::parse(canonical) != plan) {
    err << "scenario check: canonical form does not round-trip (bug)\n";
    return 2;
  }
  plan.save(out);
  return 0;
}

int cmd_scenario(const util::Flags& flags, std::ostream& out,
                 std::ostream& err) {
  const std::string sub =
      flags.positional().empty() ? "" : flags.positional().front();
  if (sub == "run") return cmd_scenario_run(flags, out, err);
  if (sub == "check") return cmd_scenario_check(flags, out, err);
  if (!sub.empty()) {
    err << "scenario: unknown subcommand '" << sub
        << "' (expected run|check, or no subcommand for the Figure 1 "
           "replay)\n";
    return 1;
  }
  adl::AdlLibrary library;
  core::ScenarioPlayer player(library);
  player.play_figure1(&out);
  return player.last_result().completed ? 0 : 2;
}

int cmd_home(const util::Flags& flags, std::ostream& out) {
  adl::AdlLibrary library;
  core::SystemConfig config;
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  core::HomeDeployment home(library, config);
  home.pretrain(120, config.seed + 3);

  patient::PatientProfile profile = profile_from(flags);
  const auto sessions = flags.get_int("sessions", 6);
  const bool hints = flags.get_bool("hints");
  const char* rotation[] = {"Tea-making", "Tooth-brushing", "Hand-washing"};

  util::TextTable table("Multi-ADL home sessions");
  table.set_header({"#", "Attempted", "Recognized", "Completed", "Prompts"});
  int completed = 0;
  for (std::int64_t i = 0; i < sessions; ++i) {
    const char* adl = rotation[i % 3];
    const core::HomeSessionResult result = home.run_session(
        adl, profile, sim::Duration::minutes(40.0), hints ? adl : "");
    completed += result.completed;
    table.add_row({std::to_string(i + 1), adl,
                   result.recognized_adl.empty() ? "(hint only)"
                                                 : result.recognized_adl,
                   result.completed ? "yes" : "no",
                   std::to_string(result.prompts_total)});
  }
  out << table.render();
  out << completed << "/" << sessions << " sessions completed\n";
  return 0;
}

int cmd_report(const util::Flags& flags, std::ostream& out) {
  adl::AdlLibrary library;
  const auto days = flags.get_int("days", 7);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  util::TextTable table("Caregiver summary (" + std::to_string(days) +
                        " days, simulated)");
  table.set_header({"Severity", "ADL", "Completed", "Prompts/session"});
  for (double severity : {0.2, 0.5, 0.8}) {
    for (const char* adl_name : {"Tea-making", "Tooth-brushing"}) {
      const adl::Adl& adl = library.by_name(adl_name);
      core::SystemConfig config;
      config.seed = seed + static_cast<std::uint64_t>(severity * 100);
      core::CoredaSystem system(library, adl, config);
      trace::DatasetBuilder datasets(
          library, patient::PatientProfile::with_severity("T", 0.0),
          config.seed + 1);
      system.pretrain(datasets.sensed_training_set(adl, 120));

      const patient::PatientProfile profile =
          patient::PatientProfile::with_severity("Resident", severity);
      int completed = 0;
      std::size_t prompts = 0;
      for (std::int64_t d = 0; d < days; ++d) {
        const auto result =
            system.run_session(profile, sim::Duration::minutes(45.0));
        completed += result.completed;
        prompts += result.prompts_total;
      }
      table.add_row(
          {util::format_fixed(severity, 1), adl_name,
           std::to_string(completed) + "/" + std::to_string(days),
           util::format_fixed(static_cast<double>(prompts) /
                                  static_cast<double>(days),
                              1)});
    }
  }
  out << table.render();
  return 0;
}

int cmd_retrain(const util::Flags& flags, std::ostream& out,
                std::ostream& err) {
  const std::size_t users = flags.get_count("users", 12);
  const std::size_t slots = flags.get_count("slots", 3);
  const std::size_t drifted = flags.get_count("drifted", 3);
  const std::size_t rounds = flags.get_count("rounds", 8);
  const std::size_t burst = flags.get_count("burst", 2);
  const double threshold = flags.get_double("threshold", 2.5);
  if (users == 0 || drifted > users) {
    err << "retrain: need --users >= 1 and --drifted <= --users\n";
    return 1;
  }

  adl::AdlLibrary library;
  const adl::Adl& tea = library.tea_making();
  std::vector<adl::StepId> routine;
  for (const adl::AdlStep& s : tea.primary_routine().steps()) {
    routine.push_back(s.step_id());
  }
  std::vector<adl::StepId> stale_routine = routine;
  std::swap(stale_routine[0], stale_routine[1]);

  planning::RoutineLearner donor(tea, util::Rng(17));
  planning::RoutineLearner stale(tea, util::Rng(18));
  for (int i = 0; i < 80; ++i) donor.train_episode(routine);
  for (int i = 0; i < 120; ++i) stale.train_episode(stale_routine);

  serve::PolicyStore store(donor);
  serve::ServeEngineParams params;
  params.pool.slots = slots;
  params.pool.seed = 4242;
  params.drift.threshold = threshold;
  params.retrain.enabled = true;
  // Spread the stale tables across slots/lanes, like the recovery bench.
  std::vector<bool> is_drifted(users, false);
  for (std::size_t u = 0; u < users; ++u) {
    const bool drift = drifted > 0 && u % (users / drifted) == 0 &&
                       u / (users / drifted) < drifted;
    is_drifted[u] = drift;
    store.add_user("U" + std::to_string(u), drift ? stale.q() : donor.q());
  }
  serve::ServeEngine engine(library, tea, store, params);
  for (std::size_t u = 0; u < users; ++u) {
    util::Rng rng(exec::trial_seed(9001, u));
    engine.add_user("U" + std::to_string(u),
                    patient::PatientProfile::with_severity(
                        "U" + std::to_string(u), 0.1 + 0.4 * rng.uniform()));
  }

  exec::TrialRunner runner(exec::jobs_from_flags(flags));
  util::TextTable table("Closed-loop drift recovery (" +
                        std::to_string(users) + " users, " +
                        std::to_string(drifted) + " on stale policies)");
  table.set_header({"round", "flagged", "retrains", "recovered"});
  serve::ServeReport report;
  std::size_t recovered = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t u = 0; u < users; ++u) {
      engine.enqueue(static_cast<serve::UserId>(u), burst);
    }
    report = engine.drain(runner);
    recovered = 0;
    for (std::size_t u = 0; u < users; ++u) {
      const serve::ServeUserStats& s = report.users[u];
      if (is_drifted[u] && s.retrains > 0 && !s.needs_retraining) {
        ++recovered;
      }
    }
    table.add_row({std::to_string(round),
                   std::to_string(report.flagged_users),
                   std::to_string(report.retrain.jobs),
                   std::to_string(recovered) + "/" +
                       std::to_string(drifted)});
  }
  out << table.render();
  out << report.sessions << " sessions served; " << report.retrain.jobs
      << " retrain jobs replayed " << report.retrain.episodes
      << " transcript episodes; " << recovered << "/" << drifted
      << " drifted users recovered (prompt EWMA back under "
      << util::format_fixed(threshold, 1) << ")\n";
  return recovered == drifted ? 0 : 2;
}

}  // namespace

int run_command(const util::Flags& flags, std::ostream& out,
                std::ostream& err) {
  try {
    const std::string& command = flags.command();
    if (command.empty() || command == "help") {
      out << kUsage;
      return command.empty() ? 1 : 0;
    }
    if (command == "list") return cmd_list(out);
    if (command == "simulate") return cmd_simulate(flags, out, err);
    if (command == "train") return cmd_train(flags, out, err);
    if (command == "prompt") return cmd_prompt(flags, out, err);
    if (command == "policy") return cmd_policy(flags, out, err);
    if (command == "faults") return cmd_faults(flags, out, err);
    if (command == "scenario") return cmd_scenario(flags, out, err);
    if (command == "report") return cmd_report(flags, out);
    if (command == "retrain") return cmd_retrain(flags, out, err);
    if (command == "home") return cmd_home(flags, out);
    err << "unknown command '" << command << "' (try 'coreda help')\n";
    return 1;
  } catch (const std::invalid_argument& e) {
    err << "error: " << e.what() << '\n';
    return 1;
  } catch (const std::out_of_range& e) {
    err << "error: " << e.what() << '\n';
    return 1;
  } catch (const std::exception& e) {
    err << "failure: " << e.what() << '\n';
    return 2;
  }
}

}  // namespace coreda::cli
