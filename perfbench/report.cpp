#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr const char* kSpanNames[kNumSpanNames] = {
    "bench.home_loop",      "core.run_session",     "bench.batch",
    "serve.enqueue",        "serve.drain",          "serve.flush",
    "exec.empty_drain",     "bench.night_partition", "store.load",
    "planning.retrain",     "store.append",         "store.reopen",
    "sensors.pipeline_probe", "planning.predict_probe",
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, reported by every workload (BENCHMARK.json lists
// the same names). An "op" is a session on home_serve, a batch of sessions
// on fleet_zipf and a lockstep batch of users on nightly_retrain; see
// LAYERS.md.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"ops_per_s", "1/s"},    {"op_p50_ms", "ms"},
    {"op_p95_ms", "ms"},    {"peak_rss_mb", "MB"},
};

// The per-layer metrics of the traced run. Counts come from each workload's
// fixed, untimed count pass, so they repeat exactly between runs and job
// counts; times come from the traced half of the timed phase or a probe.
constexpr MetricDef kPerLayer[] = {
    {"sensors.samples_per_session", "count"},
    {"sensors.samples_per_virtual_s", "1/s"},
    {"sensors.pipeline_ns_per_sample", "ns"},
    {"sensors.share_est", "ratio"},
    {"pavenet.announcements_per_session", "count"},
    {"pavenet.detect_per_ksample", "count"},
    {"pavenet.frames_sent_per_session", "count"},
    {"pavenet.delivery_ratio", "ratio"},
    {"pavenet.station_packets_per_session", "count"},
    {"core.virtual_s_per_session", "s"},
    {"core.completion_rate", "ratio"},
    {"core.session_ns", "ns"},
    {"patient.steps_per_session", "count"},
    {"planning.predict_ns", "ns"},
    {"planning.retrain_ns_per_user", "ns"},
    {"planning.lane_occupancy", "ratio"},
    {"planning.skipped_steps_per_user", "count"},
    {"reminding.prompts_per_session", "count"},
    {"reminding.minimal_share", "ratio"},
    {"reminding.praises_per_session", "count"},
    {"serve.drain_ns", "ns"},
    {"serve.shard_skew", "ratio"},
    {"serve.pool_hit_rate", "ratio"},
    {"serve.cold_load_share", "ratio"},
    {"serve.reference_start_share", "ratio"},
    {"serve.resident_bytes_per_user", "B"},
    {"serve.flush_ns", "ns"},
    {"store.load_ns_p50", "ns"},
    {"store.load_ns_p99", "ns"},
    {"store.append_ns_p50", "ns"},
    {"store.append_ns_p99", "ns"},
    {"store.bytes_per_append", "B"},
    {"store.anchor_share", "ratio"},
    {"store.compactions", "count"},
    {"store.dead_ratio", "ratio"},
    {"store.segments", "count"},
    {"store.appends_per_session", "count"},
    {"store.reopen_ms", "ms"},
    {"store.reopen_ns_per_record", "ns"},
    {"exec.empty_drain_ns", "ns"},
    {"exec.sessions_per_drain", "count"},
    {"self_share.bench", "ratio"},
    {"self_share.core", "ratio"},
    {"self_share.serve", "ratio"},
    {"self_share.store", "ratio"},
    {"self_share.planning", "ratio"},
    {"trace.overhead_share", "ratio"},
    {"trace.spans", "count"},
    {"trace.dropped_spans", "count"},
};

template <std::size_t N>
const MetricDef& find_def(const MetricDef (&table)[N],
                          const std::string& name) {
  for (const MetricDef& def : table) {
    if (name == def.name) return def;
  }
  throw std::logic_error("unknown metric " + name);
}

void set_metric(std::vector<Metric>& metrics, const MetricDef& def,
                double value) {
  if (!std::isfinite(value)) {
    throw std::logic_error(std::string("non-finite metric ") + def.name);
  }
  for (Metric& m : metrics) {
    if (m.name == def.name) {
      m.value = value;
      return;
    }
  }
  metrics.push_back(Metric{def.name, value, def.unit});
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <std::size_t N>
std::string metrics_json(const MetricDef (&table)[N],
                         const std::vector<Metric>& set, bool require_all) {
  std::string out = "{";
  bool first = true;
  for (const MetricDef& def : table) {
    double value = 0.0;
    bool found = false;
    for (const Metric& m : set) {
      if (m.name == def.name) {
        value = m.value;
        found = true;
      }
    }
    if (!found && require_all) {
      throw std::logic_error(std::string("metric not measured: ") + def.name);
    }
    if (!first) out += ", ";
    first = false;
    out += json_string(def.name) + ": {\"value\": " + json_number(value) +
           ", \"unit\": " + json_string(def.unit) + "}";
  }
  return out + "}";
}

}  // namespace

std::string span_layer(SpanName name) {
  const std::string full = kSpanNames[name];
  return full.substr(0, full.find('.'));
}

std::uint64_t Trace::spans() const {
  std::uint64_t n = 0;
  for (const SpanLog& log : logs) n += log.spans().size();
  return n;
}

std::uint64_t Trace::dropped() const {
  std::uint64_t n = 0;
  for (const SpanLog& log : logs) n += log.dropped();
  return n;
}

std::vector<double> Trace::durations(SpanName name) const {
  std::vector<double> out;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      if (s.name == name && s.end_ns >= s.start_ns) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
      }
    }
  }
  return out;
}

std::vector<std::pair<std::string, double>> Trace::self_time_by_layer()
    const {
  double by_name[kNumSpanNames] = {};
  for (const SpanLog& log : logs) {
    const std::vector<Span>& spans = log.spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent != SpanLog::kNone && s.end_ns >= s.start_ns) {
        child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end_ns < s.start_ns) continue;  // never closed
      by_name[s.name] +=
          static_cast<double>(s.end_ns - s.start_ns) - child_ns[i];
    }
  }
  std::vector<std::pair<std::string, double>> by_layer;
  for (std::uint32_t n = 0; n < kNumSpanNames; ++n) {
    if (by_name[n] == 0.0) continue;
    const std::string layer = span_layer(static_cast<SpanName>(n));
    auto it = std::find_if(by_layer.begin(), by_layer.end(),
                           [&](const auto& p) { return p.first == layer; });
    if (it == by_layer.end()) {
      by_layer.emplace_back(layer, by_name[n]);
    } else {
      it->second += by_name[n];
    }
  }
  return by_layer;
}

void Trace::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "thread\tname\tid\tparent\tstart_ns\tend_ns\n";
  for (std::size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t].spans()) {
      out << t << '\t' << kSpanNames[s.name] << '\t' << s.id << '\t'
          << (s.parent == SpanLog::kNone ? -1 : static_cast<long long>(s.parent))
          << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }
}

void Report::e2e(const std::string& name, double value) {
  set_metric(end_to_end, find_def(kEndToEnd, name), value);
}

void Report::layer(const std::string& name, double value) {
  set_metric(per_layer, find_def(kPerLayer, name), value);
}

void Report::digest(const std::string& name, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  digests.emplace_back(name, buf);
}

void Report::op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) fail(what);
}

void Report::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void print_report(const Options& options, const Report& report) {
  std::string out = "{\"workload\": " + json_string(options.workload) +
                    ", \"seed\": " + std::to_string(options.seed) +
                    ", \"trace\": " + (options.trace ? "1" : "0") +
                    ", \"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"jobs\": " + std::to_string(report.jobs) +
                    ", \"cpu\": " + json_string(cpu_model()) +
                    ", \"attempted\": " + std::to_string(report.attempted) +
                    ", \"failed\": " + std::to_string(report.failed) +
                    ", \"failures\": [";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    out += (i ? ", " : "") + json_string(report.failures[i]);
  }
  out += "], \"digests\": {";
  for (std::size_t i = 0; i < report.digests.size(); ++i) {
    out += (i ? ", " : "") + json_string(report.digests[i].first) + ": " +
           json_string(report.digests[i].second);
  }
  out += "}, \"end_to_end\": " +
         metrics_json(kEndToEnd, report.end_to_end, true);
  out += ", \"per_layer\": " +
         (options.trace ? metrics_json(kPerLayer, report.per_layer, false)
                        : std::string("{}"));
  out += "}";
  std::puts(out.c_str());
}

std::size_t resolve_jobs(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3])) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model = brand;
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

WindowStats summarize(const std::vector<OpLog>& logs) {
  WindowStats out;
  const std::size_t windows = logs.front().windows();
  const double window_s = static_cast<double>(logs.front().window_ns()) * 1e-9;
  std::vector<double> p50, p95;
  double sum_ns = 0.0;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> latency;
    double units = 0.0;
    for (const OpLog& log : logs) {
      const std::vector<double> l = log.latencies(w);
      latency.insert(latency.end(), l.begin(), l.end());
      units += log.units(w);
    }
    for (const double v : latency) sum_ns += v;
    out.ops += latency.size();
    out.rates.push_back(units / window_s);
    p50.push_back(quantile(latency, 0.50) * 1e-6);
    p95.push_back(quantile(latency, 0.95) * 1e-6);
  }
  out.units_per_s = median(out.rates);
  out.p50_ms = median(p50);
  out.p95_ms = median(p95);
  out.mean_ms = out.ops ? sum_ns / static_cast<double>(out.ops) * 1e-6 : 0.0;
  return out;
}

void print_windows(const char* workload, const WindowStats& stats) {
  std::printf("# %s: %zu ops in %zu windows, units/s per window:", workload,
              stats.ops, stats.rates.size());
  for (double r : stats.rates) std::printf(" %.0f", r);
  std::printf("\n");
}

std::size_t window_count(double seconds, double window_s) {
  const auto n = static_cast<std::size_t>(seconds / window_s + 1e-9);
  return n > 0 ? n : 1;
}

std::vector<double> stratified_severities(std::uint64_t seed, std::size_t n) {
  coreda::util::Rng rng(seed);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = 0.1 + 0.4 * (static_cast<double>(i) + rng.uniform()) /
                       static_cast<double>(n);
  }
  for (std::size_t i = n; i > 1; --i) {
    std::swap(out[i - 1], out[rng.pick_index(i)]);
  }
  return out;
}

std::uint64_t table_hash(const coreda::rl::QTable& q) {
  Hasher h;
  h.add(static_cast<std::uint64_t>(q.num_states()));
  h.add(static_cast<std::uint64_t>(q.num_actions()));
  for (std::size_t s = 0; s < q.num_states(); ++s) {
    for (const double v : q.row(static_cast<coreda::rl::StateId>(s))) {
      h.add(v);
    }
  }
  return h.value();
}

}  // namespace perfbench
