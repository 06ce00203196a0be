#include "planning/serialize.hpp"

#include <bit>
#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/wire.hpp"

namespace coreda::planning {

// --------------------------------------------------------------------------
// v2 binary snapshots
// --------------------------------------------------------------------------

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Serializes little-endian u64/f64 into a growing byte buffer; the FNV-1a
/// checksum is computed over the buffer once at the end, so save and load
/// agree on "every preceding byte" by construction.
struct V2Writer {
  std::string bytes;

  void put_u64(std::uint64_t v) {
    char raw[8];
    for (int i = 0; i < 8; ++i) {
      raw[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    bytes.append(raw, 8);
  }
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

  std::uint64_t checksum() const {
    std::uint64_t h = kFnvOffset;
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= kFnvPrime;
    }
    return h;
  }
};

/// Mirror of V2Writer: pulls little-endian fields off an istream while
/// folding every consumed byte into the running checksum. Any short read
/// throws — a truncated snapshot can never validate.
struct V2Reader {
  std::istream& in;
  std::uint64_t hash = kFnvOffset;

  /// Folds bytes read outside take_u64 (a magic, a row block) into the
  /// running checksum.
  void absorb(const unsigned char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      hash ^= p[i];
      hash *= kFnvPrime;
    }
  }
  std::uint64_t take_u64(const char* what) {
    char raw[8];
    if (!in.read(raw, 8)) {
      throw std::runtime_error(
          std::string("load_policy_v2: truncated snapshot (") + what + ")");
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      const auto byte = static_cast<unsigned char>(raw[i]);
      v |= static_cast<std::uint64_t>(byte) << (8 * i);
      hash ^= byte;
      hash *= kFnvPrime;
    }
    return v;
  }
  double take_f64(const char* what) {
    return std::bit_cast<double>(take_u64(what));
  }
  /// The trailing checksum field is read raw — it is not part of its own
  /// coverage.
  std::uint64_t take_checksum() {
    char raw[8];
    if (!in.read(raw, 8)) {
      throw std::runtime_error(
          "load_policy_v2: truncated snapshot (checksum)");
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(raw[i]))
           << (8 * i);
    }
    return v;
  }
};

/// Parsed body of a v2 snapshot, validated for structure + checksum but not
/// yet against any expected vocabulary.
struct V2Snapshot {
  std::uint64_t version = 0;
  std::vector<std::uint64_t> steps;
  std::vector<std::uint64_t> tools;
  std::size_t num_states = 0;
  std::size_t num_actions = 0;
  std::vector<double> q;
  bool checksum_ok = false;
};

/// Caps the header counts so a corrupt file cannot request a multi-GB
/// allocation before the checksum gets a chance to reject it. The real
/// spaces are tens of entries.
constexpr std::uint64_t kSaneCount = 1u << 20;

V2Snapshot read_full_record(std::istream& in, const char* expect_magic,
                            const char* not_msg) {
  V2Reader r{in};
  char magic[8];
  if (!in.read(magic, 8)) {
    throw std::runtime_error("load_policy_v2: truncated snapshot (magic)");
  }
  if (std::memcmp(magic, expect_magic, 8) != 0) {
    throw std::runtime_error(not_msg);
  }
  r.absorb(reinterpret_cast<const unsigned char*>(magic), 8);

  V2Snapshot snap;
  snap.version = r.take_u64("version");
  const std::uint64_t n_steps = r.take_u64("step count");
  const std::uint64_t n_tools = r.take_u64("tool count");
  const std::uint64_t n_states = r.take_u64("state count");
  const std::uint64_t n_actions = r.take_u64("action count");
  if (n_steps == 0 || n_tools == 0 || n_states == 0 || n_actions == 0 ||
      n_steps > kSaneCount || n_tools > kSaneCount ||
      n_states > kSaneCount || n_actions > kSaneCount) {
    throw std::runtime_error("load_policy_v2: implausible dimensions");
  }
  snap.num_states = static_cast<std::size_t>(n_states);
  snap.num_actions = static_cast<std::size_t>(n_actions);

  snap.steps.reserve(n_steps);
  for (std::uint64_t i = 0; i < n_steps; ++i) {
    snap.steps.push_back(r.take_u64("step vocabulary"));
  }
  snap.tools.reserve(n_tools);
  for (std::uint64_t i = 0; i < n_tools; ++i) {
    snap.tools.push_back(r.take_u64("tool vocabulary"));
  }
  snap.q.reserve(snap.num_states * snap.num_actions);
  for (std::size_t i = 0; i < snap.num_states * snap.num_actions; ++i) {
    snap.q.push_back(r.take_f64("Q value"));
  }
  const std::uint64_t expected = r.hash;
  snap.checksum_ok = (r.take_checksum() == expected);
  return snap;
}

V2Snapshot read_v2(std::istream& in) {
  return read_full_record(in, kPolicyV2Magic,
                          "load_policy_v2: not a coreda-policy v2 snapshot");
}

template <typename Id>
void check_vocab(std::span<const std::uint64_t> got, std::span<const Id> want,
                 const char* what) {
  if (got.size() != want.size()) {
    throw std::runtime_error(std::string("load_policy_v2: ") + what +
                             " vocabulary size mismatch");
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != static_cast<std::uint64_t>(want[i])) {
      throw std::runtime_error(std::string("load_policy_v2: ") + what +
                               " vocabulary mismatch");
    }
  }
}

}  // namespace

std::size_t save_policy_v2(std::ostream& out,
                           std::span<const adl::StepId> steps,
                           std::span<const adl::ToolId> tools,
                           const rl::QTable& q, std::uint64_t version) {
  V2Writer w;
  w.bytes.reserve(8 * (6 + steps.size() + tools.size() +
                       q.num_states() * q.num_actions() + 1));
  w.bytes.append(kPolicyV2Magic, 8);
  w.put_u64(version);
  w.put_u64(steps.size());
  w.put_u64(tools.size());
  w.put_u64(q.num_states());
  w.put_u64(q.num_actions());
  for (const adl::StepId id : steps) w.put_u64(id);
  for (const adl::ToolId id : tools) w.put_u64(id);
  for (rl::StateId s = 0; s < q.num_states(); ++s) {
    for (const double v : q.row(s)) w.put_f64(v);
  }
  const std::uint64_t sum = w.checksum();
  w.put_u64(sum);
  out.write(w.bytes.data(),
            static_cast<std::streamsize>(w.bytes.size()));
  return w.bytes.size();
}

void save_policy_v2(std::ostream& out, const RoutineLearner& learner,
                    std::uint64_t version) {
  save_policy_v2(out, learner.state_codec().symbols(),
                 learner.action_codec().tools(), learner.q(), version);
}

std::uint64_t load_policy_v2(std::istream& in,
                             std::span<const adl::StepId> steps,
                             std::span<const adl::ToolId> tools,
                             rl::QTable& q) {
  const V2Snapshot snap = read_v2(in);
  if (!snap.checksum_ok) {
    throw std::runtime_error("load_policy_v2: checksum mismatch");
  }
  check_vocab<adl::StepId>(snap.steps, steps, "step");
  check_vocab<adl::ToolId>(snap.tools, tools, "tool");
  if (snap.num_states != q.num_states() ||
      snap.num_actions != q.num_actions()) {
    throw std::runtime_error("load_policy_v2: Q-table dimension mismatch");
  }
  // Fully validated: commit. Row-wise copy into the caller's storage keeps
  // this allocation-free for a pre-shaped destination table.
  std::size_t i = 0;
  for (rl::StateId s = 0; s < q.num_states(); ++s) {
    for (rl::ActionId a = 0; a < q.num_actions(); ++a) {
      q.set(s, a, snap.q[i++]);
    }
  }
  return snap.version;
}

std::uint64_t load_policy_v2(std::istream& in, RoutineLearner& learner) {
  rl::QTable staged(learner.q().num_states(), learner.q().num_actions());
  const std::uint64_t version =
      load_policy_v2(in, learner.state_codec().symbols(),
                     learner.action_codec().tools(), staged);
  learner.import_q(staged);
  return version;
}

PolicyV2Info inspect_policy_v2(std::istream& in) {
  const V2Snapshot snap = read_v2(in);
  PolicyV2Info info;
  info.version = snap.version;
  info.num_states = snap.num_states;
  info.num_actions = snap.num_actions;
  info.checksum_ok = snap.checksum_ok;
  info.steps.reserve(snap.steps.size());
  for (const std::uint64_t id : snap.steps) {
    info.steps.push_back(static_cast<adl::StepId>(id));
  }
  info.tools.reserve(snap.tools.size());
  for (const std::uint64_t id : snap.tools) {
    info.tools.push_back(static_cast<adl::ToolId>(id));
  }
  return info;
}

// --------------------------------------------------------------------------
// v3 delta chains
// --------------------------------------------------------------------------

namespace {

/// One parsed-and-verified delta record. `rows` holds the changed rows in
/// the shared codec's encoding, reused across a chain's records.
struct V3Delta {
  std::uint64_t version = 0;
  std::uint64_t parent = 0;
  std::size_t n_rows = 0;
  std::vector<unsigned char> rows;
  std::size_t bytes = 0;  ///< on-disk record size
};

/// Reads the next delta record off `in`. Returns false — without throwing —
/// on clean EOF, a torn tail, a wrong magic, implausible counts, or a
/// checksum mismatch: the chain loader treats all of those identically
/// (stop at the longest valid prefix, which is exactly the durable state
/// before a crashed or corrupted append).
bool read_v3_delta(std::istream& in, std::size_t expect_actions,
                   std::size_t num_states, V3Delta& out) {
  char magic[8];
  if (!in.read(magic, 8)) return false;
  if (std::memcmp(magic, kPolicyV3DeltaMagic, 8) != 0) return false;

  V2Reader r{in};
  r.absorb(reinterpret_cast<const unsigned char*>(magic), 8);
  try {
    out.version = r.take_u64("delta version");
    out.parent = r.take_u64("delta parent");
    const std::uint64_t n_rows = r.take_u64("delta row count");
    const std::uint64_t n_actions = r.take_u64("delta action count");
    if (n_rows > kSaneCount || n_actions == 0 || n_actions > kSaneCount ||
        n_actions != expect_actions || n_rows > num_states) {
      return false;
    }
    out.n_rows = static_cast<std::size_t>(n_rows);
    out.rows.resize(out.n_rows * (1 + expect_actions) * 8);
    if (!in.read(reinterpret_cast<char*>(out.rows.data()),
                 static_cast<std::streamsize>(out.rows.size()))) {
      return false;
    }
    r.absorb(out.rows.data(), out.rows.size());
    const std::uint64_t expected = r.hash;
    if (r.take_checksum() != expected) return false;
    if (!changed_rows_valid(out.rows.data(), out.n_rows, num_states,
                            expect_actions)) {
      return false;
    }
    out.bytes = 8 * 6 + out.rows.size();
    return true;
  } catch (const std::runtime_error&) {
    return false;  // short read: torn tail
  }
}

std::size_t full_record_bytes(std::size_t n_steps, std::size_t n_tools,
                              std::size_t n_states, std::size_t n_actions) {
  return 8 * (1 + 5 + n_steps + n_tools + n_states * n_actions + 1);
}

}  // namespace

std::size_t save_policy_v3_full(std::ostream& out,
                                std::span<const adl::StepId> steps,
                                std::span<const adl::ToolId> tools,
                                const rl::QTable& q, std::uint64_t version) {
  V2Writer w;
  w.bytes.reserve(full_record_bytes(steps.size(), tools.size(),
                                    q.num_states(), q.num_actions()));
  w.bytes.append(kPolicyV3Magic, 8);
  w.put_u64(version);
  w.put_u64(steps.size());
  w.put_u64(tools.size());
  w.put_u64(q.num_states());
  w.put_u64(q.num_actions());
  for (const adl::StepId id : steps) w.put_u64(id);
  for (const adl::ToolId id : tools) w.put_u64(id);
  for (rl::StateId s = 0; s < q.num_states(); ++s) {
    for (const double v : q.row(s)) w.put_f64(v);
  }
  w.put_u64(w.checksum());
  out.write(w.bytes.data(), static_cast<std::streamsize>(w.bytes.size()));
  return w.bytes.size();
}

std::size_t count_changed_rows(const rl::QTable& base, const rl::QTable& q) {
  if (base.num_states() != q.num_states() ||
      base.num_actions() != q.num_actions()) {
    throw std::invalid_argument("count_changed_rows: table shape mismatch");
  }
  std::size_t n_rows = 0;
  for (rl::StateId s = 0; s < q.num_states(); ++s) {
    const auto b = base.row(s);
    const auto n = q.row(s);
    if (std::memcmp(b.data(), n.data(), n.size() * sizeof(double)) != 0) {
      ++n_rows;
    }
  }
  return n_rows;
}

unsigned char* encode_changed_rows(const rl::QTable& base, const rl::QTable& q,
                                   unsigned char* dst) {
  if (base.num_states() != q.num_states() ||
      base.num_actions() != q.num_actions()) {
    throw std::invalid_argument("encode_changed_rows: table shape mismatch");
  }
  for (rl::StateId s = 0; s < q.num_states(); ++s) {
    const auto b = base.row(s);
    const auto n = q.row(s);
    if (std::memcmp(b.data(), n.data(), n.size() * sizeof(double)) == 0) {
      continue;
    }
    util::wire::store_u64(dst, s);
    dst += 8;
    for (const double v : n) {
      util::wire::store_f64(dst, v);
      dst += 8;
    }
  }
  return dst;
}

bool changed_rows_valid(const unsigned char* src, std::size_t n_rows,
                        std::size_t num_states, std::size_t num_actions) {
  for (std::size_t i = 0; i < n_rows; ++i) {
    if (util::wire::load_u64(src) >= num_states) return false;
    src += 8 * (1 + num_actions);
  }
  return true;
}

const unsigned char* apply_changed_rows(const unsigned char* src,
                                        std::size_t n_rows, rl::QTable& q) {
  for (std::size_t i = 0; i < n_rows; ++i) {
    const auto row = static_cast<rl::StateId>(util::wire::load_u64(src));
    src += 8;
    for (double& v : q.row_mut(row)) {
      v = util::wire::load_f64(src);
      src += 8;
    }
  }
  return src;
}

std::string encode_policy_v3_delta(const rl::QTable& base,
                                   const rl::QTable& q,
                                   std::uint64_t version,
                                   std::uint64_t parent) {
  if (base.num_states() != q.num_states() ||
      base.num_actions() != q.num_actions()) {
    throw std::invalid_argument(
        "encode_policy_v3_delta: table shape mismatch");
  }
  V2Writer w;
  w.bytes.append(kPolicyV3DeltaMagic, 8);
  w.put_u64(version);
  w.put_u64(parent);
  const std::size_t n_rows = count_changed_rows(base, q);
  w.put_u64(n_rows);
  w.put_u64(q.num_actions());
  const std::size_t head = w.bytes.size();
  w.bytes.resize(head + n_rows * (1 + q.num_actions()) * 8);
  encode_changed_rows(base, q,
                      reinterpret_cast<unsigned char*>(w.bytes.data()) + head);
  w.put_u64(w.checksum());
  return std::move(w.bytes);
}

PolicyV3Chain load_policy_v3(std::istream& in,
                             std::span<const adl::StepId> steps,
                             std::span<const adl::ToolId> tools,
                             rl::QTable& q) {
  V2Snapshot snap = read_full_record(
      in, kPolicyV3Magic, "load_policy_v3: not a coreda-policy v3 snapshot");
  if (!snap.checksum_ok) {
    throw std::runtime_error("load_policy_v3: anchor checksum mismatch");
  }
  check_vocab<adl::StepId>(snap.steps, steps, "step");
  check_vocab<adl::ToolId>(snap.tools, tools, "tool");
  if (snap.num_states != q.num_states() ||
      snap.num_actions != q.num_actions()) {
    throw std::runtime_error("load_policy_v3: Q-table dimension mismatch");
  }

  // The anchor validated: commit it. Each delta is then applied only after
  // its own record validates, so `q` always holds the longest valid prefix.
  std::size_t i = 0;
  for (rl::StateId s = 0; s < q.num_states(); ++s) {
    for (rl::ActionId a = 0; a < q.num_actions(); ++a) {
      q.set(s, a, snap.q[i++]);
    }
  }
  PolicyV3Chain chain;
  chain.version = snap.version;
  V3Delta delta;
  while (true) {
    if (in.peek() == std::char_traits<char>::eof()) break;  // clean end
    if (!read_v3_delta(in, snap.num_actions, snap.num_states, delta) ||
        delta.parent != chain.version) {
      chain.tail_skipped = true;
      break;
    }
    apply_changed_rows(delta.rows.data(), delta.n_rows, q);
    chain.version = delta.version;
    ++chain.deltas_applied;
  }
  return chain;
}

PolicyV3Info inspect_policy_v3(std::istream& in) {
  V2Snapshot snap = read_full_record(
      in, kPolicyV3Magic, "inspect_policy_v3: not a coreda-policy v3 file");
  PolicyV3Info info;
  info.anchor.version = snap.version;
  info.anchor.num_states = snap.num_states;
  info.anchor.num_actions = snap.num_actions;
  info.anchor.checksum_ok = snap.checksum_ok;
  for (const std::uint64_t id : snap.steps) {
    info.anchor.steps.push_back(static_cast<adl::StepId>(id));
  }
  for (const std::uint64_t id : snap.tools) {
    info.anchor.tools.push_back(static_cast<adl::ToolId>(id));
  }
  info.version = snap.version;
  info.on_disk_bytes = full_record_bytes(snap.steps.size(), snap.tools.size(),
                                         snap.num_states, snap.num_actions);
  info.reconstructed_bytes = info.on_disk_bytes;
  if (!snap.checksum_ok) return info;  // chain state untrustworthy past here

  V3Delta delta;
  while (true) {
    if (in.peek() == std::char_traits<char>::eof()) break;
    if (!read_v3_delta(in, snap.num_actions, snap.num_states, delta) ||
        delta.parent != info.version) {
      info.tail_skipped = true;
      break;
    }
    info.version = delta.version;
    ++info.delta_count;
    info.on_disk_bytes += delta.bytes;
  }
  return info;
}

// --------------------------------------------------------------------------
// bundle records (one record = all ADL policies of one user)
// --------------------------------------------------------------------------

std::size_t save_policy_bundle(std::ostream& out,
                               std::span<const PolicyBundleItem> items,
                               std::uint64_t version) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].q == nullptr) {
      throw std::invalid_argument("save_policy_bundle: null table");
    }
    for (std::size_t j = i + 1; j < items.size(); ++j) {
      if (items[i].name == items[j].name) {
        throw std::invalid_argument(
            "save_policy_bundle: duplicate entry name '" +
            std::string(items[i].name) + "'");
      }
    }
  }
  V2Writer w;
  w.bytes.append(kPolicyBundleMagic, 8);
  w.put_u64(version);
  w.put_u64(items.size());
  for (const PolicyBundleItem& item : items) {
    w.put_u64(item.name.size());
    w.bytes.append(item.name.data(), item.name.size());
    std::ostringstream embedded;
    save_policy_v2(embedded, item.steps, item.tools, *item.q, version);
    w.bytes += embedded.str();
  }
  w.put_u64(w.checksum());
  out.write(w.bytes.data(), static_cast<std::streamsize>(w.bytes.size()));
  return w.bytes.size();
}

std::uint64_t load_policy_bundle(std::istream& in,
                                 std::span<const PolicyBundleSlot> slots) {
  // The outer checksum is the last 8 bytes and covers everything before
  // it, so the whole record is pulled into memory first — also what lets
  // validation finish completely before any slot table is written.
  std::string blob(std::istreambuf_iterator<char>(in), {});
  if (blob.size() < 8 + 8 + 8 + 8) {
    throw std::runtime_error("load_policy_bundle: truncated bundle");
  }
  if (std::memcmp(blob.data(), kPolicyBundleMagic, 8) != 0) {
    throw std::runtime_error("load_policy_bundle: not a coreda bundle");
  }
  std::uint64_t stored = 0;
  std::uint64_t hash = kFnvOffset;
  for (std::size_t i = 0; i < blob.size() - 8; ++i) {
    hash ^= static_cast<unsigned char>(blob[i]);
    hash *= kFnvPrime;
  }
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                  blob[blob.size() - 8 + i]))
              << (8 * i);
  }
  if (stored != hash) {
    throw std::runtime_error("load_policy_bundle: checksum mismatch");
  }

  std::istringstream body(blob.substr(8, blob.size() - 16));
  V2Reader r{body};
  const std::uint64_t version = r.take_u64("bundle version");
  const std::uint64_t count = r.take_u64("bundle entry count");
  if (count != slots.size()) {
    throw std::runtime_error("load_policy_bundle: entry count mismatch");
  }
  if (count > kSaneCount) {
    throw std::runtime_error("load_policy_bundle: implausible entry count");
  }

  // Stage every entry against its slot; commit only after the last one
  // validates.
  std::vector<rl::QTable> staged;
  std::vector<std::size_t> staged_slot;
  std::vector<bool> filled(slots.size(), false);
  staged.reserve(slots.size());
  staged_slot.reserve(slots.size());
  for (std::uint64_t e = 0; e < count; ++e) {
    const std::uint64_t name_len = r.take_u64("entry name length");
    if (name_len > kSaneCount) {
      throw std::runtime_error("load_policy_bundle: implausible name");
    }
    std::string name(name_len, '\0');
    if (!body.read(name.data(), static_cast<std::streamsize>(name_len))) {
      throw std::runtime_error("load_policy_bundle: truncated entry name");
    }
    std::size_t slot_index = slots.size();
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].name == name) {
        slot_index = s;
        break;
      }
    }
    if (slot_index == slots.size() || filled[slot_index]) {
      throw std::runtime_error(
          "load_policy_bundle: unexpected entry '" + name + "'");
    }
    const PolicyBundleSlot& slot = slots[slot_index];
    if (slot.q == nullptr) {
      throw std::runtime_error("load_policy_bundle: null slot table");
    }
    filled[slot_index] = true;
    staged.emplace_back(slot.q->num_states(), slot.q->num_actions());
    staged_slot.push_back(slot_index);
    // Embedded records validate exactly as standalone v2 snapshots.
    load_policy_v2(body, slot.steps, slot.tools, staged.back());
  }
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (!filled[s]) {
      throw std::runtime_error("load_policy_bundle: missing entry '" +
                               std::string(slots[s].name) + "'");
    }
  }

  for (std::size_t i = 0; i < staged.size(); ++i) {
    rl::QTable& dst = *slots[staged_slot[i]].q;
    for (rl::StateId s = 0; s < dst.num_states(); ++s) {
      for (rl::ActionId a = 0; a < dst.num_actions(); ++a) {
        dst.set(s, a, staged[i].get(s, a));
      }
    }
  }
  return version;
}

PolicyFormat detect_policy_format(std::istream& in) {
  char head[8] = {};
  in.read(head, sizeof(head));
  const std::streamsize got = in.gcount();
  in.clear();
  in.seekg(0);
  if (got >= 8 && std::memcmp(head, kPolicyV2Magic, 8) == 0) {
    return PolicyFormat::kBinaryV2;
  }
  if (got >= 8 && std::memcmp(head, kPolicyV3Magic, 8) == 0) {
    return PolicyFormat::kBinaryV3;
  }
  return PolicyFormat::kUnknown;
}

std::uint64_t load_policy_any(std::istream& in, RoutineLearner& learner) {
  switch (detect_policy_format(in)) {
    case PolicyFormat::kBinaryV2:
      return load_policy_v2(in, learner);
    case PolicyFormat::kBinaryV3: {
      rl::QTable staged(learner.q().num_states(),
                        learner.q().num_actions());
      const PolicyV3Chain chain =
          load_policy_v3(in, learner.state_codec().symbols(),
                         learner.action_codec().tools(), staged);
      learner.import_q(staged);
      return chain.version;
    }
    case PolicyFormat::kUnknown:
      break;
  }
  throw std::runtime_error("load_policy_any: not a v2 or v3 policy snapshot");
}

}  // namespace coreda::planning
