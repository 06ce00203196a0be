#include "serve/policy_store.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "planning/serialize.hpp"

namespace coreda::serve {
namespace {

/// XOR-flips the byte `back_off` bytes before EOF (the same 0x5A flip the
/// every-offset fuzz sweep uses) — the corruption site's write primitive.
void corrupt_tail_byte(const std::string& path, std::size_t back_off) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!f) throw std::runtime_error("faults: cannot reopen " + path);
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(f.tellg());
  if (back_off == 0 || back_off > size) return;
  const auto pos = static_cast<std::streamoff>(size - back_off);
  f.seekg(pos);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  f.seekp(pos);
  f.write(&byte, 1);
  f.flush();
}

}  // namespace

PolicyStore::PolicyStore(const planning::RoutineLearner& reference,
                         PolicyStoreParams params)
    : params_(std::move(params)),
      steps_(reference.state_codec().symbols()),
      tools_(reference.action_codec().tools()),
      reference_(reference.q()) {
  if (params_.flush_every == 0) {
    throw std::invalid_argument("PolicyStore: flush_every must be >= 1");
  }
  if (!params_.dir.empty()) {
    std::filesystem::create_directories(params_.dir);
  }
}

PolicyStore::~PolicyStore() {
  try {
    flush_all();
  } catch (...) {
    // Destructors must not throw; an unflushed tail snapshot only costs the
    // stages since the last flush, exactly like a power cut would.
  }
}

UserId PolicyStore::add_user(std::string name) {
  return add_user(std::move(name), reference_);
}

UserId PolicyStore::add_user(std::string name, const rl::QTable& initial) {
  if (initial.num_states() != reference_.num_states() ||
      initial.num_actions() != reference_.num_actions()) {
    throw std::invalid_argument("PolicyStore::add_user: table shape differs "
                                "from the reference policy");
  }
  entries_.push_back(Entry{std::move(name), initial});
  return static_cast<UserId>(entries_.size() - 1);
}

PolicyStore::Entry& PolicyStore::entry(UserId user) {
  if (user >= entries_.size()) {
    throw std::out_of_range("PolicyStore: unknown user id " +
                            std::to_string(user));
  }
  return entries_[user];
}

const PolicyStore::Entry& PolicyStore::entry(UserId user) const {
  return const_cast<PolicyStore*>(this)->entry(user);
}

const std::string& PolicyStore::user_name(UserId user) const {
  return entry(user).name;
}

const rl::QTable& PolicyStore::q(UserId user) const { return entry(user).q; }

std::uint64_t PolicyStore::version(UserId user) const {
  return entry(user).version;
}

void PolicyStore::stage(UserId user, const rl::QTable& q) {
  Entry& e = entry(user);
  if (q.num_states() != e.q.num_states() ||
      q.num_actions() != e.q.num_actions()) {
    throw std::invalid_argument("PolicyStore::stage: table shape mismatch");
  }
  e.q = q;  // same shape: the vector assign reuses capacity, no allocation
  ++e.version;
  ++e.staged;
  ++e.unflushed;
  if (!params_.dir.empty() && e.unflushed >= params_.flush_every) {
    persist(user, e);
    ++e.disk;
    e.unflushed = 0;
  }
}

void PolicyStore::flush(UserId user) {
  Entry& e = entry(user);
  if (params_.dir.empty() || e.unflushed == 0) return;
  persist(user, e);
  ++e.disk;
  e.unflushed = 0;
}

void PolicyStore::flush_all() {
  for (UserId u = 0; u < entries_.size(); ++u) flush(u);
}

void PolicyStore::persist(UserId user, Entry& e) {
  const std::string path = params_.dir + "/" + e.name + ".policy";
  const std::string tmp = path + ".tmp";

  if (params_.format == SnapshotFormat::kV3Delta && e.flushed &&
      e.chain_deltas < params_.rebase_every) {
    // Delta append: only the changed rows since the committed chain state.
    const std::string record = planning::encode_policy_v3_delta(
        *e.flushed, e.q, e.version, e.flushed_version);
    // The crash seam fires before any byte lands, so a simulated crash here
    // leaves the committed file untouched (the append-mode analog of
    // "before the rename").
    pre_publish_site_.crash_point(user, e.version, path);
    try {
      std::ofstream out(path, std::ios::binary | std::ios::app);
      if (!out) {
        throw std::runtime_error("PolicyStore: cannot append to " + path);
      }
      out.write(record.data(), static_cast<std::streamsize>(record.size()));
      if (!out.flush()) {
        throw std::runtime_error("PolicyStore: short append to " + path);
      }
      // Corruption seam: a planned byte flip tears the delta we just
      // appended. Throwing makes the caller treat the flush as failed, and
      // the catch below drops the diff base so the next flush rebases with
      // a clean anchor — the chain loader skips the torn tail meanwhile.
      const std::size_t off =
          corrupt_site_.corrupt_offset(user, e.version, record.size());
      if (off != faults::Site::kNoCorruption) {
        corrupt_tail_byte(path, record.size() - off);
        throw faults::InjectedCrash(
            "policy_store.corrupt: torn delta appended to " + path);
      }
    } catch (...) {
      // The file tail may now be torn. The chain loader recovers the valid
      // prefix on read; dropping the diff base forces the next flush to
      // rewrite a clean full anchor instead of appending after the tear.
      e.flushed.reset();
      e.chain_deltas = 0;
      throw;
    }
    ++e.chain_deltas;
    *e.flushed = e.q;
    e.flushed_version = e.version;
    e.flush_bytes += record.size();
    return;
  }

  // Full snapshot (v2 mode always; v3 anchor/rebase), atomically published.
  std::size_t bytes = 0;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("PolicyStore: cannot write " + tmp);
    }
    bytes = params_.format == SnapshotFormat::kV3Delta
                ? planning::save_policy_v3_full(out, steps_, tools_, e.q,
                                                e.version)
                : planning::save_policy_v2(out, steps_, tools_, e.q,
                                           e.version);
    if (!out.flush()) {
      throw std::runtime_error("PolicyStore: short write to " + tmp);
    }
  }
  pre_publish_site_.crash_point(user, e.version, tmp);
  // Corruption seam, full-snapshot flavor: flip a byte in the still-
  // unpublished temp file and abandon it — the committed snapshot stays
  // whole and the garbage temp is never read (proven by the crash tests).
  const std::size_t corrupt_at =
      corrupt_site_.corrupt_offset(user, e.version, bytes);
  if (corrupt_at != faults::Site::kNoCorruption) {
    corrupt_tail_byte(tmp, bytes - corrupt_at);
    throw faults::InjectedCrash("policy_store.corrupt: torn temp snapshot " +
                                tmp);
  }
  // Atomic publish: readers (and a crashed writer's next restart) only ever
  // see a complete snapshot or the previous one, never a torn file.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("PolicyStore: cannot rename " + tmp + " to " +
                             path);
  }
  e.flush_bytes += bytes;
  if (params_.format == SnapshotFormat::kV3Delta) {
    e.chain_deltas = 0;
    if (e.flushed) {
      *e.flushed = e.q;
    } else {
      e.flushed = std::make_unique<rl::QTable>(e.q);
    }
    e.flushed_version = e.version;
  }
}

std::optional<std::uint64_t> PolicyStore::restore(UserId user) {
  Entry& e = entry(user);
  if (params_.dir.empty()) return std::nullopt;
  const std::string path = path_for(user);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  // Sniff the committed format rather than assuming the configured one:
  // a v3 store restores v2 files transparently (and rebases them to v3 on
  // the next flush), and vice versa. The entry is written only after the
  // whole snapshot validates.
  rl::QTable staged(e.q.num_states(), e.q.num_actions());
  switch (planning::detect_policy_format(in)) {
    case planning::PolicyFormat::kBinaryV2:
      e.version = planning::load_policy_v2(in, steps_, tools_, staged);
      break;
    case planning::PolicyFormat::kBinaryV3:
      e.version = planning::load_policy_v3(in, steps_, tools_, staged).version;
      break;
    default:
      throw std::runtime_error("PolicyStore: unrecognized snapshot format in " +
                               path);
  }
  e.q = staged;
  e.unflushed = 0;
  // In v3 mode the chain may have lost a torn tail (or the file may be v2):
  // drop the diff base so the next flush rewrites a clean full anchor
  // instead of appending to an uncertain chain.
  e.flushed.reset();
  e.chain_deltas = 0;
  return e.version;
}

std::uint64_t PolicyStore::staged_writes() const noexcept {
  std::uint64_t total = 0;
  for (const Entry& e : entries_) total += e.staged;
  return total;
}

std::uint64_t PolicyStore::disk_writes() const noexcept {
  std::uint64_t total = 0;
  for (const Entry& e : entries_) total += e.disk;
  return total;
}

std::uint64_t PolicyStore::flush_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const Entry& e : entries_) total += e.flush_bytes;
  return total;
}

std::string PolicyStore::path_for(UserId user) const {
  if (params_.dir.empty()) return {};
  return params_.dir + "/" + entry(user).name + ".policy";
}

}  // namespace coreda::serve
