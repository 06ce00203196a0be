#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string_view>
#include <vector>

#include "planning/learner.hpp"

namespace coreda::planning {

// ---------------------------------------------------------------------------
// "coreda-policy v2" — the compact binary snapshot the serving tier uses
// (serve::PolicyStore). Layout, all integers little-endian u64, doubles as
// little-endian IEEE-754 bit patterns:
//
//   magic     8 bytes  "CRDAPOL2"
//   version   u64      monotonically increasing per write-back
//   n_steps   u64      |step vocabulary|
//   n_tools   u64      |tool vocabulary|
//   n_states  u64      Q rows
//   n_actions u64      Q columns
//   steps     n_steps  x u64
//   tools     n_tools  x u64
//   q         n_states x n_actions x f64, row-major
//   checksum  u64      FNV-1a 64 over every preceding byte
//
// The trailing checksum rejects torn or bit-flipped files; the vocabularies
// reject a snapshot from a different ADL. Loads stage into a scratch table
// and only commit on full validation, so the destination is never left
// half-written.
// ---------------------------------------------------------------------------

/// The 8 magic bytes opening every v2 snapshot.
inline constexpr char kPolicyV2Magic[8] = {'C', 'R', 'D', 'A',
                                           'P', 'O', 'L', '2'};

/// Header + integrity summary of a v2 snapshot, readable without a learner
/// (the CLI `policy inspect` path).
struct PolicyV2Info {
  std::uint64_t version = 0;
  std::vector<adl::StepId> steps;
  std::vector<adl::ToolId> tools;
  std::size_t num_states = 0;
  std::size_t num_actions = 0;
  bool checksum_ok = false;
};

/// Writes a v2 snapshot of `q` stamped with `version` under the given
/// vocabularies (the PolicyStore write-back path, which owns the vocab and
/// the per-user table but no learner). Returns the bytes written, so stores
/// can account flush traffic.
std::size_t save_policy_v2(std::ostream& out,
                           std::span<const adl::StepId> steps,
                           std::span<const adl::ToolId> tools,
                           const rl::QTable& q, std::uint64_t version);

/// Writes a v2 snapshot of `learner`'s table and vocabularies.
void save_policy_v2(std::ostream& out, const RoutineLearner& learner,
                    std::uint64_t version = 1);

/// Restores a v2 snapshot into `q`, validating magic, checksum, and the
/// expected vocabularies/dimensions. Returns the snapshot version. Throws
/// std::runtime_error on any mismatch or corruption; `q` is only written
/// after full validation (unchanged on failure).
std::uint64_t load_policy_v2(std::istream& in,
                             std::span<const adl::StepId> steps,
                             std::span<const adl::ToolId> tools,
                             rl::QTable& q);

/// Restores a v2 snapshot into `learner` (vocabularies taken from its
/// codecs). Returns the snapshot version; learner unchanged on failure.
std::uint64_t load_policy_v2(std::istream& in, RoutineLearner& learner);

/// Parses a v2 header + integrity check without needing a learner. Throws
/// std::runtime_error when the stream is not a structurally complete v2
/// snapshot; a wrong checksum is reported via `checksum_ok`, not thrown,
/// so operators can inspect a damaged file.
PolicyV2Info inspect_policy_v2(std::istream& in);

// ---------------------------------------------------------------------------
// "coreda-policy v3" — delta-encoded snapshot chains.
//
// A v3 file is one *full* record (byte-identical to the v2 layout except the
// magic reads "CRDAPOL3") followed by zero or more appended *delta* records,
// each diffing changed Q rows against the table produced by everything
// before it:
//
//   magic     8 bytes  "CRDADEL3"
//   version   u64      version this delta produces
//   parent    u64      version it applies on top of (chain check)
//   n_rows    u64      changed Q rows in this delta
//   n_actions u64      row width (must match the anchor)
//   rows      n_rows x (u64 row_index + n_actions x f64)
//   checksum  u64      FNV-1a 64 over every preceding byte of THIS record
//
// Appending a delta touches only the file tail, so a snapshot of a
// 100-row table that changed 3 rows writes ~3 rows, not 100 — the
// write-amplification fix for large-vocab tables. Integrity inherits the
// v2 posture per record: a corrupt/torn/mis-parented delta ends the chain
// at the longest valid prefix (the loader returns that prefix's table and
// version — exactly what was durable before the bad append), while a
// corrupt full record rejects the file outright, as v2 does. Every K
// deltas the writer rebases: rewrites one fresh full record (atomic
// tmp+rename), bounding both chain-replay time and tail-corruption
// blast radius.
// ---------------------------------------------------------------------------

/// The 8 magic bytes opening a v3 snapshot file (full/anchor record).
inline constexpr char kPolicyV3Magic[8] = {'C', 'R', 'D', 'A',
                                           'P', 'O', 'L', '3'};
/// The 8 magic bytes opening each appended v3 delta record.
inline constexpr char kPolicyV3DeltaMagic[8] = {'C', 'R', 'D', 'A',
                                                'D', 'E', 'L', '3'};

/// Writes a v3 full (anchor) record. Returns the bytes written.
std::size_t save_policy_v3_full(std::ostream& out,
                                std::span<const adl::StepId> steps,
                                std::span<const adl::ToolId> tools,
                                const rl::QTable& q, std::uint64_t version);

/// Serializes one delta record carrying every row where `q` differs
/// bitwise from `base` (shapes must match — std::invalid_argument).
/// `parent` must name the version the chain currently ends at. Returns the
/// record's bytes so callers can account flush traffic; write it with
/// ostream::write in append mode.
std::string encode_policy_v3_delta(const rl::QTable& base,
                                   const rl::QTable& q,
                                   std::uint64_t version,
                                   std::uint64_t parent);

// Shared changed-row codec. Both the v3 snapshot files above and the fleet
// tier's segment delta records (serve/segment_store) encode "rows of q that
// differ bitwise from base" the same way: u64 row index followed by
// num_actions LE f64 values per changed row. These four helpers are that
// codec, both halves; keeping them here means the formats cannot drift
// apart.

/// Number of rows where `q` differs bitwise from `base` (shapes must match —
/// std::invalid_argument). Allocation-free.
std::size_t count_changed_rows(const rl::QTable& base, const rl::QTable& q);

/// Encodes every changed row into `dst`, which must have room for
/// count_changed_rows(base, q) * (1 + q.num_actions()) * 8 bytes. Returns
/// one past the last byte written. Allocation-free.
unsigned char* encode_changed_rows(const rl::QTable& base, const rl::QTable& q,
                                   unsigned char* dst);

/// Decode-side validation: true when each of the `n_rows` encoded rows at
/// `src` names a row below `num_states`. Rows are 8 * (1 + num_actions)
/// bytes apart. Allocation-free.
bool changed_rows_valid(const unsigned char* src, std::size_t n_rows,
                        std::size_t num_states, std::size_t num_actions);

/// Writes each of the `n_rows` encoded rows at `src` into its row of `q`.
/// The rows must have passed changed_rows_valid for q's shape. Returns one
/// past the last byte read. Allocation-free.
const unsigned char* apply_changed_rows(const unsigned char* src,
                                        std::size_t n_rows, rl::QTable& q);

/// Result of loading a v3 chain.
struct PolicyV3Chain {
  std::uint64_t version = 0;      ///< version after the applied prefix
  std::size_t deltas_applied = 0; ///< valid deltas folded in
  /// True when a torn/corrupt/mis-parented tail record was skipped (the
  /// crash-recovery path: everything durable before it was still loaded).
  bool tail_skipped = false;
};

/// Restores a v3 chain into `q`: validates the full record exactly as v2
/// (magic/checksum/vocabulary/dimensions — std::runtime_error, `q`
/// untouched), then applies the longest valid prefix of delta records.
PolicyV3Chain load_policy_v3(std::istream& in,
                             std::span<const adl::StepId> steps,
                             std::span<const adl::ToolId> tools,
                             rl::QTable& q);

/// Chain-level summary of a v3 file, readable without a learner (CLI
/// `policy inspect`). Throws only when the full record is structurally
/// invalid; a bad anchor checksum is reported, not thrown.
struct PolicyV3Info {
  PolicyV2Info anchor;             ///< the full record's header
  std::uint64_t version = 0;       ///< version after the valid chain
  std::size_t delta_count = 0;     ///< valid deltas since the anchor
  std::size_t on_disk_bytes = 0;   ///< anchor + valid delta bytes
  /// Bytes one fresh full snapshot of the reconstructed table would take —
  /// the denominator of the delta format's write savings.
  std::size_t reconstructed_bytes = 0;
  bool tail_skipped = false;       ///< invalid tail record(s) ignored
};
PolicyV3Info inspect_policy_v3(std::istream& in);

// ---------------------------------------------------------------------------
// "coreda-bundle v1" — one record holding every ADL policy of one user.
//
// A resident who interleaves ADLs mid-session needs all of their per-ADL
// policy snapshots restored together; storing them as separate records
// reintroduces torn multi-file states (tea restored, tooth-brushing not).
// The bundle frames several named v2 records inside ONE checksummed record,
// so a user's whole home policy set is durable or absent atomically:
//
//   magic     8 bytes  "CRDABNDL"
//   version   u64      monotonically increasing per write-back
//   count     u64      number of named entries
//   entries   count x { name_len u64, name bytes,
//                       full v2 record (self-checksummed, see above) }
//   checksum  u64      FNV-1a 64 over every preceding byte
//
// Loads are all-or-nothing: every entry must parse, pass both checksum
// layers, match a requested slot by name, and fill every slot — otherwise
// std::runtime_error and no destination table is touched.
// ---------------------------------------------------------------------------

/// The 8 magic bytes opening every bundle record.
inline constexpr char kPolicyBundleMagic[8] = {'C', 'R', 'D', 'A',
                                               'B', 'N', 'D', 'L'};

/// One named policy to embed when saving a bundle. Non-owning views; the
/// caller's vocabularies and table must stay alive across the call.
struct PolicyBundleItem {
  std::string_view name;
  std::span<const adl::StepId> steps;
  std::span<const adl::ToolId> tools;
  const rl::QTable* q = nullptr;
};

/// Writes a bundle of `items` stamped with `version`. Entry versions inside
/// the embedded v2 records carry the same stamp. Returns the bytes written.
/// Throws std::invalid_argument on duplicate names or a null table.
std::size_t save_policy_bundle(std::ostream& out,
                               std::span<const PolicyBundleItem> items,
                               std::uint64_t version);

/// One destination for a bundle entry, matched by name.
struct PolicyBundleSlot {
  std::string_view name;
  std::span<const adl::StepId> steps;
  std::span<const adl::ToolId> tools;
  rl::QTable* q = nullptr;
};

/// Restores a bundle into `slots`: every entry must match exactly one slot
/// by name and every slot must be filled. Validates the outer checksum,
/// then each embedded v2 record exactly as load_policy_v2 (magic, checksum,
/// vocabulary, dimensions). Returns the bundle version. Throws
/// std::runtime_error on any mismatch or corruption; no slot table is
/// written unless the whole bundle validates.
std::uint64_t load_policy_bundle(std::istream& in,
                                 std::span<const PolicyBundleSlot> slots);

/// Snapshot format sniffing for operator tooling: peeks at the stream head
/// and rewinds. kUnknown means no magic matched.
enum class PolicyFormat { kUnknown, kBinaryV2, kBinaryV3 };
PolicyFormat detect_policy_format(std::istream& in);

/// Loads a v2 snapshot or a v3 chain into `learner` and returns its
/// version. Throws std::runtime_error when the stream is neither format or
/// fails its format's validation; the learner is unchanged on failure.
std::uint64_t load_policy_any(std::istream& in, RoutineLearner& learner);

}  // namespace coreda::planning
