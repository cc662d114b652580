// lab::RunCellLog — the one checkpoint format and the one resume protocol,
// shared by fleet shards (RunFleetShard) and matrix runs
// (ExperimentMatrix::Run).
//
// A record log is a header-free JSONL file with one line per finished cell:
//
//   {"cell": "N", "seed": "N", "spec": "N", "checksum": "N", "payload": "..."}
//
// `payload` is the mode's cell result as report_io-dialect JSON text (a
// fleet cell record, or a matrix cell's ReportToJson document). `spec` is
// the fingerprint of the spec that produced the cell (FleetFingerprint or
// MatrixFingerprint). `checksum` is FNV-1a over the spec and the payload, so
// a torn or bit-rotted line fails loudly instead of resuming or merging.
//
// Resume rule: re-running on the same file restores a record only if its
// checksum, seed and spec all verify; everything else re-runs. A file that
// holds an intact record of a different spec is refused before any cell
// runs and left byte-for-byte untouched: an edited spec must never resume
// from another spec's cells (seeds depend only on coordinates, so they would
// verify).

#ifndef SRC_LAB_RECORD_LOG_H_
#define SRC_LAB_RECORD_LOG_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/runtime/supervisor.h"

namespace wdmlat::lab {

struct RecordLine {
  std::uint64_t cell = 0;
  std::uint64_t seed = 0;
  std::uint64_t spec = 0;
  std::string payload;
};

// Why a record line was refused: it does not decode (kCorrupt), or its
// payload does not match its checksum, as a torn or bit-rotted line does
// (kChecksumMismatch).
enum class RecordDamage : std::uint8_t { kNone, kCorrupt, kChecksumMismatch };

std::string RecordLineText(std::uint64_t cell, std::uint64_t seed, std::uint64_t spec,
                           std::string_view payload);
// Parse one line and verify its checksum; false (+ error, + damage) on a
// malformed, torn or corrupt line.
bool ParseRecordLine(std::string_view line, RecordLine* record, std::string* error,
                     RecordDamage* damage = nullptr);

// Scan an existing record log for an intact record written under a spec
// other than `spec`. Returns false (+ error) if it finds one; a missing
// file, or one holding only `spec` records and damaged lines, passes.
bool CheckRecordLogSpec(const std::string& path, std::uint64_t spec, std::string* error);

struct CellLogOptions {
  // Record log. Empty runs the cells without checkpointing.
  std::string path;
  // Fingerprint of the spec the cells come from; written into and required
  // of every record.
  std::uint64_t spec = 0;
  // The population is cells [0, cell_count); this log owns the cells with
  // index % stride == offset (a fleet shard), minus skip_cells (sorted
  // ascending; never executed, but a verified record for one is kept).
  std::uint64_t cell_count = 0;
  std::size_t stride = 1;
  std::size_t offset = 0;
  std::vector<std::uint64_t> skip_cells;
  // Cell window [cell_lo, cell_hi) of this run (cell_hi == 0 means
  // cell_count). Verified records outside it are preserved, so windowed
  // runs accumulate into one log.
  std::uint64_t cell_lo = 0;
  std::uint64_t cell_hi = 0;
  int jobs = 1;
  // Host-clock budget of each cell's watchdog (runtime::RunSupervised);
  // 0 leaves it disarmed.
  double cell_timeout_ms = 0.0;

  // The seed a cell's record must carry.
  std::function<std::uint64_t(std::uint64_t cell)> cell_seed;
  // Resume: decode a verified record's payload. False (+ error) rejects the
  // record and re-runs the cell. Called before any cell runs.
  std::function<bool(std::uint64_t cell, std::string_view payload, std::string* error)>
      restore;
  // Run one cell under the exception barrier: returns the record payload
  // (ignored without a path) or throws.
  std::function<std::string(std::uint64_t cell, runtime::Watchdog& watchdog)> run;
  // Optional: attach the diagnostic bundle to a cell's failure. Runs on the
  // thread that ran the cell, right after it failed.
  std::function<void(std::uint64_t cell, runtime::CellFailure& failure)> diagnose;
  // Optional: called once per executed cell, serialized, in completion
  // order; `failure` is null on success.
  std::function<void(std::uint64_t cell, const runtime::CellFailure* failure)> on_cell_done;
};

struct CellLogResult {
  std::uint64_t cells_total = 0;     // cells in this run's scope
  std::uint64_t cells_executed = 0;  // ran this invocation
  std::uint64_t cells_restored = 0;  // verified records reused from the log
  std::vector<runtime::CellFailure> failures;  // completion order
  std::vector<std::string> warnings;           // records rejected on resume
  double wall_seconds = 0.0;
  std::string error;  // fatal (foreign spec, I/O); empty on success

  bool ok() const { return error.empty() && failures.empty(); }
};

// Resume from `options.path`, run the scope's missing cells on `jobs`
// threads and write every record in ascending cell order. Fresh logs are
// appended with batched flushes (a killed run loses at most its last
// unflushed batch); a log that already holds records is stream-rewritten to
// "<path>.tmp" and renamed over it, so a second kill still finds the old
// records intact. A log with nothing missing keeps its exact bytes.
CellLogResult RunCellLog(const CellLogOptions& options);

}  // namespace wdmlat::lab

#endif  // SRC_LAB_RECORD_LOG_H_
