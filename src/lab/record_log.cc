#include "src/lab/record_log.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>

#include "src/lab/report_io.h"
#include "src/runtime/thread_pool.h"

namespace wdmlat::lab {

namespace {

using report_json::AppendEscaped;
using report_json::AppendU64;

// The checksum is FNV-1a over the spec's digits and then the payload: a bit
// flipped in the spec field must read as damage (re-run the cell), never as
// a foreign spec (refuse the whole log). This is its digest of the spec; the
// payload's escape and unescape continue it.
std::uint64_t SpecDigest(std::uint64_t spec) {
  char prefix[20];
  const auto digits = std::to_chars(prefix, prefix + sizeof(prefix), spec);
  return Fnv1a64(std::string_view(prefix, digits.ptr - prefix));
}

std::string ForeignSpecError(const std::string& path, std::uint64_t cell,
                             std::uint64_t found, std::uint64_t spec) {
  return path + ": cell " + std::to_string(cell) + " was recorded under spec " +
         std::to_string(found) + ", not this run's spec " + std::to_string(spec) +
         "; refusing to resume another spec's records (use a fresh file)";
}

// In-order record writer: cells complete in any order (jobs > 1), lines
// leave in ascending cell order. Restored records are copied byte-for-byte
// from the old log at the offsets the resume pass verified. Pending lines
// are bounded by the job count, so the reorder buffer never grows with the
// log.
class OrderedRecordWriter {
 public:
  OrderedRecordWriter(std::ostream& out, std::vector<std::uint64_t> indices,
                      const std::vector<std::uint64_t>& restored,
                      const std::vector<std::uint64_t>& restored_at, std::istream* old_log)
      : out_(out),
        indices_(std::move(indices)),
        restored_(restored),
        restored_at_(restored_at),
        old_log_(old_log) {}

  bool Complete(std::uint64_t index, std::string line, std::string* error) {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.emplace(index, std::move(line));
    return Drain(error);
  }

  // A failed cell leaves no record; later cells must not wait for it.
  bool Skip(std::uint64_t index, std::string* error) {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.emplace(index, std::string());
    return Drain(error);
  }

  // Flush restored-only suffixes (call once after all cells ran).
  bool Finish(std::string* error) {
    std::lock_guard<std::mutex> lock(mutex_);
    return Drain(error);
  }

 private:
  bool Drain(std::string* error) {
    while (next_ < indices_.size()) {
      const std::uint64_t index = indices_[next_];
      if (next_restored_ < restored_.size() && restored_[next_restored_] == index) {
        std::string line;
        old_log_->clear();
        old_log_->seekg(static_cast<std::streamoff>(restored_at_[next_restored_]));
        if (!std::getline(*old_log_, line)) {
          *error = "record log ended before restored cell " + std::to_string(index);
          return false;
        }
        out_ << line << "\n";
        ++next_restored_;
      } else {
        auto it = pending_.find(index);
        if (it == pending_.end()) {
          break;  // waiting for an in-flight cell
        }
        if (!it->second.empty()) {
          out_ << it->second << "\n";
        }
        pending_.erase(it);
      }
      ++next_;
      // Flush in batches, not per line: a flush is a write() syscall, and at
      // population scale one-per-cell costs as much as the cell itself. A
      // kill loses at most the last unflushed batch — those cells simply
      // re-run on resume, which the torn-line recovery already covers.
      if (next_ % kFlushBatch == 0) {
        out_.flush();
      }
    }
    if (next_ == indices_.size()) {
      out_.flush();
    }
    if (!out_) {
      *error = "record log write failed";
      return false;
    }
    return true;
  }

  static constexpr std::size_t kFlushBatch = 32;

  std::ostream& out_;
  std::vector<std::uint64_t> indices_;  // every cell the new log holds, ascending
  const std::vector<std::uint64_t>& restored_;
  const std::vector<std::uint64_t>& restored_at_;  // byte offset of each restored line
  std::istream* old_log_;
  std::mutex mutex_;
  std::map<std::uint64_t, std::string> pending_;
  std::size_t next_ = 0;
  std::size_t next_restored_ = 0;
};

}  // namespace

std::string RecordLineText(std::uint64_t cell, std::uint64_t seed, std::uint64_t spec,
                           std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + payload.size() / 4 + 128);
  out += "{\"cell\": \"";
  AppendU64(out, cell);
  out += "\", \"seed\": \"";
  AppendU64(out, seed);
  out += "\", \"spec\": \"";
  AppendU64(out, spec);
  out += "\", \"checksum\": \"";
  const std::size_t checksum_at = out.size();
  out += "\", \"payload\": \"";
  const std::uint64_t checksum = AppendEscaped(out, payload, SpecDigest(spec));
  out += "\"}";
  // The checksum comes before the payload it is computed over, in one pass
  // with the escaping: put its digits in afterwards.
  char digits[20];
  const char* const digits_end = std::to_chars(digits, digits + sizeof(digits), checksum).ptr;
  out.insert(checksum_at, digits, static_cast<std::size_t>(digits_end - digits));
  return out;
}

bool ParseRecordLine(std::string_view line, RecordLine* record, std::string* error,
                     RecordDamage* damage) {
  // The inverse of RecordLineText; the payload is unescaped and
  // checksummed in one pass, into storage sized once.
  report_json::Reader in(line);
  std::uint64_t checksum = 0;
  record->payload.reserve(line.size());
  const bool head = in.Expect("{\"cell\": ") && in.QuotedU64(&record->cell) &&
                    in.Expect(", \"seed\": ") && in.QuotedU64(&record->seed) &&
                    in.Expect(", \"spec\": ") && in.QuotedU64(&record->spec) &&
                    in.Expect(", \"checksum\": ") && in.QuotedU64(&checksum) &&
                    in.Expect(", \"payload\": ");
  std::uint64_t digest = SpecDigest(record->spec);
  const bool framed =
      head && in.String(&record->payload, &digest) && in.Expect("}") && in.ExpectEnd();
  if (framed && digest == checksum) {
    return true;
  }
  if (error != nullptr) {
    *error = framed ? "record payload checksum mismatch (torn or corrupt line)"
                    : "malformed record line: " + in.error();
  }
  if (damage != nullptr) {
    *damage = framed ? RecordDamage::kChecksumMismatch : RecordDamage::kCorrupt;
  }
  return false;
}

bool CheckRecordLogSpec(const std::string& path, std::uint64_t spec, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  std::string line;
  while (std::getline(in, line)) {
    RecordLine record;
    if (line.empty() || !ParseRecordLine(line, &record, nullptr)) {
      continue;
    }
    if (record.spec != spec) {
      if (error != nullptr) {
        *error = ForeignSpecError(path, record.cell, record.spec, spec);
      }
      return false;
    }
  }
  return true;
}

CellLogResult RunCellLog(const CellLogOptions& options) {
  using Clock = std::chrono::steady_clock;
  CellLogResult result;

  // This run's scope: owned cells inside [cell_lo, cell_hi), minus skips.
  const std::uint64_t window_hi = options.cell_hi == 0
                                      ? options.cell_count
                                      : std::min(options.cell_hi, options.cell_count);
  std::vector<std::uint64_t> scope;
  for (std::uint64_t i = options.offset; i < window_hi; i += options.stride) {
    if (i >= options.cell_lo &&
        !std::binary_search(options.skip_cells.begin(), options.skip_cells.end(), i)) {
      scope.push_back(i);
    }
  }
  result.cells_total = scope.size();

  // --- Resume pass: trust nothing — a kept record must parse, checksum,
  // carry this run's spec and the seed the spec derives for its cell, and
  // decode. The log is cell-sorted by the write contract; anything after an
  // out-of-order line is suspect and re-runs.
  std::vector<std::uint64_t> restored;
  std::vector<std::uint64_t> restored_at;
  if (!options.path.empty()) {
    std::ifstream in(options.path, std::ios::binary);
    std::string line;
    std::uint64_t next_at = 0;
    bool first = true;
    std::uint64_t last_index = 0;
    while (std::getline(in, line)) {
      const std::uint64_t at = next_at;
      next_at += line.size() + 1;
      if (line.empty()) {
        continue;
      }
      RecordLine record;
      std::string reason;
      if (!ParseRecordLine(line, &record, &reason)) {
        result.warnings.push_back("record rejected (" + reason + "); re-running that cell");
        continue;
      }
      if (record.spec != options.spec) {
        result.error = ForeignSpecError(options.path, record.cell, record.spec, options.spec);
        return result;
      }
      if (!first && record.cell <= last_index) {
        result.warnings.push_back("records out of order at cell " +
                                  std::to_string(record.cell) + "; ignoring the remainder");
        break;
      }
      first = false;
      last_index = record.cell;
      if (record.cell >= options.cell_count || record.cell % options.stride != options.offset) {
        result.warnings.push_back("record for cell " + std::to_string(record.cell) +
                                  " does not belong to this log; dropped");
        continue;
      }
      if (record.seed != options.cell_seed(record.cell)) {
        result.warnings.push_back("cell " + std::to_string(record.cell) +
                                  ": record seed mismatch; re-running");
        continue;
      }
      if (options.restore && !options.restore(record.cell, record.payload, &reason)) {
        result.warnings.push_back("cell " + std::to_string(record.cell) +
                                  ": record rejected (" + reason + "); re-running");
        continue;
      }
      restored.push_back(record.cell);
      restored_at.push_back(at);
    }
  }
  result.cells_restored = restored.size();

  std::vector<std::uint64_t> missing;
  std::set_difference(scope.begin(), scope.end(), restored.begin(), restored.end(),
                      std::back_inserter(missing));
  if (missing.empty()) {
    return result;  // nothing to run: the log keeps its exact bytes
  }

  // The new log holds the union of the restored records (wherever they fall)
  // and this run's scope, in ascending cell order.
  std::vector<std::uint64_t> indices;
  std::set_union(restored.begin(), restored.end(), scope.begin(), scope.end(),
                 std::back_inserter(indices));
  const bool writing = !options.path.empty();
  const bool rewrite = !restored.empty();
  const std::string write_path = rewrite ? options.path + ".tmp" : options.path;
  std::ofstream out;
  std::ifstream old_log;
  if (writing) {
    out.open(write_path, std::ios::trunc | std::ios::binary);
    if (!out) {
      result.error = "cannot write record log: " + write_path;
      return result;
    }
    if (rewrite) {
      old_log.open(options.path, std::ios::binary);
    }
  }
  OrderedRecordWriter writer(out, std::move(indices), restored, restored_at, &old_log);

  std::mutex result_mutex;
  std::string write_error;
  const Clock::time_point run_start = Clock::now();
  runtime::ParallelFor(options.jobs, missing.size(), [&](std::size_t w) {
    {
      std::lock_guard<std::mutex> lock(result_mutex);
      if (!write_error.empty()) {
        return;  // the log is already broken; don't waste the cells
      }
    }
    const std::uint64_t index = missing[w];
    const std::uint64_t seed = options.cell_seed(index);
    std::string payload;
    const auto body = [&](runtime::Watchdog& watchdog) {
      payload = options.run(index, watchdog);
    };
    std::function<void(runtime::CellFailure&)> diagnose;
    if (options.diagnose) {
      diagnose = [&](runtime::CellFailure& failure) { options.diagnose(index, failure); };
    }
    const std::optional<runtime::CellFailure> failure =
        runtime::RunSupervised(static_cast<std::size_t>(index), seed,
                               options.cell_timeout_ms, body, diagnose);
    std::string line;
    if (writing && !failure) {
      line = RecordLineText(index, seed, options.spec, payload);
    }
    std::lock_guard<std::mutex> lock(result_mutex);
    ++result.cells_executed;
    if (failure) {
      result.failures.push_back(*failure);
    }
    if (writing) {
      std::string error;
      const bool written = failure ? writer.Skip(index, &error)
                                   : writer.Complete(index, std::move(line), &error);
      if (!written && write_error.empty()) {
        write_error = error;
      }
    }
    if (options.on_cell_done) {
      options.on_cell_done(index, failure ? &result.failures.back() : nullptr);
    }
  });
  if (writing && write_error.empty()) {
    writer.Finish(&write_error);
  }
  result.wall_seconds = std::chrono::duration<double>(Clock::now() - run_start).count();
  if (!writing) {
    return result;
  }
  out.close();
  old_log.close();
  if (!write_error.empty()) {
    result.error = write_error;
    if (rewrite) {
      std::remove(write_path.c_str());  // the old log still holds every record
    }
    return result;
  }
  if (rewrite && std::rename(write_path.c_str(), options.path.c_str()) != 0) {
    result.error = "cannot rename " + write_path + " over " + options.path;
  }
  return result;
}

}  // namespace wdmlat::lab
