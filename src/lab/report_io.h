// Lossless LabReport artifacts for checkpoint/resume.
//
// A resumed matrix must merge bit-identically to a fresh run, which rules
// out decimal round-tripping sloppiness: every double (histogram sums,
// min/max, sample rates) is serialized as a C99 hexfloat string ("0x1.8p+4",
// the spelling of printf %a) that parses back to the exact bits. 64-bit
// counters travel as decimal strings because JSON numbers are doubles
// elsewhere in this tree (exact only to 2^53). The document is plain JSON,
// which obs::ParseJson also reads, but it is read back by one strict direct
// reader (report_json::Reader): the exact inverse of the Append* writers, so
// a corrupt artifact fails loudly instead of skewing a merge.
//
// A matrix run's record log (src/lab/record_log.h) carries one such
// document per finished cell as its record payload; ReportFromJson is the
// read side of its resume. A fleet cell record spells its sketch in whole
// cycle counts instead when it can (AppendCompactSketch): the values are
// the same bits, in a fifth of the bytes.

#ifndef SRC_LAB_REPORT_IO_H_
#define SRC_LAB_REPORT_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/lab/lab.h"

namespace wdmlat::lab {

// FNV-1a 64-bit over raw bytes: the record-log checksum. Stable,
// dependency-free, and plenty against torn writes and bit rot (this guards
// integrity, not adversaries). `hash` continues an earlier digest.
constexpr std::uint64_t kFnv1a64Offset = 0xcbf29ce484222325ull;
std::uint64_t Fnv1a64(std::string_view bytes, std::uint64_t hash = kFnv1a64Offset);

// Exact double <-> string via C99 hexfloat. HexDouble spells a value as
// glibc's printf("%a") does. ParseHexDouble accepts only that spelling of a
// finite value (an optional '-', "0x", the shortest lowercase mantissa and
// the exponent without leading zeros) and leaves *out alone otherwise.
std::string HexDouble(double value);
bool ParseHexDouble(std::string_view text, double* out);

// Serialize `report` to a self-describing JSON document (bit-exact; see
// file comment).
std::string ReportToJson(const LabReport& report);

// Parse a ReportToJson document back. On failure returns false and sets
// `error` (when non-null) to a one-line description; `report` is left
// default-constructed. A true return restores the report bit-exactly.
// Documents written before the trailing "anatomy" and "thread_sketch"
// fields existed still read, with those fields empty.
bool ReportFromJson(std::string_view text, LabReport* report, std::string* error);

// Building blocks of the record format, shared by ReportToJson, the fleet's
// per-cell records and FleetReportToJson (src/lab/fleet.cc) so all speak the
// same bit-exact dialect: hexfloat doubles, decimal-string u64s,
// histogram/sketch State round trips with conservation validation on import.
// The writers append into one caller-owned buffer: records are serialized
// once per cell, so at population scale temporary strings show up in
// cells/sec.
namespace report_json {

void AppendU64(std::string& out, std::uint64_t value);
void AppendInt(std::string& out, int value);
void AppendHexDouble(std::string& out, double value);
// JSON string-body escaping: \" \\ \n \r \t, and \u00xx for the other
// control characters. Every other byte is copied as it is. Returns the
// FNV-1a digest `hash` continued over `text`, which a record line's
// checksum needs of the payload it escapes.
std::uint64_t AppendEscaped(std::string& out, std::string_view text,
                            std::uint64_t hash = kFnv1a64Offset);
void AppendHistogram(std::string& out, const char* name,
                     const stats::LatencyHistogram& hist);
void AppendSketch(std::string& out, const char* name, const stats::QuantileSketch& sketch);
// The fleet record's sketch spelling. When every value the sketch holds
// (level items, tail, min and max) is sim::CyclesToMs of a cycle count of at
// most 2^53, it is written in those counts, as bare JSON integers under
// "unit": "cycles": levels in their internal order, the tail ascending as a
// first value and then the gaps between neighbours. Otherwise it is
// AppendSketch's hexfloat spelling. The rule is fixed, so a state has one
// spelling; ReadCompactSketch rejects the other.
void AppendCompactSketch(std::string& out, const char* name,
                         const stats::QuantileSketch& sketch);

// Decimal digits only: no sign, no whitespace, no leading zero, no overflow.
bool ParseU64(std::string_view text, std::uint64_t* out);

// A cursor over one document of the dialect, reading it in the order the
// Append* writers wrote it. It accepts exactly what they emit (their key
// order, their ", " and ": " spacing, their escapes and their number
// spellings) and fails on anything else, including JSON that merely means
// the same. The first failure is kept as a one-line message with its byte
// offset; every read after it fails too. A Reader holds no state outside
// itself, so concurrent decodes each use their own.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  // Consume `literal` if the text continues with it.
  bool Consume(std::string_view literal) {
    if (!ok() || text_.substr(pos_, literal.size()) != literal) {
      return false;
    }
    pos_ += literal.size();
    return true;
  }
  // Consume `literal` or fail.
  bool Expect(std::string_view literal) { return Consume(literal) || FailExpected(literal); }
  // `"name": ` or fail.
  bool Key(std::string_view name) {
    return Expect("\"") && Expect(name) && Expect("\": ");
  }
  // The end of the text or fail.
  bool ExpectEnd();

  // A quoted ParseU64 value: "123".
  bool QuotedU64(std::uint64_t* out);
  // A bare ParseU64 value: 123.
  bool U64(std::uint64_t* out);
  // "[" then bare ParseU64 values joined by "," (no space), then "]", into
  // *out (cleared first).
  bool U64List(std::vector<std::uint64_t>* out);
  // A quoted ParseHexDouble value: "0x1.8p+4".
  bool QuotedHexDouble(double* out);
  // A bare decimal integer in [lo, hi]: no leading zero, no "-0".
  bool Int(std::int64_t lo, std::int64_t hi, std::int64_t* out);
  // true or false.
  bool Bool(bool* out);
  // A quoted string in AppendEscaped's escapes, unescaped into *out. When
  // `hash` is set, the FNV-1a digest *hash is continued over *out.
  bool String(std::string* out, std::uint64_t* hash = nullptr);

  // "[" then `item()` repeated with ", " between, then "]".
  template <typename ReadItem>
  bool Array(ReadItem&& item) {
    return List("", ", ", item);
  }
  // "[" then `item(i)` for i in [0, count) with ", " between, then "]".
  template <typename ReadItem>
  bool FixedArray(std::size_t count, ReadItem&& item) {
    if (!Expect("[")) {
      return false;
    }
    for (std::size_t i = 0; i < count; ++i) {
      if ((i != 0 && !Expect(", ")) || !item(i)) {
        return false;
      }
    }
    return Expect("]");
  }
  // "[" then `item()` repeated, `first` before the first and `separator`
  // before each later one, then "]".
  template <typename ReadItem>
  bool List(std::string_view first, std::string_view separator, ReadItem&& item) {
    if (!Expect("[")) {
      return false;
    }
    if (Consume("]")) {
      return true;
    }
    if (!Expect(first) || !item()) {
      return false;
    }
    while (Consume(separator)) {
      if (!item()) {
        return false;
      }
    }
    return Expect("]");
  }

  // Record a failure (the first one is kept) and return false.
  bool Fail(std::string_view what);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  bool FailExpected(std::string_view literal);
  // End a quoted value that a scan stopped at `stop` (nullptr: no value).
  bool CloseQuote(const char* stop, std::string_view what);

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

// `"name": {...}` as AppendHistogram/AppendSketch write it, validated by the
// State import. A failed import leaves *out reset.
bool ReadHistogram(Reader& in, std::string_view name, stats::LatencyHistogram* out);
bool ReadSketch(Reader& in, std::string_view name, stats::QuantileSketch* out);
// `"name": {...}` as AppendCompactSketch writes it, in either spelling.
bool ReadCompactSketch(Reader& in, std::string_view name, stats::QuantileSketch* out);

}  // namespace report_json

}  // namespace wdmlat::lab

#endif  // SRC_LAB_REPORT_IO_H_
