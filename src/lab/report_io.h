// Lossless LabReport artifacts for checkpoint/resume.
//
// A resumed matrix must merge bit-identically to a fresh run, which rules
// out decimal round-tripping sloppiness: every double (histogram sums,
// min/max, sample rates) is serialized as a C99 hexfloat string ("0x1.8p+4",
// printf %a) and parsed back with strtod, which recovers the exact bits.
// 64-bit counters travel as decimal strings because JSON numbers are doubles
// here (exact only to 2^53). The document is plain JSON otherwise, readable
// by obs::ParseJson — including its hardened duplicate-key and non-finite
// rejection, so a corrupt artifact fails loudly instead of skewing a merge.
//
// A matrix run's record log (src/lab/record_log.h) carries one such
// document per finished cell as its record payload; ReportFromJson is the
// read side of its resume.

#ifndef SRC_LAB_REPORT_IO_H_
#define SRC_LAB_REPORT_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/lab/lab.h"
#include "src/obs/json.h"

namespace wdmlat::lab {

// FNV-1a 64-bit over raw bytes: the record-log checksum. Stable,
// dependency-free, and plenty against torn writes and bit rot (this guards
// integrity, not adversaries). `hash` continues an earlier digest.
constexpr std::uint64_t kFnv1a64Offset = 0xcbf29ce484222325ull;
std::uint64_t Fnv1a64(std::string_view bytes, std::uint64_t hash = kFnv1a64Offset);

// Exact double <-> string via C99 hexfloat. ParseHexDouble accepts only a
// full-string parse of a finite value.
std::string HexDouble(double value);
bool ParseHexDouble(std::string_view text, double* out);

// Serialize `report` to a self-describing JSON document (bit-exact; see
// file comment).
std::string ReportToJson(const LabReport& report);

// Parse a ReportToJson document back. On failure returns false and sets
// `error` (when non-null) to a one-line description; `report` is left
// default-constructed. A true return restores the report bit-exactly.
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
// JSON string-body escaping (quotes, backslashes, control characters).
void AppendEscaped(std::string& out, std::string_view text);
void AppendHistogram(std::string& out, const char* name,
                     const stats::LatencyHistogram& hist);
void AppendSketch(std::string& out, const char* name, const stats::QuantileSketch& sketch);

bool ParseU64(std::string_view text, std::uint64_t* out);
bool ReadHistogram(const obs::JsonValue& parent, const char* name,
                   stats::LatencyHistogram* out, std::string* error);
bool ReadSketch(const obs::JsonValue& parent, const char* name, stats::QuantileSketch* out,
                std::string* error);
bool ReadU64Field(const obs::JsonValue& object, const char* key, std::uint64_t* out,
                  std::string* error);
bool ReadHexDoubleField(const obs::JsonValue& object, const char* key, double* out,
                        std::string* error);
bool ReadStringField(const obs::JsonValue& object, const char* key, std::string* out,
                     std::string* error);

}  // namespace report_json

}  // namespace wdmlat::lab

#endif  // SRC_LAB_REPORT_IO_H_
