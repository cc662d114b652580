#include "src/lab/report_io.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "src/kernel/thread.h"
#include "src/sim/time.h"

namespace wdmlat::lab {

namespace {

constexpr std::string_view kFormatName = "wdmlat-cell-report";
constexpr int kFormatVersion = 1;
constexpr char kHex[] = "0123456789abcdef";

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
constexpr std::uint64_t kFractionMask = (std::uint64_t{1} << 52) - 1;

// The value of a lowercase hex digit, or -1. A table, because digits and
// letters alternate unpredictably in a fraction.
constexpr std::array<std::int8_t, 256> kHexValue = [] {
  std::array<std::int8_t, 256> table{};
  table.fill(-1);
  for (int d = 0; d < 16; ++d) {
    table[static_cast<unsigned char>(kHex[d])] = static_cast<std::int8_t>(d);
  }
  return table;
}();

int HexDigit(char c) { return kHexValue[static_cast<unsigned char>(c)]; }

// The letter of a character's two-byte escape (\" \\ \n \r \t), or 0.
char ShortEscape(unsigned char c) {
  switch (c) {
    case '"':
      return '"';
    case '\\':
      return '\\';
    case '\n':
      return 'n';
    case '\r':
      return 'r';
    case '\t':
      return 't';
    default:
      return 0;
  }
}

constexpr std::uint64_t kFnv1a64Prime = 0x100000001b3ull;

bool IsDigit(const char* p, const char* end) {
  return p != end && static_cast<unsigned char>(*p - '0') < 10;
}

// The u64 spelling at [p, end): decimal digits without a leading zero, at
// most 2^64 - 1. Returns one past it, or nullptr. (std::from_chars reads the
// same in about 1.5x the time, and a record spells thousands of these.)
const char* ScanU64(const char* p, const char* end, std::uint64_t* out) {
  const char* q = p;
  std::uint64_t value = 0;
  // Nineteen digits cannot overflow; a twentieth is checked, a 21st cannot fit.
  for (; q - p < 19 && IsDigit(q, end); ++q) {
    value = value * 10 + static_cast<std::uint64_t>(*q - '0');
  }
  if (IsDigit(q, end)) {
    const auto digit = static_cast<std::uint64_t>(*q++ - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10 || IsDigit(q, end)) {
      return nullptr;
    }
    value = value * 10 + digit;
  }
  if (q == p || (*p == '0' && q - p > 1)) {
    return nullptr;
  }
  *out = value;
  return q;
}

// Sort cycle counts ascending: a least-significant-digit radix sort with
// one pass per byte of the largest count (three for a tail of tens of
// milliseconds), in about two thirds of std::sort's time on a record's tail.
void SortCycles(std::vector<std::uint64_t>& values) {
  std::uint64_t bits = 0;
  for (const std::uint64_t value : values) {
    bits |= value;
  }
  std::vector<std::uint64_t> sorted(values.size());
  for (int shift = 0; shift < 64 && (bits >> shift) != 0; shift += 8) {
    std::array<std::size_t, 257> next{};
    for (const std::uint64_t value : values) {
      ++next[((value >> shift) & 0xff) + 1];
    }
    for (std::size_t digit = 1; digit < next.size(); ++digit) {
      next[digit] += next[digit - 1];
    }
    for (const std::uint64_t value : values) {
      sorted[next[(value >> shift) & 0xff]++] = value;
    }
    values.swap(sorted);
  }
}

// The hexfloat spelling at [p, end) (see ParseHexDouble), decoded straight
// into the bits. Returns one past it, or nullptr.
const char* ScanHexDouble(const char* p, const char* end, double* out) {
  std::uint64_t bits = 0;
  if (p != end && *p == '-') {
    bits = kSignBit;
    ++p;
  }
  // The shortest spelling is "0x0p+0".
  if (end - p < 6 || p[0] != '0' || p[1] != 'x' || (p[2] != '0' && p[2] != '1')) {
    return nullptr;
  }
  const bool normal = p[2] == '1';
  p += 3;
  std::uint64_t fraction = 0;
  if (*p == '.') {
    int digits = 0;
    for (++p; p != end && digits <= 13 && HexDigit(*p) >= 0; ++p, ++digits) {
      fraction = fraction << 4 | static_cast<std::uint64_t>(HexDigit(*p));
    }
    if (digits == 0 || digits > 13 || p[-1] == '0') {
      return nullptr;
    }
    fraction <<= 4 * (13 - digits);
  }
  // "p", a sign and the exponent's digits, without a leading zero or "-0".
  if (end - p < 3 || p[0] != 'p' || (p[1] != '+' && p[1] != '-') || p[2] < '0' || p[2] > '9') {
    return nullptr;
  }
  int exponent = 0;
  const auto [ptr, ec] = std::from_chars(p + 2, end, exponent);
  if (ec != std::errc() || (p[2] == '0' && (ptr - p != 3 || p[1] == '-'))) {
    return nullptr;
  }
  exponent = p[1] == '-' ? -exponent : exponent;
  if (normal) {
    if (exponent < -1022 || exponent > 1023) {
      return nullptr;
    }
    bits |= static_cast<std::uint64_t>(exponent + 1023) << 52 | fraction;
  } else if (fraction == 0 ? exponent != 0 : exponent != -1022) {
    return nullptr;  // zero is "0x0p+0", a subnormal "0x0.<fraction>p-1022"
  } else {
    bits |= fraction;
  }
  *out = std::bit_cast<double>(bits);
  return ptr;
}

// The largest cycle count a compact sketch spells: 2^53, so that any JSON
// reader reads it exactly.
constexpr std::uint64_t kMaxSketchCycles = std::uint64_t{1} << 53;

constexpr double kCyclesPerMs = static_cast<double>(sim::kCyclesPerMs);

// The one rule that names a value's cycle count: ms * kCyclesPerMs, rounded.
std::uint64_t RoundCycles(double ms) {
  return static_cast<std::uint64_t>(ms * kCyclesPerMs + 0.5);
}

// The cycle count c with sim::CyclesToMs(c) bit-equal to `ms`, or false.
bool ExactCycles(double ms, std::uint64_t* cycles) {
  if (!(ms >= 0.0) || ms > static_cast<double>(kMaxSketchCycles) / kCyclesPerMs) {
    return false;
  }
  const std::uint64_t c = RoundCycles(ms);
  if (c > kMaxSketchCycles ||
      std::bit_cast<std::uint64_t>(sim::CyclesToMs(c)) != std::bit_cast<std::uint64_t>(ms)) {
    return false;
  }
  *cycles = c;
  return true;
}

// The value of a spelled cycle count; false unless ExactCycles gives that
// count back for it, so each value reads from one spelling only.
bool CycleValue(std::uint64_t cycles, double* ms) {
  *ms = sim::CyclesToMs(cycles);
  return cycles <= kMaxSketchCycles && RoundCycles(*ms) == cycles;
}

// `values` as bare integers joined by ",", or the gaps between neighbours
// (the first value, then each value minus the one before) when `gaps`.
void AppendU64List(std::string& out, const std::vector<std::uint64_t>& values,
                   std::size_t begin, std::size_t end, bool gaps) {
  const std::size_t at = out.size();
  out.resize(at + (end - begin) * 21);
  char* p = out.data() + at;
  std::uint64_t previous = 0;
  for (std::size_t i = begin; i < end; ++i) {
    if (i != begin) *p++ = ',';
    p = std::to_chars(p, p + 20, gaps ? values[i] - previous : values[i]).ptr;
    previous = values[i];
  }
  out.resize(static_cast<std::size_t>(p - out.data()));
}

// A sketch state in cycle counts: the level items flattened in their order,
// the tail as stored, min and max.
struct SketchCycles {
  std::vector<std::uint64_t> items;
  std::vector<std::uint64_t> tail;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
};

// False when some value of `state` has no cycle count.
bool ToCycles(const stats::QuantileSketch::State& state, SketchCycles* out) {
  if (!ExactCycles(state.min_ms, &out->min) || !ExactCycles(state.max_ms, &out->max)) {
    return false;
  }
  for (const std::vector<double>& level : state.levels) {
    for (const double ms : level) {
      if (!ExactCycles(ms, &out->items.emplace_back())) {
        return false;
      }
    }
  }
  out->tail.resize(state.tail.size());
  for (std::size_t i = 0; i < state.tail.size(); ++i) {
    if (!ExactCycles(state.tail[i], &out->tail[i])) {
      return false;
    }
  }
  return true;
}

void AppendParities(std::string& out, const stats::QuantileSketch::State& state) {
  for (std::size_t l = 0; l < state.parities.size(); ++l) {
    if (l != 0) out += ", ";
    out += static_cast<char>('0' + state.parities[l]);
  }
}

}  // namespace

// Shared with the fleet record serialization — see report_io.h.
namespace report_json {

void AppendU64(std::string& out, std::uint64_t value) {
  char buf[20];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

void AppendInt(std::string& out, int value) {
  char buf[16];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

void AppendHexDouble(std::string& out, double value) {
  // %a's spelling, written from the bits: "0x1.<fraction>p<exponent>" for a
  // normal value, "0x0.<fraction>p-1022" for a subnormal and "0x0p+0" for
  // zero, with the fraction's trailing zero digits dropped. (libstdc++ 12's
  // to_chars(hex) spells a subnormal normalized, "1p-1074", not as %a does.)
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  std::uint64_t fraction = bits & kFractionMask;
  char buf[32];
  char* p = buf;
  if ((bits & kSignBit) != 0) {
    *p++ = '-';
  }
  if (biased == 0x7ff) {
    // Non-finite values take no "0x", as with %a; no record field holds one.
    out.append(buf, p);
    out += fraction != 0 ? "nan" : "inf";
    return;
  }
  *p++ = '0';
  *p++ = 'x';
  *p++ = biased == 0 ? '0' : '1';
  if (fraction != 0) {
    *p++ = '.';
    for (int shift = 48; fraction != 0; shift -= 4) {
      *p++ = kHex[(fraction >> shift) & 0xf];
      fraction &= (std::uint64_t{1} << shift) - 1;
    }
  }
  const int exponent = biased != 0 ? biased - 1023 : (bits & kFractionMask) != 0 ? -1022 : 0;
  *p++ = 'p';
  *p++ = exponent < 0 ? '-' : '+';
  p = std::to_chars(p, buf + sizeof(buf), exponent < 0 ? -exponent : exponent).ptr;
  out.append(buf, p);
}

std::uint64_t AppendEscaped(std::string& out, std::string_view text, std::uint64_t hash) {
  // Write straight into the string, with room for one more escape before
  // each byte, and hash the text in the same pass: the hash's multiply
  // chain sets the pace, and the copy runs in its shadow.
  constexpr std::size_t kLongestEscape = 6;  // \u00xx
  const std::size_t at = out.size();
  out.resize(at + text.size() + text.size() / 8 + kLongestEscape);
  char* o = out.data() + at;
  for (const char ch : text) {
    const auto c = static_cast<unsigned char>(ch);
    hash = (hash ^ c) * kFnv1a64Prime;
    if (static_cast<std::size_t>(out.data() + out.size() - o) < kLongestEscape) {
      const std::size_t used = static_cast<std::size_t>(o - out.data());
      out.resize(2 * out.size());
      o = out.data() + used;
    }
    if (c >= 0x20 && c != '"' && c != '\\') {
      *o++ = ch;
      continue;
    }
    *o++ = '\\';
    if (const char letter = ShortEscape(c); letter != 0) {
      *o++ = letter;
    } else {
      const char escape[] = {'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
      std::memcpy(o, escape, sizeof(escape));
      o += sizeof(escape);
    }
  }
  out.resize(static_cast<std::size_t>(o - out.data()));
  return hash;
}

void AppendHistogram(std::string& out, const char* name,
                     const stats::LatencyHistogram& hist) {
  const stats::LatencyHistogram::State state = hist.ExportState();
  out += '"';
  out += name;
  out += "\": {\"buckets\": [";
  bool first = true;
  for (const auto& [index, count] : state.buckets) {
    if (!first) out += ", ";
    first = false;
    out += '[';
    AppendInt(out, index);
    out += ", \"";
    AppendU64(out, count);
    out += "\"]";
  }
  out += "], \"count\": \"";
  AppendU64(out, state.count);
  out += "\", \"underflow\": \"";
  AppendU64(out, state.underflow);
  out += "\", \"sum_us\": \"";
  AppendHexDouble(out, state.sum_us);
  out += "\", \"min_us\": \"";
  AppendHexDouble(out, state.min_us);
  out += "\", \"max_us\": \"";
  AppendHexDouble(out, state.max_us);
  out += "\"}";
}

namespace {

void AppendSketchState(std::string& out, const char* name,
                       const stats::QuantileSketch::State& state) {
  out += '"';
  out += name;
  out += "\": {\"levels\": [";
  for (std::size_t l = 0; l < state.levels.size(); ++l) {
    if (l != 0) out += ", ";
    out += '[';
    for (std::size_t i = 0; i < state.levels[l].size(); ++i) {
      if (i != 0) out += ", ";
      out += '"';
      AppendHexDouble(out, state.levels[l][i]);
      out += '"';
    }
    out += ']';
  }
  out += "], \"parities\": [";
  AppendParities(out, state);
  // Tail heap order is exported verbatim so the import is bit-identical.
  out += "], \"tail\": [";
  for (std::size_t i = 0; i < state.tail.size(); ++i) {
    if (i != 0) out += ", ";
    out += '"';
    AppendHexDouble(out, state.tail[i]);
    out += '"';
  }
  out += "], \"count\": \"";
  AppendU64(out, state.count);
  out += "\", \"sum_ms\": \"";
  AppendHexDouble(out, state.sum_ms);
  out += "\", \"min_ms\": \"";
  AppendHexDouble(out, state.min_ms);
  out += "\", \"max_ms\": \"";
  AppendHexDouble(out, state.max_ms);
  out += "\"}";
}

}  // namespace

void AppendSketch(std::string& out, const char* name, const stats::QuantileSketch& sketch) {
  AppendSketchState(out, name, sketch.ExportState());
}

void AppendCompactSketch(std::string& out, const char* name,
                         const stats::QuantileSketch& sketch) {
  const stats::QuantileSketch::State state = sketch.ExportState();
  SketchCycles cycles;
  if (!ToCycles(state, &cycles)) {
    AppendSketchState(out, name, state);
    return;
  }
  // Sorted, the tail is a first value and small gaps; ascending is also a
  // valid min-heap, and the order a merge wants.
  SortCycles(cycles.tail);
  out += '"';
  out += name;
  out += "\": {\"unit\": \"cycles\", \"levels\": [";
  std::size_t item = 0;
  for (std::size_t l = 0; l < state.levels.size(); ++l) {
    if (l != 0) out += ", ";
    out += '[';
    AppendU64List(out, cycles.items, item, item + state.levels[l].size(), false);
    item += state.levels[l].size();
    out += ']';
  }
  out += "], \"parities\": [";
  AppendParities(out, state);
  out += "], \"tail\": [";
  AppendU64List(out, cycles.tail, 0, cycles.tail.size(), true);
  out += "], \"count\": \"";
  AppendU64(out, state.count);
  out += "\", \"sum_ms\": \"";
  AppendHexDouble(out, state.sum_ms);
  out += "\", \"min\": ";
  AppendU64(out, cycles.min);
  out += ", \"max\": ";
  AppendU64(out, cycles.max);
  out += '}';
}

bool ParseU64(std::string_view text, std::uint64_t* out) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  if (ScanU64(text.data(), end, &value) != end) {
    return false;
  }
  *out = value;
  return true;
}

bool Reader::Fail(std::string_view what) {
  if (ok()) {
    error_.assign(what);
    error_ += " at byte ";
    AppendU64(error_, pos_);
  }
  return false;
}

bool Reader::FailExpected(std::string_view literal) {
  if (!ok()) {
    return false;
  }
  std::string what = "expected \"";
  AppendEscaped(what, literal);
  what += '"';
  return Fail(what);
}

bool Reader::ExpectEnd() {
  return ok() && (pos_ == text_.size() || Fail("trailing bytes"));
}

bool Reader::CloseQuote(const char* stop, std::string_view what) {
  if (stop == nullptr || stop == text_.data() + text_.size() || *stop != '"') {
    return Fail(what);
  }
  pos_ = static_cast<std::size_t>(stop + 1 - text_.data());
  return true;
}

bool Reader::QuotedU64(std::uint64_t* out) {
  std::uint64_t value = 0;
  if (!Expect("\"") ||
      !CloseQuote(ScanU64(text_.data() + pos_, text_.data() + text_.size(), &value),
                  "expected a decimal u64")) {
    return false;
  }
  *out = value;
  return true;
}

bool Reader::U64(std::uint64_t* out) {
  if (!ok()) {
    return false;
  }
  const char* const begin = text_.data() + pos_;
  const char* const stop = ScanU64(begin, text_.data() + text_.size(), out);
  if (stop == nullptr) {
    return Fail("expected a decimal u64");
  }
  pos_ += static_cast<std::size_t>(stop - begin);
  return true;
}

bool Reader::U64List(std::vector<std::uint64_t>* out) {
  out->clear();
  if (!Expect("[") || Consume("]")) {
    return ok();
  }
  const char* const begin = text_.data();
  const char* const end = begin + text_.size();
  const char* p = begin + pos_;
  for (;;) {
    const char* const stop = ScanU64(p, end, &out->emplace_back());
    if (stop == nullptr) {
      pos_ = static_cast<std::size_t>(p - begin);
      return Fail("expected a decimal u64");
    }
    pos_ = static_cast<std::size_t>(stop - begin);
    if (stop == end || *stop != ',') {
      return Expect("]");
    }
    p = stop + 1;
  }
}

bool Reader::QuotedHexDouble(double* out) {
  double value = 0.0;
  if (!Expect("\"") ||
      !CloseQuote(ScanHexDouble(text_.data() + pos_, text_.data() + text_.size(), &value),
                  "expected a hexfloat")) {
    return false;
  }
  *out = value;
  return true;
}

bool Reader::Int(std::int64_t lo, std::int64_t hi, std::int64_t* out) {
  if (!ok()) {
    return false;
  }
  const char* begin = text_.data() + pos_;
  const char* end = text_.data() + text_.size();
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  const char* digits = begin != end && *begin == '-' ? begin + 1 : begin;
  if (ec != std::errc() || (*digits == '0' && ptr - digits > 1) ||
      (value == 0 && digits != begin) || value < lo || value > hi) {
    std::string what = "expected an integer in [";
    what += std::to_string(lo) + ", " + std::to_string(hi) + "]";
    return Fail(what);
  }
  pos_ += static_cast<std::size_t>(ptr - begin);
  *out = value;
  return true;
}

bool Reader::Bool(bool* out) {
  if (Consume("true")) {
    *out = true;
    return true;
  }
  if (Consume("false")) {
    *out = false;
    return true;
  }
  return Fail("expected true or false");
}

bool Reader::String(std::string* out, std::uint64_t* hash) {
  if (!Expect("\"")) {
    return false;
  }
  const char* const begin = text_.data();
  const char* const end = begin + text_.size();
  const char* p = begin + pos_;
  // Decode straight into the string's storage, growing it when full, and
  // hash in the same pass, as AppendEscaped does. A caller that reserved
  // room never grows it.
  out->resize(std::max<std::size_t>(out->capacity(), 16));
  char* o = out->data();
  std::uint64_t digest = hash != nullptr ? *hash : kFnv1a64Offset;
  while (p != end) {
    auto c = static_cast<unsigned char>(*p);
    if (c >= 0x20 && c != '"' && c != '\\') {
      ++p;
    } else {
      pos_ = static_cast<std::size_t>(p - begin);
      if (c == '"') {
        ++pos_;
        out->resize(static_cast<std::size_t>(o - out->data()));
        if (hash != nullptr) {
          *hash = digest;
        }
        return true;
      }
      if (c != '\\' || end - p < 2) {
        return Fail(c != '\\' ? "unescaped control character in string" : "invalid escape");
      }
      // Only the escapes AppendEscaped writes: \u00xx (lowercase) is its
      // spelling of the control characters that have no short escape.
      if (p[1] == 'u') {
        const int high = end - p < 6 || p[2] != '0' || p[3] != '0' ? -1 : HexDigit(p[4]);
        const int low = high < 0 || high > 1 ? -1 : HexDigit(p[5]);
        c = static_cast<unsigned char>(high * 16 + low);
        if (low < 0 || ShortEscape(c) != 0) {
          return Fail("non-canonical \\u escape");
        }
        p += 6;
      } else {
        c = p[1] == 'n' ? '\n' : p[1] == 'r' ? '\r' : p[1] == 't' ? '\t' : p[1];
        if (ShortEscape(c) == 0 || ShortEscape(c) != p[1]) {
          return Fail("invalid escape");
        }
        p += 2;
      }
    }
    if (o == out->data() + out->size()) {
      const std::size_t used = out->size();
      out->resize(2 * used);
      o = out->data() + used;
    }
    *o++ = static_cast<char>(c);
    digest = (digest ^ c) * kFnv1a64Prime;
  }
  pos_ = text_.size();
  return Fail("unterminated string");
}

bool ReadHistogram(Reader& in, std::string_view name, stats::LatencyHistogram* out) {
  stats::LatencyHistogram::State state;
  const auto bucket = [&]() {
    std::int64_t index = 0;
    std::uint64_t count = 0;
    if (!in.Expect("[") || !in.Int(0, std::numeric_limits<int>::max(), &index) ||
        !in.Expect(", ") || !in.QuotedU64(&count) || !in.Expect("]")) {
      return false;
    }
    state.buckets.emplace_back(static_cast<int>(index), count);
    return true;
  };
  if (!in.Key(name) || !in.Expect("{\"buckets\": ") || !in.Array(bucket) ||
      !in.Expect(", \"count\": ") || !in.QuotedU64(&state.count) ||
      !in.Expect(", \"underflow\": ") || !in.QuotedU64(&state.underflow) ||
      !in.Expect(", \"sum_us\": ") || !in.QuotedHexDouble(&state.sum_us) ||
      !in.Expect(", \"min_us\": ") || !in.QuotedHexDouble(&state.min_us) ||
      !in.Expect(", \"max_us\": ") || !in.QuotedHexDouble(&state.max_us) ||
      !in.Expect("}")) {
    return false;
  }
  if (!out->ImportState(state)) {
    return in.Fail("histogram \"" + std::string(name) +
                   "\": state rejected (bucket/count conservation)");
  }
  return true;
}

namespace {

bool ReadParity(Reader& in, stats::QuantileSketch::State* state) {
  std::int64_t bit = 0;
  if (!in.Int(0, 1, &bit)) {
    return false;
  }
  state->parities.push_back(static_cast<std::uint8_t>(bit));
  return true;
}

// AppendSketchState's object, after its key.
bool ReadSketchFields(Reader& in, stats::QuantileSketch::State* state) {
  const auto values = [&](std::vector<double>* items) {
    return in.Array([&]() {
      double value = 0.0;
      if (!in.QuotedHexDouble(&value)) {
        return false;
      }
      items->push_back(value);
      return true;
    });
  };
  const auto level = [&]() { return values(&state->levels.emplace_back()); };
  return in.Expect("{\"levels\": ") && in.Array(level) && in.Expect(", \"parities\": ") &&
         in.Array([&]() { return ReadParity(in, state); }) && in.Expect(", \"tail\": ") &&
         values(&state->tail) && in.Expect(", \"count\": ") && in.QuotedU64(&state->count) &&
         in.Expect(", \"sum_ms\": ") && in.QuotedHexDouble(&state->sum_ms) &&
         in.Expect(", \"min_ms\": ") && in.QuotedHexDouble(&state->min_ms) &&
         in.Expect(", \"max_ms\": ") && in.QuotedHexDouble(&state->max_ms) && in.Expect("}");
}

// AppendCompactSketch's cycle spelling, after `"unit": "cycles", `.
bool ReadCycleFields(Reader& in, stats::QuantileSketch::State* state) {
  const auto value = [&](std::uint64_t cycles, double* ms) {
    return CycleValue(cycles, ms) || in.Fail("cycle count that is not its value's spelling");
  };
  std::vector<std::uint64_t> counts;
  const auto level = [&]() {
    if (!in.U64List(&counts)) {
      return false;
    }
    std::vector<double>& items = state->levels.emplace_back(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (!value(counts[i], &items[i])) {
        return false;
      }
    }
    return true;
  };
  const auto tail = [&]() {
    if (!in.U64List(&counts)) {
      return false;
    }
    state->tail.resize(counts.size());
    std::uint64_t previous = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] > kMaxSketchCycles - previous) {
        return in.Fail("tail value past 2^53 cycles");
      }
      previous += counts[i];
      if (!value(previous, &state->tail[i])) {
        return false;
      }
    }
    return true;
  };
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  return in.Expect("\"levels\": ") && in.Array(level) && in.Expect(", \"parities\": ") &&
         in.Array([&]() { return ReadParity(in, state); }) && in.Expect(", \"tail\": ") &&
         tail() && in.Expect(", \"count\": ") && in.QuotedU64(&state->count) &&
         in.Expect(", \"sum_ms\": ") && in.QuotedHexDouble(&state->sum_ms) &&
         in.Expect(", \"min\": ") && in.U64(&min) && value(min, &state->min_ms) &&
         in.Expect(", \"max\": ") && in.U64(&max) && value(max, &state->max_ms) &&
         in.Expect("}");
}

bool ImportSketch(Reader& in, std::string_view name, stats::QuantileSketch::State state,
                  stats::QuantileSketch* out) {
  if (!out->ImportState(std::move(state))) {
    return in.Fail("sketch \"" + std::string(name) + "\": state rejected (weight conservation)");
  }
  return true;
}

}  // namespace

bool ReadSketch(Reader& in, std::string_view name, stats::QuantileSketch* out) {
  stats::QuantileSketch::State state;
  return in.Key(name) && ReadSketchFields(in, &state) &&
         ImportSketch(in, name, std::move(state), out);
}

bool ReadCompactSketch(Reader& in, std::string_view name, stats::QuantileSketch* out) {
  stats::QuantileSketch::State state;
  if (!in.Key(name)) {
    return false;
  }
  if (in.Consume("{\"unit\": \"cycles\", ")) {
    return ReadCycleFields(in, &state) && ImportSketch(in, name, std::move(state), out);
  }
  // The writer spells a sketch in hexfloat only when some value has no
  // cycle count.
  SketchCycles cycles;
  if (!ReadSketchFields(in, &state)) {
    return false;
  }
  if (ToCycles(state, &cycles)) {
    return in.Fail("sketch \"" + std::string(name) +
                   "\": cycle-exact values in hexfloat, not \"unit\": \"cycles\"");
  }
  return ImportSketch(in, name, std::move(state), out);
}

}  // namespace report_json

using namespace report_json;  // NOLINT: same-file dialect helpers

namespace {

void AppendBlame(std::string& out, const obs::AnatomyEpisode::Blame& blame) {
  out += "{\"module\": \"";
  AppendEscaped(out, blame.module);
  out += "\", \"function\": \"";
  AppendEscaped(out, blame.function);
  out += "\", \"cycles\": \"";
  AppendU64(out, blame.cycles);
  out += "\"}";
}

void AppendAnatomy(std::string& out, const std::vector<obs::AnatomyEpisode>& anatomy) {
  out += "\"anatomy\": [";
  for (std::size_t i = 0; i < anatomy.size(); ++i) {
    const obs::AnatomyEpisode& ep = anatomy[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"latency_ms\": \"";
    AppendHexDouble(out, ep.latency_ms);
    out += "\", \"window_begin\": \"";
    AppendU64(out, ep.window_begin);
    out += "\", \"window_end\": \"";
    AppendU64(out, ep.window_end);
    out += "\", \"truncated\": ";
    out += ep.truncated ? "true" : "false";
    out += ", \"stage_cycles\": [";
    for (std::size_t s = 0; s < obs::kAnatomyStageCount; ++s) {
      if (s != 0) out += ", ";
      out += '"';
      AppendU64(out, ep.stage_cycles[s]);
      out += '"';
    }
    out += "], \"stage_blame\": [";
    for (std::size_t s = 0; s < obs::kAnatomyStageCount; ++s) {
      if (s != 0) out += ", ";
      AppendBlame(out, ep.stage_blame[s]);
    }
    out += "], \"culprit\": ";
    AppendBlame(out, ep.culprit);
    out += '}';
  }
  out += ']';
}

bool ReadBlame(Reader& in, obs::AnatomyEpisode::Blame* blame) {
  return in.Expect("{\"module\": ") && in.String(&blame->module) &&
         in.Expect(", \"function\": ") && in.String(&blame->function) &&
         in.Expect(", \"cycles\": ") && in.QuotedU64(&blame->cycles) && in.Expect("}");
}

bool ReadAnatomyEpisode(Reader& in, std::vector<obs::AnatomyEpisode>* anatomy) {
  obs::AnatomyEpisode& ep = anatomy->emplace_back();
  const auto cycles = [&](std::size_t s) { return in.QuotedU64(&ep.stage_cycles[s]); };
  const auto blame = [&](std::size_t s) { return ReadBlame(in, &ep.stage_blame[s]); };
  return in.Expect("{\"latency_ms\": ") && in.QuotedHexDouble(&ep.latency_ms) &&
         in.Expect(", \"window_begin\": ") && in.QuotedU64(&ep.window_begin) &&
         in.Expect(", \"window_end\": ") && in.QuotedU64(&ep.window_end) &&
         in.Expect(", \"truncated\": ") && in.Bool(&ep.truncated) &&
         in.Expect(", \"stage_cycles\": ") && in.FixedArray(obs::kAnatomyStageCount, cycles) &&
         in.Expect(", \"stage_blame\": ") && in.FixedArray(obs::kAnatomyStageCount, blame) &&
         in.Expect(", \"culprit\": ") && ReadBlame(in, &ep.culprit) && in.Expect("}");
}

bool ReadEpisode(Reader& in, std::vector<obs::EpisodeSummary>* episodes) {
  obs::EpisodeSummary& ep = episodes->emplace_back();
  return in.Expect("{\"latency_ms\": ") && in.QuotedHexDouble(&ep.latency_ms) &&
         in.Expect(", \"reported_at_ms\": ") && in.QuotedHexDouble(&ep.reported_at_ms) &&
         in.Expect(", \"true_module\": ") && in.String(&ep.true_module) &&
         in.Expect(", \"true_function\": ") && in.String(&ep.true_function) &&
         in.Expect(", \"true_ms\": ") && in.QuotedHexDouble(&ep.true_ms) &&
         in.Expect(", \"cause_module\": ") && in.String(&ep.cause_module) &&
         in.Expect(", \"cause_function\": ") && in.String(&ep.cause_function) &&
         in.Expect(", \"cause_samples\": ") && in.QuotedU64(&ep.cause_samples) &&
         in.Expect(", \"attributed\": ") && in.Bool(&ep.attributed) &&
         in.Expect(", \"module_match\": ") && in.Bool(&ep.module_match) && in.Expect("}");
}

}  // namespace

std::uint64_t Fnv1a64(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * kFnv1a64Prime;
  }
  return hash;
}

std::string HexDouble(double value) {
  std::string out;
  AppendHexDouble(out, value);
  return out;
}

bool ParseHexDouble(std::string_view text, double* out) {
  // The inverse of AppendHexDouble: only its spelling is accepted, so a
  // padded, uppercase or unnormalized spelling of the same bits is refused.
  double value = 0.0;
  const char* end = text.data() + text.size();
  if (ScanHexDouble(text.data(), end, &value) != end) {
    return false;
  }
  *out = value;
  return true;
}

std::string ReportToJson(const LabReport& report) {
  std::string out;
  out.reserve(4096);
  out += "{\"format\": \"";
  out += kFormatName;
  out += "\", \"version\": ";
  AppendInt(out, kFormatVersion);
  out += ",\n\"os_name\": \"";
  AppendEscaped(out, report.os_name);
  out += "\", \"workload_name\": \"";
  AppendEscaped(out, report.workload_name);
  out += "\", \"thread_priority\": ";
  AppendInt(out, report.thread_priority);
  out += ", \"has_interrupt_latency\": ";
  out += report.has_interrupt_latency ? "true" : "false";
  out += ",\n\"samples\": \"";
  AppendU64(out, report.samples);
  out += "\", \"samples_per_hour\": \"";
  AppendHexDouble(out, report.samples_per_hour);
  out += "\", \"fault_activations\": \"";
  AppendU64(out, report.fault_activations);
  out += "\",\n\"usage\": {\"category\": \"";
  AppendEscaped(out, report.usage.category);
  out += "\", \"compression\": \"";
  AppendHexDouble(out, report.usage.compression);
  out += "\", \"day_hours\": \"";
  AppendHexDouble(out, report.usage.day_hours);
  out += "\", \"week_hours\": \"";
  AppendHexDouble(out, report.usage.week_hours);
  out += "\"},\n\"histograms\": {\n";
  AppendHistogram(out, "dpc_interrupt", report.dpc_interrupt);
  out += ",\n";
  AppendHistogram(out, "thread", report.thread);
  out += ",\n";
  AppendHistogram(out, "thread_interrupt", report.thread_interrupt);
  out += ",\n";
  AppendHistogram(out, "interrupt", report.interrupt);
  out += ",\n";
  AppendHistogram(out, "isr_to_dpc", report.isr_to_dpc);
  out += ",\n";
  AppendHistogram(out, "true_pit_interrupt_latency", report.true_pit_interrupt_latency);
  out += "\n},\n\"episodes\": [";
  for (std::size_t i = 0; i < report.episodes.size(); ++i) {
    const obs::EpisodeSummary& ep = report.episodes[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"latency_ms\": \"";
    AppendHexDouble(out, ep.latency_ms);
    out += "\", \"reported_at_ms\": \"";
    AppendHexDouble(out, ep.reported_at_ms);
    out += "\", \"true_module\": \"";
    AppendEscaped(out, ep.true_module);
    out += "\", \"true_function\": \"";
    AppendEscaped(out, ep.true_function);
    out += "\", \"true_ms\": \"";
    AppendHexDouble(out, ep.true_ms);
    out += "\", \"cause_module\": \"";
    AppendEscaped(out, ep.cause_module);
    out += "\", \"cause_function\": \"";
    AppendEscaped(out, ep.cause_function);
    out += "\", \"cause_samples\": \"";
    AppendU64(out, ep.cause_samples);
    out += "\", \"attributed\": ";
    out += ep.attributed ? "true" : "false";
    out += ", \"module_match\": ";
    out += ep.module_match ? "true" : "false";
    out += '}';
  }
  out += "],\n";
  AppendAnatomy(out, report.anatomy);
  out += ",\n";
  AppendSketch(out, "thread_sketch", report.thread_sketch);
  out += "}\n";
  return out;
}

bool ReportFromJson(std::string_view text, LabReport* report, std::string* error) {
  *report = LabReport{};
  Reader in(text);
  LabReport result;
  std::int64_t version = 0;
  std::int64_t priority = 0;
  if (!in.Expect("{\"format\": \"") || !in.Expect(kFormatName) || !in.Expect("\", ")) {
    if (error != nullptr) {
      *error = "not a wdmlat-cell-report document (" + in.error() + ")";
    }
    return false;
  }
  if (!in.Expect("\"version\": ") || !in.Int(kFormatVersion, kFormatVersion, &version)) {
    if (error != nullptr) {
      *error = "unsupported cell-report version (" + in.error() + ")";
    }
    return false;
  }
  const auto histogram = [&](const char* separator, std::string_view name,
                             stats::LatencyHistogram* out) {
    return in.Expect(separator) && ReadHistogram(in, name, out);
  };
  const auto episode = [&]() { return ReadEpisode(in, &result.episodes); };
  const auto anatomy = [&]() { return ReadAnatomyEpisode(in, &result.anatomy); };
  const bool ok =
      in.Expect(",\n\"os_name\": ") && in.String(&result.os_name) &&
      in.Expect(", \"workload_name\": ") && in.String(&result.workload_name) &&
      in.Expect(", \"thread_priority\": ") && in.Int(0, kernel::kMaxPriority, &priority) &&
      in.Expect(", \"has_interrupt_latency\": ") && in.Bool(&result.has_interrupt_latency) &&
      in.Expect(",\n\"samples\": ") && in.QuotedU64(&result.samples) &&
      in.Expect(", \"samples_per_hour\": ") && in.QuotedHexDouble(&result.samples_per_hour) &&
      in.Expect(", \"fault_activations\": ") && in.QuotedU64(&result.fault_activations) &&
      in.Expect(",\n\"usage\": {\"category\": ") && in.String(&result.usage.category) &&
      in.Expect(", \"compression\": ") && in.QuotedHexDouble(&result.usage.compression) &&
      in.Expect(", \"day_hours\": ") && in.QuotedHexDouble(&result.usage.day_hours) &&
      in.Expect(", \"week_hours\": ") && in.QuotedHexDouble(&result.usage.week_hours) &&
      histogram("},\n\"histograms\": {\n", "dpc_interrupt", &result.dpc_interrupt) &&
      histogram(",\n", "thread", &result.thread) &&
      histogram(",\n", "thread_interrupt", &result.thread_interrupt) &&
      histogram(",\n", "interrupt", &result.interrupt) &&
      histogram(",\n", "isr_to_dpc", &result.isr_to_dpc) &&
      histogram(",\n", "true_pit_interrupt_latency", &result.true_pit_interrupt_latency) &&
      in.Expect("\n},\n\"episodes\": ") && in.List("\n", ",\n", episode) &&
      // Both trailing fields are optional: older artifacts end without them.
      (!in.Consume(",\n\"anatomy\": ") || in.List("\n", ",\n", anatomy)) &&
      (!in.Consume(",\n") || ReadSketch(in, "thread_sketch", &result.thread_sketch)) &&
      in.Expect("}\n") && in.ExpectEnd();
  if (!ok) {
    if (error != nullptr) {
      *error = in.error();
    }
    return false;
  }
  result.thread_priority = static_cast<int>(priority);
  *report = std::move(result);
  return true;
}

}  // namespace wdmlat::lab
