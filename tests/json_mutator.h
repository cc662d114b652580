// Deterministic mutations of JSON text for the parser fuzz suites
// (tests/record_codec_fuzz_test.cc, tests/json_fuzz_test.cc): no libFuzzer,
// just a seeded generator, so every run feeds the same mutants.

#ifndef TESTS_JSON_MUTATOR_H_
#define TESTS_JSON_MUTATOR_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace wdmlat::testutil {

// Field boundaries: each ',' followed by ' ' or '\n' ends one field (or
// array item) and starts the next.
inline std::vector<std::size_t> Separators(const std::string& text) {
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] == ',' && (text[i + 1] == ' ' || text[i + 1] == '\n')) {
      at.push_back(i);
    }
  }
  return at;
}

class JsonMutator {
 public:
  explicit JsonMutator(std::uint64_t seed) : rng_(seed) {}

  std::string Mutate(std::string text) {
    const std::size_t kind = Below(9);
    switch (kind) {
      case 0: {  // bit flip
        const std::size_t at = Below(text.size());
        text[at] = static_cast<char>(text[at] ^ (1 << Below(8)));
        break;
      }
      case 1:  // truncation
        text.resize(Below(text.size()));
        break;
      case 2: {  // inserted bytes, mostly ones the grammar cares about
        static constexpr char kAlphabet[] = "\"\\{}[],: \n0123456789abcdefxp+-.tru";
        std::string bytes;
        for (std::size_t n = 1 + Below(4); n > 0; --n) {
          bytes += Below(4) == 0 ? static_cast<char>(Below(256))
                                 : kAlphabet[Below(sizeof(kAlphabet) - 1)];
        }
        // A quarter of them trail the text, where a reader must see its end.
        text.insert(Below(4) == 0 ? text.size() : Below(text.size() + 1), bytes);
        break;
      }
      case 3: {  // deleted bytes
        const std::size_t at = Below(text.size());
        text.erase(at, 1 + Below(8));
        break;
      }
      case 4:  // two neighbouring fields swapped
      case 5: {  // a field written twice
        const std::vector<std::size_t> seps = Separators(text);
        if (seps.size() < 2) {
          break;
        }
        const std::size_t k = Below(seps.size() - 1);
        const std::string first = text.substr(seps[k] + 1, seps[k + 1] - seps[k] - 1);
        const std::size_t second_end =
            k + 2 < seps.size() ? seps[k + 2] : text.find_first_of("}]", seps[k + 1]);
        if (second_end == std::string::npos) {
          break;
        }
        const std::string second =
            text.substr(seps[k + 1] + 1, second_end - seps[k + 1] - 1);
        const std::string fields =
            kind == 4 ? second + "," + first : first + "," + first + "," + second;
        text.replace(seps[k] + 1, second_end - seps[k] - 1, fields);
        break;
      }
      case 6:    // an over-long digit run
      case 7: {  // a number past u64, or a leading zero
        const std::size_t digit = text.find_first_of("0123456789", Below(text.size()));
        if (digit == std::string::npos) {
          break;
        }
        const std::size_t run_end = text.find_first_not_of("0123456789", digit);
        const std::size_t run = (run_end == std::string::npos ? text.size() : run_end) - digit;
        static const char* const kNumbers[] = {"18446744073709551616", "99999999999999999999",
                                               "184467440737095516150"};
        std::string replacement = text.substr(digit, run);
        if (kind == 6) {
          replacement += std::string(20 + Below(20), '9');
        } else if (Below(2) == 0) {
          replacement = kNumbers[Below(3)];
        } else {
          replacement.insert(0, "0");
        }
        text.replace(digit, run, replacement);
        break;
      }
      case 8: {  // an escape that JSON allows but the writer never emits
        static const char* const kEscapes[] = {"\\/", "\\b", "\\f", "\\u0041", "\\u00e9",
                                               "\\u000A", "\\\\\\/"};
        text.insert(Below(text.size() + 1), kEscapes[Below(7)]);
        break;
      }
    }
    return text;
  }

 private:
  std::size_t Below(std::size_t n) { return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n); }

  std::mt19937_64 rng_;
};

}  // namespace wdmlat::testutil

#endif  // TESTS_JSON_MUTATOR_H_
