// Seeded mutation fuzzing of the decoders that read untrusted input on the
// server: ParseUnit (program text), DecodeClientMessage (request payloads)
// and ParseJson (the JSON layer under both wire directions). Modelled on
// proto_fuzz_test.cc: self-contained (no libFuzzer) and deterministic, one
// fixed seed per decoder, so a failure reproduces from the iteration
// number in its message. Every mutant must come back as a value or a
// Status error, never a crash or a hang. The sanitizer builds run this
// test as part of the full suite, which is what turns undefined behaviour
// on a mutant (an integer literal past int64, say) into a failure.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/parser/parser.h"
#include "src/proto/proto.h"
#include "src/workload/graphs.h"
#include "src/workload/programs.h"

namespace sqod {
namespace {

constexpr int kMutations = 100000;

// ------------------------------------------------------------------ seeds

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// `db` as fact lines, sorted so the seed text is deterministic.
std::string FactsText(const Database& db) {
  std::vector<std::string> lines;
  for (const auto& [pred, rel] : db.relations()) {
    for (TupleRef t : rel.rows()) {
      std::string line = PredName(pred) + "(";
      for (int i = 0; i < t.size(); ++i) {
        if (i > 0) line += ", ";
        line += t[i].ToString();
      }
      lines.push_back(line + ").\n");
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

std::string UnitText(const Program& program,
                     const std::vector<Constraint>& ics, const Database& db) {
  std::string out = program.ToString();
  for (const Constraint& ic : ics) out += ic.ToString() + "\n";
  return out + FactsText(db);
}

// examples/figure1.dl and the workload generators' units, each with a few
// facts.
std::vector<std::string> UnitSeeds() {
  std::vector<std::string> seeds;
  const std::string figure1 = ReadFile(SQOD_EXAMPLES_DIR "/figure1.dl");
  EXPECT_FALSE(figure1.empty());
  seeds.push_back(figure1);

  Rng rng(20261018u);
  GoodPathConfig config;
  config.nodes = 8;
  config.edges = 12;
  config.num_start = 2;
  config.num_end = 2;
  config.threshold = 3;
  seeds.push_back(UnitText(MakeGoodPathProgram(), MakeMonotoneIcs(3),
                           MakeGoodPathWorkload(config, &rng)));
  seeds.push_back(UnitText(MakeGoodPathProgram(), {MakeStartBeforeEndIc()},
                           MakeStartBeforeEndWorkload(8, 12, 2, 2, &rng)));
  ColoredClosure cc = MakeColoredClosure(3, 2, &rng);
  seeds.push_back(UnitText(cc.program, cc.ics,
                           MakeColoredEdges(3, 6, 10, cc.ics, &rng)));
  RandomProgram rp = MakeRandomProgram(2, 3, 4, 2, &rng);
  seeds.push_back(UnitText(rp.program, rp.ics, Database()));
  // Every token kind at least once, and integers at both int64 bounds.
  seeds.push_back(
      "% comment\n"
      "p(X, Y) :- e(X, Y), !blocked(X), X != Y, X <= 9223372036854775807.\n"
      "p(X, Y) :- e(X, Z), p(Z, Y), Z >= -9223372036854775808, Y > 0.\n"
      "q(\"a b\", rome) :- p(rome, \"a b\").\n"
      ":- e(X, Y), X < Y.\n"
      "e(1, 2). blocked(-3).\n"
      "?- p.\n");
  for (const std::string& seed : seeds) {
    EXPECT_TRUE(ParseUnit(seed).ok()) << seed;
  }
  return seeds;
}

// The request payloads proto_test round-trips, plus the hand-built ones.
std::vector<std::string> RequestSeeds() {
  std::vector<std::string> seeds;
  HelloParams hello;
  hello.token = "secret";
  hello.min_version = 1;
  hello.max_version = 3;
  seeds.push_back(EncodeHello(5, hello));
  QueryParams query;
  query.session = "tc";
  query.deadline_ms = 1500;
  query.trace = true;
  query.explain = true;
  // With retired keys the decoder must skip, as an older client sends them
  // (spliced where that client put them, so the corpus stays the same).
  std::string with_retired_key = EncodeQuery(9, query);
  with_retired_key.insert(with_retired_key.find(R"(,"trace":)"),
                          R"(,"materialized":true)");
  with_retired_key.insert(with_retired_key.size() - 1,
                          R"(,"disabled_passes":["residues","prune"])");
  seeds.push_back(with_retired_key);
  QueryParams inline_query;
  inline_query.source = "p(X) :- e(X). e(1). ?- p.";
  seeds.push_back(EncodeQuery(10, inline_query));
  LoadProgramParams load;
  load.session = "tc";
  load.source = "p(X, Y) :- e(X, Y). ?- p.";
  seeds.push_back(EncodeLoadProgram(11, load));
  ApplyDeltaParams delta;
  delta.session = "tc";
  delta.inserts = {"edge(1, 2)", "edge(2, 3)"};
  delta.deletes = {"edge(9, 9)"};
  delta.trace = true;
  seeds.push_back(EncodeApplyDelta(3, delta));
  seeds.push_back(EncodeExplain(12, "tc"));
  seeds.push_back(EncodeMetricsRequest(13));
  seeds.push_back(EncodeClose(14));
  seeds.push_back(R"({"type":"query","id":1,"session":"s","source":"?- p."})");
  seeds.push_back(R"({"type":"query","id":1,"session":"s","future_knob":"x"})");
  seeds.push_back(R"({"a":[1,-2.5e3,true,false,null,{"b":"é\n"}]})");
  for (const std::string& seed : seeds) {
    EXPECT_TRUE(ValidateJson(seed).ok()) << seed;
  }
  return seeds;
}

// -------------------------------------------------------------- mutation

class Mutator {
 public:
  explicit Mutator(uint64_t seed) : rng_(seed) {}

  size_t Below(size_t n) { return n == 0 ? 0 : rng_() % n; }

  char InterestingByte() {
    static constexpr char kBytes[] = {
        '\0', '\n', ' ', '(', ')', ',', '.', ':', '-', '?', '!', '<',
        '>',  '=',  '"', '%', '{', '}', '[', ']', '\\', 'X', 'p', '9'};
    return Below(2) == 0 ? kBytes[Below(sizeof(kBytes))]
                         : static_cast<char>(rng_());
  }

  // One random edit of `bytes`; `donor` feeds splices.
  void Mutate(std::string* bytes, const std::string& donor) {
    switch (Below(7)) {
      case 0:  // flip a bit
        if (!bytes->empty()) {
          (*bytes)[Below(bytes->size())] ^=
              static_cast<char>(1u << Below(8));
        }
        break;
      case 1:  // overwrite a byte
        if (!bytes->empty()) (*bytes)[Below(bytes->size())] = InterestingByte();
        break;
      case 2: {  // insert bytes, sometimes a long run of digits
        std::string ins;
        if (Below(4) == 0) {
          ins.assign(1 + Below(40), static_cast<char>('0' + Below(10)));
        } else {
          for (size_t n = 1 + Below(8); n > 0; --n) {
            ins.push_back(InterestingByte());
          }
        }
        bytes->insert(Below(bytes->size() + 1), ins);
        break;
      }
      case 3:  // erase a range
        if (!bytes->empty()) bytes->erase(Below(bytes->size()), 1 + Below(16));
        break;
      case 4:  // truncate
        bytes->resize(Below(bytes->size() + 1));
        break;
      case 5: {  // duplicate a chunk
        if (bytes->empty()) break;
        const std::string chunk =
            bytes->substr(Below(bytes->size()), 1 + Below(32));
        bytes->insert(Below(bytes->size() + 1), chunk);
        break;
      }
      case 6: {  // splice in part of another seed
        if (donor.empty()) break;
        const std::string chunk =
            donor.substr(Below(donor.size()), 1 + Below(64));
        const size_t at = Below(bytes->size() + 1);
        bytes->replace(at, Below(chunk.size() + 1), chunk);
        break;
      }
    }
  }

 private:
  std::mt19937_64 rng_;
};

// Runs kMutations mutants of `seeds` through `decode`, which returns the
// decoder's status; an error must say what went wrong. Returns how many
// mutants decoded.
int Fuzz(const std::vector<std::string>& seeds, uint64_t seed,
         const std::function<Status(const std::string&)>& decode) {
  Mutator m(seed);
  int ok = 0;
  for (int iteration = 0; iteration < kMutations; ++iteration) {
    std::string input = seeds[m.Below(seeds.size())];
    const std::string& donor = seeds[m.Below(seeds.size())];
    for (size_t n = 1 + m.Below(4); n > 0; --n) m.Mutate(&input, donor);
    const Status status = decode(input);
    if (status.ok()) {
      ++ok;
    } else {
      EXPECT_FALSE(status.message().empty()) << "iteration " << iteration;
    }
  }
  return ok;
}

TEST(InputFuzzTest, MutatedProgramTextParsesOrFailsWithStatus) {
  const int ok = Fuzz(UnitSeeds(), 0x5eed0001, [](const std::string& text) {
    return ParseUnit(text).status();
  });
  // Both outcomes must be exercised, or the mutator is not reaching the
  // parser.
  EXPECT_GT(ok, 0);
  EXPECT_LT(ok, kMutations);
}

TEST(InputFuzzTest, MutatedRequestPayloadsDecodeOrFailWithStatus) {
  const int ok =
      Fuzz(RequestSeeds(), 0x5eed0002, [](const std::string& payload) {
        return DecodeClientMessage(payload).status();
      });
  EXPECT_GT(ok, 0);
  EXPECT_LT(ok, kMutations);
}

TEST(InputFuzzTest, MutatedJsonParsesOrFailsWithStatus) {
  const int ok =
      Fuzz(RequestSeeds(), 0x5eed0003, [](const std::string& text) {
        return ParseJson(text).status();
      });
  EXPECT_GT(ok, 0);
  EXPECT_LT(ok, kMutations);
}

}  // namespace
}  // namespace sqod
