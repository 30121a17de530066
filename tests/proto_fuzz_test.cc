// Seeded mutation fuzzing of the client's receive path: FrameReader plus
// DecodeServerMessage over corrupted reply frames (protocol version 2).
// Self-contained (no libFuzzer) and deterministic: one fixed seed, so a
// failure reproduces from the iteration number in its message. Everything
// a server sends is untrusted here, so every mutant must come back as a
// decoded message or a Status error: never a crash, a hang, or an
// allocation the frame's size does not pay for. The sanitizer builds run
// this test as part of the full suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/base/value.h"
#include "src/proto/proto.h"
#include "src/service/query_service.h"

namespace sqod {
namespace {

constexpr int kMutations = 100000;
constexpr size_t kMaxFrameBytes = 1u << 20;

// The paper's Figure 1 program over a 128-node a/b chain: 8128 answers.
std::string Figure1Source(int nodes) {
  std::ostringstream out;
  out << "p(X, Y) :- a(X, Y).\n"
         "p(X, Y) :- b(X, Y).\n"
         "p(X, Y) :- a(X, Z), p(Z, Y).\n"
         "p(X, Y) :- b(X, Z), p(Z, Y).\n"
         ":- a(X, Y), b(Y, Z).\n";
  for (int i = 0; i < nodes / 2; ++i) {
    out << "b(" << i << ", " << i + 1 << ").\n";
  }
  for (int i = nodes / 2; i < nodes - 1; ++i) {
    out << "a(" << i << ", " << i + 1 << ").\n";
  }
  out << "?- p.\n";
  return out.str();
}

Response Figure1Response() {
  ServiceOptions options;
  options.threads = 1;
  QueryService service(options);
  Request request;
  request.source = Figure1Source(128);
  return service.Call(std::move(request));
}

Response WithAnswers(std::vector<Tuple> answers) {
  Response response;
  response.status = Status::Ok();
  response.answers = std::move(answers);
  response.snapshot_version = 7;
  response.stats.iterations = 3;
  response.queue_wait_ns = 1234;
  return response;
}

struct Seed {
  std::string payload;
  bool large = false;  // drawn rarely, to keep the run short
};

std::vector<Seed> MakeSeeds() {
  std::vector<Seed> seeds;
  auto add_query = [&](const Response& response, bool large) {
    seeds.push_back({EncodeQueryResponse(
                         static_cast<uint64_t>(seeds.size() + 1),
                         MsgType::kQuery, response),
                     large});
  };
  const Response figure1 = Figure1Response();
  EXPECT_TRUE(figure1.status.ok()) << figure1.status.message();
  EXPECT_EQ(figure1.answers.size(), 8128u);
  add_query(figure1, /*large=*/true);
  add_query(WithAnswers({}), false);
  add_query(WithAnswers({Tuple{}}), false);
  add_query(WithAnswers({{Value::Int(1), Value::Symbol("rome")},
                         {Value::Symbol("x\"y"), Value::Int(INT64_MIN)},
                         {Value::Int(INT64_MAX), Value::Symbol("rome")}}),
            false);
  std::vector<Tuple> chain;
  for (int i = -20; i < 20; ++i) {
    chain.push_back({Value::Int(i), Value::Int(i * 1000003),
                     Value::Symbol(i % 2 == 0 ? "even" : "odd")});
  }
  add_query(WithAnswers(chain), false);
  Response failed;
  failed.status = Status::DeadlineExceeded("deadline of 5 ms exceeded");
  seeds.push_back({EncodeQueryResponse(90, MsgType::kQuery, failed), false});
  DeltaResponse delta;
  delta.status = Status::Ok();
  delta.snapshot_version = 4;
  delta.stats.idb_inserted = 12;
  seeds.push_back({EncodeApplyDeltaResponse(91, delta), false});
  HelloResult hello;
  hello.version = 2;
  hello.tenant = "acme";
  hello.server = "sqo_server";
  hello.max_frame_bytes = kMaxFrameBytes;
  seeds.push_back({EncodeHelloResponse(92, hello), false});
  return seeds;
}

class Mutator {
 public:
  explicit Mutator(uint64_t seed) : rng_(seed) {}

  size_t Below(size_t n) { return n == 0 ? 0 : rng_() % n; }

  uint8_t InterestingByte() {
    static constexpr uint8_t kBytes[] = {0x00, 0x01, 0x02, 0x7f, 0x80,
                                         0xff, '{',  '}',  '[',  '"',
                                         ',',  ':',  '-',  '9'};
    return Below(2) == 0 ? kBytes[Below(sizeof(kBytes))]
                         : static_cast<uint8_t>(rng_());
  }

  // One random edit of `bytes`; `donor` feeds splices.
  void Mutate(std::string* bytes, const std::string& donor) {
    switch (Below(8)) {
      case 0:  // flip a bit
        if (!bytes->empty()) {
          (*bytes)[Below(bytes->size())] ^=
              static_cast<char>(1u << Below(8));
        }
        break;
      case 1:  // overwrite a byte
        if (!bytes->empty()) {
          (*bytes)[Below(bytes->size())] =
              static_cast<char>(InterestingByte());
        }
        break;
      case 2: {  // insert bytes
        std::string ins;
        for (size_t n = 1 + Below(8); n > 0; --n) {
          ins.push_back(static_cast<char>(InterestingByte()));
        }
        bytes->insert(Below(bytes->size() + 1), ins);
        break;
      }
      case 3:  // erase a range
        if (!bytes->empty()) {
          const size_t at = Below(bytes->size());
          bytes->erase(at, 1 + Below(16));
        }
        break;
      case 4:  // truncate
        bytes->resize(Below(bytes->size() + 1));
        break;
      case 5: {  // overwrite four bytes with a boundary u32 (lengths!)
        if (bytes->size() < 4) break;
        static constexpr uint32_t kWords[] = {
            0, 1, 0x7f, 0x80, 0xffff, 0x7fffffff, 0x80000000, 0xffffffff};
        uint32_t w = kWords[Below(std::size(kWords))];
        if (Below(3) == 0) {
          w = static_cast<uint32_t>(bytes->size() + Below(5)) - 2;
        }
        const size_t at = Below(bytes->size() - 3);
        for (int i = 0; i < 4; ++i) {
          (*bytes)[at + i] = static_cast<char>((w >> (24 - 8 * i)) & 0xff);
        }
        break;
      }
      case 6: {  // duplicate a chunk in place
        if (bytes->empty()) break;
        const size_t at = Below(bytes->size());
        const std::string chunk = bytes->substr(at, 1 + Below(32));
        bytes->insert(Below(bytes->size() + 1), chunk);
        break;
      }
      case 7: {  // splice in part of another seed
        if (donor.empty()) break;
        const size_t from = Below(donor.size());
        const std::string chunk = donor.substr(from, 1 + Below(64));
        const size_t at = Below(bytes->size() + 1);
        bytes->replace(at, Below(chunk.size() + 1), chunk);
        break;
      }
    }
  }

 private:
  std::mt19937_64 rng_;
};

// Decodes one payload. A decoded reply with answers must survive a
// re-encode unchanged: what the decoder accepts, the encoder can carry.
void CheckPayload(const std::string& payload, int iteration) {
  Result<ServerMessage> decoded = DecodeServerMessage(payload);
  if (!decoded.ok()) {
    ASSERT_FALSE(decoded.status().message().empty()) << "iteration "
                                                     << iteration;
    return;
  }
  const ServerMessage& msg = decoded.value();
  if (msg.type != MsgType::kQuery && msg.type != MsgType::kExplain) return;
  const std::vector<Tuple>& answers = msg.query.answers;
  Response copy;
  copy.status = Status::Ok();
  copy.answers = answers;
  Result<ServerMessage> again = DecodeServerMessage(
      EncodeQueryResponse(msg.id, msg.type, copy));
  ASSERT_TRUE(again.ok()) << "iteration " << iteration << ": "
                          << again.status().message();
  ASSERT_EQ(again.value().query.answers, answers) << "iteration "
                                                  << iteration;
}

TEST(ProtoFuzzTest, MutatedReplyFramesDecodeOrFailWithStatus) {
  const std::vector<Seed> seeds = MakeSeeds();
  std::vector<size_t> small;
  std::vector<size_t> large;
  for (size_t i = 0; i < seeds.size(); ++i) {
    (seeds[i].large ? large : small).push_back(i);
  }
  ASSERT_FALSE(small.empty());
  ASSERT_FALSE(large.empty());

  Mutator m(0x5eed2026);
  int decoded_payloads = 0;
  int frame_errors = 0;
  for (int iteration = 0; iteration < kMutations; ++iteration) {
    // One draw in 256 mutates a large (figure1) reply.
    const size_t pick = m.Below(256) == 0 ? large[m.Below(large.size())]
                                          : small[m.Below(small.size())];
    const std::string& donor = seeds[m.Below(seeds.size())].payload;
    std::string frame;
    if (m.Below(10) != 0) {
      // Mostly mutate the payload and frame it honestly, so the decoder
      // (not just the frame header) sees the damage.
      std::string payload = seeds[pick].payload;
      for (size_t n = 1 + m.Below(4); n > 0; --n) m.Mutate(&payload, donor);
      frame = EncodeFrame(payload);
    } else {
      frame = EncodeFrame(seeds[pick].payload);
      for (size_t n = 1 + m.Below(4); n > 0; --n) m.Mutate(&frame, donor);
    }
    // A second frame behind it checks the reader stays in step.
    if (m.Below(4) == 0) frame += EncodeFrame(seeds[small[0]].payload);

    FrameReader reader(kMaxFrameBytes);
    size_t pos = 0;
    while (pos < frame.size()) {
      const size_t n = std::min(frame.size() - pos, 1 + m.Below(4096));
      reader.Append(frame.data() + pos, n);
      pos += n;
      std::string payload;
      bool stream_dead = false;
      while (true) {
        Result<bool> next = reader.Next(&payload);
        if (!next.ok()) {
          ++frame_errors;
          stream_dead = true;  // beyond resync, as the client treats it
          break;
        }
        if (!next.value()) break;
        ++decoded_payloads;
        CheckPayload(payload, iteration);
        if (::testing::Test::HasFatalFailure()) return;
      }
      if (stream_dead) break;
    }
  }
  // The run reached the decoder, and the reader, plenty of times.
  EXPECT_GT(decoded_payloads, kMutations / 2);
  EXPECT_GT(frame_errors, 0);
}

}  // namespace
}  // namespace sqod
