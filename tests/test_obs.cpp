// Tests for the observability layer: JSON round-trips, the counter
// registry, and the trace export/import/replay guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "consistency/checkers.h"
#include "obs/json.h"
#include "obs/metrics_io.h"
#include "obs/registry.h"
#include "obs/ring.h"
#include "obs/trace_io.h"
#include "obs/trace_stream.h"
#include "proto/common/client.h"
#include "proto/registry.h"
#include "sim/schedule.h"
#include "trace_table.h"
#include "workload/workload.h"

namespace discs {
namespace {

using obs::Json;
using obs::JsonArray;
using obs::JsonObject;

// --- Json -----------------------------------------------------------------

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(Json::parse("null").dump(), "null");
  EXPECT_EQ(Json::parse("true").dump(), "true");
  EXPECT_EQ(Json::parse("false").dump(), "false");
  EXPECT_EQ(Json::parse("0").dump(), "0");
  EXPECT_EQ(Json::parse("\"hi\"").dump(), "\"hi\"");
  EXPECT_EQ(Json::parse("-2.5").dump(), "-2.5");
}

TEST(Json, Uint64RoundTripsExactly) {
  // Message ids pack (sender << 40) | seq; a double would corrupt them.
  std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
  Json j(big);
  EXPECT_TRUE(j.is_uint());
  Json back = Json::parse(j.dump());
  EXPECT_TRUE(back.is_uint());
  EXPECT_EQ(back.as_uint(), big);

  std::uint64_t msgid = (std::uint64_t(0xABCDE) << 40) | 0x123456789A;
  EXPECT_EQ(Json::parse(Json(msgid).dump()).as_uint(), msgid);
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  JsonObject o;
  o.emplace_back("zebra", Json(1));
  o.emplace_back("apple", Json(2));
  Json j{o};
  EXPECT_EQ(j.dump(), "{\"zebra\":1,\"apple\":2}");
  // ...and the parser keeps that order, so dump(parse(x)) == x.
  EXPECT_EQ(Json::parse(j.dump()).dump(), j.dump());
}

TEST(Json, StringEscapes) {
  Json j(std::string("a\"b\\c\n\t\x01"));
  Json back = Json::parse(j.dump());
  EXPECT_EQ(back.as_string(), "a\"b\\c\n\t\x01");
}

TEST(Json, NestedStructures) {
  const char* text =
      "{\"a\":[1,2,{\"b\":null}],\"c\":{\"d\":true,\"e\":\"f\"}}";
  Json j = Json::parse(text);
  EXPECT_EQ(j.dump(), text);
  EXPECT_EQ(j.get("a").as_array().size(), 3u);
  EXPECT_TRUE(j.get("a").as_array()[2].get("b").is_null());
  EXPECT_TRUE(j.get("c").get("d").as_bool());
  EXPECT_EQ(j.find("missing"), nullptr);
  EXPECT_THROW(j.get("missing"), CheckFailure);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), CheckFailure);
  EXPECT_THROW(Json::parse("{"), CheckFailure);
  EXPECT_THROW(Json::parse("[1,]"), CheckFailure);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), CheckFailure);
  EXPECT_THROW(Json::parse("nul"), CheckFailure);
  EXPECT_THROW(Json::parse("1 2"), CheckFailure);  // trailing garbage
  EXPECT_THROW(Json::parse("\"unterminated"), CheckFailure);
}

TEST(Json, TypeMismatchThrows) {
  Json j(std::uint64_t{7});
  EXPECT_THROW(j.as_string(), CheckFailure);
  EXPECT_THROW(j.as_array(), CheckFailure);
  EXPECT_NO_THROW(j.as_double());  // numeric widening is allowed
  EXPECT_DOUBLE_EQ(j.as_double(), 7.0);
}

// --- Registry -------------------------------------------------------------

TEST(Registry, CountersStartAtZeroAndAccumulate) {
  obs::Registry reg;
  EXPECT_EQ(reg.value("x"), 0u);
  reg.inc("x");
  reg.inc("x", 4);
  EXPECT_EQ(reg.value("x"), 5u);
}

TEST(Registry, CounterReferencesSurviveResetAndInsertions) {
  obs::Registry reg;
  std::uint64_t& c = reg.counter("stable");
  c = 10;
  for (int i = 0; i < 100; ++i) reg.counter("other." + std::to_string(i));
  EXPECT_EQ(reg.value("stable"), 10u);
  reg.reset();
  EXPECT_EQ(reg.value("stable"), 0u);
  c = 3;  // the reference must still point at the live node
  EXPECT_EQ(reg.value("stable"), 3u);
}

TEST(Registry, GaugesAndPrefixes) {
  obs::Registry reg;
  reg.set_gauge("g.a", 1.5);
  EXPECT_DOUBLE_EQ(reg.gauge("g.a"), 1.5);
  EXPECT_TRUE(std::isnan(reg.gauge("never.set")));
  reg.inc("a.one");
  reg.inc("a.two");
  reg.inc("b.one");
  EXPECT_EQ(reg.counters("a.").size(), 2u);
  EXPECT_EQ(reg.counters().size(), 3u);
  EXPECT_NE(reg.table("a.").find("a.one"), std::string::npos);
  EXPECT_EQ(reg.table("a.").find("b.one"), std::string::npos);
}

TEST(Registry, DeltaAttributesGrowth) {
  obs::Registry reg;
  reg.inc("x", 10);
  obs::CounterDelta d(reg);
  reg.inc("x", 5);
  reg.inc("y", 2);
  auto delta = d.delta();
  EXPECT_EQ(delta.at("x"), 5u);
  EXPECT_EQ(delta.at("y"), 2u);
  EXPECT_EQ(delta.count("z"), 0u);
}

TEST(Registry, SimulationRunsPopulateGlobalRegistry) {
  auto& reg = obs::Registry::global();
  reg.reset();
  auto protocol = proto::protocol_by_name("cops-snow");
  proto::ClusterConfig cfg;
  obs::capture_scenario(*protocol, "quickread", cfg);
  EXPECT_GT(reg.value("sim.steps"), 0u);
  EXPECT_GT(reg.value("sim.deliveries"), 0u);
  EXPECT_GT(reg.value("sim.messages_sent"), 0u);
  EXPECT_EQ(reg.value("client.rot.completed"), 1u);
  EXPECT_GE(reg.value("client.rot.rounds"), 1u);
  EXPECT_GT(reg.value("server.recv.RotRequest"), 0u);
  reg.reset();
}

// --- Trace export / import / replay ---------------------------------------

struct RoundTripCase {
  const char* protocol;
  const char* scenario;
};

class TraceRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(TraceRoundTrip, ExportImportReplayIsByteExact) {
  auto [proto_name, scenario] = GetParam();
  auto protocol = proto::protocol_by_name(proto_name);
  proto::ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.num_clients = 5;
  cfg.num_objects = 2;

  obs::TraceDoc doc = obs::capture_scenario(*protocol, scenario, cfg);
  std::string bytes = obs::export_jsonl(doc);

  // Import parses back to an equivalent document...
  obs::TraceDoc imported = obs::import_jsonl(bytes);
  EXPECT_EQ(imported.protocol, proto_name);
  EXPECT_EQ(imported.scenario, scenario);
  EXPECT_EQ(imported.events.size(), doc.events.size());
  EXPECT_EQ(obs::export_jsonl(imported), bytes);

  // ...and replay on a fresh simulation reproduces the execution exactly:
  // every event applies, the final configuration digest matches, and the
  // re-exported artifact is byte-identical.
  obs::DocReplay replay = obs::replay_doc(imported);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_EQ(replay.applied, doc.events.size());
  EXPECT_TRUE(replay.digest_match);
  EXPECT_EQ(obs::export_jsonl(replay.reexport), bytes);

  // The replayed history is the recorded history: same checker verdicts.
  auto orig = cons::check_causal_consistency(doc.history);
  auto replayed = cons::check_causal_consistency(replay.history);
  EXPECT_EQ(orig.ok(), replayed.ok());
  EXPECT_EQ(replay.history.txs().size(), doc.history.txs().size());
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, TraceRoundTrip,
    ::testing::Values(RoundTripCase{"cops-snow", "quickread"},
                      RoundTripCase{"cops-snow", "violation"},
                      RoundTripCase{"wren", "mixed"},
                      RoundTripCase{"wren", "quickread"},
                      RoundTripCase{"naivefast", "quickread"},
                      RoundTripCase{"naivefast", "violation"}),
    [](const auto& info) {
      std::string name =
          std::string(info.param.protocol) + "_" + info.param.scenario;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(TraceIo, NaivefastViolationSurvivesTheRoundTrip) {
  // The flagship artifact: naivefast's causal violation must be visible to
  // the checker in the IMPORTED history, not just the live one.
  auto protocol = proto::protocol_by_name("naivefast");
  proto::ClusterConfig cfg;
  obs::TraceDoc doc = obs::capture_scenario(*protocol, "violation", cfg);
  obs::TraceDoc imported = obs::import_jsonl(obs::export_jsonl(doc));
  auto check = cons::check_causal_consistency(imported.history);
  ASSERT_FALSE(check.ok());
  bool intervening = false;
  for (const auto& v : check.violations)
    intervening |= (v.kind == "intervening-write");
  EXPECT_TRUE(intervening) << check.summary();

  // A correct protocol survives the same adversarial schedule.
  auto good = proto::protocol_by_name("cops-snow");
  obs::TraceDoc gdoc = obs::capture_scenario(*good, "violation", cfg);
  EXPECT_TRUE(cons::check_causal_consistency(gdoc.history).ok());
}

TEST(TraceIo, ImportRejectsCorruptInput) {
  EXPECT_THROW(obs::import_jsonl(""), CheckFailure);
  EXPECT_THROW(obs::import_jsonl("{\"record\":\"header\"}"), CheckFailure);
  EXPECT_THROW(obs::import_jsonl("not json at all"), CheckFailure);

  // A valid file with a tampered schema version must be rejected.
  auto protocol = proto::protocol_by_name("naivefast");
  proto::ClusterConfig cfg;
  std::string bytes =
      obs::export_jsonl(obs::capture_scenario(*protocol, "quickread", cfg));
  std::string tampered = bytes;
  auto pos = tampered.find("discs.trace.v1");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, 14, "discs.trace.v9");
  EXPECT_THROW(obs::import_jsonl(tampered), CheckFailure);
}

TEST(TraceIo, UnknownScenarioThrows) {
  auto protocol = proto::protocol_by_name("naivefast");
  proto::ClusterConfig cfg;
  EXPECT_THROW(obs::capture_scenario(*protocol, "no-such-scenario", cfg),
               CheckFailure);
}

// --- The importer's acceptance set -----------------------------------------
//
// A hand-written artifact in the exporter's canonical bytes, one line per
// record kind.  A variant line must import to the document the canonical
// line imports to, which re-exports to the canonical bytes.

constexpr const char* kHeaderLine =
    "{\"record\":\"header\",\"schema\":\"discs.trace.v1\",\"protocol\":"
    "\"cops\",\"scenario\":\"pinned\",\"cluster\":{\"servers\":2,"
    "\"clients\":4,\"objects\":2,\"replication\":1,\"tt_epsilon\":5,"
    "\"gossip_interval\":1},\"initial\":[[0,1],[1,2]]}";
constexpr const char* kInvokeLine =
    "{\"record\":\"invoke\",\"at\":0,\"client\":2,\"tx\":{\"id\":3,"
    "\"reads\":[],\"writes\":[[0,5],[1,6]]}}";
constexpr const char* kStepLine =
    "{\"record\":\"event\",\"seq\":0,\"kind\":\"step\",\"process\":2,"
    "\"consumed\":[],\"sent\":[{\"id\":2199023255552,\"src\":2,\"dst\":0,"
    "\"kind\":\"WriteRequest\",\"desc\":\"WriteRequest{T3}\",\"values\":[5],"
    "\"bytes\":40}]}";
constexpr const char* kDeliverLine =
    "{\"record\":\"event\",\"seq\":1,\"kind\":\"deliver\",\"msg\":{\"id\":"
    "2199023255552,\"src\":2,\"dst\":0,\"kind\":\"WriteRequest\",\"desc\":"
    "\"WriteRequest{T3}\",\"values\":[5],\"bytes\":40}}";
constexpr const char* kWriteTxLine =
    "{\"record\":\"tx\",\"id\":3,\"client\":2,\"invoked\":true,\"completed\":"
    "true,\"invoke_seq\":0,\"complete_seq\":1,\"reads\":[],\"writes\":[{"
    "\"object\":0,\"value\":5,\"acked\":true}]}";
constexpr const char* kReadTxLine =
    "{\"record\":\"tx\",\"id\":4,\"client\":3,\"invoked\":true,\"completed\":"
    "false,\"invoke_seq\":1,\"complete_seq\":0,\"reads\":[{\"object\":0,"
    "\"value\":null,\"responded\":false},{\"object\":1,\"value\":2,"
    "\"responded\":true}],\"writes\":[]}";
constexpr const char* kFooterLine =
    "{\"record\":\"footer\",\"events\":2,\"final_digest\":\"d\"}";

std::vector<std::string> canonical_lines() {
  return {kHeaderLine,  kInvokeLine, kStepLine, kDeliverLine,
          kWriteTxLine, kReadTxLine, kFooterLine};
}

std::string artifact(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) out += l + "\n";
  return out;
}

/// The canonical artifact with the line equal to `line` swapped for
/// `variant`.
std::string with_line(const std::string& line, const std::string& variant) {
  std::vector<std::string> lines = canonical_lines();
  auto it = std::find(lines.begin(), lines.end(), line);
  EXPECT_NE(it, lines.end());
  *it = variant;
  return artifact(lines);
}

TEST(TraceIo, CanonicalArtifactRoundTrips) {
  const std::string bytes = artifact(canonical_lines());
  obs::TraceDoc doc = obs::import_jsonl(bytes);
  ASSERT_EQ(doc.events.size(), 2u);
  ASSERT_EQ(doc.history.txs().size(), 2u);
  const auto& unanswered = doc.history.txs()[1].reads[0];
  EXPECT_FALSE(unanswered.responded);
  EXPECT_FALSE(unanswered.value.valid());
  EXPECT_EQ(obs::export_jsonl(doc), bytes);
}

TEST(TraceIo, ImportAcceptsReorderedFields) {
  const std::string want = artifact(canonical_lines());
  const std::vector<std::pair<std::string, std::string>> variants = {
      {kInvokeLine,
       "{\"tx\":{\"writes\":[[0,5],[1,6]],\"id\":3,\"reads\":[]},"
       "\"client\":2,\"at\":0,\"record\":\"invoke\"}"},
      {kStepLine,
       "{\"sent\":[{\"bytes\":40,\"values\":[5],\"desc\":\"WriteRequest{T3}\","
       "\"kind\":\"WriteRequest\",\"dst\":0,\"src\":2,\"id\":2199023255552}],"
       "\"consumed\":[],\"process\":2,\"kind\":\"step\",\"seq\":0,"
       "\"record\":\"event\"}"},
      {kDeliverLine,
       "{\"msg\":{\"desc\":\"WriteRequest{T3}\",\"id\":2199023255552,"
       "\"bytes\":40,\"dst\":0,\"values\":[5],\"src\":2,\"kind\":"
       "\"WriteRequest\"},\"kind\":\"deliver\",\"record\":\"event\","
       "\"seq\":1}"},
      {kWriteTxLine,
       "{\"writes\":[{\"acked\":true,\"value\":5,\"object\":0}],\"reads\":[],"
       "\"complete_seq\":1,\"invoke_seq\":0,\"completed\":true,\"invoked\":"
       "true,\"client\":2,\"id\":3,\"record\":\"tx\"}"},
      {kReadTxLine,
       "{\"record\":\"tx\",\"reads\":[{\"responded\":false,\"value\":null,"
       "\"object\":0},{\"responded\":true,\"object\":1,\"value\":2}],"
       "\"id\":4,\"writes\":[],\"client\":3,\"invoked\":true,\"completed\":"
       "false,\"invoke_seq\":1,\"complete_seq\":0}"},
      {kFooterLine,
       "{\"final_digest\":\"d\",\"events\":2,\"record\":\"footer\"}"},
  };
  for (const auto& [line, variant] : variants) {
    SCOPED_TRACE(variant);
    EXPECT_EQ(obs::export_jsonl(obs::import_jsonl(with_line(line, variant))),
              want);
  }
}

TEST(TraceIo, ImportAcceptsWhitespaceBetweenTokens) {
  const std::string want = artifact(canonical_lines());
  const std::string spaced =
      " { \"record\" :\t\"event\" , \"seq\" : 0 , \"kind\" : \"step\" , "
      "\"process\" : 2 , \"consumed\" : [ ] , \"sent\" : [ { \"id\" : "
      "2199023255552 , \"src\" : 2 , \"dst\" : 0 , \"kind\" : "
      "\"WriteRequest\" , \"desc\" : \"WriteRequest{T3}\" , \"values\" : "
      "[ 5 ] , \"bytes\" : 40 } ] }\t\r";
  EXPECT_EQ(obs::export_jsonl(obs::import_jsonl(with_line(kStepLine, spaced))),
            want);
  const std::string spaced_tx =
      "{\"record\":\"tx\" , \"id\":4,\"client\":3,\"invoked\" : true,"
      "\"completed\":false,\"invoke_seq\":1,\"complete_seq\":0,\"reads\":[ "
      "{ \"object\":0, \"value\" : null ,\"responded\":false } , {\"object\""
      ":1,\"value\":2,\"responded\":true}],\"writes\":[ ]}";
  EXPECT_EQ(
      obs::export_jsonl(obs::import_jsonl(with_line(kReadTxLine, spaced_tx))),
      want);
}

TEST(TraceIo, ImportSkipsUnknownFields) {
  const std::string want = artifact(canonical_lines());
  const std::string unknown =
      ",\"note\":\"x\",\"n\":-1.5e3,\"flag\":false,\"none\":null,"
      "\"list\":[1,[2,{\"a\":\"b\"}]],\"obj\":{\"k\":[true,{}]}";
  const std::vector<std::pair<std::string, std::string>> variants = {
      {kInvokeLine,
       "{\"record\":\"invoke\",\"at\":0,\"client\":2,\"tx\":{\"id\":3,"
       "\"reads\":[],\"writes\":[[0,5],[1,6]]" + unknown + "}" + unknown +
           "}"},
      {kStepLine,
       "{\"record\":\"event\"" + unknown +
           ",\"seq\":0,\"kind\":\"step\",\"process\":2,\"consumed\":[],"
           "\"sent\":[{\"id\":2199023255552" + unknown +
           ",\"src\":2,\"dst\":0,\"kind\":\"WriteRequest\",\"desc\":"
           "\"WriteRequest{T3}\",\"values\":[5],\"bytes\":40}]}"},
      {kDeliverLine,
       "{\"record\":\"event\",\"seq\":1,\"kind\":\"deliver\",\"msg\":{\"id\":"
       "2199023255552,\"src\":2,\"dst\":0,\"kind\":\"WriteRequest\",\"desc\":"
       "\"WriteRequest{T3}\",\"values\":[5],\"bytes\":40" + unknown + "}" +
           unknown + "}"},
      {kReadTxLine,
       "{\"record\":\"tx\",\"id\":4,\"client\":3,\"invoked\":true,"
       "\"completed\":false,\"invoke_seq\":1,\"complete_seq\":0,\"reads\":[{"
       "\"object\":0,\"value\":null,\"responded\":false" + unknown +
           "},{\"object\":1,\"value\":2,\"responded\":true}],\"writes\":[]" +
           unknown + "}"},
      {kFooterLine,
       "{\"record\":\"footer\"" + unknown +
           ",\"events\":2,\"final_digest\":\"d\"}"},
  };
  for (const auto& [line, variant] : variants) {
    SCOPED_TRACE(variant);
    EXPECT_EQ(obs::export_jsonl(obs::import_jsonl(with_line(line, variant))),
              want);
  }
}

TEST(TraceIo, ImportTakesTheFirstOfDuplicatedKeys) {
  const std::string want = artifact(canonical_lines());
  // The later occurrence is skipped unread, even when its type is wrong.
  const std::vector<std::pair<std::string, std::string>> variants = {
      {kStepLine,
       "{\"record\":\"event\",\"seq\":0,\"seq\":9,\"kind\":\"step\","
       "\"process\":2,\"consumed\":[],\"sent\":[{\"id\":2199023255552,"
       "\"src\":2,\"dst\":0,\"kind\":\"WriteRequest\",\"desc\":"
       "\"WriteRequest{T3}\",\"values\":[5],\"bytes\":40,\"bytes\":\"16\"}],"
       "\"kind\":\"crash\",\"record\":\"footer\"}"},
      {kReadTxLine,
       "{\"record\":\"tx\",\"id\":4,\"client\":3,\"invoked\":true,"
       "\"completed\":false,\"invoke_seq\":1,\"complete_seq\":0,\"reads\":[{"
       "\"object\":0,\"value\":null,\"responded\":false,\"responded\":true},"
       "{\"object\":1,\"value\":2,\"responded\":true}],\"writes\":[],"
       "\"id\":-1}"},
      {kFooterLine,
       "{\"record\":\"footer\",\"events\":2,\"final_digest\":\"d\","
       "\"final_digest\":\"other\",\"events\":7}"},
  };
  for (const auto& [line, variant] : variants) {
    SCOPED_TRACE(variant);
    EXPECT_EQ(obs::export_jsonl(obs::import_jsonl(with_line(line, variant))),
              want);
  }
}

TEST(TraceIo, ImportDecodesStringEscapes) {
  const std::string escaped =
      "{\"record\":\"event\",\"seq\":0,\"kind\":\"step\",\"process\":2,"
      "\"consumed\":[],\"sent\":[{\"id\":2199023255552,\"src\":2,\"dst\":0,"
      "\"kind\":\"WriteRequest\",\"desc\":\"q\\\" b\\\\ s\\/ n\\n t\\t "
      "u\\u0001\",\"values\":[5],\"bytes\":40}]}";
  obs::TraceDoc doc = obs::import_jsonl(with_line(kStepLine, escaped));
  ASSERT_EQ(doc.sent(doc.events.at(0)).size(), 1u);
  EXPECT_EQ(doc.sent(doc.events[0])[0].desc, "q\" b\\ s/ n\n t\t u\x01");
  // The writer escapes all but '/' back.
  EXPECT_NE(obs::export_jsonl(doc).find(
                "\"desc\":\"q\\\" b\\\\ s/ n\\n t\\t u\\u0001\""),
            std::string::npos);
}

TEST(TraceIo, ImportHoldsARepeatedMessageOnce) {
  // The canonical artifact sends a message and delivers it in the same
  // bytes: one entry, taken by the delivery unparsed.
  const std::string canonical = artifact(canonical_lines());
  obs::TraceDoc doc = obs::import_jsonl(canonical);
  ASSERT_EQ(doc.messages.size(), 1u);
  EXPECT_EQ(doc.refs, std::vector<std::uint32_t>{0});
  EXPECT_EQ(doc.events[1].msg, 0u);
  EXPECT_EQ(obs::export_jsonl(doc), canonical);

  // The same message with its members reordered is parsed, equals the
  // entry in every field, and takes it; either appearance may be the
  // reordered one.
  const std::string reordered_msg =
      "{\"desc\":\"WriteRequest{T3}\",\"id\":2199023255552,\"bytes\":40,"
      "\"dst\":0,\"values\":[5],\"src\":2,\"kind\":\"WriteRequest\"}";
  const std::string reordered[] = {
      with_line(kDeliverLine,
                "{\"record\":\"event\",\"seq\":1,\"kind\":\"deliver\","
                "\"msg\":" + reordered_msg + "}"),
      with_line(kStepLine,
                "{\"record\":\"event\",\"seq\":0,\"kind\":\"step\","
                "\"process\":2,\"consumed\":[],\"sent\":[" + reordered_msg +
                    "]}")};
  for (const auto& bytes : reordered) {
    doc = obs::import_jsonl(bytes);
    EXPECT_EQ(doc.messages.size(), 1u);
    EXPECT_EQ(obs::export_jsonl(doc), canonical);
  }

  // An id reused with other content gets an entry of its own, and each
  // appearance keeps its own bytes.
  std::string other = kDeliverLine;
  other.replace(other.find("{T3}"), 4, "{T9}");
  const std::string reused = with_line(kDeliverLine, other);
  doc = obs::import_jsonl(reused);
  ASSERT_EQ(doc.messages.size(), 2u);
  EXPECT_EQ(doc.messages[0].id, doc.messages[1].id);
  EXPECT_EQ(doc.messages[1].desc, "WriteRequest{T9}");
  EXPECT_EQ(doc.events[1].msg, 1u);
  EXPECT_EQ(obs::export_jsonl(doc), reused);
}

TEST(TraceIo, ImportRejectsAMalformedRepeatedMessage) {
  // The delivery repeats the step's message, broken: it is parsed, not
  // taken by its id, and rejected naming its line.
  const std::string deliver = kDeliverLine;
  const std::vector<std::pair<std::string, std::string>> broken = {
      {std::string(deliver).replace(deliver.find(",\"bytes\":40"), 11, ""),
       "missing field 'bytes'"},
      {std::string(deliver).replace(deliver.find("40}}"), 4, "40}"),
       "expected '}' at offset 157"},
      {std::string(deliver).replace(deliver.find("[5]"), 3, "[5"),
       "trace line 4: "}};
  for (const auto& [line, why] : broken) {
    SCOPED_TRACE(line);
    try {
      obs::import_jsonl(with_line(kDeliverLine, line));
      ADD_FAILURE() << "accepted";
    } catch (const CheckFailure& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("trace line 4: "), std::string::npos) << what;
      EXPECT_NE(what.find(why), std::string::npos) << what;
    }
  }
}

TEST(TraceIo, ImportAcceptsEveryV2FaultKind) {
  const std::string msg =
      "{\"id\":2199023255552,\"src\":2,\"dst\":0,\"kind\":\"WriteRequest\","
      "\"desc\":\"WriteRequest{T3}\",\"values\":[5],\"bytes\":40}";
  std::string header = kHeaderLine;
  header.replace(header.find("discs.trace.v1"), 14, "discs.trace.v2");
  const std::vector<std::string> lines = {
      header,
      kInvokeLine,
      kStepLine,
      "{\"record\":\"event\",\"seq\":1,\"kind\":\"drop\",\"msg\":" + msg + "}",
      "{\"record\":\"event\",\"seq\":2,\"kind\":\"retransmit\",\"msg\":" +
          msg + "}",
      "{\"record\":\"event\",\"seq\":3,\"kind\":\"dup\",\"msg\":" + msg + "}",
      "{\"record\":\"event\",\"seq\":4,\"kind\":\"crash\",\"process\":0,"
      "\"lossy\":true}",
      "{\"record\":\"event\",\"seq\":5,\"kind\":\"restart\",\"process\":0}",
      "{\"record\":\"event\",\"seq\":6,\"kind\":\"crash\",\"process\":1,"
      "\"lossy\":false}",
      "{\"record\":\"event\",\"seq\":7,\"kind\":\"deliver\",\"msg\":" + msg +
          "}",
      kWriteTxLine,
      "{\"record\":\"footer\",\"events\":8,\"final_digest\":\"d\"}"};
  const std::string bytes = artifact(lines);
  obs::TraceDoc doc = obs::import_jsonl(bytes);
  EXPECT_EQ(doc.schema, obs::kTraceSchemaV2);
  ASSERT_EQ(doc.events.size(), 8u);
  EXPECT_EQ(doc.events[1].event.kind, sim::Event::Kind::kDrop);
  EXPECT_EQ(doc.events[2].event.kind, sim::Event::Kind::kRetransmit);
  EXPECT_EQ(doc.events[3].event.kind, sim::Event::Kind::kDuplicate);
  EXPECT_EQ(doc.events[4].event.kind, sim::Event::Kind::kCrash);
  EXPECT_TRUE(doc.events[4].event.lossy);
  EXPECT_EQ(doc.events[5].event.kind, sim::Event::Kind::kRestart);
  EXPECT_FALSE(doc.events[6].event.lossy);
  EXPECT_EQ(obs::export_jsonl(doc), bytes);
}

TEST(TraceIo, ImportRejectsMalformedRecords) {
  auto replace = [](std::string line, const std::string& from,
                    const std::string& to) {
    auto pos = line.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    return line.replace(pos, from.size(), to);
  };
  const std::string step = kStepLine;
  const std::vector<std::pair<std::string, std::string>> rejected = {
      // Missing required fields.
      {kStepLine, replace(step, "\"seq\":0,", "")},
      {kStepLine, replace(step, ",\"bytes\":40", "")},
      {kStepLine, replace(step, ",\"consumed\":[]", "")},
      {kDeliverLine, replace(kDeliverLine, ",\"msg\":", ",\"message\":")},
      {kInvokeLine, replace(kInvokeLine, "\"at\":0,", "")},
      {kInvokeLine, replace(kInvokeLine, ",\"reads\":[]", "")},
      {kWriteTxLine, replace(kWriteTxLine, "\"invoked\":true,", "")},
      {kWriteTxLine, replace(kWriteTxLine, ",\"acked\":true", "")},
      {kReadTxLine, replace(kReadTxLine, "\"value\":2,", "")},
      {kFooterLine, replace(kFooterLine, ",\"final_digest\":\"d\"", "")},
      // Integer fields must be unsigned and integral.
      {kStepLine, replace(step, "\"seq\":0", "\"seq\":-1")},
      {kStepLine, replace(step, "\"seq\":0", "\"seq\":1.5")},
      {kStepLine, replace(step, "\"bytes\":40", "\"bytes\":\"16\"")},
      {kStepLine, replace(step, "\"values\":[5]", "\"values\":[true]")},
      {kInvokeLine, replace(kInvokeLine, "[0,5]", "[0]")},
      {kWriteTxLine, replace(kWriteTxLine, "\"invoked\":true",
                             "\"invoked\":1")},
      {kReadTxLine, replace(kReadTxLine, "\"value\":2", "\"value\":null")},
      // Not one JSON object.
      {kStepLine, step.substr(0, step.size() / 2)},
      {kStepLine, step + "x"},
      {kStepLine, step + " {}"},
      {kFooterLine, "[1,2]"},
      // Unknown or misplaced records and events.
      {kDeliverLine, replace(kDeliverLine, "\"deliver\"", "\"drop\"")},
      {kDeliverLine, replace(kDeliverLine, "\"deliver\"", "\"teleport\"")},
      {kInvokeLine, replace(kInvokeLine, "\"invoke\"", "\"invocation\"")},
      {kWriteTxLine,
       "{\"record\":\"span\",\"kind\":\"round\",\"tx\":3,\"proc\":2,"
       "\"at\":0,\"round\":1}"},
      {kFooterLine, replace(kFooterLine, "\"events\":2", "\"events\":3")},
      {kInvokeLine, kHeaderLine},
  };
  for (const auto& [line, variant] : rejected) {
    SCOPED_TRACE(variant);
    EXPECT_THROW(obs::import_jsonl(with_line(line, variant)), CheckFailure);
  }

  // An unknown event kind is rejected under v2 as well.
  std::string v2 = with_line(
      kDeliverLine, replace(kDeliverLine, "\"deliver\"", "\"teleport\""));
  v2.replace(v2.find("discs.trace.v1"), 14, "discs.trace.v2");
  EXPECT_THROW(obs::import_jsonl(v2), CheckFailure);
}

TEST(TraceIo, ImportRejectsRecordsAfterTheFooter) {
  // The footer is the last record: an event or tx line appended after it
  // (which the footer's event count does not cover) is rejected.
  const std::string bytes = artifact(canonical_lines());
  for (const char* extra :
       {"{\"record\":\"event\",\"seq\":2,\"kind\":\"step\",\"process\":0,"
        "\"consumed\":[],\"sent\":[]}",
        kReadTxLine, kFooterLine}) {
    SCOPED_TRACE(extra);
    try {
      obs::import_jsonl(bytes + extra + "\n");
      ADD_FAILURE() << "accepted a record after the footer";
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("trace: record after footer"),
                std::string::npos)
          << e.what();
    }
  }
  // Blank lines after the footer are not records.
  EXPECT_NO_THROW(obs::import_jsonl(bytes + "\n\n"));
}

// --- TraceSink -------------------------------------------------------------

/// A short cops run on the simulator to feed sinks: one write, optionally
/// losing the client's first request to a drop (a fault event), with `ref`
/// the reference exporter's (make_doc) document of the same records.
struct SinkInput {
  std::vector<sim::EventRecord> records;
  obs::TraceDoc ref;
};

SinkInput sink_input(bool drop) {
  auto protocol = proto::protocol_by_name("cops");
  proto::ClusterConfig cfg;
  sim::Simulation sim;
  proto::IdSource ids;
  proto::Cluster cluster = protocol->build(sim, cfg, ids);
  const ProcessId client = cluster.clients[0];
  proto::TxSpec w = ids.write_one(cluster.view.objects[0]);
  std::vector<obs::InvokeRecord> invokes{{sim.now(), client, w}};
  sim.process_as<proto::ClientBase>(client).invoke(w);
  sim.step(client);
  if (drop) {
    EXPECT_TRUE(sim.drop(sim.network().in_flight().front().id));
  }
  sim::run_to_quiescence(sim, {});
  SinkInput in;
  in.records.assign(sim.trace().records().begin(),
                    sim.trace().records().end());
  in.ref = obs::make_doc(*protocol, "sink", cfg, sim, cluster, invokes);
  return in;
}

/// Appends every record to a sink and finishes it with everything of
/// `in.ref` but its events and schema.
obs::TraceDoc through_sink(const SinkInput& in, bool keep_events,
                           const std::string& path) {
  obs::TraceSink sink(keep_events, path);
  for (const auto& rec : in.records) sink.append(rec);
  obs::TraceDoc doc = in.ref;
  doc.events.clear();
  doc.messages.clear();
  doc.refs.clear();
  doc.schema.clear();
  return sink.finish(std::move(doc));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).is_open();
}

TEST(TraceSink, MemoryFileAndBothSinksReturnTheSameDoc) {
  for (bool drop : {false, true}) {
    SCOPED_TRACE(drop ? "with drop" : "fault-free");
    const SinkInput in = sink_input(drop);
    const std::string want = obs::export_jsonl(in.ref);
    const std::string file_path = testing::TempDir() + "trace_sink_file.jsonl";
    const std::string both_path = testing::TempDir() + "trace_sink_both.jsonl";

    obs::TraceDoc memory = through_sink(in, /*keep_events=*/true, "");
    obs::TraceDoc file = through_sink(in, /*keep_events=*/false, file_path);
    obs::TraceDoc both = through_sink(in, /*keep_events=*/true, both_path);
    // The memory sink's doc is the reference exporter's, byte for byte...
    EXPECT_EQ(obs::export_jsonl(memory), want);
    EXPECT_EQ(obs::export_jsonl(both), want);
    // ...and a file-only sink returns the same doc minus the events and
    // the message table it did not keep.
    EXPECT_TRUE(file.events.empty());
    EXPECT_TRUE(file.messages.empty());
    EXPECT_TRUE(file.refs.empty());
    file.events = memory.events;
    file.messages = memory.messages;
    file.refs = memory.refs;
    EXPECT_EQ(obs::export_jsonl(file), want);

    // Each file is the export of that doc, and its spool is gone.
    EXPECT_EQ(slurp(file_path), want);
    EXPECT_EQ(slurp(both_path), want);
    EXPECT_FALSE(file_exists(file_path + ".spool"));
    EXPECT_FALSE(file_exists(both_path + ".spool"));
    std::remove(file_path.c_str());
    std::remove(both_path.c_str());
  }
}

TEST(TraceSink, ADropRecordFlipsTheSchemaToV2) {
  EXPECT_EQ(through_sink(sink_input(false), true, "").schema,
            obs::kTraceSchema);
  const SinkInput lossy = sink_input(true);
  EXPECT_EQ(lossy.ref.schema, obs::kTraceSchemaV2);
  EXPECT_EQ(through_sink(lossy, true, "").schema, obs::kTraceSchemaV2);
  // The decision is retroactive: the file's header, written at finish(),
  // says v2 although the drop was appended after the first record.
  const std::string path = testing::TempDir() + "trace_sink_v2.jsonl";
  through_sink(lossy, false, path);
  EXPECT_EQ(obs::import_jsonl(slurp(path)).schema, obs::kTraceSchemaV2);
  std::remove(path.c_str());
}

TEST(TraceSink, OutOfOrderAppendCheckFails) {
  const SinkInput in = sink_input(false);
  ASSERT_GE(in.records.size(), 2u);
  obs::TraceSink sink(true, "");
  EXPECT_THROW(sink.append(in.records[1]), CheckFailure);  // a gap
  sink.append(in.records[0]);
  EXPECT_THROW(sink.append(in.records[0]), CheckFailure);  // a repeat
  EXPECT_EQ(sink.events(), 1u);
}

TEST(TraceSink, SinkDestroyedBeforeFinishLeavesNoSpool) {
  const SinkInput in = sink_input(false);
  const std::string path = testing::TempDir() + "trace_sink_abandoned.jsonl";
  {
    obs::TraceSink sink(true, path);
    sink.append(in.records[0]);
    EXPECT_TRUE(file_exists(path + ".spool"));
  }
  EXPECT_FALSE(file_exists(path + ".spool"));
  EXPECT_FALSE(file_exists(path));
}

// --- The message table -----------------------------------------------------

TEST(TraceTable, SimCaptureHoldsEachMessageOnce) {
  // A wren workload with cause annotations: gossip-heavy, and every entry
  // carries the annotations ExportedMessage::from adds.
  auto protocol = proto::protocol_by_name("wren");
  proto::ClusterConfig cfg;
  cfg.num_clients = 3;
  cfg.record_spans = true;
  sim::Simulation sim;
  proto::IdSource ids;
  proto::Cluster cluster = protocol->build(sim, cfg, ids);
  wl::WorkloadConfig wcfg;
  wcfg.num_txs = 30;
  wcfg.seed = 7;
  wl::run_workload_sequential(sim, *protocol, cluster, ids, wcfg);
  const obs::TraceDoc doc =
      obs::make_doc(*protocol, "table", cfg, sim, cluster, {});
  const std::vector<sim::EventRecord> records(sim.trace().records().begin(),
                                              sim.trace().records().end());
  test::expect_table_matches(doc, records, /*spans=*/true);
  std::size_t appearances = doc.refs.size();
  for (const auto& e : doc.events) appearances += doc.message(e) != nullptr;
  EXPECT_GT(appearances, 2 * doc.messages.size());
}

TEST(TraceTable, FaultedCaptureAndSinkHoldEachMessageOnce) {
  // A dropped message appears sent and dropped; the one builder serves
  // make_doc and the sink alike.
  const SinkInput in = sink_input(/*drop=*/true);
  test::expect_table_matches(in.ref, in.records, /*spans=*/false);
  obs::TraceSink sink(/*keep_events=*/true, "");
  for (const auto& rec : in.records) sink.append(rec);
  test::expect_table_matches(sink.finish({}), in.records, /*spans=*/false);
}

// --- Ring ------------------------------------------------------------------

TEST(Ring, RetainsTheMostRecentCapacityValues) {
  obs::Ring<int> ring(4);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 3; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{0, 1, 2}));
  for (int i = 3; i < 11; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.pushed(), 11u);
  // Oldest-first window over the last 4 pushes, across two wraparounds.
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{7, 8, 9, 10}));
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.snapshot(), std::vector<int>{});
}

TEST(Ring, RejectsZeroCapacity) {
  EXPECT_THROW(obs::Ring<int>(0), CheckFailure);
}

// --- metrics timelines -----------------------------------------------------

obs::MetricsSeries sample_series() {
  obs::Registry reg;
  reg.inc("a.count", 3);
  reg.set_gauge("b.gauge", 1.5);
  reg.histogram("c.hist").record(7);
  reg.histogram("c.hist").record(11);
  obs::MetricsSeries s;
  s.source = "test:unit";
  s.samples.push_back(obs::sample_registry(reg, 100));
  reg.inc("a.count", 2);
  s.samples.push_back(obs::sample_registry(reg, 250));
  s.samples.back().shards["a.count"] = {2, 3};
  return s;
}

TEST(MetricsIo, ExportImportIsByteIdentical) {
  obs::MetricsSeries s = sample_series();
  std::string bytes = obs::export_metrics_jsonl(s);
  obs::MetricsSeries back = obs::import_metrics_jsonl(bytes);
  EXPECT_EQ(back, s);
  // Round-trip is byte-stable: serialize-the-import reproduces the input.
  EXPECT_EQ(obs::export_metrics_jsonl(back), bytes);
  // Incremental identity: the artifact is exactly header + sample lines.
  std::string inc = obs::metrics_header_line(s) + "\n";
  for (const auto& smp : s.samples)
    inc += obs::metrics_sample_line(smp) + "\n";
  EXPECT_EQ(inc, bytes);
}

TEST(MetricsIo, SampleCapturesCountersGaugesAndHistograms) {
  obs::MetricsSeries s = sample_series();
  const obs::MetricsSample& last = s.samples.back();
  EXPECT_EQ(last.at_us, 250u);
  EXPECT_EQ(last.counters.at("a.count"), 5u);
  EXPECT_DOUBLE_EQ(last.gauges.at("b.gauge"), 1.5);
  EXPECT_EQ(last.hists.at("c.hist").count, 2u);
  EXPECT_EQ(last.hists.at("c.hist").sum, 18u);
  EXPECT_EQ(last.hists.at("c.hist").max, 11u);
}

TEST(MetricsIo, ImportAcceptsHeaderOnlyAndRejectsGarbage) {
  obs::MetricsSeries empty;
  empty.source = "test:empty";
  obs::MetricsSeries back =
      obs::import_metrics_jsonl(obs::export_metrics_jsonl(empty));
  EXPECT_EQ(back.samples.size(), 0u);
  EXPECT_EQ(back.source, "test:empty");

  EXPECT_THROW(obs::import_metrics_jsonl("not json\n"), CheckFailure);
  EXPECT_THROW(obs::import_metrics_jsonl(
                   "{\"record\":\"header\",\"schema\":\"discs.metrics.v9\","
                   "\"source\":\"x\"}\n"),
               CheckFailure);
  // Non-monotone at_us is rejected.
  obs::MetricsSeries bad = sample_series();
  std::swap(bad.samples[0], bad.samples[1]);
  bad.samples[1].shards.clear();
  EXPECT_THROW(obs::import_metrics_jsonl(obs::export_metrics_jsonl(bad)),
               CheckFailure);
}

TEST(MetricsHub, FoldsOverwriteAndSamplesAggregate) {
  obs::MetricsHub hub(2);
  obs::Registry r0, r1;
  r0.inc("rt.steps", 10);
  r1.inc("rt.steps", 4);
  r1.set_gauge("g", 2.0);
  hub.fold(0, r0);
  hub.fold(1, r1);
  const std::string_view fams[] = {"rt.steps"};
  obs::MetricsSample s1 = hub.sample(5, fams);
  EXPECT_EQ(s1.counters.at("rt.steps"), 14u);
  EXPECT_DOUBLE_EQ(s1.gauges.at("g"), 2.0);
  EXPECT_EQ(s1.shards.at("rt.steps"), (std::vector<std::uint64_t>{10, 4}));

  // A re-fold replaces the slot snapshot (full values, not deltas): the
  // aggregate moves to the new totals, never double-counts.
  r0.inc("rt.steps", 1);
  hub.fold(0, r0);
  obs::MetricsSample s2 = hub.sample(6, fams);
  EXPECT_EQ(s2.counters.at("rt.steps"), 15u);

  // All-zero shard rows are dropped.
  obs::MetricsSample s3 = hub.sample(7, {});
  EXPECT_TRUE(s3.shards.empty());
}

}  // namespace
}  // namespace discs
