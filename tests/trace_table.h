// A TraceDoc's message table checked against the records it was built
// from: exactly one entry per distinct message id, in order of first
// appearance, and every reference resolving to the entry
// ExportedMessage::from makes of its message.  Shared by test_obs
// (simulator captures) and test_rt (rt captures, whose records a replay on
// the simulator re-creates).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "obs/trace_io.h"
#include "sim/trace.h"

namespace discs::test {

inline void expect_table_matches(const obs::TraceDoc& doc,
                                 const std::vector<sim::EventRecord>& records,
                                 bool spans) {
  ASSERT_EQ(doc.events.size(), records.size());
  std::set<std::uint64_t> ids;
  for (const auto& m : doc.messages) ids.insert(m.id.value());
  EXPECT_EQ(ids.size(), doc.messages.size()) << "an id has two entries";

  std::uint32_t entries_seen = 0;
  auto expect_ref = [&](std::uint32_t i, const sim::Message& m) {
    ASSERT_LT(i, doc.messages.size());
    // A new entry is the next one: the table is in first-appearance order.
    EXPECT_LE(i, entries_seen);
    if (i == entries_seen) ++entries_seen;
    EXPECT_EQ(doc.messages[i], obs::ExportedMessage::from(m, spans))
        << to_string(m.id);
  };
  for (std::size_t k = 0; k < records.size(); ++k) {
    const obs::ExportedEvent& e = doc.events[k];
    const sim::EventRecord& rec = records[k];
    ASSERT_EQ(e.event, rec.event);
    ASSERT_EQ(e.consumed, rec.consumed.size());
    ASSERT_EQ(e.sent, rec.sent.size());
    ASSERT_LE(e.first + e.consumed + e.sent, doc.refs.size());
    for (std::size_t j = 0; j < rec.consumed.size(); ++j)
      expect_ref(doc.refs[e.first + j], rec.consumed[j]);
    for (std::size_t j = 0; j < rec.sent.size(); ++j)
      expect_ref(doc.refs[e.first + e.consumed + j], rec.sent[j]);
    const bool has_message = rec.event.kind != sim::Event::Kind::kStep &&
                             rec.event.kind != sim::Event::Kind::kCrash &&
                             rec.event.kind != sim::Event::Kind::kRestart;
    ASSERT_EQ(doc.message(e) != nullptr, has_message);
    if (has_message) expect_ref(e.msg, rec.delivered);
  }
  EXPECT_EQ(entries_seen, doc.messages.size()) << "an entry nothing names";
}

}  // namespace discs::test
