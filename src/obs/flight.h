// Flight recorder — the tail context of a run that went wrong.
//
// A flight dump is a bounded window of the most recent events, compact
// enough to record unconditionally (no payload bodies, just identities and
// kinds) and small enough to attach to a chaos counterexample or write from
// a crashing process.  Three producers share this vocabulary:
//
//   - the rt engine keeps one obs::Ring<FlightEvent> per engine thread, fed
//     flight_from of every record in each step's batch, and reports their
//     merged tails in RunReport::flight (rt::Options::flight_capacity);
//   - chaos::run_once snapshots the simulator trace tail when a checker
//     reports a violation, so every shrunk discs.chaosrepro.v1 spec carries
//     the last events before the failure (`flight` field, optional — specs
//     written before this field parse unchanged);
//   - chaos_lab writes standalone discs.flight.v1 dumps next to its repro
//     plans, which CI uploads on failure.
//
// Serialization is deterministic JSON (obs/json.h), schema-stable like every
// other discs artifact: docs/OBSERVABILITY.md documents the format.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "sim/trace.h"

namespace discs::obs {

inline constexpr std::string_view kFlightSchema = "discs.flight.v1";

/// One remembered event: identities only, no payload bodies — cheap enough
/// to record on every event even with trace capture off.
struct FlightEvent {
  std::uint64_t seq = 0;
  std::string kind;  ///< "step","deliver","drop","dup","retransmit","crash","restart"
  /// kind=="step"/"crash"/"restart": the process; message kinds: the dst.
  std::uint64_t process = 0;
  // Message identity, meaningful for message kinds only.
  std::uint64_t msg_id = 0;
  std::uint64_t src = 0;
  std::string payload;  ///< Payload::kind()
  // Step shape, meaningful for kind=="step" only.
  std::uint64_t consumed = 0;
  std::uint64_t sent = 0;

  friend bool operator==(const FlightEvent&, const FlightEvent&) = default;
};

/// Compacts one trace record.
FlightEvent flight_from(const sim::EventRecord& rec);

/// The last `capacity` records of `records`, compacted — what a ring would
/// have retained.  The single-threaded producers (chaos over the simulator
/// trace) use this instead of maintaining a live ring.
std::vector<FlightEvent> flight_tail(std::span<const sim::EventRecord> records,
                                     std::size_t capacity);

Json flight_event_json(const FlightEvent& e);
FlightEvent flight_event_from_json(const Json& j);

/// Standalone dump artifact: header line (schema + reason), then one line
/// per event, oldest first.
std::string export_flight_jsonl(std::span<const FlightEvent> events,
                                std::string_view reason);

}  // namespace discs::obs
