#include "consistency/checkers.h"
#include "util/fmt.h"

namespace discs::cons {

CheckResult check_read_atomicity(const History& h) {
  return check_read_atomicity(CausalGraph(h));
}

CheckResult check_read_atomicity(const CausalGraph& g) {
  const History& h = g.history;
  CheckResult result = check_reads_valid(h, g.writers);

  // For every transaction T2: if T2 reads some object from writer A (a real
  // transaction), then for every other object Z that A writes and T2 reads,
  // the value T2 returns for Z must not come from a writer that is causally
  // before A (nor be the initial value) — otherwise T2 observed a fractured
  // slice of A's atomic write set.
  for (std::size_t t2 = 0; t2 < h.size(); ++t2) {
    const TxRecord& reader = h.at(t2);
    for (const auto& ra : reader.reads) {
      if (!ra.responded) continue;
      auto wa = g.writers.writer_of(ra.value);
      if (!wa || wa->is_init()) continue;
      std::size_t a = wa->tx_index;
      if (a == t2) continue;
      std::size_t an = CausalGraph::node_of(a);

      for (const auto& rz : reader.reads) {
        if (!rz.responded || rz.object == ra.object) continue;
        if (!h.at(a).writes_object(rz.object)) continue;
        auto wb = g.writers.writer_of(rz.value);
        if (!wb) continue;
        if (!wb->is_init() && wb->tx_index == a) continue;  // same writer: ok

        bool fractured = false;
        if (wb->is_init()) {
          fractured = true;  // missed A's write entirely
        } else {
          std::size_t bn = CausalGraph::node_of(wb->tx_index);
          if (g.before(bn, an)) fractured = true;
        }
        if (fractured) {
          result.flag(
              "fractured-read",
              cat(reader.describe(), " reads ", to_string(ra.object),
                  " from ", to_string(h.at(a).id), " but reads ",
                  to_string(rz.object), "=", to_string(rz.value),
                  " which predates ", to_string(h.at(a).id),
                  "'s atomic write set"));
        }
      }
    }
  }
  return result;
}

}  // namespace discs::cons
