#include "consistency/checkers.h"
#include "util/fmt.h"

namespace discs::cons {

CheckResult check_session_guarantees(const History& h) {
  CausalGraph g(h);
  CheckResult result = check_reads_valid(h, g.writers);

  for (auto client : h.clients()) {
    auto order = h.client_order(client);

    // Read-your-writes: a read of X after this client wrote X must not
    // return a value whose writer is causally before that write.
    for (std::size_t a = 0; a < order.size(); ++a) {
      const TxRecord& wtx = h.at(order[a]);
      for (const auto& w : wtx.writes) {
        for (std::size_t b = a + 1; b < order.size(); ++b) {
          const TxRecord& rtx = h.at(order[b]);
          auto seen = rtx.value_read(w.object);
          if (!seen || *seen == w.value) continue;
          auto sw = g.writers.writer_of(*seen);
          if (!sw) continue;
          std::size_t wn = CausalGraph::node_of(order[a]);
          std::size_t sn = g.node_of_writer(*sw);
          bool stale = sw->is_init() || g.before(sn, wn);
          if (stale)
            result.flag("read-your-writes",
                        cat(to_string(client), " wrote ", to_string(w.object),
                            "=", to_string(w.value), " in ",
                            to_string(wtx.id), " but later read stale ",
                            to_string(*seen), " in ", to_string(rtx.id)));
        }
      }
    }

    // Monotonic reads: successive reads of X must not regress along the
    // causality order of their writers.
    for (std::size_t a = 0; a < order.size(); ++a) {
      const TxRecord& t1 = h.at(order[a]);
      for (const auto& r1 : t1.reads) {
        if (!r1.responded) continue;
        auto w1 = g.writers.writer_of(r1.value);
        if (!w1) continue;
        for (std::size_t b = a + 1; b < order.size(); ++b) {
          const TxRecord& t2 = h.at(order[b]);
          auto v2 = t2.value_read(r1.object);
          if (!v2 || *v2 == r1.value) continue;
          auto w2 = g.writers.writer_of(*v2);
          if (!w2) continue;
          std::size_t n1 = g.node_of_writer(*w1);
          std::size_t n2 = g.node_of_writer(*w2);
          if (g.before(n2, n1))
            result.flag("monotonic-reads",
                        cat(to_string(client), " read ", to_string(r1.object),
                            "=", to_string(r1.value), " in ",
                            to_string(t1.id), " then regressed to ",
                            to_string(*v2), " in ", to_string(t2.id)));
        }
      }
    }
  }
  return result;
}

}  // namespace discs::cons
