// Snapshot isolation checking, approximated by anomaly detection.
//
// Full SI checking requires searching for an assignment of start and
// commit points; with distinct written values and the causality order as
// the version-order proxy, the three classic anomalies below cover what
// the protocols and workloads in this repository can produce.
#include "consistency/checkers.h"
#include "util/fmt.h"

namespace discs::cons {

CheckResult check_snapshot_isolation(const History& h) {
  // Atomic visibility is necessary for SI.
  CausalGraph g(h);
  CheckResult result = check_read_atomicity(g);

  // Skewed snapshot: transaction T reads X=vx (writer Wx) and Y=vy
  // (writer Wy), but some other transaction T' writes X with
  // Wx <c T' <c Wy — then no single snapshot contains both versions.
  for (std::size_t t = 0; t < h.size(); ++t) {
    const TxRecord& reader = h.at(t);
    for (const auto& rx : reader.reads) {
      if (!rx.responded) continue;
      auto wx = g.writers.writer_of(rx.value);
      if (!wx) continue;
      std::size_t wxn = g.node_of_writer(*wx);
      for (const auto& ry : reader.reads) {
        if (!ry.responded || ry.object == rx.object) continue;
        auto wy = g.writers.writer_of(ry.value);
        if (!wy || wy->is_init()) continue;
        std::size_t wyn = g.node_of_writer(*wy);
        if (!g.may_intervene(wxn, wyn, rx.object)) continue;
        for (std::size_t j = 0; j < h.size(); ++j) {
          std::size_t jn = CausalGraph::node_of(j);
          if (jn == wxn || jn == wyn || jn == CausalGraph::node_of(t))
            continue;
          if (!h.at(j).writes_object(rx.object)) continue;
          if (g.before(wxn, jn) && g.before(jn, wyn)) {
            result.flag(
                "skewed-snapshot",
                cat(reader.describe(), " reads ", to_string(rx.object),
                    " from a version older than, and ",
                    to_string(ry.object),
                    " from a version newer than, the write of ",
                    to_string(h.at(j).id), " — no snapshot contains both"));
          }
        }
      }
    }
  }

  // Lost update: two transactions read the SAME version of X and both
  // overwrite X — under SI the second writer must abort.
  for (std::size_t a = 0; a < h.size(); ++a) {
    const TxRecord& ta = h.at(a);
    for (std::size_t b = a + 1; b < h.size(); ++b) {
      const TxRecord& tb = h.at(b);
      for (const auto& ra : ta.reads) {
        if (!ra.responded) continue;
        if (!ta.writes_object(ra.object) || !tb.writes_object(ra.object))
          continue;
        auto vb = tb.value_read(ra.object);
        if (vb && *vb == ra.value) {
          result.flag("lost-update",
                      cat(ta.describe(), " and ", tb.describe(),
                          " both read ", to_string(ra.value),
                          " and both overwrite ", to_string(ra.object)));
        }
      }
    }
  }
  return result;
}

}  // namespace discs::cons
