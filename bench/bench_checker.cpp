// Consistency-checker cost (google-benchmark): causal checking is
// near-linear thanks to the distinct-values assumption (per-client prefix
// counts decide the causality order); serializability search is
// exponential in the worst case but tiny histories dominate in practice.
//
// CI gates the growth of the causal checker as a ratio, which does not
// depend on the machine: BM_CausalCheck/16384 over BM_CausalCheck/1024 must
// stay at or below 64.  A near-linear checker reads about 20 there; one
// that closes a transitive relation, cubic in the history, reads in the
// thousands.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "consistency/checkers.h"
#include "util/rng.h"

using namespace discs;
using cons::check_causal_consistency;
using cons::check_serializability;
using hist::History;
using hist::TxRecord;

namespace {

constexpr std::size_t kMaxCausalTxs = 16384;
constexpr std::size_t kMaxGraphTxs = 4096;

/// A random but CONSISTENT history: per-object last-write bookkeeping
/// yields reads that always have a legal explanation.  Written values are
/// minted above the initial ones, so no write can collide with them.
History random_history(std::size_t txs, std::size_t clients,
                       std::size_t objects, std::uint64_t seed) {
  Rng rng(seed);
  History h;
  std::vector<ValueId> last(objects);
  for (std::size_t o = 0; o < objects; ++o) {
    last[o] = ValueId(1000 + o);
    h.set_initial(ObjectId(o), last[o]);
  }
  std::uint64_t next_value = 1000 + objects;
  for (std::size_t i = 0; i < txs; ++i) {
    TxRecord t;
    t.id = TxId(i + 1);
    t.client = ProcessId(rng.below(clients));
    t.invoked = t.completed = true;
    t.invoke_seq = 2 * i;
    t.complete_seq = 2 * i + 1;
    std::size_t obj = rng.below(objects);
    if (rng.chance(0.4)) {
      ValueId v(next_value++);
      t.writes.push_back({ObjectId(obj), v, true});
      last[obj] = v;
    } else {
      t.reads.push_back({ObjectId(obj), last[obj], true});
      std::size_t obj2 = rng.below(objects);
      if (obj2 != obj) t.reads.push_back({ObjectId(obj2), last[obj2], true});
    }
    h.add(std::move(t));
  }
  return h;
}

/// The shapes benchmarked below: (clients, objects, seed).
struct Shape {
  std::size_t clients, objects;
  std::uint64_t seed;
  std::size_t max_txs;
};
constexpr Shape kCausal{8, 16, 42, kMaxCausalTxs};
constexpr Shape kOracle{2, 8, 46, kMaxCausalTxs};  // rt-oracle's wren run
constexpr Shape kAtomicity{8, 16, 44, kMaxGraphTxs};
constexpr Shape kSessions{8, 16, 45, kMaxGraphTxs};

void BM_CausalCheck(benchmark::State& state) {
  auto h = random_history(static_cast<std::size_t>(state.range(0)),
                          kCausal.clients, kCausal.objects, kCausal.seed);
  for (auto _ : state) {
    auto r = check_causal_consistency(h);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CausalCheck)
    ->RangeMultiplier(2)
    ->Range(16, kMaxCausalTxs)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity();

/// The shape of perfbench's rt-oracle capture: 2 clients, 8 objects.
void BM_CausalCheckOracleShape(benchmark::State& state) {
  auto h = random_history(static_cast<std::size_t>(state.range(0)),
                          kOracle.clients, kOracle.objects, kOracle.seed);
  for (auto _ : state) {
    auto r = check_causal_consistency(h);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CausalCheckOracleShape)
    ->RangeMultiplier(4)
    ->Range(16, kMaxCausalTxs)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity();

void BM_SerializabilityCheck(benchmark::State& state) {
  auto h = random_history(static_cast<std::size_t>(state.range(0)), 4, 8,
                          43);
  for (auto _ : state) {
    auto r = check_serializability(h, 1 << 18);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SerializabilityCheck)->RangeMultiplier(2)->Range(4, 64);

void BM_ReadAtomicityCheck(benchmark::State& state) {
  auto h = random_history(static_cast<std::size_t>(state.range(0)),
                          kAtomicity.clients, kAtomicity.objects,
                          kAtomicity.seed);
  for (auto _ : state) {
    auto r = cons::check_read_atomicity(h);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ReadAtomicityCheck)
    ->RangeMultiplier(4)
    ->Range(16, kMaxGraphTxs)
    ->Unit(benchmark::kMicrosecond);

void BM_SessionCheck(benchmark::State& state) {
  auto h = random_history(static_cast<std::size_t>(state.range(0)),
                          kSessions.clients, kSessions.objects,
                          kSessions.seed);
  for (auto _ : state) {
    auto r = cons::check_session_guarantees(h);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SessionCheck)
    ->RangeMultiplier(4)
    ->Range(16, kMaxGraphTxs)
    ->Unit(benchmark::kMicrosecond);

/// Every family above times a checker on histories that must pass it; a
/// generator that stops producing consistent histories would time the
/// violation paths instead.  Each family's largest history must pass the
/// causal checker, or the bench exits before timing anything.
bool largest_histories_are_consistent() {
  for (const Shape& s : {kCausal, kOracle, kAtomicity, kSessions}) {
    auto r = check_causal_consistency(
        random_history(s.max_txs, s.clients, s.objects, s.seed));
    if (!r.ok()) {
      std::fprintf(stderr,
                   "bench_checker: random_history(%zu txs, %zu clients, %zu "
                   "objects, seed %llu) is not causally consistent:\n%s\n",
                   s.max_txs, s.clients, s.objects,
                   static_cast<unsigned long long>(s.seed),
                   r.summary().substr(0, 2000).c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!largest_histories_are_consistent()) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
