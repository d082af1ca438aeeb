#include "scenarios.hh"

#include <algorithm>
#include <array>
#include <cassert>
#include <memory>
#include <vector>

#include "htm/site.hh"
#include "htm/tx.hh"
#include "sim/random.hh"
#include "sim/region.hh"
#include "sim/scheduler.hh"
#include "tmsync/atomic_condition_variable.hh"
#include "tmsync/atomic_mutex.hh"
#include "tmsync/atomic_shared_mutex.hh"
#include "tmsync/guard.hh"

namespace htmsim::tmsync
{

namespace
{

std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    std::uint64_t state =
        h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    state ^= state >> 30;
    state *= 0xbf58476d1ce4e5b9ULL;
    state ^= state >> 27;
    return state ^ (state >> 31);
}

/** Per-fiber tallies, aggregated after the run. */
struct FiberCounters
{
    std::uint64_t sections = 0;
    std::uint64_t elided = 0;
    std::uint64_t finish = 0;
};

/** Common driver: spawn config.threads fibers running @p op(tid, ctx,
 *  counters), with SMT-honest time scales. */
template <typename PerOp>
void
drive(const ScenarioConfig& config, unsigned threads,
      std::vector<FiberCounters>& counters, PerOp&& per_op)
{
    sim::Scheduler scheduler(config.seed);
    scheduler.setBatching(config.runtime.batchEpoch);
    for (unsigned tid = 0; tid < threads; ++tid) {
        scheduler.spawn([&, tid](sim::ThreadContext& ctx) {
            ctx.setTimeScale(config.runtime.machine.threadTimeScale(
                ctx.id(), threads));
            for (unsigned op = 0; op < config.opsPerThread; ++op)
                per_op(tid, op, ctx, counters[tid]);
            counters[tid].finish = ctx.now();
        });
    }
    scheduler.run();
}

void
tally(const transactional_lock_guard& guard, FiberCounters& counters)
{
    ++counters.sections;
    counters.elided += guard.elided() ? 1 : 0;
}

void
tally(const transactional_shared_lock_guard& guard,
      FiberCounters& counters)
{
    ++counters.sections;
    counters.elided += guard.elided() ? 1 : 0;
}

// --- reader_heavy / shared_scan -------------------------------------
// One atomic_shared_mutex over an array of cells; readers fold a
// window of cells, writers bump one cell plus a generation counter.

struct SharedArrayState
{
    atomic_shared_mutex rw;
    std::array<std::uint64_t, 256> cells{};
    std::uint64_t generation = 0;
};

ScenarioResult
runSharedArray(const ScenarioConfig& config, htm::Runtime& runtime,
               unsigned read_span, unsigned read_permille,
               htm::TxSiteId read_site, htm::TxSiteId write_site)
{
    auto state = sim::make<SharedArrayState>();
    std::vector<FiberCounters> counters(config.threads);
    std::vector<sim::Rng> rngs;
    rngs.reserve(config.threads);
    for (unsigned tid = 0; tid < config.threads; ++tid)
        rngs.emplace_back(config.seed, tid + 1);

    drive(config, config.threads, counters,
          [&](unsigned tid, unsigned, sim::ThreadContext& ctx,
              FiberCounters& mine) {
              sim::Rng& rng = rngs[tid];
              const bool read = rng.nextRange(1000) <
                                std::uint64_t(read_permille);
              const unsigned slot =
                  unsigned(rng.nextRange(state->cells.size()));
              const std::uint64_t value = rng.nextU64();
              if (read) {
                  transactional_shared_lock_guard guard(
                      runtime, ctx, state->rw, read_site, config.mode,
                      [&](htm::Tx& tx) {
                          // Readers deliberately skip the generation
                          // word: subscribing it would make every
                          // writer commit doom every in-flight elided
                          // reader. Footprint overlap with writers
                          // comes from the cell window alone.
                          std::uint64_t sum = 0;
                          for (unsigned i = 0; i < read_span; ++i) {
                              const unsigned at =
                                  (slot + i) % state->cells.size();
                              sum = fold(sum,
                                         tx.load(&state->cells[at]));
                          }
                          (void) sum;
                      });
                  tally(guard, mine);
              } else {
                  transactional_lock_guard guard(
                      runtime, ctx, state->rw, write_site, config.mode,
                      [&](htm::Tx& tx) {
                          tx.store(&state->cells[slot],
                                   tx.load(&state->cells[slot]) +
                                       value);
                          tx.store(&state->generation,
                                   tx.load(&state->generation) + 1);
                      });
                  tally(guard, mine);
              }
          });

    ScenarioResult result;
    for (const FiberCounters& mine : counters) {
        result.sections += mine.sections;
        result.elidedSections += mine.elided;
        result.horizonCycles =
            std::max(result.horizonCycles, mine.finish);
    }
    result.checksum = state->generation;
    for (const std::uint64_t cell : state->cells)
        result.checksum = fold(result.checksum, cell);
    return result;
}

// --- lock_convoy / mixed_waiters ------------------------------------

struct MutexState
{
    atomic_mutex mutex;
    std::uint64_t counter = 0;
    std::array<std::uint64_t, 8> slots{};
};

ScenarioResult
runMutexHammer(const ScenarioConfig& config, htm::Runtime& runtime,
               bool mixed, htm::TxSiteId site)
{
    auto state = sim::make<MutexState>();
    std::vector<FiberCounters> counters(config.threads);
    std::vector<sim::Rng> rngs;
    rngs.reserve(config.threads);
    for (unsigned tid = 0; tid < config.threads; ++tid)
        rngs.emplace_back(config.seed, tid + 1);

    drive(config, config.threads, counters,
          [&](unsigned tid, unsigned, sim::ThreadContext& ctx,
              FiberCounters& mine) {
              sim::Rng& rng = rngs[tid];
              // Jittered think time between sections. Without it the
              // hammer is degenerate in exact virtual time: the
              // releasing thread's next CAS completes casCost after
              // its release store, and no waiter's probe can precede
              // the release, so the holder re-wins every window and
              // monopolizes the lock until it exhausts its ops — the
              // liveness oracle flags the waiters as starving. A gap
              // wider than the (jittered) probe period guarantees
              // some waiter lands a probe inside it.
              ctx.step(60 + rng.nextRange(80));
              // mixed_waiters: odd threads refuse to speculate, so
              // their acquisitions doom every elided subscriber. Only
              // meaningful in the elided arm; the tatas/global arms
              // keep every thread on the same path.
              SyncMode mode = config.mode;
              if (mixed && mode == SyncMode::elided && (tid & 1) != 0)
                  mode = SyncMode::tatas;
              const unsigned slot =
                  unsigned(rng.nextRange(state->slots.size()));
              const std::uint64_t value = rng.nextU64();
              transactional_lock_guard guard(
                  runtime, ctx, state->mutex, site, mode,
                  [&](htm::Tx& tx) {
                      tx.store(&state->counter,
                               tx.load(&state->counter) + 1);
                      tx.store(&state->slots[slot],
                               tx.load(&state->slots[slot]) + value);
                  });
              tally(guard, mine);
          });

    ScenarioResult result;
    for (const FiberCounters& mine : counters) {
        result.sections += mine.sections;
        result.elidedSections += mine.elided;
        result.horizonCycles =
            std::max(result.horizonCycles, mine.finish);
    }
    result.checksum = state->counter;
    for (const std::uint64_t slot : state->slots)
        result.checksum = fold(result.checksum, slot);
    return result;
}

// --- ping_pong ------------------------------------------------------
// Thread pairs alternate a turn counter under one mutex + condvar.
// Both the wait and the notify force the guard's fallback path, so
// elision never helps here — by design (see scenarios.hh).

struct PairState
{
    atomic_mutex mutex;
    atomic_condition_variable turnFlipped;
    std::uint64_t turn = 0;
};

ScenarioResult
runPingPong(const ScenarioConfig& config, htm::Runtime& runtime,
            unsigned threads, htm::TxSiteId site)
{
    const unsigned pairs = threads / 2;
    std::vector<sim::Ptr<PairState>> states;
    states.reserve(pairs);
    for (unsigned pair = 0; pair < pairs; ++pair)
        states.push_back(sim::make<PairState>());
    std::vector<FiberCounters> counters(threads);

    drive(config, threads, counters,
          [&](unsigned tid, unsigned, sim::ThreadContext& ctx,
              FiberCounters& mine) {
              PairState& state = *states[tid / 2];
              const std::uint64_t role = tid & 1;
              transactional_lock_guard guard(
                  runtime, ctx, state.mutex, site, config.mode,
                  [&](htm::Tx& tx) {
                      while (tx.load(&state.turn) % 2 != role) {
                          state.turnFlipped.wait(runtime, ctx, tx,
                                                 state.mutex);
                      }
                      tx.store(&state.turn,
                               tx.load(&state.turn) + 1);
                      state.turnFlipped.notify_one(runtime, ctx, tx);
                  });
              tally(guard, mine);
          });

    ScenarioResult result;
    for (const FiberCounters& mine : counters) {
        result.sections += mine.sections;
        result.elidedSections += mine.elided;
        result.horizonCycles =
            std::max(result.horizonCycles, mine.finish);
    }
    for (const auto& state : states)
        result.checksum = fold(result.checksum, state->turn);
    return result;
}

} // namespace

const Scenario*
allScenarios()
{
    static const Scenario scenarios[numScenarios] = {
        Scenario::readerHeavy, Scenario::lockConvoy,
        Scenario::mixedWaiters, Scenario::sharedScan,
        Scenario::pingPong,
    };
    return scenarios;
}

const char*
scenarioName(Scenario scenario)
{
    switch (scenario) {
      case Scenario::readerHeavy: return "reader_heavy";
      case Scenario::lockConvoy: return "lock_convoy";
      case Scenario::mixedWaiters: return "mixed_waiters";
      case Scenario::sharedScan: return "shared_scan";
      case Scenario::pingPong: return "ping_pong";
    }
    return "?";
}

bool
parseScenario(const std::string& name, Scenario& out)
{
    for (unsigned i = 0; i < numScenarios; ++i) {
        if (name == scenarioName(allScenarios()[i])) {
            out = allScenarios()[i];
            return true;
        }
    }
    return false;
}

bool
scenarioSupportsMode(Scenario scenario, SyncMode mode)
{
    return !(scenario == Scenario::pingPong &&
             mode == SyncMode::globalLock);
}

ScenarioResult
runScenario(const ScenarioConfig& config)
{
    assert(config.threads >= 2 &&
           config.threads <= htm::kMaxTxThreads);
    assert(scenarioSupportsMode(config.scenario, config.mode));

    const unsigned threads = config.scenario == Scenario::pingPong ?
                                 config.threads & ~1u :
                                 config.threads;
    sim::RunScope run;
    htm::Runtime runtime(config.runtime, threads);
    if (config.observer != nullptr)
        runtime.setObserver(config.observer);

    ScenarioResult result;
    switch (config.scenario) {
      case Scenario::readerHeavy:
        result = runSharedArray(
            config, runtime, /*read_span=*/16, /*read_permille=*/900,
            htm::txSite("tmsync.readerHeavy.read"),
            htm::txSite("tmsync.readerHeavy.write"));
        break;
      case Scenario::sharedScan:
        result = runSharedArray(
            config, runtime, /*read_span=*/192, /*read_permille=*/950,
            htm::txSite("tmsync.sharedScan.read"),
            htm::txSite("tmsync.sharedScan.write"));
        break;
      case Scenario::lockConvoy:
        result = runMutexHammer(config, runtime, /*mixed=*/false,
                                htm::txSite("tmsync.lockConvoy"));
        break;
      case Scenario::mixedWaiters:
        result = runMutexHammer(config, runtime, /*mixed=*/true,
                                htm::txSite("tmsync.mixedWaiters"));
        break;
      case Scenario::pingPong:
        result = runPingPong(config, runtime, threads,
                             htm::txSite("tmsync.pingPong"));
        break;
    }
    result.stats = runtime.stats();
    return result;
}

} // namespace htmsim::tmsync
