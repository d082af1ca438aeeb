#include "server.hh"

#include <cassert>
#include <vector>

#include "htm/site.hh"
#include "htm/tx.hh"
#include "kv_store.hh"
#include "sim/region.hh"
#include "sim/scheduler.hh"
#include "tmsync/atomic_shared_mutex.hh"
#include "tmsync/guard.hh"

namespace htmsim::server
{

namespace
{

/** Per-client fiber stack bytes (server ops are shallow). */
constexpr std::size_t clientStackBytes = 64 * 1024;

/** One static txprof site per operation kind, so cycle attribution
 *  can explain which op class owns the tail. */
htm::TxSiteId
siteOf(OpKind kind)
{
    static const htm::TxSiteId sites[numOpKinds] = {
        htm::txSite("server.get"),      htm::txSite("server.put"),
        htm::txSite("server.rmw"),      htm::txSite("server.transfer"),
        htm::txSite("server.scan"),
    };
    return sites[std::size_t(kind)];
}

} // namespace

const char*
indexLockModeName(IndexLockMode mode)
{
    switch (mode) {
      case IndexLockMode::none: return "none";
      case IndexLockMode::elided: return "elided";
      case IndexLockMode::tatas: return "tatas";
    }
    return "?";
}

bool
parseIndexLockMode(const std::string& name, IndexLockMode& out)
{
    if (name == "none") {
        out = IndexLockMode::none;
    } else if (name == "elided") {
        out = IndexLockMode::elided;
    } else if (name == "tatas") {
        out = IndexLockMode::tatas;
    } else {
        return false;
    }
    return true;
}

ServerResult
runServer(const ServerConfig& config)
{
    assert(config.clients >= 1 &&
           config.clients <= htm::kMaxTxThreads);

    // Shared state and generators are built untimed; the store lives
    // in the run's region.
    sim::RunScope run;
    const auto store = sim::make<KvStore>(config.traffic.numKeys,
                                          config.traffic.numAccounts,
                                          config.traffic.initialBalance);
    const ZipfianGenerator key_dist(config.traffic.numKeys,
                                    config.traffic.zipfTheta);
    const ZipfianGenerator account_dist(config.traffic.numAccounts,
                                        config.traffic.zipfTheta);

    sim::Scheduler scheduler(config.seed);
    scheduler.setBatching(config.runtime.batchEpoch);
    scheduler.setStackBytes(clientStackBytes);
    htm::Runtime runtime(config.runtime, config.clients);
    if (config.observer != nullptr)
        runtime.setObserver(config.observer);

    ServerResult result;
    std::vector<std::uint64_t> finish_times(config.clients, 0);

    // Ordered-index guard (IndexLockMode in server.hh). With
    // indexLock == none, ops stay on the runtime.atomic path below and
    // the word is never read.
    const auto index_lock = sim::make<tmsync::atomic_shared_mutex>();
    const bool guard_index = config.indexLock != IndexLockMode::none;
    const tmsync::SyncMode index_mode =
        config.indexLock == IndexLockMode::elided ?
            tmsync::SyncMode::elided :
            tmsync::SyncMode::tatas;

    for (unsigned client = 0; client < config.clients; ++client) {
        scheduler.spawn([&, client](sim::ThreadContext& ctx) {
            ctx.setTimeScale(config.runtime.machine.threadTimeScale(
                ctx.id(), config.clients));
            TrafficGen traffic(config.traffic, key_dist, account_dist,
                               config.seed, client);
            for (unsigned op = 0; op < config.traffic.opsPerClient;
                 ++op) {
                const Request request = traffic.next();
                // Open loop: wait for the scheduled arrival; if the
                // previous request overran, start late (queueing
                // delay), never early.
                if (ctx.now() < request.arrival) {
                    ctx.advance(request.arrival - ctx.now());
                    ctx.sync();
                }
                const std::uint64_t submit = ctx.now();
                std::uint64_t folded = 0;
                const auto body = [&](htm::Tx& tx) {
                    switch (request.kind) {
                    case OpKind::get:
                        folded = store->get(tx, request.key);
                        break;
                    case OpKind::put:
                        folded = store->put(tx, request.key,
                                            request.value);
                        break;
                    case OpKind::rmw:
                        folded = store->rmw(tx, request.key,
                                            request.value);
                        break;
                    case OpKind::transfer:
                        folded = store->transfer(
                            tx, request.key,
                            config.traffic.transferSpan,
                            request.value);
                        break;
                    case OpKind::scan:
                        folded = store->scan(tx, request.key,
                                             config.traffic.scanLen);
                        break;
                    }
                };
                // Index-touching ops go through the guard executor
                // instead of nesting a guard inside runtime.atomic
                // (tmsync rejects nesting): scans take the lock
                // shared, index-mutating put/rmw take it exclusive.
                if (guard_index && request.kind == OpKind::scan) {
                    tmsync::transactional_shared_lock_guard guard(
                        runtime, ctx, *index_lock,
                        siteOf(request.kind), index_mode, body);
                    ++result.indexGuardSections;
                    result.indexGuardElided +=
                        guard.elided() ? 1 : 0;
                } else if (guard_index &&
                           (request.kind == OpKind::put ||
                            request.kind == OpKind::rmw)) {
                    tmsync::transactional_lock_guard guard(
                        runtime, ctx, *index_lock,
                        siteOf(request.kind), index_mode, body);
                    ++result.indexGuardSections;
                    result.indexGuardElided +=
                        guard.elided() ? 1 : 0;
                } else {
                    runtime.atomic(ctx, siteOf(request.kind), body);
                }
                // The fold ties the op's loads into live data so the
                // compiler cannot hoist or elide the body.
                (void)folded;
                const std::uint64_t latency = ctx.now() - submit;
                result.latency.record(latency);
                result.perOp[std::size_t(request.kind)].record(
                    latency);
                result.queueDelay.record(submit - request.arrival);
            }
            finish_times[client] = ctx.now();
        });
    }
    scheduler.run();

    for (const std::uint64_t finish : finish_times)
        result.horizonCycles =
            finish > result.horizonCycles ? finish :
                                            result.horizonCycles;
    result.committedOps = result.latency.count();
    result.stats = runtime.stats();
    result.invariantsOk =
        store->balancesConserved() && store->structuresAgree();
    return result;
}

} // namespace htmsim::server
