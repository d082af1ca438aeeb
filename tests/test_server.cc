/**
 * @file
 * Server subsystem tests: Zipfian generator determinism and skew, the
 * allocation-free latency histogram, the 256-fiber scheduler stress
 * regression (pooled-stack budget + bit-identical reruns), and the
 * KV/OLTP server end-to-end smoke with invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "htm/runtime.hh"
#include "server/kv_store.hh"
#include "server/latency.hh"
#include "server/server.hh"
#include "server/traffic.hh"
#include "server/zipf.hh"
#include "sim/scheduler.hh"
#include "sim/stack_pool.hh"

namespace
{

using namespace htmsim;

// --- Zipfian generator ----------------------------------------------

TEST(Zipf, SameSeedSameSequence)
{
    const server::ZipfianGenerator zipf(1000, 0.9);
    sim::Rng a(42, 7);
    sim::Rng b(42, 7);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(zipf.next(a), zipf.next(b)) << "draw " << i;
}

TEST(Zipf, DifferentStreamsDiverge)
{
    const server::ZipfianGenerator zipf(1000, 0.9);
    sim::Rng a(42, 7);
    sim::Rng b(42, 8);
    unsigned differing = 0;
    for (int i = 0; i < 1000; ++i)
        differing += zipf.next(a) != zipf.next(b) ? 1 : 0;
    EXPECT_GT(differing, 100u);
}

TEST(Zipf, RanksStayInRange)
{
    const server::ZipfianGenerator zipf(100, 0.99);
    sim::Rng rng(3, 1);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(zipf.next(rng), 100u);
}

/** Chi-squared goodness-of-fit of the empirical rank distribution
 *  against the exact Zipfian pmf for the configured theta. Gray's
 *  closed-form inverse CDF is an approximation, so at this sample
 *  size the statistic carries a deterministic bias of a few hundred
 *  on top of the ~99 an exact sampler would score — but a theta off
 *  by just 0.05 scores over 1100, so 700 still separates correct
 *  from wrong skew by a wide margin. */
TEST(Zipf, SkewMatchesTheta)
{
    constexpr std::uint64_t items = 100;
    constexpr double theta = 0.9;
    constexpr std::uint64_t draws = 200000;
    const server::ZipfianGenerator zipf(items, theta);
    sim::Rng rng(11, 1);
    std::vector<std::uint64_t> counts(items, 0);
    for (std::uint64_t i = 0; i < draws; ++i)
        ++counts[zipf.next(rng)];

    double zetan = 0.0;
    for (std::uint64_t i = 1; i <= items; ++i)
        zetan += 1.0 / std::pow(double(i), theta);
    double chi2 = 0.0;
    for (std::uint64_t rank = 0; rank < items; ++rank) {
        const double expected =
            double(draws) / (std::pow(double(rank + 1), theta) * zetan);
        const double diff = double(counts[rank]) - expected;
        chi2 += diff * diff / expected;
    }
    EXPECT_LT(chi2, 700.0);
    // Sanity on the shape itself: the head dominates the tail.
    EXPECT_GT(counts[0], counts[9] * 2);
    EXPECT_GT(counts[0], counts[99] * 20);
}

TEST(Zipf, ScrambleSpreadsHotRanks)
{
    const server::ZipfianGenerator zipf(1024, 0.99);
    // Adjacent hot ranks must land far apart in key space.
    const std::uint64_t k0 = server::ZipfianGenerator::scramble(0) % 1024;
    const std::uint64_t k1 = server::ZipfianGenerator::scramble(1) % 1024;
    EXPECT_NE(k0, k1);
    EXPECT_GT(std::max(k0, k1) - std::min(k0, k1), 1u);
    (void)zipf;
}

// --- Latency histogram ----------------------------------------------

TEST(LatencyHistogram, ExactBelowSubBucketRange)
{
    server::LatencyHistogram hist;
    for (std::uint64_t v = 0; v < 32; ++v)
        hist.record(v);
    EXPECT_EQ(hist.count(), 32u);
    EXPECT_EQ(hist.max(), 31u);
    EXPECT_EQ(hist.percentile(1.0), 31u);
    // Small values are exact: the median of 0..31 is 15/16.
    EXPECT_EQ(hist.percentile(0.5), 15u);
}

TEST(LatencyHistogram, BucketBoundsAreConsistent)
{
    for (std::uint64_t v :
         {0ull, 1ull, 31ull, 32ull, 33ull, 1000ull, 4096ull,
          123456789ull, ~0ull >> 1, ~0ull}) {
        const unsigned bucket =
            server::LatencyHistogram::bucketIndex(v);
        ASSERT_LT(bucket, server::LatencyHistogram::kBuckets);
        EXPECT_GE(server::LatencyHistogram::bucketUpperBound(bucket),
                  v);
        if (bucket + 1 < server::LatencyHistogram::kBuckets) {
            // v must not also fit in the previous bucket's range.
            EXPECT_GT(
                server::LatencyHistogram::bucketIndex(
                    server::LatencyHistogram::bucketUpperBound(bucket) +
                    1),
                bucket);
        }
    }
}

TEST(LatencyHistogram, PercentileIsConservativeAndTight)
{
    server::LatencyHistogram hist;
    for (std::uint64_t i = 0; i < 1000; ++i)
        hist.record(100);
    hist.record(100000);
    // p50 covers the bulk; p999+ must see the outlier.
    EXPECT_GE(hist.percentile(0.5), 100u);
    EXPECT_LE(hist.percentile(0.5), 103u); // <= ~3% quantization
    EXPECT_GE(hist.percentile(0.9995), 100000u);
    EXPECT_EQ(hist.percentile(1.0), 100000u);
}

TEST(LatencyHistogram, MergeMatchesCombinedRecording)
{
    server::LatencyHistogram a;
    server::LatencyHistogram b;
    server::LatencyHistogram combined;
    sim::Rng rng(5, 1);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t value = rng.nextRange(1 << 20);
        if (i % 2 == 0)
            a.record(value);
        else
            b.record(value);
        combined.record(value);
    }
    a += b;
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_EQ(a.max(), combined.max());
    for (double p : {0.5, 0.9, 0.99, 0.999, 1.0})
        EXPECT_EQ(a.percentile(p), combined.percentile(p)) << p;
}

// --- Scheduler stress: 256 fibers ------------------------------------

std::uint64_t
residentBytes()
{
    std::FILE* statm = std::fopen("/proc/self/statm", "r");
    if (statm == nullptr)
        return 0;
    unsigned long long size = 0;
    unsigned long long resident = 0;
    const int fields =
        std::fscanf(statm, "%llu %llu", &size, &resident);
    std::fclose(statm);
    return fields == 2 ? resident * 4096ull : 0;
}

/** One full 256-fiber ping-pong run; returns every fiber's finish
 *  time (pure virtual-time integer arithmetic: the scheduler itself
 *  must be bit-identical across same-process reruns). */
std::vector<std::uint64_t>
pingPongRun(unsigned fibers, unsigned rounds)
{
    sim::Scheduler scheduler(7);
    scheduler.setStackBytes(64 * 1024);
    std::vector<std::uint64_t> finish(fibers, 0);
    for (unsigned f = 0; f < fibers; ++f) {
        scheduler.spawn([&finish, f, rounds](sim::ThreadContext& ctx) {
            for (unsigned round = 0; round < rounds; ++round) {
                // Deterministic, id-dependent advance so fibers
                // interleave rather than march in lockstep.
                ctx.advance(1 + (f + round) % 7);
                ctx.sync();
            }
            finish[f] = ctx.now();
        });
    }
    scheduler.run();
    return finish;
}

TEST(SchedulerStress, RunsHundredsOfFibersWithinStackBudget)
{
    constexpr unsigned kFibers = 256;
    constexpr unsigned kRounds = 200;
    sim::StackPool& pool = sim::StackPool::instance();
    const std::uint64_t committed_before = pool.committedStackBytes();
    const std::uint64_t peak_before = pool.peakCommittedBytes();
    const std::uint64_t rss_before = residentBytes();

    const std::vector<std::uint64_t> first =
        pingPongRun(kFibers, kRounds);

    // Every slot at or above the warm cap was handed back: what stays
    // committed once the scheduler is destroyed is at most the warm
    // slots' stacks (64 KiB each here).
    constexpr std::uint64_t kStack = 64 * 1024;
    EXPECT_LE(pool.committedStackBytes(),
              committed_before + sim::StackPool::warmSlots * kStack);

    // Peak residency stayed within the pooled budget: 256 fibers x
    // 64 KiB stacks, not 256 x the 1 MiB slot stride. The pool's peak
    // is a process-lifetime high-water mark, so bound it by whatever
    // was already peaked plus this run's worst case.
    const std::uint64_t budget = std::uint64_t(kFibers) * kStack;
    EXPECT_LE(pool.peakCommittedBytes(),
              std::max<std::uint64_t>(peak_before,
                                      committed_before + budget));
    const std::uint64_t rss_after = residentBytes();
    if (rss_before != 0 && rss_after > rss_before) {
        EXPECT_LT(rss_after - rss_before, budget + 8 * 1024 * 1024)
            << "resident set grew past the pooled stack budget";
    }

    // Every fiber made progress through all its rounds.
    for (unsigned f = 0; f < kFibers; ++f)
        EXPECT_GE(first[f], kRounds) << "fiber " << f;

    // Bit-identical rerun: scheduling is pure integer virtual-time
    // arithmetic, so a same-process rerun must match exactly.
    const std::vector<std::uint64_t> second =
        pingPongRun(kFibers, kRounds);
    EXPECT_EQ(first, second);
}

// --- Server end-to-end -----------------------------------------------

server::ServerConfig
smallServerConfig(htm::BackendKind backend, unsigned clients)
{
    server::ServerConfig config;
    config.runtime =
        htm::RuntimeConfig(htm::MachineConfig::intelCore());
    config.runtime.backend = backend;
    config.clients = clients;
    config.traffic.numKeys = 256;
    config.traffic.numAccounts = 32;
    config.traffic.opsPerClient = 8;
    config.traffic.meanInterarrivalCycles = 2000;
    config.seed = 3;
    return config;
}

TEST(Server, CompletesEveryRequestAndHoldsInvariants)
{
    for (const htm::BackendKind backend :
         {htm::BackendKind::htm, htm::BackendKind::globalLock,
          htm::BackendKind::idealHtm}) {
        const server::ServerConfig config =
            smallServerConfig(backend, 64);
        const server::ServerResult result =
            server::runServer(config);
        EXPECT_EQ(result.committedOps, 64u * 8u);
        EXPECT_TRUE(result.invariantsOk);
        EXPECT_GT(result.horizonCycles, 0u);
        // The per-section latency stats the runtime now keeps must
        // agree with the benchmark's own histogram.
        EXPECT_EQ(result.stats.sections, result.committedOps);
        EXPECT_GE(result.stats.sectionCyclesMax,
                  result.latency.max());
        std::uint64_t per_op_total = 0;
        for (const auto& hist : result.perOp)
            per_op_total += hist.count();
        EXPECT_EQ(per_op_total, result.committedOps);
    }
}

TEST(Server, RunsAtFullOversubscription)
{
    server::ServerConfig config =
        smallServerConfig(htm::BackendKind::htm, htm::kMaxTxThreads);
    config.traffic.opsPerClient = 4;
    const server::ServerResult result = server::runServer(config);
    EXPECT_EQ(result.committedOps,
              std::uint64_t(htm::kMaxTxThreads) * 4);
    EXPECT_TRUE(result.invariantsOk);
}

TEST(Server, TrafficIsInterleavingIndependent)
{
    // Two generators with the same (seed, client) produce the same
    // request stream regardless of what other streams consumed.
    const server::TrafficConfig traffic;
    const server::ZipfianGenerator keys(traffic.numKeys,
                                        traffic.zipfTheta);
    const server::ZipfianGenerator accounts(traffic.numAccounts,
                                            traffic.zipfTheta);
    server::TrafficGen a(traffic, keys, accounts, 9, 5);
    server::TrafficGen interloper(traffic, keys, accounts, 9, 6);
    server::TrafficGen b(traffic, keys, accounts, 9, 5);
    for (int i = 0; i < 200; ++i) {
        const server::Request ra = a.next();
        (void)interloper.next();
        const server::Request rb = b.next();
        ASSERT_EQ(int(ra.kind), int(rb.kind));
        ASSERT_EQ(ra.key, rb.key);
        ASSERT_EQ(ra.value, rb.value);
        ASSERT_EQ(ra.arrival, rb.arrival);
    }
}

TEST(KvStore, TransfersConserveBalance)
{
    server::KvStore store(64, 16, 500);
    htm::DirectContext direct;
    sim::Rng rng(17, 1);
    for (int i = 0; i < 500; ++i)
        store.transfer(direct, rng.nextRange(16), 1 + i % 4,
                       rng.nextRange(50));
    EXPECT_TRUE(store.balancesConserved());
    EXPECT_TRUE(store.structuresAgree());
}

TEST(KvStore, PutKeepsTableAndIndexInAgreement)
{
    server::KvStore store(128, 8, 100);
    htm::DirectContext direct;
    sim::Rng rng(23, 1);
    for (int i = 0; i < 400; ++i)
        store.put(direct, rng.nextRange(128), rng.nextU64());
    EXPECT_TRUE(store.structuresAgree());
    // Scans see exactly the ordered key range.
    const std::uint64_t folded_a = store.scan(direct, 10, 5);
    const std::uint64_t folded_b = store.scan(direct, 10, 5);
    EXPECT_EQ(folded_a, folded_b);
}

} // namespace
