#include "concurrent_queue.hh"

#include "sim/region.hh"

namespace htmsim::clq
{

using htm::AbortCause;
using htm::Runtime;
using htm::Tx;
using sim::ThreadContext;

namespace
{

/** Attempt budget of the transactional queue modes (Section 6.1). */
int
tmAttempts(QueueMode mode, int retries)
{
    return mode == QueueMode::noRetryTm ? 1 : retries;
}

} // namespace

ConcurrentQueue::ConcurrentQueue()
{
    Node* dummy = makeNode(0);
    head_ = dummy;
    tail_ = dummy;
}

ConcurrentQueue::~ConcurrentQueue()
{
    for (Node* node : registry_)
        sim::regionFree(node, sizeof(Node));
}

ConcurrentQueue::Node*
ConcurrentQueue::makeNode(std::uint64_t value)
{
    auto* node = static_cast<Node*>(sim::regionAlloc(sizeof(Node)));
    node->value = value;
    node->next = nullptr;
    registry_.push_back(node);
    return node;
}

std::size_t
ConcurrentQueue::sizeHost() const
{
    std::size_t count = 0;
    for (const Node* node = head_->next; node != nullptr;
         node = node->next) {
        ++count;
    }
    return count;
}

void
ConcurrentQueue::enqueueLockFree(Runtime& runtime, ThreadContext& ctx,
                                 Node* node)
{
    for (;;) {
        Node* tail = runtime.nonTxLoad(ctx, &tail_);
        Node* next = runtime.nonTxLoad(ctx, &tail->next);
        ctx.advance(lockFreePathWork);
        if (tail != runtime.nonTxLoad(ctx, &tail_))
            continue; // inconsistent snapshot
        if (next == nullptr) {
            if (runtime.nonTxCas(ctx, &tail->next,
                                 static_cast<Node*>(nullptr), node)) {
                runtime.nonTxCas(ctx, &tail_, tail, node);
                return;
            }
        } else {
            // Help a lagging tail forward.
            runtime.nonTxCas(ctx, &tail_, tail, next);
        }
    }
}

bool
ConcurrentQueue::dequeueLockFree(Runtime& runtime, ThreadContext& ctx,
                                 std::uint64_t* out)
{
    for (;;) {
        Node* head = runtime.nonTxLoad(ctx, &head_);
        Node* tail = runtime.nonTxLoad(ctx, &tail_);
        Node* next = runtime.nonTxLoad(ctx, &head->next);
        ctx.advance(lockFreePathWork);
        if (head != runtime.nonTxLoad(ctx, &head_))
            continue;
        if (head == tail) {
            if (next == nullptr)
                return false;
            runtime.nonTxCas(ctx, &tail_, tail, next);
            continue;
        }
        const std::uint64_t value = runtime.nonTxLoad(ctx, &next->value);
        if (runtime.nonTxCas(ctx, &head_, head, next)) {
            if (out != nullptr)
                *out = value;
            return true;
        }
    }
}

void
ConcurrentQueue::enqueue(Runtime& runtime, ThreadContext& ctx,
                         std::uint64_t value, QueueMode mode,
                         int retries)
{
    Node* node = makeNode(value);

    if (mode == QueueMode::lockFree) {
        enqueueLockFree(runtime, ctx, node);
        return;
    }

    if (mode == QueueMode::constrainedTm) {
        static const htm::TxSiteId constrainedSite =
            htm::txSite("clq.enqueue.constrained");
        bool fast_path = false;
        runtime.constrainedAtomic(ctx, constrainedSite, [&](Tx& tx) {
            tx.work(tmPathWork);
            fast_path = enqueueBody(tx, node);
        });
        if (!fast_path)
            enqueueLockFree(runtime, ctx, node);
        return;
    }

    // NoRetryTM and OptRetryTM are the same path with different
    // attempt budgets (BoundedRetryPolicy(1) == NoRetryPolicy); the
    // lock-free queue is the fallback instead of the global lock.
    static const htm::TxSiteId tmSite = htm::txSite("clq.enqueue.tm");
    htm::BoundedRetryPolicy policy(tmAttempts(mode, retries));
    bool fast_path = false;
    const AbortCause cause =
        runtime.tryAtomic(ctx, policy, tmSite, [&](Tx& tx) {
            fast_path = false;
            tx.work(tmPathWork);
            fast_path = enqueueBody(tx, node);
        });
    if (cause != AbortCause::none || !fast_path)
        enqueueLockFree(runtime, ctx, node);
}

bool
ConcurrentQueue::dequeue(Runtime& runtime, ThreadContext& ctx,
                         std::uint64_t* out, QueueMode mode,
                         int retries)
{
    if (mode == QueueMode::lockFree)
        return dequeueLockFree(runtime, ctx, out);

    if (mode == QueueMode::constrainedTm) {
        static const htm::TxSiteId constrainedSite =
            htm::txSite("clq.dequeue.constrained");
        bool empty = false;
        std::uint64_t value = 0;
        runtime.constrainedAtomic(ctx, constrainedSite, [&](Tx& tx) {
            empty = false;
            tx.work(tmPathWork);
            dequeueBody(tx, &empty, &value);
        });
        if (empty)
            return false;
        if (out != nullptr)
            *out = value;
        return true;
    }

    static const htm::TxSiteId tmSite = htm::txSite("clq.dequeue.tm");
    htm::BoundedRetryPolicy policy(tmAttempts(mode, retries));
    bool empty = false;
    std::uint64_t value = 0;
    const AbortCause cause =
        runtime.tryAtomic(ctx, policy, tmSite, [&](Tx& tx) {
            empty = false;
            tx.work(tmPathWork);
            dequeueBody(tx, &empty, &value);
        });
    if (cause != AbortCause::none)
        return dequeueLockFree(runtime, ctx, out);
    if (empty)
        return false;
    if (out != nullptr)
        *out = value;
    return true;
}

} // namespace htmsim::clq
