/**
 * @file
 * The benchmark's traced run: spans around every call it makes into a
 * layer, and a TxObserver that records every lifecycle event with its
 * host timestamp.
 *
 * Simulated results depend on host heap addresses, so the traced
 * process must allocate exactly what the untraced one does. Both map
 * the same TraceArena before any workload input exists (the untraced
 * process never touches its pages), and the Tracer keeps every record
 * in that arena: tracing adds no heap allocation while a workload runs.
 */

#ifndef HTMSIM_PERFBENCH_TRACE_HH
#define HTMSIM_PERFBENCH_TRACE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "htm/observer.hh"

namespace htmsim::perfbench
{

/** Host steady-clock reading in nanoseconds. */
std::int64_t hostNs();

/** One observer event as written to the `.events.bin` file. */
struct EventRecord
{
    std::int64_t hostNs;
    std::uint64_t cycles;
    std::uint16_t tid;
    htm::TxSiteId site;
    std::uint8_t kind;
    std::uint8_t cause;
    std::uint8_t pad[2];
};
static_assert(sizeof(EventRecord) == 24);

/** One span: a call from the benchmark into a layer. */
struct SpanRecord
{
    std::int64_t startNs;
    std::int64_t endNs;
    /** Static label: the layer entry point called. */
    const char* name;
    /** Unit run the call belongs to (or -1). */
    std::int64_t unit;
    /** Index of the enclosing span, or -1. */
    std::int64_t parent;
};

/** Fixed-size record storage, mapped once per process. */
class TraceArena
{
  public:
    static constexpr std::size_t eventCapacity = std::size_t(1) << 22;
    static constexpr std::size_t spanCapacity = std::size_t(1) << 16;

    TraceArena();
    ~TraceArena();
    TraceArena(const TraceArena&) = delete;
    TraceArena& operator=(const TraceArena&) = delete;

    EventRecord* events() const { return events_; }
    SpanRecord* spans() const { return spans_; }
    bool mapped() const { return base_ != nullptr; }

  private:
    void* base_ = nullptr;
    std::size_t bytes_ = 0;
    EventRecord* events_ = nullptr;
    SpanRecord* spans_ = nullptr;
};

/**
 * Span recorder and event observer of the traced run. Events are also
 * charged to host-time buckets: the host time between two consecutive
 * events goes to the kind of the event that closes the interval.
 */
class Tracer final : public htm::TxObserver
{
  public:
    static constexpr std::size_t numKinds = 7;

    explicit Tracer(TraceArena& arena) : arena_(arena) {}

    /** Observer that also receives every event (txprof), or nullptr. */
    void forwardTo(htm::TxObserver* next) { next_ = next; }

    void onEvent(const htm::TxEvent& event) override;
    void onConflict(const htm::TxConflictEvent& event) override;

    /** Open a span inside the innermost open one; @return its index
     *  for endSpan(). */
    std::int64_t beginSpan(const char* name, std::int64_t unit);
    void endSpan(std::int64_t index);

    /** Start a fresh attribution interval (at each unit run). */
    void restartInterval() { lastNs_ = hostNs(); }

    /** Host ns charged to events of @p kind. */
    std::uint64_t hostNsTo(htm::TxEventKind kind) const
    {
        return byKind_[std::size_t(kind)];
    }

    std::uint64_t events() const { return eventCount_; }
    std::uint64_t droppedEvents() const { return droppedEvents_; }
    std::uint64_t spans() const { return spanCount_; }
    std::uint64_t droppedSpans() const { return droppedSpans_; }

    /**
     * Write `<prefix>.spans.json` (Chrome trace format) and
     * `<prefix>.events.bin` (raw EventRecords). @return success.
     */
    bool write(const std::string& prefix) const;

  private:
    TraceArena& arena_;
    htm::TxObserver* next_ = nullptr;
    std::int64_t lastNs_ = 0;
    std::int64_t openSpan_ = -1;
    std::array<std::uint64_t, numKinds> byKind_{};
    std::uint64_t eventCount_ = 0;
    std::uint64_t droppedEvents_ = 0;
    std::uint64_t spanCount_ = 0;
    std::uint64_t droppedSpans_ = 0;
};

/** RAII span; a no-op without a tracer (the untraced run). */
class Span
{
  public:
    Span(Tracer* tracer, const char* name, std::int64_t unit = -1)
        : tracer_(tracer),
          index_(tracer != nullptr ? tracer->beginSpan(name, unit) : -1)
    {
    }
    ~Span()
    {
        if (tracer_ != nullptr)
            tracer_->endSpan(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    Tracer* tracer_;
    std::int64_t index_;
};

} // namespace htmsim::perfbench

#endif // HTMSIM_PERFBENCH_TRACE_HH
