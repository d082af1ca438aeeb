#include "trace.hh"

#include <chrono>
#include <cstdio>

#include <sys/mman.h>

namespace htmsim::perfbench
{

std::int64_t
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

TraceArena::TraceArena()
{
    const std::size_t event_bytes = eventCapacity * sizeof(EventRecord);
    bytes_ = event_bytes + spanCapacity * sizeof(SpanRecord);
    // Reserved, not committed: pages cost memory only once written.
    void* base = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED)
        return;
    base_ = base;
    events_ = static_cast<EventRecord*>(base);
    spans_ = reinterpret_cast<SpanRecord*>(static_cast<char*>(base) +
                                           event_bytes);
}

TraceArena::~TraceArena()
{
    if (base_ != nullptr)
        ::munmap(base_, bytes_);
}

void
Tracer::onEvent(const htm::TxEvent& event)
{
    const std::int64_t now = hostNs();
    byKind_[std::size_t(event.kind)] += std::uint64_t(now - lastNs_);
    lastNs_ = now;
    if (eventCount_ < TraceArena::eventCapacity && arena_.mapped()) {
        arena_.events()[eventCount_] =
            EventRecord{now,
                        event.cycles,
                        event.tid,
                        event.site,
                        std::uint8_t(event.kind),
                        std::uint8_t(event.cause),
                        {0, 0}};
        ++eventCount_;
    } else {
        ++droppedEvents_;
    }
    if (next_ != nullptr)
        next_->onEvent(event);
}

void
Tracer::onConflict(const htm::TxConflictEvent& event)
{
    if (next_ != nullptr)
        next_->onConflict(event);
}

std::int64_t
Tracer::beginSpan(const char* name, std::int64_t unit)
{
    if (spanCount_ >= TraceArena::spanCapacity || !arena_.mapped()) {
        ++droppedSpans_;
        return -1;
    }
    const std::int64_t index = std::int64_t(spanCount_++);
    arena_.spans()[index] = SpanRecord{hostNs(), 0, name, unit, openSpan_};
    openSpan_ = index;
    return index;
}

void
Tracer::endSpan(std::int64_t index)
{
    if (index < 0)
        return;
    SpanRecord& span = arena_.spans()[index];
    span.endNs = hostNs();
    openSpan_ = span.parent;
}

bool
Tracer::write(const std::string& prefix) const
{
    const std::string span_path = prefix + ".spans.json";
    std::FILE* spans = std::fopen(span_path.c_str(), "w");
    if (spans == nullptr)
        return false;
    const std::int64_t origin =
        spanCount_ == 0 ? 0 : arena_.spans()[0].startNs;
    std::fprintf(spans, "{\"traceEvents\": [");
    for (std::uint64_t i = 0; i < spanCount_; ++i) {
        const SpanRecord& span = arena_.spans()[i];
        std::fprintf(spans,
                     "%s\n {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"span\": %llu, \"parent\": %lld, "
                     "\"unit\": %lld}}",
                     i == 0 ? "" : ",", span.name,
                     double(span.startNs - origin) / 1e3,
                     double(span.endNs - span.startNs) / 1e3,
                     (unsigned long long)i, (long long)span.parent,
                     (long long)span.unit);
    }
    std::fprintf(spans, "\n]}\n");
    const bool spans_ok = std::fclose(spans) == 0;

    const std::string event_path = prefix + ".events.bin";
    std::FILE* events = std::fopen(event_path.c_str(), "wb");
    if (events == nullptr)
        return false;
    const std::size_t written =
        eventCount_ == 0 ? 0
                         : std::fwrite(arena_.events(), sizeof(EventRecord),
                                       eventCount_, events);
    const bool events_ok = std::fclose(events) == 0;
    return spans_ok && events_ok && written == eventCount_;
}

} // namespace htmsim::perfbench
