#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/parallel_engine.hh"

namespace mcube
{

void
EventQueue::parScheduleLane(unsigned lane, Tick when, EventFn fn)
{
    par->scheduleLane(lane, when, std::move(fn));
}

void
EventQueue::parScheduleToLane(unsigned lane, Tick delay, EventFn fn)
{
    Tick when = par->ctxNow() + delay;
    // Inside a phase, a foreign lane may already have run past `when`
    // within the current window; the earliest tick guaranteed to be in
    // every lane's future is the next window boundary. Same-lane
    // schedules are always monotonic, and coordinator-context
    // schedules (between windows) are at or after the last window end,
    // so both keep their exact tick.
    const unsigned ctx = par->ctxLane();
    if (ctx != UINT32_MAX && ctx != lane) {
        const Tick safe = par->ctxNow() + par->window();
        if (when < safe)
            when = safe;
    }
    par->scheduleLane(lane, when, std::move(fn));
}

Tick
EventQueue::parNow() const
{
    return par->ctxNow();
}

bool
EventQueue::parEmpty() const
{
    return par->empty();
}

bool
EventQueue::empty() const
{
    return heap.empty() && (!par || parEmpty());
}

std::uint64_t
EventQueue::eventsExecuted() const
{
    return statExecuted.value() + (par ? par->eventsExecuted() : 0);
}

bool
EventQueue::foreignLane(unsigned lane) const
{
    if (!par)
        return false;
    const unsigned ctx = par->ctxLane();
    return ctx != UINT32_MAX && ctx != lane;
}

void
EventQueue::deferToLane(unsigned lane, EventFn fn)
{
    if (!par) {
        fn();
        return;
    }
    par->deferCall(lane, std::move(fn));
}

void
EventHeap::siftUp(std::size_t i)
{
    Key k = keys[i];
    while (i > 0) {
        std::size_t parent = (i - 1) >> 2;
        if (!before(k, keys[parent]))
            break;
        keys[i] = keys[parent];
        i = parent;
    }
    keys[i] = k;
}

void
EventHeap::siftDown(std::size_t i)
{
    const std::size_t n = keys.size();
    Key k = keys[i];
    for (;;) {
        std::size_t child = 4 * i + 1;
        if (child >= n)
            break;
        std::size_t best = child;
        std::size_t last = std::min(child + 4, n);
        for (std::size_t j = child + 1; j < last; ++j)
            if (before(keys[j], keys[best]))
                best = j;
        if (!before(keys[best], k))
            break;
        keys[i] = keys[best];
        i = best;
    }
    keys[i] = k;
}

void
EventHeap::popTop()
{
    keys.front() = keys.back();
    keys.pop_back();
    if (!keys.empty())
        siftDown(0);
}

std::uint64_t
EventQueue::run(std::uint64_t limit)
{
    return runUntil(maxTick, limit);
}

std::uint64_t
EventQueue::runUntil(Tick end, std::uint64_t limit)
{
    if (par) {
        const std::uint64_t n = par->runUntil(end, limit);
        _now = std::max(_now, par->now());
        return n;
    }
    std::uint64_t count = 0;
    while (count < limit && !heap.empty() && heap.nextWhen() <= end) {
        heap.dispatch([this](Tick when) { _now = when; });
        ++count;
        ++statExecuted;
    }
    if (end != maxTick && _now < end
        && (heap.empty() || heap.nextWhen() > end))
        _now = end;
    return count;
}

} // namespace mcube
