/**
 * @file
 * The simulator's one event core and the deterministic queue built on
 * it.
 *
 * Events are arbitrary callables scheduled at an absolute tick. Events
 * scheduled for the same tick fire in scheduling order (a monotonic
 * sequence number breaks ties), which keeps simulations reproducible.
 *
 * EventHeap is the kernel. Both engines use it: EventQueue holds one
 * for the sequential engine, and every lane of the parallel engine
 * (sim/parallel_engine.hh) holds one. It is the hottest structure in
 * the simulator, so it avoids the two classic costs of the obvious
 * implementation:
 *
 *  - callables are stored in a small-buffer EventFn instead of a
 *    std::function, so the typical capture ([this, op]) never touches
 *    the heap; oversized callables transparently fall back to one
 *    allocation;
 *  - the priority queue is a 4-ary implicit heap over 24-byte
 *    (when, seq, slot) keys, with the callables parked in a stable,
 *    free-listed slab. Sift operations move only the small keys, never
 *    the callables.
 *
 * EventHeap::dispatch is the one dispatch step (pop, free the slot,
 * profiler hooks, invoke) that both engines' run loops call.
 *
 * The heap holds no policy; its owners keep their rules. Scheduling an
 * event in the past is a caller bug: sequentially it asserts in debug
 * builds and, in release builds, is clamped to now() and counted in
 * the `sched_past_tick` statistic so the condition stays observable.
 * Under the parallel engine the clamp would silently mask a
 * cross-shard causality violation, so a past tick is a hard error
 * (abort) there, in every build mode.
 *
 * The queue can optionally route through a ParallelEngine: when a
 * MulticubeSystem is built with simThreads > 0 the queue's schedules
 * are sharded into per-bus-domain lanes and executed window-by-window
 * on a worker pool. Callers keep using the same
 * schedule()/run()/runUntil() surface; bus code uses scheduleInLane()
 * to pin its internal events to its lane, and everything else lands on
 * the serial lane.
 */

#ifndef MCUBE_SIM_EVENT_QUEUE_HH
#define MCUBE_SIM_EVENT_QUEUE_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/profiler.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace mcube
{

class ParallelEngine;

/**
 * A move-only type-erased callable with inline small-buffer storage.
 *
 * Sized so every capture in the simulator (the largest is a BusOp
 * plus a pointer, or a completion callback plus a TxnResult) stays
 * inline; anything larger is heap-allocated behind the same
 * interface.
 */
class EventFn
{
  public:
    /** Inline capture storage, in bytes. */
    static constexpr std::size_t bufBytes = 104;

    EventFn() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn>>>
    EventFn(F &&f)  // NOLINT: intentional converting constructor
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            new (buf) Fn(std::forward<F>(f));
            ops = &inlineOps<Fn>;
        } else {
            new (buf) Fn *(new Fn(std::forward<F>(f)));
            ops = &heapOps<Fn>;
        }
    }

    EventFn(EventFn &&o) noexcept { moveFrom(o); }

    EventFn &
    operator=(EventFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    explicit operator bool() const { return ops != nullptr; }

    void operator()() { ops->invoke(buf); }

    /** Whether callables of type @p Fn avoid the heap fallback. */
    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= bufBytes
            && alignof(Fn) <= alignof(std::max_align_t)
            && std::is_nothrow_move_constructible_v<Fn>;
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct at @p dst from @p src, destroying @p src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <typename Fn>
    static inline const Ops inlineOps = {
        [](void *p) { (*static_cast<Fn *>(p))(); },
        [](void *dst, void *src) {
            Fn *s = static_cast<Fn *>(src);
            new (dst) Fn(std::move(*s));
            s->~Fn();
        },
        [](void *p) { static_cast<Fn *>(p)->~Fn(); },
    };

    template <typename Fn>
    static inline const Ops heapOps = {
        [](void *p) { (**static_cast<Fn **>(p))(); },
        [](void *dst, void *src) {
            new (dst) Fn *(*static_cast<Fn **>(src));
        },
        [](void *p) { delete *static_cast<Fn **>(p); },
    };

    void
    moveFrom(EventFn &o) noexcept
    {
        ops = o.ops;
        if (ops) {
            ops->relocate(buf, o.buf);
            o.ops = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (ops) {
            ops->destroy(buf);
            ops = nullptr;
        }
    }

    const Ops *ops = nullptr;
    alignas(std::max_align_t) unsigned char buf[bufBytes];
};

/**
 * The event kernel: a 4-ary implicit min-heap of (when, seq, slot)
 * keys over a free-listed slab of callables (see file comment).
 * Events run in (when, push order).
 */
class EventHeap
{
  public:
    /** Queue @p f at @p when, constructing its EventFn in the slab. */
    template <typename F>
    void
    push(Tick when, F &&f)
    {
        std::uint32_t slot;
        if (!freeSlots.empty()) {
            slot = freeSlots.back();
            freeSlots.pop_back();
            slots[slot] = std::forward<F>(f);
        } else {
            slot = static_cast<std::uint32_t>(slots.size());
            slots.emplace_back(std::forward<F>(f));
        }
        keys.push_back(Key{when, nextSeq++, slot});
        siftUp(keys.size() - 1);
    }

    bool empty() const { return keys.empty(); }
    std::size_t size() const { return keys.size(); }

    /** Tick of the earliest event; the heap must not be empty. */
    Tick nextWhen() const { return keys.front().when; }

    /**
     * Run the earliest event; the heap must not be empty. @p enter is
     * called with the event's tick first, so the owner can set its
     * clock. The callable is moved out and its slot freed before it
     * runs, because it may push new events (growing or reusing the
     * slab) while it runs.
     */
    template <typename Enter>
    void
    dispatch(Enter &&enter)
    {
        const Key top = keys.front();
        popTop();
        enter(top.when);
        EventFn fn = std::move(slots[top.slot]);
        freeSlots.push_back(top.slot);
        if (SimProfiler *prof = SimProfiler::active()) {
            prof->onExecute(top.when, keys.size() + 1, slots.size(),
                            freeSlots.size());
            ProfScope scope(prof, ProfKind::Event, 0, {});
            fn();
        } else {
            fn();
        }
    }

  private:
    /** Heap key: priority (when, seq) plus the owning slab slot. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    static bool
    before(const Key &a, const Key &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    /** Remove the root key, keeping the heap valid. */
    void popTop();

    std::vector<Key> keys;
    /** Stable slab of callables, indexed by Key::slot. */
    std::vector<EventFn> slots;
    std::vector<std::uint32_t> freeSlots;
    std::uint64_t nextSeq = 0;
};

/**
 * The central event queue driving a simulation.
 *
 * All model components share one queue; the owner calls run() or
 * runUntil() to advance simulated time.
 */
class EventQueue
{
  public:
    EventQueue()
    {
        // `executed` stays off the stat tree deliberately: harness
        // components (progress monitors, samplers) execute events of
        // their own, and stat-tree bit-identity checks must not be
        // sensitive to that. It remains visible via eventsExecuted().
        statsGrp.addCounter("sched_past_tick", statPastTick,
                            "schedules targeting a tick before now() "
                            "(clamped; a caller bug in debug builds)");
    }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time (context-aware in parallel mode: the
     *  running event's tick on a worker lane). */
    Tick now() const { return par ? parNow() : _now; }

    /**
     * Attach (or detach, with nullptr) a parallel engine. While
     * attached, every schedule is routed to an engine lane — plain
     * schedule()/scheduleIn() to the serial lane, scheduleInLane() to
     * the named lane — and run()/runUntil() drive the engine's
     * window loop. Must only be flipped while the queue is idle.
     */
    void setParallel(ParallelEngine *p) { par = p; }

    /** The attached engine, if any. */
    ParallelEngine *parallel() const { return par; }

    /** True when schedules route through a parallel engine. */
    bool parallelActive() const { return par != nullptr; }

    /**
     * Schedule a callable at an absolute tick.
     *
     * @param when Absolute tick; must be >= now(). Sequentially a past
     *             tick asserts in debug builds and release builds
     *             clamp to now() and count the event in
     *             `sched_past_tick`; under the parallel engine a past
     *             tick aborts (it would be a cross-shard causality
     *             violation a clamp would silently mask).
     * @param f Callable to invoke.
     */
    template <typename F>
    void
    schedule(Tick when, F &&f)
    {
        if (par) {
            // Non-bus events (timers, callbacks, workload arrivals)
            // serialize on lane 0; see sim/parallel_engine.hh.
            parScheduleLane(0, when, EventFn(std::forward<F>(f)));
            return;
        }
        if (when < _now) {
            assert(when >= _now && "event scheduled in the past");
            ++statPastTick;
            when = _now;
        }
        if (SimProfiler *prof = SimProfiler::active())
            prof->onSchedule(when - _now);
        heap.push(when, std::forward<F>(f));
    }

    /** Schedule a callable @p delay ticks in the future. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&f)
    {
        schedule(now() + delay, std::forward<F>(f));
    }

    /**
     * Schedule a callable @p delay ticks in the future on engine lane
     * @p lane (used by buses for their internal arbitrate/deliver/
     * release events). Sequentially this is exactly scheduleIn().
     */
    template <typename F>
    void
    scheduleInLane(unsigned lane, Tick delay, F &&f)
    {
        if (!par) {
            schedule(_now + delay, std::forward<F>(f));
            return;
        }
        parScheduleLane(lane, parNow() + delay,
                        EventFn(std::forward<F>(f)));
    }

    /**
     * Schedule a callable @p delay ticks in the future on engine lane
     * @p lane, from *any* execution context. Sequentially this is
     * exactly scheduleIn(); under the parallel engine it is the
     * cross-lane counterpart of scheduleInLane(): when the calling
     * context is a different lane, the target tick is pushed out to
     * at least one window ahead so it can never land in the target
     * lane's past (lanes within a window advance independently).
     * Same-lane and coordinator-context schedules keep their exact
     * tick. Used to pin a node's completion callbacks and workload
     * self-scheduling to the node's home (row) lane.
     */
    template <typename F>
    void
    scheduleToLane(unsigned lane, Tick delay, F &&f)
    {
        if (!par) {
            schedule(_now + delay, std::forward<F>(f));
            return;
        }
        parScheduleToLane(lane, delay, EventFn(std::forward<F>(f)));
    }

    /**
     * True when the calling context runs on a parallel-engine lane
     * other than @p lane. Components pinned to a lane (buses) use this
     * to detect calls arriving from a foreign lane, which must be
     * deferred with deferToLane() instead of touching their state.
     */
    bool foreignLane(unsigned lane) const;

    /**
     * Defer @p fn to run under lane @p lane's context at the next
     * window barrier, in canonical cross-lane order (no-op wrapper
     * around an immediate call when no engine is attached).
     */
    void deferToLane(unsigned lane, EventFn fn);

    /** True if no events remain. */
    bool empty() const;

    /** Number of pending events in the sequential heap (lane-resident
     *  events are counted by the engine's telemetry instead). */
    std::size_t size() const { return heap.size(); }

    /** Total number of events ever executed. */
    std::uint64_t eventsExecuted() const;

    /** Schedules that targeted a past tick (clamped in release). */
    std::uint64_t schedPastTick() const { return statPastTick.value(); }

    /** Register the queue's counters under @p parent. */
    void regStats(StatGroup &parent) { parent.addChild(statsGrp); }

    /**
     * Run until the queue drains or @p limit events have executed:
     * runUntil(maxTick, limit). Time stays at the last event run.
     * @return number of events executed by this call.
     */
    std::uint64_t run(std::uint64_t limit = UINT64_MAX);

    /**
     * Run until simulated time reaches @p end (events at exactly @p end
     * do fire), the queue drains, or @p limit events execute. Time is
     * left at @p end if no event at or before @p end remains (never
     * for end == maxTick). In parallel mode a window is the smallest
     * unit of work, so @p limit is honored at window granularity
     * (run(1) executes one whole window).
     * @return number of events executed by this call.
     */
    std::uint64_t runUntil(Tick end, std::uint64_t limit = UINT64_MAX);

  private:
    /** Out-of-line parallel-engine hooks (keep the header decoupled
     *  from parallel_engine.hh). */
    void parScheduleLane(unsigned lane, Tick when, EventFn fn);
    void parScheduleToLane(unsigned lane, Tick delay, EventFn fn);
    Tick parNow() const;
    bool parEmpty() const;

    EventHeap heap;
    Tick _now = 0;
    ParallelEngine *par = nullptr;

    Counter statExecuted;
    Counter statPastTick;
    StatGroup statsGrp{"eventq"};
};

} // namespace mcube

#endif // MCUBE_SIM_EVENT_QUEUE_HH
