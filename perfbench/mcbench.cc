/**
 * @file
 * One benchmark run of one workload, in its own process.
 *
 * perfbench/run.py starts this program once per timed run, one run at a
 * time. The program forks; the child builds a MulticubeSystem and its
 * workload, simulates a fixed interval, drains, counts issued and
 * completed transactions, and prints one JSON object on stdout: timings,
 * the output digest (events, ticks, transactions, hash of the flattened
 * stat tree), the per-layer counts and its own VmHWM. With --trace it
 * also activates SimProfiler and adds the per-ProfKind host-ns figures.
 * The parent then prints a second JSON line with the child's own
 * rusage: CPU time and peak RSS, which run.py checks against the VmHWM.
 *
 * Spans from this file's own code (construct, run, drain, MVA solve,
 * flatten) are kept in memory and written out when the run ends.
 *
 *   mcbench --workload mix_n64 --seed 1 [--size full|tiny] [--trace]
 *           [--workers K]
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <csignal>
#include <unistd.h>

#include "core/system.hh"
#include "mva/mva_model.hh"
#include "proc/address_workload.hh"
#include "proc/mix_workload.hh"
#include "sim/hash.hh"
#include "sim/json.hh"
#include "sim/profiler.hh"
#include "sim/stats.hh"

#ifndef MCBENCH_COMPILER
#define MCBENCH_COMPILER "unknown"
#endif
#ifndef MCBENCH_FLAGS
#define MCBENCH_FLAGS "unknown"
#endif

using namespace mcube;

namespace
{

/** The inputs of one workload at one size. */
struct WorkloadSpec
{
    bool address = false;    //!< AddressWorkload instead of MixWorkload
    unsigned n = 8;
    double simMs = 1.0;      //!< simulated interval before drain()
    unsigned simThreads = 0; //!< 0 = sequential engine
    MixParams mix{};
    AddressWorkloadParams addr{};
    CacheArrayParams cache{1024, 8};
};

/**
 * The four workloads. "tiny" keeps each one's shape (class mix,
 * engine, cache geometry) at a size that runs in milliseconds, for the
 * self-test.
 */
bool
lookupWorkload(const std::string &name, bool tiny, unsigned workers,
               WorkloadSpec &w)
{
    if (name == "mix_n64" || name == "mix_n64_par") {
        w.n = tiny ? 8 : 64;
        w.simMs = tiny ? 0.05 : 0.25;
        w.simThreads = name == "mix_n64_par" ? workers : 0;
    } else if (name == "mix_n32_mod") {
        w.n = tiny ? 4 : 32;
        w.simMs = tiny ? 0.1 : 0.5;
        w.mix.fracReadUnmod = 0.20;
        w.mix.fracReadMod = 0.30;
        w.mix.fracWriteUnmod = 0.20;
        w.mix.fracWriteMod = 0.30;
    } else if (name == "addr_n8") {
        w.address = true;
        w.n = tiny ? 4 : 8;
        w.simMs = tiny ? 0.2 : 4.0;
        w.cache = {512, 8};
        w.addr.privateLines = 64;
        w.addr.sharedLines = 64;
        w.addr.pShared = 0.01;
        w.addr.thinkTicks = 100;
    } else {
        return false;
    }
    w.mix.requestsPerMs = 25.0;
    return true;
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Spans recorded around each public call, kept until the run ends. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
        int parent = -1;
    };

    /** Open a span under the innermost open one; returns its index. */
    int
    open(const char *name)
    {
        spans.push_back({name, nowNs() - t0, 0, cur});
        cur = static_cast<int>(spans.size()) - 1;
        return cur;
    }

    void
    close(int id)
    {
        spans[id].endNs = nowNs() - t0;
        cur = spans[id].parent;
    }

    double
    seconds(int id) const
    {
        return static_cast<double>(spans[id].endNs - spans[id].startNs)
             / 1e9;
    }

    Json
    toJson() const
    {
        Json arr = Json::array();
        for (const Span &s : spans) {
            Json j = Json::object();
            j.set("name", s.name);
            j.set("start_ns", s.startNs);
            j.set("end_ns", s.endNs);
            j.set("parent", s.parent);
            arr.push(std::move(j));
        }
        return arr;
    }

  private:
    std::uint64_t t0 = nowNs();
    std::vector<Span> spans;
    int cur = -1;
};

/** RAII span; seconds() is valid once the scope has closed. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name)
        : log(log), id(log.open(name))
    {
    }
    ~ScopedSpan() { log.close(id); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int index() const { return id; }

  private:
    SpanLog &log;
    int id;
};

/** FNV-1a over every (name, value bit pattern) of the flat tree. */
std::uint64_t
hashStats(const FlatStats &flat)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto feed = [&h](const void *p, std::size_t len) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < len; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    };
    for (const auto &[name, value] : flat) {
        feed(name.data(), name.size() + 1);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        feed(&bits, sizeof bits);
    }
    return h;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size()
        && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/**
 * Sum of one leaf over one kind of component: every flat stat named
 * "system.<kind><index>.<leaf>", where the index is digits and '_'
 * (memory modules are "mem3", controllers "node2_5"). Scoping by kind
 * keeps a leaf that two components share, such as "tset_fails", from
 * mixing their counts.
 */
double
sumLeaf(const FlatStats &flat, const std::string &kind,
        const std::string &leaf)
{
    const std::string prefix = "system." + kind;
    const std::string suffix = "." + leaf;
    double sum = 0.0;
    for (const auto &[name, value] : flat) {
        if (name.compare(0, prefix.size(), prefix) != 0
            || !endsWith(name, suffix))
            continue;
        const std::size_t end = name.size() - suffix.size();
        if (end > prefix.size()
            && name.find_first_not_of("0123456789_", prefix.size()) == end)
            sum += value;
    }
    return sum;
}

/** One flat stat by its full name; 0 if the tree has none. */
double
statOf(const FlatStats &flat, const std::string &name)
{
    for (const auto &[n, value] : flat)
        if (n == name)
            return value;
    return 0.0;
}

/** This process's peak resident set (VmHWM) in MB; 0 if unknown. */
double
vmHwmMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    long kb = 0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
            break;
    std::fclose(f);
    return static_cast<double>(kb) / 1024.0;
}

/** Op-weighted mean bus queue delay (simulated ns) over all buses. */
double
meanQueueDelay(const FlatStats &flat)
{
    // Only bus groups have an "ops" leaf, so this map stays 2n long
    // (a map of the whole tree would add megabytes to peak_rss_mb).
    std::map<std::string, double> busOps;
    for (const auto &[name, value] : flat)
        if (endsWith(name, ".ops"))
            busOps[name.substr(0, name.size() - 4)] = value;
    const std::string leaf = ".queue_delay";
    double ops = 0.0, weighted = 0.0;
    for (const auto &[name, mean] : flat) {
        if (!endsWith(name, leaf))
            continue;
        auto it = busOps.find(name.substr(0, name.size() - leaf.size()));
        if (it != busOps.end()) {
            weighted += mean * it->second;
            ops += it->second;
        }
    }
    return ops > 0 ? weighted / ops : 0.0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "mcbench: %s\nusage: mcbench --workload NAME --seed S "
                 "[--size full|tiny] [--trace] [--workers K]\n",
                 msg);
    return 2;
}

/** Simulate one run and print its result as one JSON line. */
int
runOnce(const std::string &workload, std::uint64_t seed, bool trace,
        WorkloadSpec w)
{
    // The benchmark seed reaches the program only as the generated
    // inputs: the system's and the workload's base seeds.
    SystemParams sp;
    sp.n = w.n;
    sp.simThreads = w.simThreads;
    sp.ctrl.cache = w.cache;
    sp.seed = mix64(seed);
    w.mix.seed = mix64(seed ^ 0x6d6978ull);
    w.addr.seed = mix64(seed ^ 0x61646472ull);

    SpanLog spans;
    SimProfiler prof;
    if (trace)
        prof.activate();

    std::unique_ptr<MulticubeSystem> sys;
    std::unique_ptr<MixWorkload> mix;
    std::unique_ptr<AddressWorkload> addr;
    MvaResult mva;
    int construct_span = -1, mva_span = -1, setup_span = -1,
        sim_span = -1;
    bool drained = false;
    {
        ScopedSpan total(spans, "run_once");
        {
            ScopedSpan setup(spans, "setup");
            setup_span = setup.index();
            {
                ScopedSpan s(spans, "construct");
                construct_span = s.index();
                sys = std::make_unique<MulticubeSystem>(sp);
            }
            {
                ScopedSpan s(spans, "workload");
                if (w.address) {
                    addr = std::make_unique<AddressWorkload>(*sys, w.addr);
                    for (NodeId id = 0; id < sys->numNodes(); ++id)
                        addr->processor(id).regStats(sys->statistics());
                } else {
                    mix = std::make_unique<MixWorkload>(*sys, w.mix);
                    mix->regStats(sys->statistics());
                }
            }
            if (mix) {
                ScopedSpan s(spans, "mva_solve");
                mva_span = s.index();
                MvaParams mp;
                mp.n = w.n;
                mp.requestsPerMs = w.mix.requestsPerMs;
                mp.fracReadUnmod = w.mix.fracReadUnmod;
                mp.fracReadMod = w.mix.fracReadMod;
                mp.fracWriteUnmod = w.mix.fracWriteUnmod;
                mp.fracWriteMod = w.mix.fracWriteMod;
                mva = MvaModel(mp).solve();
            }
        }
        {
            ScopedSpan simulate(spans, "simulate");
            sim_span = simulate.index();
            {
                ScopedSpan s(spans, "run");
                if (mix)
                    mix->start();
                else
                    addr->start();
                sys->run(static_cast<Tick>(w.simMs * 1e6));
                if (mix)
                    mix->stop();
                else
                    addr->stop();
            }
            {
                ScopedSpan s(spans, "drain");
                drained = sys->drain();
            }
        }
    }
    if (trace)
        prof.deactivate();

    FlatStats flat;
    {
        ScopedSpan s(spans, "flatten");
        sys->statistics().flatten(flat);
    }

    // Completion check. A mix transaction is one controller access
    // (hit or miss); an address-stream transaction is one processor
    // reference, outstanding while its processor is busy.
    std::uint64_t issued = 0, completed = 0, outstanding = 0;
    std::uint64_t l2_hits = 0, l2_misses = 0;
    for (NodeId id = 0; id < sys->numNodes(); ++id) {
        l2_hits += sys->node(id).hits();
        l2_misses += sys->node(id).misses();
    }
    if (mix) {
        issued = l2_hits + l2_misses;
        completed = mix->totalCompleted();
        outstanding = sys->outstandingTransactions();
    } else {
        issued = addr->references();
        for (NodeId id = 0; id < sys->numNodes(); ++id)
            outstanding += addr->processor(id).busy() ? 1 : 0;
        completed = issued >= outstanding ? issued - outstanding : 0;
    }
    const bool queue_empty = sys->eventQueue().empty();

    const std::uint64_t events = sys->eventQueue().eventsExecuted();
    const std::uint64_t bus_ops = sys->totalBusOps();
    const double efficiency = mix ? mix->efficiency() : 0.0;

    Json layers = Json::object();
    auto L = [&layers](const char *name, double v) { layers.set(name, v); };
    L("sim.events", static_cast<double>(events));
    L("sim.events_per_txn", ratio(double(events), double(completed)));
    L("bus.ops", static_cast<double>(bus_ops));
    L("bus.row_util", sys->meanBusUtilization(0));
    L("bus.col_util", sys->meanBusUtilization(1));
    L("bus.queue_delay_ns", meanQueueDelay(flat));
    const double rejects = sumLeaf(flat, "node", "filter_rejects");
    L("core.filter_reject_frac",
      ratio(rejects, sumLeaf(flat, "node", "filter_hits") + rejects));
    L("core.reissues", sumLeaf(flat, "node", "reissues"));
    L("core.watchdog_reissues", sumLeaf(flat, "node", "watchdog_reissues"));
    L("cache.mlt_overflows", sumLeaf(flat, "node", "mlt_overflows"));
    L("cache.l1_hit_frac", addr ? addr->l1HitRate() : 0.0);
    L("cache.l2_hit_frac", ratio(double(l2_hits), double(l2_hits + l2_misses)));
    // Memory-module counters only: bounces / every op a module handled.
    const double served = sumLeaf(flat, "mem", "reads_served");
    const double bounces = sumLeaf(flat, "mem", "bounces");
    L("mem.reads_served", served);
    L("mem.bounce_frac",
      ratio(bounces, served + sumLeaf(flat, "mem", "updates") + bounces
                         + sumLeaf(flat, "mem", "tset_fails")));
    // The class mix as achieved, not as configured: a modified-class
    // request is downgraded when the workload's registry of modified
    // lines has no candidate.
    const double mod_targeted = statOf(flat, "system.mix.mod_targeted");
    const double mod_registry_empty =
        statOf(flat, "system.mix.mod_registry_empty");
    L("proc.mod_targeted_frac", ratio(mod_targeted, double(completed)));
    L("proc.mod_registry_empty", mod_registry_empty);
    L("mva.solve_ms", mva_span >= 0 ? spans.seconds(mva_span) * 1e3 : 0.0);
    L("setup.construct_s", spans.seconds(construct_span));

    if (ParallelEngine *eng = sys->parallelEngine()) {
        const ParallelEngine::Telemetry t = eng->telemetry();
        L("sim.par.row_phase_ns", double(t.rowPhaseNs));
        L("sim.par.col_phase_ns", double(t.colPhaseNs));
        L("sim.par.serial_ns", double(t.serialNs));
        L("sim.par.barrier_wait_frac",
          ratio(double(t.barrierWaitNs), double(t.wallNs)));
        L("sim.par.events_per_window",
          ratio(double(t.events), double(t.windows)));
    }

    if (trace) {
        const Json kinds = prof.toJson().at("kinds");
        auto self_ns = [&kinds](const char *k) {
            return static_cast<double>(kinds.at(k).u64("self_ns", 0));
        };
        auto count = [&kinds](const char *k) {
            return static_cast<double>(kinds.at(k).u64("count", 0));
        };
        L("sim.event_self_ns", ratio(self_ns("event"), count("event")));
        L("bus.arb_ns_per_op", ratio(self_ns("bus_arb"), double(bus_ops)));
        L("bus.deliver_ns_per_op",
          ratio(self_ns("bus_deliver"), count("bus_deliver")));
        L("bus.agents_snooped_per_op",
          ratio(count("ctrl_snoop"), count("bus_deliver")));
        L("core.snoop_ns_per_call",
          ratio(self_ns("ctrl_snoop"), count("ctrl_snoop")));
        L("cache.mlt_ns_per_op", ratio(self_ns("mlt"), count("mlt")));
        L("cache.mlt_ops", count("mlt"));
        L("mem.ns_per_op", ratio(self_ns("memory"), count("memory")));
    }

    Json digest = Json::object();
    digest.set("sim_events", events);
    digest.set("sim_ticks", static_cast<std::uint64_t>(sys->eventQueue().now()));
    digest.set("transactions", completed);
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(hashStats(flat)));
    digest.set("stats_hash", std::string(hash));

    Json out = Json::object();
    out.set("workload", workload);
    out.set("seed", seed);
    out.set("n", w.n);
    out.set("sim_threads", w.simThreads);
    out.set("sim_ms", w.simMs);
    out.set("compiler", MCBENCH_COMPILER);
    out.set("flags", MCBENCH_FLAGS);
    out.set("setup_s", spans.seconds(setup_span));
    out.set("run_s", spans.seconds(sim_span));
    out.set("drained", drained);
    out.set("queue_empty", queue_empty);
    out.set("issued", issued);
    out.set("completed", completed);
    out.set("outstanding", outstanding);
    out.set("efficiency", efficiency);
    out.set("mva_efficiency", mva.efficiency);
    out.set("mva_gap_pts", mix ? std::fabs(efficiency - mva.efficiency) * 100
                               : 0.0);
    out.set("vm_hwm_mb", vmHwmMb());
    out.set("digest", std::move(digest));
    out.set("layers", std::move(layers));
    out.set("spans", spans.toJson());
    std::printf("%s\n", out.dump(-1).c_str());
    return 0;
}

/**
 * Run runOnce() in a child forked before any simulation state exists,
 * and print the child's own rusage as a second JSON line.
 *
 * A child that exec()s inherits its parent's memory high-water mark,
 * so a run started straight from run.py would report at least the
 * interpreter's RSS. The fork here starts from this small process,
 * without an exec, so ru_maxrss is the run's own, as is its VmHWM.
 */
int
runInChild(const std::string &workload, std::uint64_t seed, bool trace,
           const WorkloadSpec &w)
{
    std::fflush(stdout);
    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("mcbench: fork");
        return 1;
    }
    if (pid == 0) {
        // Die with the parent, so a timed-out run leaves nothing behind.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent)
            _exit(1);
        const int rc = runOnce(workload, seed, trace, w);
        std::fflush(stdout);
        _exit(rc);
    }
    int status = 0;
    rusage ru{};
    if (wait4(pid, &status, 0, &ru) != pid) {
        std::perror("mcbench: wait4");
        return 1;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "mcbench: run failed (status %d)\n", status);
        return 1;
    }
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec)
             + static_cast<double>(tv.tv_usec) / 1e6;
    };
    Json usage = Json::object();
    usage.set("cpu_s", seconds(ru.ru_utime) + seconds(ru.ru_stime));
    usage.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
    // The floor under the child's figure: the memory it forked from.
    usage.set("spawner_rss_mb", vmHwmMb());
    std::printf("%s\n", usage.dump(-1).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    bool tiny = false;
    bool trace = false;
    unsigned workers = 2;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value)
            workload = argv[++i];
        else if (a == "--seed" && has_value)
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--size" && has_value)
            tiny = std::strcmp(argv[++i], "tiny") == 0;
        else if (a == "--workers" && has_value)
            workers = static_cast<unsigned>(std::atoi(argv[++i]));
        else if (a == "--trace")
            trace = true;
        else
            return usage(("unknown argument " + a).c_str());
    }
    WorkloadSpec w;
    if (!lookupWorkload(workload, tiny, workers, w))
        return usage(("unknown workload '" + workload + "'").c_str());
    if (w.simThreads == 0 && workload == "mix_n64_par")
        return usage("mix_n64_par needs --workers >= 1");

    return runInChild(workload, seed, trace, w);
}
