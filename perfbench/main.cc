/**
 * @file
 * The benchmark program: one workload per process.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Set-up is measured in fresh forked processes (a cold process is what a
 * user starts), then this process sets up once more and runs ops for S
 * seconds. With --trace 0 it reports the end-to-end metrics; with
 * --trace 1 it alternates untraced ops with traced replays and reports
 * the per-layer metrics. Every op is checked. The last stdout line is
 * the JSON result.
 */
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "report.hh"
#include "stats.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

/** Cold set-ups per run, this process's own included; the median is
 *  setup_s. */
constexpr int kSetups = 5;

/** Where generated inputs, sockets and span dumps go (inside the
 *  checkout; the build tree is already ignored by git). */
const char* const kScratch = ".bench_build/perfbench-scratch";

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\nworkloads:";
    for (const std::string& w : workloadNames())
        std::cerr << " " << w;
    std::cerr << "\n";
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + k);
        std::string v = argv[++i];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace")
                a.trace = std::stoi(v) != 0;
            else
                usage("unknown flag " + k);
        } catch (const std::logic_error&) {
            usage("bad value for " + k + ": " + v);
        }
    }
    bool known = false;
    for (const std::string& w : workloadNames())
        known = known || w == a.workload;
    if (!known)
        usage("unknown workload '" + a.workload + "'");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

/** Sets up @p args.workload in a forked child; returns seconds. */
double
coldSetUp(const Args& args)
{
    std::fflush(nullptr);
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("pipe() failed");
    pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error("fork() failed");
    if (pid == 0) {
        ::close(fds[0]);
        double s = -1.0;
        try {
            auto w = makeWorkload(args.workload, args.seed, kScratch);
            std::int64_t t0 = nowNs();
            w->setUp();
            s = static_cast<double>(nowNs() - t0) * 1e-9;
            w->tearDown();
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
        }
        ssize_t n = ::write(fds[1], &s, sizeof(s));
        ::_exit(n == sizeof(s) && s >= 0.0 ? 0 : 1);
    }
    ::close(fds[1]);
    double s = -1.0;
    ssize_t n = ::read(fds[0], &s, sizeof(s));
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (n != sizeof(s) || s < 0.0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        throw std::runtime_error("cold set-up failed");
    return s;
}

/**
 * Runs untraced ops until @p seconds have passed (at least one). With a
 * @p tracer, traced replays alternate with the untraced ops, so both
 * see the same host conditions and their difference is the tracing
 * overhead.
 */
void
runOps(Workload& w, Tracer* tracer, double seconds,
       std::vector<OpResult>& untraced, std::vector<OpResult>& traced)
{
    auto record = [](std::vector<OpResult>& v, OpResult r) {
        if (!r.ok)
            std::cerr << "perfbench: op failed: " << r.error << "\n";
        v.push_back(std::move(r));
    };
    std::int64_t end = nowNs() + static_cast<std::int64_t>(seconds * 1e9);
    do {
        record(untraced, w.op());
        if (tracer)
            record(traced, w.tracedOp(*tracer));
    } while (nowNs() < end);
}

void
printTable(const std::string& title, const std::vector<Metric>& metrics)
{
    std::printf("%s\n", title.c_str());
    for (const Metric& m : metrics)
        std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

/** p50 per request class (serve_mixed), for the report. */
void
printClasses(const std::vector<OpResult>& ops)
{
    std::map<std::string, std::vector<double>> by;
    for (const OpResult& r : ops) {
        if (!r.opClass.empty())
            by[r.opClass].push_back(r.wallMs);
    }
    for (const auto& [cls, v] : by) {
        Tail t = tailPercentile(v);
        std::printf("  class %-12s %6zu ops  p50 %10.4f ms  p%.1f %10.4f "
                    "ms\n",
                    cls.c_str(), v.size(), median(v), t.percentile, t.value);
    }
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        std::filesystem::create_directories(kScratch);

        // Cold set-ups first, while this process has no threads to fork.
        std::vector<double> setups;
        for (int k = 1; k < kSetups; ++k)
            setups.push_back(coldSetUp(args));

        auto w = makeWorkload(args.workload, args.seed, kScratch);
        std::int64_t t0 = nowNs();
        w->setUp();
        setups.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        std::printf("perfbench: workload %s seed %llu, work unit: %s\n",
                    args.workload.c_str(),
                    static_cast<unsigned long long>(args.seed),
                    w->workUnit());
        std::printf("digest %s seed %llu: %s\n", args.workload.c_str(),
                    static_cast<unsigned long long>(args.seed),
                    w->digest().c_str());

        std::vector<OpResult> untraced, traced;
        Tracer tracer;
        runOps(*w, args.trace ? &tracer : nullptr, args.seconds, untraced,
               traced);
        w->tearDown();

        std::uint64_t failed = w->verifyAfterRun();
        for (const auto* phase : {&untraced, &traced}) {
            for (const OpResult& r : *phase)
                failed += r.ok ? 0 : 1;
        }
        const std::uint64_t attempted = untraced.size() + traced.size();
        failed = std::min(failed, attempted); // late checks may recount

        Tail tail;
        std::vector<Metric> e2e = endToEnd(untraced, median(setups), tail);
        std::printf("set-ups (s):");
        for (double s : setups)
            std::printf(" %.4f", s);
        std::printf("\nop_tail_ms is p%.2f: %zu of %zu samples beyond it\n",
                    tail.percentile, tail.beyond, tail.samples);
        printClasses(untraced);
        printTable("end-to-end (untraced ops):", e2e);

        std::vector<Metric> result = e2e;
        if (args.trace) {
            result = perLayer(*w, traced, untraced, tail);
            printTable("per-layer (traced ops, per op):", result);
            std::ofstream spans(std::string(kScratch) + "/spans-" +
                                args.workload + ".tsv");
            tracer.writeSpans(spans);
        }
        for (const Metric& m : result) {
            if (!validMetricName(m.name) || !validMetricUnit(m.unit)) {
                std::cerr << "perfbench: bad metric " << m.name << "\n";
                return 1;
            }
        }
        std::printf("%s\n",
                    resultLine(failed == 0, attempted, failed, result)
                        .c_str());
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
