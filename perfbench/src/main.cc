/**
 * @file
 * perfbench: closed-loop host-speed benchmark of the guarded-pointer
 * simulator.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * --trace 0 measures the end-to-end metrics: warm-up iterations
 * (discarded), then back-to-back iterations for S seconds with
 * repeated set-ups spread among them. --trace 1 measures the
 * per-layer metrics: alternating untraced and traced iterations, the
 * layer microbenches and the shard-engine probe. Either way the last
 * stdout line is one JSON object {"correct", "attempted", "failed",
 * "metrics"}. Bad arguments print one line to stderr and exit 2.
 * See perfbench/README.md for the metrics.
 */

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "layers.h"
#include "sim/log.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Linear-interpolated quantile of unsorted samples. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    unsigned seconds = 10;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
    std::exit(2);
}

uint64_t
parseUnsigned(std::string_view flag, std::string_view text, uint64_t max)
{
    uint64_t v = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (text.empty() || ec != std::errc() ||
        end != text.data() + text.size() || v > max)
        usage(std::string(flag) + " expects an integer in [0, " +
              std::to_string(max) + "], got '" + std::string(text) +
              "'");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (flag != "--workload" && flag != "--seed" &&
            flag != "--seconds" && flag != "--trace")
            usage("unknown argument '" + std::string(flag) + "'");
        if (i + 1 >= argc)
            usage(std::string(flag) + " needs a value");
        const std::string_view value = argv[++i];
        if (flag == "--workload") {
            if (!makeWorkload(value, 0))
                usage("unknown workload '" + std::string(value) + "'");
            o.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            o.seed = parseUnsigned(flag, value, UINT64_MAX);
        } else if (flag == "--seconds") {
            o.seconds = unsigned(parseUnsigned(flag, value, 3600));
            if (o.seconds == 0)
                usage("--seconds must be at least 1");
        } else {
            o.trace = parseUnsigned(flag, value, 1) == 1;
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return o;
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * Checks each iteration against the first iteration with the same
 * key, and counts what was attempted and what failed.
 */
class Checker
{
  public:
    void
    check(const Outcome &o)
    {
        attempted_++;
        auto [it, fresh] =
            reference_.emplace(o.key, Reference{o.signature, o.cycles});
        if (o.error.empty() && (fresh || it->second.signature == o.signature))
            return;
        if (failed_++ == 0)
            std::printf("# iteration failed: key %llu signature "
                        "%016llx, expected %016llx%s%s\n",
                        (unsigned long long)o.key,
                        (unsigned long long)o.signature,
                        (unsigned long long)it->second.signature,
                        o.error.empty() ? "" : "; ", o.error.c_str());
    }

    /** Reference signature for @p key (0 if never seen). */
    uint64_t
    reference(uint64_t key) const
    {
        auto it = reference_.find(key);
        return it == reference_.end() ? 0 : it->second.signature;
    }

    /** Median simulated cycles over the distinct keys seen. */
    double
    medianCycles() const
    {
        std::vector<double> c;
        for (const auto &[key, ref] : reference_)
            c.push_back(double(ref.cycles));
        return median(c);
    }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

  private:
    struct Reference
    {
        uint64_t signature;
        uint64_t cycles;
    };
    std::map<uint64_t, Reference> reference_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/**
 * Peak resident memory of this process image. VmHWM, unlike
 * getrusage's ru_maxrss, restarts at exec, so a large parent (the
 * Python interpreter running run.py) does not leak into the figure.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    std::fclose(f);
    return kib / 1024.0;
}

void
warmup(Workload &w, Checker &checker)
{
    for (unsigned i = 0; i < w.warmupIterations(); ++i)
        checker.check(w.iterate());
}

/// Set-ups measured per end-to-end run.
constexpr unsigned kSetups = 21;

/// A timing sample spans whole iterations lasting at least this long,
/// so sub-millisecond iterations (campaign) are timed in blocks.
constexpr double kMinSampleSeconds = 1e-3;

std::vector<Metric>
endToEnd(Workload &w, const Options &opt, Checker &checker)
{
    // The host this targets is shared: neighbours slow it down in
    // bursts of a second or two. So every figure is a median, and the
    // repeated set-ups are spread evenly over the run instead of
    // bunched at its start, where one burst would cover them all.
    std::vector<double> setups;
    auto timed_setup = [&] {
        const auto t0 = Clock::now();
        w.setup();
        setups.push_back(since(t0));
    };
    timed_setup();
    warmup(w, checker);

    // Sample storage is allocated and touched up front: growing it
    // with the sample count would make peak_rss_mb follow host speed.
    const size_t max_samples = size_t(opt.seconds / kMinSampleSeconds) + 64;
    std::vector<double> iter_s(max_samples), rates(max_samples);
    size_t samples = 0;
    const double run_s = opt.seconds;
    const auto start = Clock::now();
    while (samples < 10 || since(start) < run_s) {
        if (setups.size() < kSetups &&
            since(start) >= run_s * double(setups.size()) / kSetups)
            timed_setup();
        const auto t0 = Clock::now();
        uint64_t iterations = 0, insts = 0;
        double s = 0;
        do {
            const Outcome o = w.iterate();
            checker.check(o);
            iterations++;
            insts += o.instructions;
            s = since(t0);
        } while (s < kMinSampleSeconds);
        if (samples < max_samples) {
            iter_s[samples] = s / double(iterations);
            rates[samples] = double(insts) / s / 1e6;
            samples++;
        }
    }
    iter_s.resize(samples);
    rates.resize(samples);

    std::printf("# %s: %zu set-ups, %zu timing samples, iter_ms p90 "
                "%.3f (host bursts make it unsteady, so it is not a "
                "gated metric)\n",
                std::string(w.name()).c_str(), setups.size(), samples,
                quantile(iter_s, 0.9) * 1e3);
    return {
        {"setup_s", median(setups), "s"},
        {"sim_minst_per_s", median(rates), "Minst/s"},
        {"iter_ms_p50", median(iter_s) * 1e3, "ms"},
        {"sim_cycles", checker.medianCycles(), "cycles"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

/** Counter from a registry delta, 0 when absent. */
double
count(const gp::sim::StatSnapshot &s, const std::string &key)
{
    auto it = s.find(key);
    return it == s.end() ? 0.0 : double(it->second);
}

/** Sum of "nodeN.<counter>" over every mesh node. */
double
nodeSum(const gp::sim::StatSnapshot &s, const std::string &counter)
{
    double sum = 0;
    for (const auto &[key, value] : s)
        if (key.rfind("node", 0) == 0 &&
            key.size() > counter.size() + 1 &&
            key.compare(key.size() - counter.size() - 1,
                        std::string::npos, "." + counter) == 0)
            sum += double(value);
    return sum;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/// recon.explained_ratio must fall in [1 - kReconTolerance,
/// 1 + kReconTolerance] for the layers to account for the wall time.
constexpr double kReconTolerance = 0.35;

std::vector<Metric>
perLayer(Workload &w, const Options &opt, Checker &checker, bool &ok)
{
    w.setup();
    warmup(w, checker);

    // Untraced and traced iterations alternate, so host noise hits
    // both sides of trace_overhead_ratio and recon alike.
    TraceSample first;
    PortTally port;
    double run_s = 0, run_one_s = 0;
    std::vector<double> plain_secs, traced_secs;
    uint64_t traced_insts = 0;
    const auto start = Clock::now();
    while (traced_secs.size() < 3 || since(start) < 0.5 * opt.seconds) {
        const auto t_plain = Clock::now();
        checker.check(w.iterate());
        plain_secs.push_back(since(t_plain));

        TraceSample sample;
        const auto t0 = Clock::now();
        const Outcome o = w.iterateTraced(sample);
        traced_secs.push_back(since(t0));
        if (traced_secs.size() == 1)
            first = sample;
        port.calls += sample.port.calls;
        port.seconds += sample.port.seconds;
        run_s += sample.runSeconds;
        run_one_s += sample.runOneSeconds;
        traced_insts += o.instructions;
        const uint64_t expected = checker.reference(o.key);
        if (o.signature != expected) {
            std::printf("# TRACE CHANGED THE SIMULATION: key %llu "
                        "signature %016llx traced, %016llx untraced\n",
                        (unsigned long long)o.key,
                        (unsigned long long)o.signature,
                        (unsigned long long)expected);
            ok = false;
        }
        checker.check(o);
    }
    const double iters = double(traced_secs.size());
    const double plain_iter = median(plain_secs);

    // Each timed port call reads the clock twice: one read falls
    // inside the interval, the other in the caller's time.
    const double clock_s = clockReadSeconds();
    const double port_self =
        std::max(0.0, port.seconds - double(port.calls) * clock_s) / iters;
    const double port_calls = double(port.calls) / iters;
    const double isa_run = run_s / iters;
    const double isa_self =
        std::max(0.0, isa_run - port_self - port_calls * clock_s);
    const double insts = double(traced_insts) / iters;

    Values v;
    runMicrobenches(0.02 * opt.seconds, v);
    {
        auto mesh_program = assembleOrDie(meshSource(kMeshLoops));
        const std::vector<unsigned> perm = meshPermutation(opt.seed);
        uint64_t untraced = 0;
        {
            // Destroyed before the probe, whose per-shard registry
            // counts must come from its own mesh alone.
            auto mesh = buildMesh(mesh_program, kMeshHostThreads, perm);
            mesh->run(2'000'000);
            untraced = mesh->signature();
        }
        if (!runShardProbe(mesh_program, perm, untraced, v)) {
            std::printf("# TRACE CHANGED THE SIMULATION: horizon-"
                        "stepped mesh signature differs\n");
            ok = false;
        }
    }

    // Registry counts of one iteration.
    const gp::sim::StatSnapshot &c = first.counts;
    const bool mesh = w.name() == "mesh64";
    const double hits = count(c, "cache.hits");
    const double misses = count(c, "cache.misses");
    const double idle = count(c, "machine.idle_cluster_cycles");

    // Reconciliation: each layer's microbench cost times its event
    // count, against the untraced wall time of one iteration.
    double explained_ns = 0;
    if (w.name() == "campaign") {
        explained_ns = v["isa.machine_ctor_us"] * 1e3 +
                       insts * v["isa.fast_ns_per_inst"];
    } else {
        const double machines = first.machines;
        double compute = insts * v["isa.fast_ns_per_inst"] +
                         hits * v["mem.memsys.load_hit_ns"] +
                         idle * v["isa.stall_cluster_cycle_ns"] +
                         machines * v["isa.machine_ctor_us"] * 1e3;
        if (mesh) {
            const double remote = nodeSum(c, "remote_misses");
            const double local = nodeSum(c, "local_misses");
            compute += local * v["mem.memsys.load_miss_ns"];
            explained_ns =
                compute / kMeshHostThreads +
                remote * (v["noc.node.resolve_deferred_ns"] +
                          v["noc.exchange.drain_ns_per_op"]) +
                v["shard.epochs"] * v["shard.barrier_us_per_epoch"] * 1e3;
        } else {
            explained_ns = compute + misses * v["mem.memsys.load_miss_ns"];
        }
    }
    const double explained = explained_ns / (plain_iter * 1e9);
    const bool reconciled = std::fabs(explained - 1) <= kReconTolerance;
    std::printf("# recon.explained_ratio %.3f (tolerance +-%.2f): %s\n",
                explained, kReconTolerance,
                reconciled ? "layers account for the wall time"
                           : "FLAG: layers do not account for the wall "
                             "time");

    std::vector<Metric> m = {
        {"mem.port.calls", port_calls, "count"},
        {"mem.port.self_s", port_self, "s"},
        {"mem.port.ns_per_call", ratio(port_self * 1e9, port_calls), "ns"},
        {"isa.run_s", isa_run, "s"},
        {"isa.self_s", isa_self, "s"},
        {"isa.ns_per_inst", ratio(isa_self * 1e9, insts), "ns"},
        {"mem.hit_ratio", ratio(hits, hits + misses), "ratio"},
        {"mem.tlb_hit_ratio",
         ratio(count(c, "tlb.hits"),
               count(c, "tlb.hits") + count(c, "tlb.misses")),
         "ratio"},
        {"mem.writebacks", count(c, "cache.writebacks"), "count"},
        {"mem.ext_port_stalls", count(c, "memsys.ext_port_stalls"),
         "cycles"},
        {"isa.predecode_hit_ratio",
         ratio(count(c, "machine.predecode_hits"),
               count(c, "machine.predecode_hits") +
                   count(c, "machine.predecode_misses")),
         "ratio"},
        {"isa.idle_cycle_ratio", ratio(idle, first.clusterCycles),
         "ratio"},
        {"fault.run_one_us", run_one_s / iters * 1e6, "us"},
    };
    static const std::vector<std::pair<const char *, const char *>>
        probes = {
            {"gp.lea_ns", "ns"},
            {"gp.check_access_ns", "ns"},
            {"gp.lea_check_access_ns", "ns"},
            {"gp.restrict_perm_ns", "ns"},
            {"mem.cache.access_hit_ns", "ns"},
            {"mem.cache.access_miss_ns", "ns"},
            {"mem.tlb.lookup_ns", "ns"},
            {"mem.page_table.translate_hit_ns", "ns"},
            {"mem.page_table.translate_thrash_ns", "ns"},
            {"mem.memsys.load_hit_ns", "ns"},
            {"mem.memsys.load_miss_ns", "ns"},
            {"mem.memsys.store_miss_ns", "ns"},
            {"mem.ecc.encode_ns", "ns"},
            {"mem.ecc.decode_ns", "ns"},
            {"isa.machine_ctor_us", "us"},
            {"isa.fast_ns_per_inst", "ns"},
            {"isa.stall_cluster_cycle_ns", "ns"},
            {"noc.mesh.send_ns", "ns"},
            {"noc.mesh.try_send_ns", "ns"},
            {"noc.node.resolve_deferred_ns", "ns"},
            {"noc.exchange.drain_ns_per_op", "ns"},
            {"shard.epochs", "count"},
            {"shard.epoch_us_p50", "us"},
            {"shard.epoch_us_p90", "us"},
            {"shard.busy_imbalance", "ratio"},
            {"shard.barrier_us_per_epoch", "us"},
            {"shard.speedup", "ratio"},
        };
    for (const auto &[name, unit] : probes)
        m.push_back({name, v.at(name), unit});
    m.push_back({"recon.explained_ratio", explained, "ratio"});
    m.push_back({"trace_overhead_ratio",
                 median(traced_secs) / plain_iter, "ratio"});
    return m;
}

void
printResult(bool correct, const Checker &checker,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                correct ? "true" : "false",
                (unsigned long long)checker.attempted(),
                (unsigned long long)checker.failed());
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    gp::sim::setQuiet(true);
    auto w = makeWorkload(opt.workload, opt.seed);

    Checker checker;
    bool ok = true;
    const std::vector<Metric> metrics =
        opt.trace ? perLayer(*w, opt, checker, ok)
                  : endToEnd(*w, opt, checker);
    const bool correct = ok && checker.failed() == 0;
    printResult(correct, checker, metrics);
    std::fflush(stdout);
    return correct ? 0 : 1;
}
