#include "workloads.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "fault/campaign.h"
#include "isa/loader.h"
#include "noc/node_memory.h"
#include "sim/profile.h"
#include "verify/verifier.h"

namespace perfbench {

using namespace gp;
using Clock = std::chrono::steady_clock;

namespace {

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
    std::exit(1);
}

/** FNV-1a step over one 64-bit value. */
uint64_t
fnv(uint64_t h, uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

/** Empty unless every occupied thread slot halted. */
std::string
haltError(const isa::Machine &m)
{
    for (const isa::Thread &t : m.threads()) {
        if (t.state() == isa::ThreadState::Idle ||
            t.state() == isa::ThreadState::Halted)
            continue;
        return "thread ended in state " +
               std::to_string(unsigned(t.state())) + " (fault " +
               std::string(faultName(t.faultRecord().fault)) + ")";
    }
    return {};
}

/** Run the verifier over @p program; a must-fault diagnostic means the
 * workload itself is broken. */
void
verifyOrDie(const isa::Assembly &program, uint64_t data_bytes)
{
    verify::VerifyOptions opts;
    opts.entryRegs = verify::defaultEntryRegs(data_bytes);
    const verify::VerifyResult r = verify::verifyProgram(program, opts);
    if (!r.ok())
        die("workload program fails verification:\n" +
            r.report("workload", &program));
}

/**
 * Forwarding memory port: times every timed access into the wrapped
 * MemorySystem. It forwards arguments unchanged, so simulated
 * behaviour is that of the MemorySystem alone.
 */
class TimedPort : public mem::MemoryPort
{
  public:
    TimedPort(mem::MemorySystem &ms, PortTally &tally)
        : ms_(ms), tally_(tally)
    {
    }

    mem::MemAccess
    portLoad(Word ptr, unsigned size, uint64_t now,
             bool elide_check) override
    {
        const auto t0 = Clock::now();
        mem::MemAccess a = ms_.load(ptr, size, now, elide_check);
        charge(t0);
        return a;
    }

    mem::MemAccess
    portStore(Word ptr, Word value, unsigned size, uint64_t now,
              bool elide_check) override
    {
        const auto t0 = Clock::now();
        mem::MemAccess a = ms_.store(ptr, value, size, now, elide_check);
        charge(t0);
        return a;
    }

    mem::MemAccess
    portFetch(Word ip, uint64_t now, bool elide_check) override
    {
        const auto t0 = Clock::now();
        mem::MemAccess a = ms_.fetch(ip, now, elide_check);
        charge(t0);
        return a;
    }

    void portPoke(uint64_t vaddr, Word w) override { ms_.pokeWord(vaddr, w); }
    Word portPeek(uint64_t vaddr) override { return ms_.peekWord(vaddr); }

  private:
    void
    charge(Clock::time_point t0)
    {
        tally_.seconds += since(t0);
        tally_.calls++;
    }

    mem::MemorySystem &ms_;
    PortTally &tally_;
};

/**
 * Shared shape of the two single-machine workloads: every iteration
 * builds one machine per configuration, loads the program through
 * its port and runs it to completion.
 */
class MachineWorkload : public Workload
{
  public:
    Outcome
    iterate() override
    {
        Outcome o;
        for (const isa::MachineConfig &cfg : configs_) {
            isa::Machine m(cfg);
            load(m, m.port());
            m.run(kMaxCycles);
            account(m, o);
        }
        return o;
    }

    Outcome
    iterateTraced(TraceSample &sample) override
    {
        Outcome o;
        const sim::StatSnapshot before =
            sim::StatRegistry::instance().snapshot();
        // Machines stay alive until the second snapshot is taken, so
        // their counters are still registered.
        std::vector<std::unique_ptr<mem::MemorySystem>> mems;
        std::vector<std::unique_ptr<TimedPort>> ports;
        std::vector<std::unique_ptr<isa::Machine>> machines;
        for (const isa::MachineConfig &cfg : configs_) {
            mems.push_back(std::make_unique<mem::MemorySystem>(cfg.mem));
            ports.push_back(
                std::make_unique<TimedPort>(*mems.back(), sample.port));
            machines.push_back(
                std::make_unique<isa::Machine>(cfg, *ports.back()));
            isa::Machine &m = *machines.back();
            load(m, m.port());
            const auto t0 = Clock::now();
            m.run(kMaxCycles);
            sample.runSeconds += since(t0);
            sample.machines++;
            sample.clusterCycles += double(m.cycle()) * cfg.clusters;
            account(m, o);
        }
        sample.counts = sim::StatRegistry::delta(
            sim::StatRegistry::instance().snapshot(), before);
        return o;
    }

  protected:
    static constexpr uint64_t kMaxCycles = 50'000'000;

    virtual void load(isa::Machine &m, mem::MemoryPort &port) = 0;

    void
    account(isa::Machine &m, Outcome &o)
    {
        const uint64_t insts = m.stats().get("instructions");
        o.cycles += m.cycle();
        o.instructions += insts;
        o.signature = fnv(fnv(o.signature ? o.signature : kFnvBasis,
                              m.cycle()),
                          insts);
        if (o.error.empty())
            o.error = haltError(m);
    }

    std::vector<isa::MachineConfig> configs_;
};

/** Fig. 5 at 4 banks and at 1 bank: the MAP-cache hit path. */
class Fig5Hit final : public MachineWorkload
{
  public:
    std::string_view name() const override { return "fig5-hit"; }

    void
    setup() override
    {
        program_ = assembleOrDie(kFig5Source);
        verifyOrDie(program_, 4096);
        configs_.clear();
        for (unsigned banks : {4u, 1u}) {
            isa::MachineConfig cfg;
            cfg.mem.cache = mapCache();
            cfg.mem.cache.banks = banks;
            configs_.push_back(cfg);
        }
        const Outcome golden = iterate();
        if (!golden.error.empty())
            die("fig5-hit golden run: " + golden.error);
    }

  protected:
    void
    load(isa::Machine &m, mem::MemoryPort &port) override
    {
        loadFig5(m, port, program_);
    }

  private:
    isa::Assembly program_;
};

/**
 * Sixteen threads, each striding loads plus same-line stores over its
 * own 128 KiB segment. The stride is one page plus one line, so the
 * 2 MiB total footprint (16x the cache, 8x the LTLB reach) makes
 * nearly every load miss both the cache and the LTLB, and the stores
 * leave dirty lines that are written back on eviction.
 */
class MemsysMiss final : public MachineWorkload
{
  public:
    explicit MemsysMiss(uint64_t seed) : seed_(seed) {}

    std::string_view name() const override { return "memsys-miss"; }

    static constexpr unsigned kThreads = 16;
    static constexpr uint64_t kSegLog2 = 17;
    static constexpr unsigned kLoops = 1024;

    void
    setup() override
    {
        const uint64_t seg = uint64_t(1) << kSegLog2;
        program_ = assembleOrDie(
            "    movi r10, 0\n"
            "    movi r11, " + std::to_string(kLoops) + "\n"
            "    movi r12, " + std::to_string(seg - 32) + "\n"
            "    mov  r5, r2\n"
            "loop:\n"
            "    leab r3, r1, r5\n"
            "    ld   r4, 0(r3)\n"
            "    addi r4, r4, 1\n"
            "    st   r4, 8(r3)\n"
            "    addi r5, r5, 4128\n"
            "    and  r5, r5, r12\n"
            "    addi r10, r10, 1\n"
            "    bne  r10, r11, loop\n"
            "    halt\n");
        verifyOrDie(program_, seg);
        offsets_.clear();
        for (unsigned i = 0; i < kThreads; ++i)
            offsets_.push_back((mix64(seed_ * kThreads + i) %
                                (seg / 32)) * 32);
        isa::MachineConfig cfg;
        cfg.mem.cache = mapCache();
        configs_.assign(1, cfg);
        const Outcome golden = iterate();
        if (!golden.error.empty())
            die("memsys-miss golden run: " + golden.error);
    }

  protected:
    void
    load(isa::Machine &m, mem::MemoryPort &port) override
    {
        for (unsigned i = 0; i < kThreads; ++i) {
            const uint64_t code = ((uint64_t(i) + 1) << 20) + i * 128;
            auto prog = isa::loadProgram(port, code, program_.words);
            isa::Thread *t = m.spawn(prog.execPtr);
            if (!t)
                die("memsys-miss: out of thread slots");
            t->setReg(1, isa::dataSegment((uint64_t(i) + 1) << 30,
                                          kSegLog2));
            t->setReg(2, Word::fromInt(offsets_[i]));
        }
    }

  private:
    uint64_t seed_;
    isa::Assembly program_;
    std::vector<uint64_t> offsets_;
};

/** The F6d all-to-all program, lengthened, on a 2-thread sharded mesh. */
class Mesh64 final : public Workload
{
  public:
    explicit Mesh64(uint64_t seed) : seed_(seed) {}

    std::string_view name() const override { return "mesh64"; }

    void
    setup() override
    {
        program_ = assembleOrDie(meshSource(kMeshLoops));
        // r1 spans the whole 54-bit space; the verifier's default
        // entry state (a small data segment) does not describe it,
        // so the data size here only has to be a valid segment.
        verifyOrDie(program_, uint64_t(1) << 20);
        perm_ = meshPermutation(seed_);
        const Outcome golden = iterate();
        if (!golden.error.empty())
            die("mesh64 golden run: " + golden.error);
    }

    Outcome
    iterate() override
    {
        auto mesh = buildMesh(program_, kMeshHostThreads, perm_);
        mesh->run(kMaxCycles);
        return outcomeOf(*mesh);
    }

    Outcome
    iterateTraced(TraceSample &sample) override
    {
        // One horizon per run() call: the same canonical schedule as
        // a single run(), observed at every epoch barrier.
        const sim::StatSnapshot before =
            sim::StatRegistry::instance().snapshot();
        auto mesh = buildMesh(program_, kMeshHostThreads, perm_);
        const auto t0 = Clock::now();
        while (!mesh->allDone() && mesh->cycle() < kMaxCycles)
            mesh->run(mesh->epochHorizon());
        sample.runSeconds += since(t0);
        sample.machines = mesh->nodeCount();
        sample.clusterCycles = double(mesh->cycle()) * mesh->nodeCount();
        sample.counts = sim::StatRegistry::delta(
            sim::StatRegistry::instance().snapshot(), before);
        return outcomeOf(*mesh);
    }

    const isa::Assembly &program() const { return program_; }
    const std::vector<unsigned> &perm() const { return perm_; }

  private:
    static constexpr uint64_t kMaxCycles = 2'000'000;

    static Outcome
    outcomeOf(noc::ShardedMesh &mesh)
    {
        Outcome o;
        o.cycles = mesh.cycle();
        for (unsigned n = 0; n < mesh.nodeCount(); ++n)
            o.instructions += mesh.machine(n).stats().get("instructions");
        o.signature = mesh.signature();
        o.error = meshError(mesh);
        return o;
    }

    uint64_t seed_;
    isa::Assembly program_;
    std::vector<unsigned> perm_;
};

/**
 * The P1 hardened fault campaign, one runOne() per iteration, cycling
 * over kRuns run indices. Each index's outcome class and cycle count
 * must repeat every time it comes round.
 */
class Campaign final : public Workload
{
  public:
    explicit Campaign(uint64_t seed) : seed_(seed) {}

    std::string_view name() const override { return "campaign"; }

    // An odd count: alternating plain and traced iterations then
    // both cover every run index.
    static constexpr unsigned kRuns = 63;

    void
    setup() override
    {
        fault::CampaignConfig cfg;
        cfg.seed = seed_;
        cfg.runs = kRuns;
        cfg.ecc = mem::EccMode::Secded;
        cfg.walkRetries = 2;
        cfg.faults.rate[unsigned(sim::FaultSite::MemDataBit)] = 3e-4;
        cfg.faults.rate[unsigned(sim::FaultSite::MemTagBit)] = 1e-4;
        cfg.faults.rate[unsigned(sim::FaultSite::TlbCorrupt)] = 1e-3;
        cfg.faults.rate[unsigned(sim::FaultSite::PtWalkTransient)] =
            2e-2;
        runner_ = std::make_unique<fault::CampaignRunner>(cfg);
        runner_->goldenSignature();
        next_ = 0;
    }

    /** The first pass over every run index is the warm-up; it also
     * counts each index's instructions under the profiler, since the
     * campaign's machine is private to runOne(). */
    unsigned warmupIterations() const override { return kRuns; }

    Outcome
    iterate() override
    {
        const unsigned index = next_;
        next_ = (next_ + 1) % kRuns;
        auto it = instructions_.find(index);
        const bool profile = it == instructions_.end();
        if (profile)
            sim::Profiler::instance().arm(1, 1, sim::ProfileConfig{});
        const fault::RunResult r = runner_->runOne(index);
        if (profile) {
            sim::Profiler::instance().disarm();
            it = instructions_
                     .emplace(index,
                              sim::Profiler::instance().instructions())
                     .first;
        }
        Outcome o;
        o.key = index;
        o.cycles = r.cycles;
        o.instructions = it->second;
        o.signature = fnv(fnv(kFnvBasis, uint64_t(r.outcome)), r.cycles);
        return o;
    }

    Outcome
    iterateTraced(TraceSample &sample) override
    {
        const auto t0 = Clock::now();
        Outcome o = iterate();
        sample.runOneSeconds += since(t0);
        return o;
    }

  private:
    uint64_t seed_;
    std::unique_ptr<fault::CampaignRunner> runner_;
    unsigned next_ = 0;
    std::map<unsigned, uint64_t> instructions_;
};

} // namespace

const char *const kFig5Source = R"(
        movi r12, 0
        movi r13, 8
        outer:
        leabi r2, r1, 0
        movi r10, 0
        movi r11, 127
        inner:
        ld r3, 0(r2)
        ld r4, 8(r2)
        ld r5, 16(r2)
        ld r6, 24(r2)
        leai r2, r2, 32
        addi r10, r10, 1
        bne r10, r11, inner
        addi r12, r12, 1
        bne r12, r13, outer
        halt
)";

uint64_t
mix64(uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

mem::CacheConfig
mapCache()
{
    mem::CacheConfig c;
    c.banks = 4;
    c.lineBytes = 32;
    c.setsPerBank = 512;
    c.ways = 2;
    return c;
}

isa::Assembly
assembleOrDie(std::string_view src)
{
    isa::Assembly a = isa::assemble(src);
    if (!a.ok)
        die("workload program does not assemble: " + a.error);
    return a;
}

void
loadFig5(isa::Machine &machine, mem::MemoryPort &port,
         const isa::Assembly &program)
{
    for (unsigned i = 0; i < 16; ++i) {
        const uint64_t code_base =
            ((uint64_t(i) + 1) << 20) + uint64_t(i) * 128;
        auto prog = isa::loadProgram(port, code_base, program.words);
        isa::Thread *t = machine.spawn(prog.execPtr);
        if (!t)
            die("fig5: out of thread slots");
        t->setReg(1, isa::dataSegment(((uint64_t(i) + 1) << 30) +
                                          uint64_t(i) * 4096,
                                      12));
    }
}

std::string
meshSource(unsigned loops)
{
    // r1 = full-space RW pointer, r2 = this node's rotation; the
    // target home rotates with the iteration, so every node touches
    // every partition, and at each step the 64 nodes hit 64 distinct
    // homes.
    return R"(
        movi r3, 0
        movi r4, )" +
           std::to_string(loops) + R"(
    loop:
        add r7, r3, r2
        andi r7, r7, 63
        shli r7, r7, 48
        shli r8, r3, 3
        andi r8, r8, 2040
        addi r8, r8, 4096
        add r7, r7, r8
        leab r9, r1, r7
        ld r10, 0(r9)
        add r10, r10, r2
        st r10, 0(r9)
        addi r3, r3, 1
        bne r3, r4, loop
        halt
    )";
}

std::unique_ptr<noc::ShardedMesh>
buildMesh(const isa::Assembly &program, unsigned host_threads,
          const std::vector<unsigned> &perm)
{
    noc::ShardConfig cfg;
    cfg.mesh.dimX = 4;
    cfg.mesh.dimY = 4;
    cfg.mesh.dimZ = 4;
    cfg.node.cache = mapCache();
    cfg.machine.clusters = 1;
    cfg.hostThreads = host_threads;
    auto mesh = std::make_unique<noc::ShardedMesh>(cfg);
    const Word full = makePointer(Perm::ReadWrite, 54, 0).value;
    for (unsigned n = 0; n < mesh->nodeCount(); ++n) {
        auto prog = isa::loadProgram(
            mesh->node(n), noc::nodeBase(n) + 0x20000, program.words);
        isa::Thread *t = mesh->machine(n).spawn(prog.execPtr);
        if (!t)
            die("mesh: out of thread slots");
        t->setReg(1, full);
        t->setReg(2, Word::fromInt(perm.empty() ? n : perm[n]));
    }
    return mesh;
}

std::vector<unsigned>
meshPermutation(uint64_t seed)
{
    std::vector<unsigned> p(64);
    for (unsigned i = 0; i < 64; ++i)
        p[i] = i;
    uint64_t s = seed;
    for (unsigned i = 63; i > 0; --i) {
        s = mix64(s);
        std::swap(p[i], p[s % (i + 1)]);
    }
    return p;
}

std::string
meshError(noc::ShardedMesh &mesh)
{
    for (unsigned n = 0; n < mesh.nodeCount(); ++n) {
        const std::string e = haltError(mesh.machine(n));
        if (!e.empty())
            return "node " + std::to_string(n) + ": " + e;
    }
    return {};
}

std::unique_ptr<Workload>
makeWorkload(std::string_view name, uint64_t seed)
{
    if (name == "fig5-hit")
        return std::make_unique<Fig5Hit>();
    if (name == "memsys-miss")
        return std::make_unique<MemsysMiss>(seed);
    if (name == "mesh64")
        return std::make_unique<Mesh64>(seed);
    if (name == "campaign")
        return std::make_unique<Campaign>(seed);
    return nullptr;
}

} // namespace perfbench
