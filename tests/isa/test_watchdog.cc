/**
 * @file
 * Tests for the machine watchdog (ISSUE 4).
 *
 * The watchdog converts the two classic failure-to-terminate shapes
 * into structured, attributable errors: a *budget* trip for runaway
 * loops (the machine is issuing, just never finishing) and a
 * *quiescence* trip for wedged machines (no thread has issued for a
 * window, yet not everything is done — the signature of a lost NoC
 * request). Both shapes fault the stuck threads with
 * WatchdogTimeout; neither perturbs a machine that terminates.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "isa/assembler.h"
#include "isa/loader.h"
#include "isa/machine.h"
#include "noc/node_memory.h"
#include "sim/trace.h"

namespace gp::isa {
namespace {

constexpr uint64_t kBase = uint64_t(1) << 24;

LoadedProgram
loadSrc(Machine &m, const std::string &src)
{
    Assembly a = assemble(src);
    EXPECT_TRUE(a.ok) << a.error;
    return loadProgram(m.mem(), kBase, a.words);
}

TEST(Watchdog, DisabledByDefaultNeverTrips)
{
    Machine m{MachineConfig{}};
    LoadedProgram prog =
        loadSrc(m, "movi r2, 5\nloop: addi r2, r2, -1\n"
                   "bne r2, r0, loop\nhalt\n");
    Thread *t = m.spawn(prog.execPtr);
    ASSERT_NE(t, nullptr);
    m.run(100000);
    EXPECT_EQ(t->state(), ThreadState::Halted);
    EXPECT_FALSE(m.watchdogTripped());
}

TEST(Watchdog, BudgetTripConvertsSpinToFault)
{
    MachineConfig cfg;
    cfg.watchdogCycles = 2000;
    Machine m(cfg);
    LoadedProgram prog = loadSrc(m, "loop: beq r2, r2, loop\n");
    Thread *t = m.spawn(prog.execPtr);
    ASSERT_NE(t, nullptr);
    m.run(100000); // plenty of budget beyond the watchdog

    EXPECT_TRUE(m.watchdogTripped());
    EXPECT_EQ(t->state(), ThreadState::Faulted);
    EXPECT_EQ(t->faultRecord().fault, Fault::WatchdogTimeout);
    // The trip is logged like any other fault.
    ASSERT_FALSE(m.faultLog().empty());
    bool sawWatchdog = false;
    for (const auto &rec : m.faultLog())
        sawWatchdog |= rec.fault == Fault::WatchdogTimeout;
    EXPECT_TRUE(sawWatchdog);
    // And counted.
    EXPECT_GE(m.stats().get("watchdog_trips"), 1u);
}

TEST(Watchdog, QuiescenceTripCatchesWedgedThread)
{
    MachineConfig cfg;
    cfg.watchdogQuiescence = 500;
    Machine m(cfg);
    LoadedProgram prog = loadSrc(m, "halt\n");
    Thread *t = m.spawn(prog.execPtr);
    ASSERT_NE(t, nullptr);
    // Wedge the thread as a lost memory reply would: stalled
    // forever, never issuing, never done.
    t->stallTo(UINT64_MAX);
    m.run(100000);

    EXPECT_TRUE(m.watchdogTripped());
    EXPECT_EQ(t->state(), ThreadState::Faulted);
    EXPECT_EQ(t->faultRecord().fault, Fault::WatchdogTimeout);
}

TEST(Watchdog, TripDumpsFlightRecorderWithTrippingPc)
{
    // The trip is where post-mortem context matters most: with a
    // flight recorder armed, tripWatchdog must dump the last N
    // events — ending in a watchdog-kill record that names the
    // stuck thread and the PC it was spinning at.
    sim::TraceManager::instance().reset();
    std::ostringstream dump;
    sim::TraceManager::instance().setFlightRecorder(
        32, sim::kTraceAllMask, &dump);

    MachineConfig cfg;
    cfg.watchdogCycles = 2000;
    Machine m(cfg);
    LoadedProgram prog = loadSrc(m, "loop: beq r2, r2, loop\n");
    Thread *t = m.spawn(prog.execPtr);
    ASSERT_NE(t, nullptr);
    m.run(100000);
    ASSERT_TRUE(m.watchdogTripped());
    sim::TraceManager::instance().reset();

    const std::string text = dump.str();
    EXPECT_NE(text.find("flight recorder"), std::string::npos);
    EXPECT_NE(text.find("watchdog"), std::string::npos)
        << "the trip itself must be the recorder's closing event";
    EXPECT_NE(text.find("watchdog-kill"), std::string::npos);
    char pc[32];
    std::snprintf(pc, sizeof pc, "ip=0x%llx",
                  (unsigned long long)t->ip().addr());
    EXPECT_NE(text.find(pc), std::string::npos)
        << "the kill record names the PC the thread was stuck at";
    EXPECT_NE(text.find("exec"), std::string::npos)
        << "the dump keeps the last instructions before the trip";
}

/**
 * Quiescence semantics for split-transaction parks (ISSUE 9): a
 * thread parked on an IN-FLIGHT deferred access will be resumed by
 * the epoch barrier, so it must veto the quiescence trip no matter
 * how long the window has been exceeded. The same park ORPHANED
 * (its completion will never arrive) must stop vetoing — that is
 * precisely the wedge the watchdog exists to reclaim.
 */
class WatchdogParkTest : public ::testing::Test
{
  protected:
    /** Machine on node 0 with an exchange attached, its one thread
     * parked on a remote load posted to the (never-drained)
     * exchange. */
    void
    park(uint64_t quiescence)
    {
        mem::MemConfig mc;
        mc.cache.setsPerBank = 64;
        node_ = std::make_unique<noc::NodeMemory>(0, mesh_, global_,
                                                  mc);
        node_->attachExchange(&exchange_);
        MachineConfig cfg;
        cfg.clusters = 1;
        cfg.watchdogQuiescence = quiescence;
        machine_ = std::make_unique<Machine>(cfg, *node_);

        Assembly a = assemble("ld r2, 0(r1)\nhalt\n");
        ASSERT_TRUE(a.ok) << a.error;
        LoadedProgram prog = loadProgram(
            *node_, noc::nodeBase(0) + 0x20000, a.words);
        thread_ = machine_->spawn(prog.execPtr);
        ASSERT_NE(thread_, nullptr);
        auto remote = makePointer(Perm::ReadWrite, 12,
                                  noc::nodeBase(1) + 0x1000);
        ASSERT_TRUE(remote);
        thread_->setReg(1, remote.value);

        machine_->run(1000);
        ASSERT_EQ(thread_->state(), ThreadState::Pending);
        ASSERT_TRUE(machine_->hasDeferred());
    }

    noc::Mesh mesh_;
    noc::GlobalMemory global_;
    noc::EpochExchange exchange_{2};
    std::unique_ptr<noc::NodeMemory> node_;
    std::unique_ptr<Machine> machine_;
    Thread *thread_ = nullptr;
};

TEST_F(WatchdogParkTest, InFlightParkNeverTripsQuiescence)
{
    park(/*quiescence=*/200);
    machine_->run(20000); // window exceeded ~100x over
    EXPECT_FALSE(machine_->watchdogTripped());
    EXPECT_EQ(thread_->state(), ThreadState::Pending);
    EXPECT_FALSE(machine_->quiescentNow());

    // Deliver the completion the barrier would have: the park
    // resumes and the program finishes — still no trip.
    auto ops = exchange_.drain();
    ASSERT_EQ(ops.size(), 1u);
    machine_->completeDeferred(ops[0].ticket,
                               node_->resolveDeferred(ops[0]));
    machine_->run(20000);
    EXPECT_EQ(thread_->state(), ThreadState::Halted);
    EXPECT_FALSE(machine_->watchdogTripped());
}

TEST(Watchdog, FiniteStallNeverTripsQuiescence)
{
    // A thread stalled to a *finite* future cycle (a long backoff)
    // has a scheduled wake-up: not quiescent, no trip — unlike the
    // UINT64_MAX hung-forever sentinel.
    MachineConfig cfg;
    cfg.watchdogQuiescence = 100;
    Machine m(cfg);
    LoadedProgram prog = loadSrc(m, "halt\n");
    Thread *t = m.spawn(prog.execPtr);
    ASSERT_NE(t, nullptr);
    t->stallTo(30000);
    m.run(100000);
    EXPECT_FALSE(m.watchdogTripped());
    EXPECT_EQ(t->state(), ThreadState::Halted)
        << "the stall expires and the thread finishes on its own";
}

TEST(Watchdog, CompletingRunIsUntouchedByArmedWatchdog)
{
    // Timing must be bit-identical with and without the watchdog
    // when the program terminates inside the budget.
    auto cyclesWith = [](uint64_t wd) {
        MachineConfig cfg;
        cfg.watchdogCycles = wd;
        Machine m(cfg);
        LoadedProgram prog = loadSrc(
            m, "movi r2, 200\nloop: addi r2, r2, -1\n"
               "bne r2, r0, loop\nhalt\n");
        Thread *t = m.spawn(prog.execPtr);
        EXPECT_NE(t, nullptr);
        m.run(100000);
        EXPECT_EQ(t->state(), ThreadState::Halted);
        EXPECT_FALSE(m.watchdogTripped());
        return m.cycle();
    };
    EXPECT_EQ(cyclesWith(0), cyclesWith(50000));
}

} // namespace
} // namespace gp::isa
