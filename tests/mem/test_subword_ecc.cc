/**
 * @file
 * SECDED on every memory port and every access size: MemorySystem,
 * noc::NodeMemory (local and remote home) and FastPort all finish an
 * access through TaggedMemory::access(), so a sub-word load checks
 * the whole stored word exactly like an 8-byte one.
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <tuple>

#include "gp/ops.h"
#include "gp/pointer.h"
#include "mem/fast_port.h"
#include "mem/memory_system.h"
#include "noc/node_memory.h"

namespace gp::mem {
namespace {

constexpr uint64_t kStored = 0x8877665544332211ull;
constexpr uint64_t kOffset = 0x10000;

enum class Port
{
    MemorySystem,
    NodeLocal,
    NodeRemote,
    Fast,
};

/** LD/LDW/LDH/LDB: size, byte offset in the word, expected value. */
struct Load
{
    unsigned size;
    uint64_t byte;
    uint64_t value;
    const char *name;
};

constexpr Load kLoads[] = {
    {8, 0, kStored, "ld"},
    {4, 4, 0x88776655, "ldw"},
    {2, 2, 0x4433, "ldh"}, // the upsets below lie outside these bytes
    {1, 7, 0x88, "ldb"},
};

constexpr const char *kPortNames[] = {"MemorySystem", "NodeLocal",
                                      "NodeRemote", "Fast"};

// Stable parameter printing (test listings show it).
void
PrintTo(Port port, std::ostream *os)
{
    *os << kPortNames[unsigned(port)];
}

void
PrintTo(const Load &load, std::ostream *os)
{
    *os << load.name;
}

class SubwordEcc
    : public ::testing::TestWithParam<std::tuple<Port, Load>>
{
  protected:
    void
    SetUp() override
    {
        MemConfig cfg;
        cfg.ecc = EccMode::Secded;
        switch (port_) {
          case Port::MemorySystem:
          case Port::Fast:
            ms_ = std::make_unique<MemorySystem>(cfg);
            if (port_ == Port::Fast)
                fast_ = std::make_unique<FastPort>(*ms_);
            base_ = kOffset;
            break;
          case Port::NodeLocal:
          case Port::NodeRemote:
            mesh_ = std::make_unique<noc::Mesh>(noc::MeshConfig{});
            global_.setEccMode(EccMode::Secded);
            node_ = std::make_unique<noc::NodeMemory>(0, *mesh_,
                                                      global_, cfg);
            base_ = noc::nodeBase(port_ == Port::NodeRemote ? 1 : 0) +
                    kOffset;
            break;
        }
        const auto word = makePointer(Perm::ReadWrite, 3, base_);
        ASSERT_TRUE(word);
        ASSERT_EQ(port().portStore(word.value, Word::fromInt(kStored), 8,
                                   0)
                      .fault,
                  Fault::None);
    }

    MemoryPort &
    port()
    {
        if (fast_)
            return *fast_;
        if (ms_)
            return *ms_;
        return *node_;
    }

    /** Flip one stored bit of the word without re-encoding it. */
    void
    upset(unsigned bit)
    {
        if (ms_) {
            ASSERT_TRUE(ms_->phys().flipStoredBit(
                *ms_->translateAddr(base_), bit));
            return;
        }
        auto &slice = global_.sliceFor(base_);
        ASSERT_TRUE(slice.phys.flipStoredBit(
            *slice.pageTable.translateAddr(base_), bit));
    }

    /** The load under test, through a pointer to its sub-word. */
    MemAccess
    load()
    {
        const auto p = makePointer(Perm::ReadWrite, 3, base_);
        EXPECT_TRUE(p);
        const auto at = lea(p.value, int64_t(load_.byte));
        EXPECT_TRUE(at);
        return port().portLoad(at.value, load_.size, 100);
    }

    /** The port's own ECC counter (FastPort counts in the store). */
    uint64_t
    counted(const char *name)
    {
        if (fast_) {
            const std::string n(name);
            return n == "ecc_corrected" ? ms_->phys().eccCorrected()
                                        : ms_->phys().eccDetected();
        }
        return ms_ ? ms_->stats().get(name) : node_->stats().get(name);
    }

    const Port port_ = std::get<0>(GetParam());
    const Load load_ = std::get<1>(GetParam());
    uint64_t base_ = 0;
    std::unique_ptr<MemorySystem> ms_;
    std::unique_ptr<FastPort> fast_;
    std::unique_ptr<noc::Mesh> mesh_;
    noc::GlobalMemory global_;
    std::unique_ptr<noc::NodeMemory> node_;
};

TEST_P(SubwordEcc, SingleBitUpsetIsCorrectedAndCounted)
{
    upset(60); // byte 7
    const MemAccess acc = load();
    EXPECT_EQ(acc.fault, Fault::None);
    EXPECT_EQ(acc.data.bits(), load_.value);
    EXPECT_FALSE(acc.data.isPointer());
    EXPECT_EQ(counted("ecc_corrected"), 1u);

    // The correction scrubbed the stored word: no second count.
    EXPECT_EQ(load().data.bits(), load_.value);
    EXPECT_EQ(counted("ecc_corrected"), 1u);
    EXPECT_EQ(counted("ecc_detected"), 0u);
}

TEST_P(SubwordEcc, DoubleBitUpsetFaultsMemoryIntegrity)
{
    upset(60); // byte 7
    upset(3);  // byte 0
    EXPECT_EQ(load().fault, Fault::MemoryIntegrity);
    EXPECT_EQ(counted("ecc_detected"), 1u);
    EXPECT_EQ(counted("ecc_corrected"), 0u);
}

std::string
caseName(const ::testing::TestParamInfo<SubwordEcc::ParamType> &info)
{
    return std::string(kPortNames[unsigned(std::get<0>(info.param))]) +
           "_" + std::get<1>(info.param).name;
}

INSTANTIATE_TEST_SUITE_P(
    AllPorts, SubwordEcc,
    ::testing::Combine(::testing::Values(Port::MemorySystem,
                                         Port::NodeLocal,
                                         Port::NodeRemote, Port::Fast),
                       ::testing::ValuesIn(kLoads)),
    caseName);

} // namespace
} // namespace gp::mem
