#include "os/kernel.h"

#include "gp/ops.h"
#include "gp/pointer.h"
#include "isa/assembler.h"
#include "sim/log.h"
#include "sim/profile.h"

namespace gp::os {

namespace {

/// The managed VA region: base address and log2 size in bytes.
constexpr uint64_t kHeapBase = uint64_t(1) << 32;
constexpr uint64_t kHeapLog2 = 32;

} // namespace

Kernel::Kernel(const KernelConfig &config)
    : machine_(config.machine),
      segments_(machine_.mem(), kHeapBase, kHeapLog2)
{
}

Result<ProgramImage>
Kernel::loadWords(const std::vector<Word> &words, bool privileged)
{
    auto code = segments_.allocate(words.size() * 8,
                                   privileged
                                       ? Perm::ExecutePrivileged
                                       : Perm::ExecuteUser);
    if (!code)
        return Result<ProgramImage>::fail(code.fault);

    const PointerView view(code.value);
    for (size_t i = 0; i < words.size(); ++i)
        mem().pokeWord(view.segmentBase() + i * 8, words[i]);

    ProgramImage image;
    image.execPtr = code.value;
    image.base = view.segmentBase();
    image.lenLog2 = view.lenLog2();
    image.words = words.size();

    auto enter = makePointer(privileged ? Perm::EnterPrivileged
                                        : Perm::EnterUser,
                             image.lenLog2, image.base);
    if (!enter)
        return Result<ProgramImage>::fail(enter.fault);
    image.enterPtr = enter.value;
    return Result<ProgramImage>::ok(image);
}

Result<ProgramImage>
Kernel::loadAssembly(std::string_view source, bool privileged)
{
    const isa::Assembly assembly = isa::assemble(source);
    if (!assembly.ok) {
        sim::warn("loadAssembly: %s", assembly.error.c_str());
        return Result<ProgramImage>::fail(Fault::InvalidInstruction);
    }
    auto image = loadWords(assembly.words, privileged);
    if (image) {
        stats_.counter("programs_loaded")++;
        // Name the new protection domain for the profiler (cold
        // path: one registration per program load). Assembler labels
        // at instruction index 0 name the domain after the program's
        // entry label when one exists.
        std::string name =
            "prog" +
            std::to_string(stats_.counter("programs_loaded").value());
        for (const auto &[label, index] : assembly.labels) {
            if (index == 0) {
                name = label;
                break;
            }
        }
        sim::Profiler::instance().registerDomain(image.value.base,
                                                 std::move(name));
        for (const auto &[label, index] : assembly.labels)
            sim::Profiler::instance().registerSymbol(
                label, image.value.base + index * 8);
    }
    return image;
}

Result<SubsystemImage>
Kernel::buildSubsystem(std::string_view source,
                       const std::vector<Word> &table, bool privileged)
{
    const isa::Assembly assembly = isa::assemble(source);
    if (!assembly.ok) {
        sim::warn("buildSubsystem: %s", assembly.error.c_str());
        return Result<SubsystemImage>::fail(Fault::InvalidInstruction);
    }

    // Capability table first, then code. Table words fetched as
    // instructions would fault (tagged words never decode), so a
    // malicious caller cannot enter the table region usefully even if
    // it could forge an enter pointer — which it cannot.
    std::vector<Word> words = table;
    words.insert(words.end(), assembly.words.begin(),
                 assembly.words.end());

    auto image = loadWords(words, privileged);
    if (!image)
        return Result<SubsystemImage>::fail(image.fault);

    SubsystemImage sub;
    sub.base = image.value.base;
    sub.lenLog2 = image.value.lenLog2;
    sub.tableWords = table.size();

    auto enter = makePointer(privileged ? Perm::EnterPrivileged
                                        : Perm::EnterUser,
                             sub.lenLog2, sub.base + table.size() * 8);
    if (!enter)
        return Result<SubsystemImage>::fail(enter.fault);
    sub.enterPtr = enter.value;
    stats_.counter("subsystems_built")++;
    sim::Profiler::instance().registerDomain(
        sub.base,
        "sub" +
            std::to_string(stats_.counter("subsystems_built").value()));
    for (const auto &[label, index] : assembly.labels)
        sim::Profiler::instance().registerSymbol(
            label, sub.base + (table.size() + index) * 8);
    return Result<SubsystemImage>::ok(sub);
}

isa::Thread *
Kernel::spawn(Word exec_ptr,
              const std::vector<std::pair<unsigned, Word>> &regs)
{
    isa::Thread *thread = machine_.spawn(exec_ptr);
    if (!thread)
        return nullptr;
    for (const auto &[index, value] : regs)
        thread->setReg(index, value);
    stats_.counter("threads_spawned")++;
    return thread;
}

} // namespace gp::os
