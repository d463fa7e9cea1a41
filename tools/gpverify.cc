/**
 * @file
 * gpverify — static capability-flow verification from the command
 * line.
 *
 * Assembles a program (file or stdin with "-") and runs the gp_verify
 * dataflow analysis over it, printing compiler-style diagnostics with
 * file:line locations from the assembler's source map.
 *
 * Exit status:
 *   0  no must-fault errors (warnings allowed unless --strict)
 *   1  capability violations found (any diagnostic under --strict)
 *   2  usage or assembly error
 *
 * Usage:
 *   gpverify prog.s [--strict] [--privileged] [--data BYTES] [--quiet]
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "cli_number.h"
#include "isa/assembler.h"
#include "verify/verifier.h"

using namespace gp;
using gp::tools::numberArg;

namespace {

struct Options
{
    std::string source;
    bool strict = false;     //!< warnings are fatal too
    bool privileged = false; //!< analyze as privileged code
    bool quiet = false;      //!< suppress the diagnostic report
    uint64_t dataBytes = 4096;
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <prog.s | -> [options]\n"
        "  --strict       treat may-fault warnings as fatal\n"
        "  --privileged   analyze as privileged code (SETPTR legal)\n"
        "  --data BYTES   size of the r1 data segment assumed at entry "
        "(default 4096)\n"
        "  --quiet        suppress the diagnostic report (the exit\n"
        "                 status still reflects the verdict)\n",
        argv0);
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    if (argc < 2)
        return false;
    opts.source = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--strict") {
            opts.strict = true;
        } else if (arg == "--privileged") {
            opts.privileged = true;
        } else if (arg == "--quiet") {
            opts.quiet = true;
        } else if (arg == "--data") {
            if (i + 1 >= argc)
                return false;
            opts.dataBytes = numberArg("gpverify", "--data", argv[++i]);
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        usage(argv[0]);
        return 2;
    }

    std::string source;
    if (opts.source == "-") {
        std::ostringstream ss;
        ss << std::cin.rdbuf();
        source = ss.str();
    } else {
        std::ifstream in(opts.source);
        if (!in) {
            std::fprintf(stderr, "gpverify: cannot open %s\n",
                         opts.source.c_str());
            return 2;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        source = ss.str();
    }

    const isa::Assembly assembly = isa::assemble(source);
    if (!assembly.ok) {
        std::fprintf(stderr, "gpverify: %s: %s\n", opts.source.c_str(),
                     assembly.error.c_str());
        return 2;
    }

    verify::VerifyOptions vopts;
    vopts.privileged = opts.privileged;
    vopts.entryRegs = verify::defaultEntryRegs(opts.dataBytes);

    const verify::VerifyResult result =
        verify::verifyProgram(assembly, vopts);

    const bool fail =
        opts.strict ? !result.clean() : !result.ok();
    // --quiet suppresses the report unconditionally; the exit status
    // alone carries the verdict. (It used to leak the report whenever
    // any diagnostic existed, making --quiet useless in scripts that
    // tolerate warnings.)
    if (!opts.quiet)
        std::fputs(result.report(opts.source, &assembly).c_str(),
                   stdout);
    return fail ? 1 : 0;
}
