/**
 * @file
 * The one checked number parser for the command-line tools.
 *
 * std::stoul and friends accept leading whitespace, a sign ("-1"
 * wraps to 2^64-1), trailing junk ("12abc" reads as 12) and report
 * bad input by throwing, which an unguarded caller turns into an
 * abort. Tools parse every numeric flag through numberArg() instead:
 * the whole string must be a number, in range, with no sign, and bad
 * input ends the run with a one-line message and exit status 2.
 * meshArg() and eccArg() do the same for a --mesh X,Y,Z geometry
 * and an --ecc mode.
 */

#ifndef GP_TOOLS_CLI_NUMBER_H
#define GP_TOOLS_CLI_NUMBER_H

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "mem/ecc.h"

namespace gp::tools {

/**
 * Match argv[@p i] against flag @p name, as "--name=V" or as "--name V"
 * (which consumes the next argument). @return true with @p out = V
 * when it matches with a value.
 */
inline bool
flagValue(int argc, char **argv, int &i, const char *name,
          std::string &out)
{
    const std::string arg = argv[i];
    const std::string prefix = std::string(name) + "=";
    if (arg.rfind(prefix, 0) == 0) {
        out = arg.substr(prefix.size());
        return true;
    }
    if (arg != name || i + 1 >= argc)
        return false;
    out = argv[++i];
    return !out.empty();
}

/** Print "<tool>: <message>" as one line and exit with status 2. */
[[noreturn]] inline void
badInput(const char *tool, const std::string &message)
{
    std::fprintf(stderr, "%s: %s\n", tool, message.c_str());
    std::exit(2);
}

/**
 * Parse the value @p text of command-line flag @p flag as a decimal
 * unsigned integer no larger than @p max. Unless the whole string
 * parses, print a one-line "<tool>: bad value for <flag>" message and
 * exit with status 2.
 */
inline uint64_t
numberArg(const char *tool, const char *flag, const std::string &text,
          uint64_t max = UINT64_MAX)
{
    // strtoull would skip whitespace and accept a sign; demand a digit.
    if (!text.empty() && std::isdigit(static_cast<unsigned char>(text[0]))) {
        errno = 0;
        char *end = nullptr;
        const unsigned long long v =
            std::strtoull(text.c_str(), &end, 10);
        if (errno != ERANGE && end == text.c_str() + text.size() &&
            v <= max)
            return uint64_t(v);
    }
    badInput(tool, std::string("bad value for ") + flag + ": '" + text +
                       "' (want a decimal integer in [0, " +
                       std::to_string(max) + "])");
}

/**
 * Parse the cycle budget @p text of flag @p flag (--max-cycles). The
 * tool runs @p slack cycles past the budget, so the watchdog trips
 * inside the run, not at its end. A budget of 0 would turn the
 * watchdog off, and one within @p slack of 2^64 would wrap the run
 * length: both end the run with a one-line message and exit status 2,
 * as any bad number does.
 */
inline uint64_t
cycleBudgetArg(const char *tool, const char *flag, const std::string &text,
               uint64_t slack)
{
    const uint64_t v = numberArg(tool, flag, text);
    if (v == 0)
        badInput(tool, std::string("bad value for ") + flag + ": '" +
                           text + "' (want a cycle budget of at least 1)");
    if (v > UINT64_MAX - slack)
        badInput(tool, std::string("bad value for ") + flag + ": '" +
                           text + "' (want a cycle budget of at most " +
                           std::to_string(UINT64_MAX - slack) + ")");
    return v;
}

/**
 * Parse the --mesh geometry @p text, "X,Y,Z", into @p dims: three
 * dimensions > 0 naming at most @p maxNodes nodes. Anything else
 * prints a one-line "<tool>: bad --mesh geometry" message and exits
 * with status 2.
 */
inline void
meshArg(const char *tool, const std::string &text, unsigned maxNodes,
        unsigned dims[3])
{
    unsigned long long d[3] = {};
    char tail = 0;
    if (std::sscanf(text.c_str(), "%llu,%llu,%llu%c", &d[0], &d[1], &d[2],
                    &tail) == 3 &&
        d[0] > 0 && d[1] > 0 && d[2] > 0 && d[0] <= maxNodes &&
        d[1] <= maxNodes && d[2] <= maxNodes &&
        d[0] * d[1] * d[2] <= maxNodes) {
        for (unsigned i = 0; i < 3; ++i)
            dims[i] = unsigned(d[i]);
        return;
    }
    badInput(tool, "bad --mesh geometry: '" + text +
                       "' (want X,Y,Z, each > 0, at most " +
                       std::to_string(maxNodes) + " nodes)");
}

/** Parse an --ecc mode: off (or none), parity or secded. */
inline mem::EccMode
eccArg(const char *tool, const std::string &text)
{
    for (const auto m : {mem::EccMode::None, mem::EccMode::Parity,
                         mem::EccMode::Secded}) {
        if (text == mem::eccModeName(m))
            return m;
    }
    if (text == "none")
        return mem::EccMode::None;
    badInput(tool, "bad --ecc mode: " + text);
}

} // namespace gp::tools

#endif // GP_TOOLS_CLI_NUMBER_H
