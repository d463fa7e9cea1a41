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
 */

#ifndef GP_TOOLS_CLI_NUMBER_H
#define GP_TOOLS_CLI_NUMBER_H

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace gp::tools {

/**
 * Parse the value @p text of command-line flag @p flag as an unsigned
 * integer no larger than @p max. base 10 takes decimal digits only;
 * base 0 also takes a 0x (hex) or leading-0 (octal) prefix. Unless the
 * whole string parses, print a one-line "<tool>: bad value for <flag>"
 * message and exit with status 2.
 */
inline uint64_t
numberArg(const char *tool, const char *flag, const std::string &text,
          uint64_t max = UINT64_MAX, int base = 10)
{
    // strtoull would skip whitespace and accept a sign; demand a digit.
    if (!text.empty() && std::isdigit(static_cast<unsigned char>(text[0]))) {
        errno = 0;
        char *end = nullptr;
        const unsigned long long v =
            std::strtoull(text.c_str(), &end, base);
        if (errno != ERANGE && end == text.c_str() + text.size() &&
            v <= max)
            return uint64_t(v);
    }
    std::fprintf(stderr,
                 "%s: bad value for %s: '%s' (want a%s integer in "
                 "[0, %llu])\n",
                 tool, flag, text.c_str(),
                 base == 0 ? " decimal, 0x-hex or 0-octal" : " decimal",
                 static_cast<unsigned long long>(max));
    std::exit(2);
}

} // namespace gp::tools

#endif // GP_TOOLS_CLI_NUMBER_H
