#include "isa/elide.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace gp::isa {

std::string
verdictNames(uint8_t verdict)
{
    if (!verdict)
        return "none";
    std::string out;
    auto add = [&](uint8_t bit, const char *name) {
        if (!(verdict & bit))
            return;
        if (!out.empty())
            out += ',';
        out += name;
    };
    add(kElideBoundsSafe, "bounds");
    add(kElidePermSafe, "perm");
    add(kElideAlignSafe, "align");
    add(kElideNeverFaults, "never-faults");
    add(kElidePrivileged, "priv");
    return out;
}

std::string
serializeProof(const ElideProof &proof)
{
    std::string out;
    char line[64];
    std::snprintf(line, sizeof(line), "gpproof %" PRIu32 "\n",
                  kProofVersion);
    out += line;
    std::snprintf(line, sizeof(line), "base %" PRIu64 "\n", proof.base);
    out += line;
    std::snprintf(line, sizeof(line), "privileged %d\n",
                  proof.privileged ? 1 : 0);
    out += line;
    std::snprintf(line, sizeof(line), "insts %zu\n",
                  proof.verdicts.size());
    out += line;
    for (size_t i = 0; i < proof.verdicts.size(); ++i) {
        const uint64_t raw = i < proof.bits.size() ? proof.bits[i] : 0;
        std::snprintf(line, sizeof(line),
                      "%zu %016" PRIx64 " %02x\n", i, raw,
                      unsigned(proof.verdicts[i]));
        out += line;
    }
    out += "end\n";
    return out;
}

namespace {

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

} // namespace

bool
parseProof(std::string_view text, ElideProof &out, std::string *error)
{
    std::istringstream in{std::string(text)};
    std::string keyword;
    uint32_t version = 0;
    if (!(in >> keyword >> version) || keyword != "gpproof")
        return fail(error, "not a gpproof sidecar (missing header)");
    if (version != kProofVersion)
        return fail(error, "gpproof version " + std::to_string(version) +
                               " unsupported (want " +
                               std::to_string(kProofVersion) + ")");
    ElideProof proof;
    int privileged = 0;
    size_t insts = 0;
    if (!(in >> keyword >> proof.base) || keyword != "base")
        return fail(error, "gpproof: missing base line");
    if (!(in >> keyword >> privileged) || keyword != "privileged")
        return fail(error, "gpproof: missing privileged line");
    proof.privileged = privileged != 0;
    if (!(in >> keyword >> insts) || keyword != "insts")
        return fail(error, "gpproof: missing insts line");
    // The count is input: reserve no more than the text can hold.
    proof.bits.reserve(std::min(insts, text.size()));
    proof.verdicts.reserve(std::min(insts, text.size()));
    for (size_t i = 0; i < insts; ++i) {
        size_t index = 0;
        uint64_t raw = 0;
        unsigned verdict = 0;
        if (!(in >> index >> std::hex >> raw >> verdict >> std::dec))
            return fail(error, "gpproof: truncated at instruction " +
                                   std::to_string(i));
        if (index != i)
            return fail(error, "gpproof: instruction " +
                                   std::to_string(i) + " indexed as " +
                                   std::to_string(index));
        if (verdict > 0xff)
            return fail(error, "gpproof: verdict out of range at " +
                                   std::to_string(i));
        proof.bits.push_back(raw);
        proof.verdicts.push_back(uint8_t(verdict));
    }
    if (!(in >> keyword) || keyword != "end")
        return fail(error, "gpproof: missing end marker");
    out = std::move(proof);
    return true;
}

} // namespace gp::isa
