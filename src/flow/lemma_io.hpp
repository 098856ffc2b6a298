#pragma once

/// \file lemma_io.hpp
/// The portable lemma file format: one SVA boolean expression per line, with
/// `#` comments and blank lines ignored. This is the hand-off artefact of
/// the bidirectional exchange — a PDR proof (alone or in the portfolio) exports its
/// inductive-frame clauses here, and a later run re-ingests them through
/// `LemmaManager::process`, which re-proves every line before assuming it
/// (so a stale or hand-edited file can never unsoundly influence a proof).
///
/// Example:
///   # genfv-lemmas 1
///   # design: token_ring
///   # lemmas: 2
///   !(token[0] & token[1])
///   token[0] | token[1] | token[2]
///
/// The `# lemmas:` header records how many lemmas the writer emitted;
/// `parse_lemma_file` cross-checks it so a truncated or hand-mangled file
/// fails loudly instead of silently dropping lines.

#include <string>
#include <vector>

namespace genfv::flow {

/// Render `lemma_svas` into the file format above. `design` is recorded as
/// an informational comment only. Throws UsageError for a lemma that could
/// not survive the round trip (flattens to an empty line, or would re-parse
/// as a `#` comment).
std::string render_lemma_file(const std::string& design,
                              const std::vector<std::string>& lemma_svas);

/// Parse lemma file text back into one SVA string per lemma. Tolerant of
/// missing headers (any non-comment, non-blank line is a lemma).
std::vector<std::string> parse_lemma_file(const std::string& text);

/// File-system conveniences; both throw UsageError on I/O failure.
void write_lemma_file(const std::string& path, const std::string& design,
                      const std::vector<std::string>& lemma_svas);
std::vector<std::string> read_lemma_file(const std::string& path);

}  // namespace genfv::flow
