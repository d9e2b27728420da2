// CRC-line files: the append-only, self-checking text format shared by the
// CVE-alert log (<index_dir>/alerts.jsonl, tag ALRT) and the request-record
// files (slow.jsonl and --request_log_out dumps, tag SLOW). Each line is
//
//   TAG <8-hex lowercase CRC32 of the JSON bytes> <one-line JSON object>\n
//
// (docs/FORMATS.md "CRC-line files"). A reader skips and counts any line
// that is unterminated, carries another tag, fails its CRC, or does not
// parse, so a torn tail or a flipped byte costs one record, never the log.
//
// The writer controls every schema, so the JSON codec handles only what it
// emits: strings escape quote, backslash and control bytes (\u00XX).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace asteria::util {

// Appends `s` to `out` as a JSON string literal.
void AppendJsonString(const std::string& s, std::string* out);

// Parses the JSON string literal at text[*pos] == '"' into `out` and
// advances *pos past its closing quote.
bool ParseJsonString(const std::string& text, std::size_t* pos,
                     std::string* out);

// Consumes `token` (e.g. ",\"cve\":") at *pos.
bool ExpectToken(const std::string& text, std::size_t* pos,
                 const std::string& token);

// Parse the number at *pos and advance past it.
bool ParseU64(const std::string& text, std::size_t* pos, std::uint64_t* out);
bool ParseI64(const std::string& text, std::size_t* pos, std::int64_t* out);
bool ParseF64(const std::string& text, std::size_t* pos, double* out);

// One framed line for `json` under the four-character `tag`.
std::string CrcLine(const char* tag, const std::string& json);

// Writes `lines` to `path` with one write + fsync: appended (O_APPEND, so
// concurrent appenders never interleave bytes and a crash tears at most
// the final line) or, when `append` is false, replacing the file.
bool WriteCrcLines(const std::string& path, const std::string& lines,
                   bool append, std::string* error);

// Reads the `tag` lines of `path`, handing each verified line's JSON to
// `parse`; a line it rejects is corrupt. `corrupt_lines` (may be null)
// receives the count of skipped lines. A missing file reads as empty when
// `missing_ok`, else fails like an unreadable one.
bool ReadCrcLines(const std::string& path, const char* tag, bool missing_ok,
                  const std::function<bool(const std::string&)>& parse,
                  int* corrupt_lines, std::string* error);

}  // namespace asteria::util
