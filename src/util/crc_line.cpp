#include "util/crc_line.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/crc32.h"

namespace asteria::util {

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buffer;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

bool ParseJsonString(const std::string& text, std::size_t* pos,
                     std::string* out) {
  if (*pos >= text.size() || text[*pos] != '"') return false;
  ++*pos;
  out->clear();
  while (*pos < text.size()) {
    const char c = text[*pos];
    if (c == '"') {
      ++*pos;
      return true;
    }
    if (c == '\\') {
      if (*pos + 1 >= text.size()) return false;
      const char esc = text[*pos + 1];
      if (esc == '"' || esc == '\\') {
        out->push_back(esc);
        *pos += 2;
        continue;
      }
      if (esc == 'u') {
        if (*pos + 5 >= text.size()) return false;
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text[*pos + 2 + static_cast<std::size_t>(i)];
          value <<= 4;
          if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') value |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') value |= static_cast<unsigned>(h - 'A' + 10);
          else return false;
        }
        if (value > 0xff) return false;  // the writer only emits \u00XX
        out->push_back(static_cast<char>(value));
        *pos += 6;
        continue;
      }
      return false;
    }
    out->push_back(c);
    ++*pos;
  }
  return false;
}

bool ExpectToken(const std::string& text, std::size_t* pos,
                 const std::string& token) {
  if (text.compare(*pos, token.size(), token) != 0) return false;
  *pos += token.size();
  return true;
}

namespace {

// Runs one strto* conversion at *pos, advancing past what it consumed.
template <typename T, typename Convert>
bool ParseNumber(const std::string& text, std::size_t* pos, T* out,
                 Convert convert) {
  const char* begin = text.c_str() + *pos;
  char* end = nullptr;
  errno = 0;
  *out = convert(begin, &end);
  if (errno != 0 || end == begin) return false;
  *pos += static_cast<std::size_t>(end - begin);
  return true;
}

}  // namespace

bool ParseU64(const std::string& text, std::size_t* pos, std::uint64_t* out) {
  return ParseNumber(text, pos, out, [](const char* s, char** end) {
    return std::strtoull(s, end, 10);
  });
}

bool ParseI64(const std::string& text, std::size_t* pos, std::int64_t* out) {
  return ParseNumber(text, pos, out, [](const char* s, char** end) {
    return std::strtoll(s, end, 10);
  });
}

bool ParseF64(const std::string& text, std::size_t* pos, double* out) {
  return ParseNumber(text, pos, out, [](const char* s, char** end) {
    return std::strtod(s, end);
  });
}

std::string CrcLine(const char* tag, const std::string& json) {
  char head[16];
  std::snprintf(head, sizeof(head), "%.4s %08x ", tag,
                Crc32(json.data(), json.size()));
  return head + json + "\n";
}

bool WriteCrcLines(const std::string& path, const std::string& lines,
                   bool append, std::string* error) {
  const int fd = ::open(path.c_str(),
                        O_WRONLY | O_CREAT | O_CLOEXEC |
                            (append ? O_APPEND : O_TRUNC),
                        0644);
  if (fd < 0) {
    *error = path + ": open failed: " + std::strerror(errno);
    return false;
  }
  std::size_t done = 0;
  while (done < lines.size()) {
    const ssize_t n = ::write(fd, lines.data() + done, lines.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = path + ": write failed: " + std::strerror(errno);
      ::close(fd);
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    *error = path + ": fsync failed: " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  ::close(fd);
  return true;
}

bool ReadCrcLines(const std::string& path, const char* tag, bool missing_ok,
                  const std::function<bool(const std::string&)>& parse,
                  int* corrupt_lines, std::string* error) {
  if (corrupt_lines != nullptr) *corrupt_lines = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (missing_ok && errno == ENOENT) return true;
    *error = path + ": open failed: " + std::strerror(errno);
    return false;
  }
  std::string contents;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) {
    *error = path + ": read failed";
    return false;
  }
  const std::string prefix = std::string(tag, 4) + " ";
  std::size_t start = 0;
  while (start < contents.size()) {
    std::size_t newline = contents.find('\n', start);
    // A final line with no terminating newline is a torn tail by definition
    // (the writer always ends lines), so it lands in the corrupt count.
    const bool terminated = newline != std::string::npos;
    if (!terminated) newline = contents.size();
    const std::string line = contents.substr(start, newline - start);
    start = newline + 1;
    if (line.empty()) continue;
    // prefix + 8 hex + " " + json, CRC over the json bytes.
    bool good = false;
    if (terminated && line.size() > 14 && line.compare(0, 5, prefix) == 0 &&
        line[13] == ' ') {
      char* end = nullptr;
      errno = 0;
      const std::string hex = line.substr(5, 8);
      const unsigned long declared = std::strtoul(hex.c_str(), &end, 16);
      if (errno == 0 && end == hex.c_str() + 8) {
        const std::string json = line.substr(14);
        good = Crc32(json.data(), json.size()) ==
                   static_cast<std::uint32_t>(declared) &&
               parse(json);
      }
    }
    if (!good && corrupt_lines != nullptr) ++*corrupt_lines;
  }
  return true;
}

}  // namespace asteria::util
