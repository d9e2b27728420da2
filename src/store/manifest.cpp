#include "store/manifest.h"

#include <algorithm>

#include "store/container.h"

namespace asteria::store {

namespace {

// Manifest chunk tags and schema version (see docs/FORMATS.md).
constexpr std::uint32_t kTagManifestMeta = FourCc('N', 'M', 'E', 'T');
constexpr std::uint32_t kTagManifestShard = FourCc('S', 'H', 'R', 'D');
constexpr std::uint32_t kManifestSchemaVersion = 1;

}  // namespace

std::uint64_t ContentDigest64(const void* data, std::size_t size) {
  const std::uint8_t* bytes = static_cast<const std::uint8_t*>(data);
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;  // FNV-1a prime
  }
  return hash;
}

bool ShardManifest::HasSource(std::uint64_t digest) const {
  for (const ShardRecord& shard : shards) {
    if (std::find(shard.sources.begin(), shard.sources.end(), digest) !=
        shard.sources.end()) {
      return true;
    }
  }
  return false;
}

std::uint64_t ShardManifest::TotalEntries() const {
  std::uint64_t total = 0;
  for (const ShardRecord& shard : shards) total += shard.entries;
  return total;
}

std::uint64_t ShardManifest::MaxCreatedSeq() const {
  std::uint64_t max_seq = 0;
  for (const ShardRecord& shard : shards) {
    max_seq = std::max(max_seq, shard.created_seq);
  }
  return max_seq;
}

bool SaveManifest(const ShardManifest& manifest, const std::string& path,
                  std::string* error) {
  Writer writer;
  if (!writer.Open(path, kKindManifest, error)) return false;
  ChunkBuilder meta;
  meta.PutU32(kManifestSchemaVersion);
  meta.PutU32(manifest.model_fingerprint);
  meta.PutU64(manifest.sequence);
  meta.PutU64(manifest.searched_seq);
  meta.PutU64(manifest.shards.size());
  if (!writer.WriteChunk(kTagManifestMeta, meta, error)) return false;
  for (const ShardRecord& shard : manifest.shards) {
    ChunkBuilder chunk;
    chunk.PutString(shard.file);
    chunk.PutU64(shard.entries);
    chunk.PutU64(shard.bytes);
    chunk.PutU64(shard.created_seq);
    chunk.PutU64(shard.sources.size());
    for (std::uint64_t digest : shard.sources) chunk.PutU64(digest);
    if (!writer.WriteChunk(kTagManifestShard, chunk, error)) return false;
  }
  return writer.Finish(error);
}

bool LoadManifest(ShardManifest* manifest, const std::string& path,
                  std::string* error) {
  Reader reader;
  return reader.Open(path, kKindManifest, error) &&
         LoadManifest(manifest, reader, error);
}

bool LoadManifest(ShardManifest* manifest, const Reader& reader,
                  std::string* error) {
  const std::string& path = reader.path();
  ShardManifest loaded;
  std::uint64_t declared_shards = 0;
  bool saw_meta = false;
  ChunkView payload;
  for (std::size_t i = 0; i < reader.chunks().size(); ++i) {
    const ChunkInfo& info = reader.chunks()[i];
    if (info.tag != kTagManifestMeta && info.tag != kTagManifestShard) {
      continue;  // unknown chunks are skippable (forward compat)
    }
    if (!reader.ReadChunk(i, &payload, error)) return false;
    ChunkParser parser(payload);
    if (info.tag == kTagManifestMeta) {
      std::uint32_t schema = 0;
      if (!parser.GetU32(&schema, error) ||
          !parser.GetU32(&loaded.model_fingerprint, error) ||
          !parser.GetU64(&loaded.sequence, error) ||
          !parser.GetU64(&loaded.searched_seq, error) ||
          !parser.GetU64(&declared_shards, error)) {
        return false;
      }
      if (schema != kManifestSchemaVersion) {
        *error = path + ": unsupported manifest schema version " +
                 std::to_string(schema);
        return false;
      }
      saw_meta = true;
      continue;
    }
    if (!saw_meta) {
      *error = path + ": SHRD chunk before NMET metadata";
      return false;
    }
    ShardRecord shard;
    std::uint64_t source_count = 0;
    if (!parser.GetString(&shard.file, error) ||
        !parser.GetU64(&shard.entries, error) ||
        !parser.GetU64(&shard.bytes, error) ||
        !parser.GetU64(&shard.created_seq, error) ||
        !parser.GetU64(&source_count, error)) {
      return false;
    }
    if (shard.file.empty()) {
      *error = path + ": shard " + std::to_string(loaded.shards.size()) +
               " has an empty file name";
      return false;
    }
    // Guard the allocation against a corrupted count: every digest costs 8
    // payload bytes, so the remaining payload bounds the real count.
    if (source_count * 8 > parser.remaining()) {
      *error = path + ": shard '" + shard.file + "' declares " +
               std::to_string(source_count) + " source digests but only " +
               std::to_string(parser.remaining()) +
               " payload bytes remain — corrupted manifest";
      return false;
    }
    shard.sources.reserve(static_cast<std::size_t>(source_count));
    for (std::uint64_t s = 0; s < source_count; ++s) {
      std::uint64_t digest = 0;
      if (!parser.GetU64(&digest, error)) return false;
      shard.sources.push_back(digest);
    }
    loaded.shards.push_back(std::move(shard));
  }
  if (!saw_meta) {
    *error = path + ": missing NMET metadata chunk";
    return false;
  }
  if (loaded.shards.size() != declared_shards) {
    *error = path + ": NMET declares " + std::to_string(declared_shards) +
             " shards but " + std::to_string(loaded.shards.size()) +
             " were stored — truncated or corrupted manifest";
    return false;
  }
  *manifest = std::move(loaded);
  return true;
}

std::string DirOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace asteria::store
