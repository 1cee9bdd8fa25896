#include "fleet/replication.h"

#include <atomic>
#include <cstring>

#include "common/check.h"
#include "common/serialize.h"

namespace orco::fleet {

namespace {

std::atomic<std::uint64_t> g_blob_copies{0};

std::uint64_t fnv1a(std::span<const std::byte> bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::uint64_t blob_copy_count() noexcept {
  return g_blob_copies.load(std::memory_order_relaxed);
}

std::size_t SnapshotImage::byte_size() const {
  std::size_t total = 0;
  for (const ParamBlob& p : params) {
    if (p.bytes != nullptr) total += p.bytes->size();
  }
  return total;
}

std::size_t SnapshotDelta::byte_size() const {
  std::size_t total = 0;
  for (const ParamBlob& p : changed) {
    if (p.bytes != nullptr) total += p.bytes->size();
  }
  return total;
}

SnapshotImage image_of(const nn::Sequential& model, std::uint64_t version) {
  SnapshotImage image;
  image.version = version;
  // params() is non-const (it hands out mutable gradient views too), but
  // building an image only reads the values; the registry's snapshot
  // decoders are const by contract.
  auto params = const_cast<nn::Sequential&>(model).params();
  image.params.reserve(params.size());
  for (const auto& p : params) {
    common::ByteWriter writer;
    writer.write_string(p.name);
    writer.write_u64(p.value->rank());
    for (std::size_t d = 0; d < p.value->rank(); ++d) {
      writer.write_u64(p.value->dim(d));
    }
    writer.write_f32_span(p.value->data());
    ParamBlob blob;
    blob.name = p.name;
    blob.bytes =
        std::make_shared<const std::vector<std::byte>>(writer.bytes());
    blob.hash = fnv1a(*blob.bytes);
    g_blob_copies.fetch_add(1, std::memory_order_relaxed);
    image.params.push_back(std::move(blob));
  }
  return image;
}

SnapshotDelta make_delta(const SnapshotImage& base, const SnapshotImage& next) {
  ORCO_CHECK(base.params.size() == next.params.size(),
             "delta across images with different param lists: "
                 << base.params.size() << " vs " << next.params.size());
  ORCO_CHECK(next.version > base.version,
             "delta must move the version forward: " << base.version << " -> "
                                                     << next.version);
  SnapshotDelta delta;
  delta.base_version = base.version;
  delta.version = next.version;
  delta.param_count = next.params.size();
  for (std::size_t i = 0; i < next.params.size(); ++i) {
    const ParamBlob& a = base.params[i];
    const ParamBlob& b = next.params[i];
    ORCO_CHECK(a.name == b.name, "param order mismatch at " << i << ": "
                                                            << a.name << " vs "
                                                            << b.name);
    // Hash first (cheap reject), then bytes — equal hashes are confirmed by
    // an exact compare so a collision can never drop a real change. Blobs
    // already shared between the images (the common case for unchanged
    // params of consecutive generations) short-circuit on pointer equality.
    if (a.bytes == b.bytes ||
        (a.hash == b.hash && *a.bytes == *b.bytes)) {
      continue;
    }
    delta.changed_index.push_back(static_cast<std::uint32_t>(i));
    delta.changed.push_back(b);  // aliases next's blob
  }
  return delta;
}

SnapshotDelta full_delta(const SnapshotImage& next) {
  SnapshotDelta delta;
  delta.base_version = 0;
  delta.version = next.version;
  delta.param_count = next.params.size();
  delta.changed_index.reserve(next.params.size());
  delta.changed = next.params;  // aliases every blob
  for (std::size_t i = 0; i < next.params.size(); ++i) {
    delta.changed_index.push_back(static_cast<std::uint32_t>(i));
  }
  return delta;
}

SnapshotImage apply_delta(const SnapshotImage& base,
                          const SnapshotDelta& delta) {
  SnapshotImage next;
  next.version = delta.version;
  if (delta.full()) {
    ORCO_CHECK(delta.changed.size() == delta.param_count,
               "full delta must carry every param");
    next.params = delta.changed;  // aliases the delta's blobs
    return next;
  }
  ORCO_CHECK(base.version == delta.base_version,
             "delta applies on version " << delta.base_version
                                         << " but follower holds "
                                         << base.version);
  ORCO_CHECK(base.params.size() == delta.param_count,
             "delta param count mismatch");
  next.params = base.params;  // aliases the base's blobs
  for (std::size_t k = 0; k < delta.changed_index.size(); ++k) {
    const std::size_t i = delta.changed_index[k];
    ORCO_CHECK(i < next.params.size(), "delta index out of range");
    next.params[i] = delta.changed[k];  // aliases the delta's blob
  }
  return next;
}

void load_image(nn::Sequential& model, const SnapshotImage& image) {
  auto params = model.params();
  ORCO_CHECK(params.size() == image.params.size(),
             "model has " << params.size() << " params, image has "
                          << image.params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const ParamBlob& blob = image.params[i];
    ORCO_CHECK(blob.bytes != nullptr, "image blob " << i << " is empty");
    common::ByteReader reader(*blob.bytes);
    const std::string name = reader.read_string();
    ORCO_CHECK(name == params[i].name,
               "param order mismatch: expected " << params[i].name << ", got "
                                                 << name);
    const std::uint64_t rank = reader.read_u64();
    tensor::Shape shape(rank);
    for (auto& d : shape) d = reader.read_u64();
    ORCO_CHECK(shape == params[i].value->shape(),
               "shape mismatch for " << name);
    const auto data = reader.read_f32_vector();
    ORCO_ENSURE(data.size() == params[i].value->numel(),
                "data size mismatch for " << name);
    std::copy(data.begin(), data.end(), params[i].value->data().begin());
  }
  model.mark_weights_changed();
}

}  // namespace orco::fleet
