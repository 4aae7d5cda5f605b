#include "shm/workspace.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace cnet::shm {
namespace {

/// Header pages before the data region; room for the table plus growth
/// headroom within the same major version.
constexpr std::uint64_t kDataOffset = 8192;

bool valid_name(std::string_view name) {
  if (name.empty() || name.size() > kMaxNameLen) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

bool fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = "shm::Workspace: " + why;
  return false;
}

}  // namespace

struct Workspace::Header {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t object_count;
  std::uint64_t data_footprint;
  std::uint64_t used;
  char name[48];
  LayoutEntry table[kMaxObjects];
};

Workspace::~Workspace() { reset(); }

void Workspace::reset() noexcept {
  if (base_ != nullptr) ::munmap(base_, map_size_);
  if (fd_ >= 0) ::close(fd_);
  base_ = nullptr;
  map_size_ = 0;
  fd_ = -1;
}

Workspace::Workspace(Workspace&& other) noexcept
    : base_(other.base_), map_size_(other.map_size_), fd_(other.fd_) {
  other.base_ = nullptr;
  other.map_size_ = 0;
  other.fd_ = -1;
}

Workspace& Workspace::operator=(Workspace&& other) noexcept {
  if (this != &other) {
    reset();
    base_ = other.base_;
    map_size_ = other.map_size_;
    fd_ = other.fd_;
    other.base_ = nullptr;
    other.map_size_ = 0;
    other.fd_ = -1;
  }
  return *this;
}

Workspace::Header* Workspace::header() const { return static_cast<Header*>(base_); }
std::byte* Workspace::data() const { return static_cast<std::byte*>(base_) + kDataOffset; }

bool Workspace::create(std::string_view name, std::uint64_t data_footprint, Workspace* out,
                       std::string* error) {
  static_assert(sizeof(Header) <= kDataOffset,
                "workspace header must fit in the reserved header pages");
  if (!valid_name(name)) {
    return fail(error, "workspace name '" + std::string(name) +
                           "' must be 1-" + std::to_string(kMaxNameLen) +
                           " chars of [A-Za-z0-9_.-]");
  }
  if (data_footprint == 0) return fail(error, "data footprint must be > 0");

  const std::string memfd_name = "cnet_ws_" + std::string(name);
  const int fd = ::memfd_create(memfd_name.c_str(), MFD_CLOEXEC);
  if (fd < 0) return fail(error, std::string("memfd_create: ") + std::strerror(errno));

  const std::uint64_t total = kDataOffset + data_footprint;
  if (::ftruncate(fd, static_cast<off_t>(total)) != 0) {
    const int err = errno;
    ::close(fd);
    return fail(error, "ftruncate to " + std::to_string(total) +
                           " bytes: " + std::strerror(err));
  }
  void* base = ::mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    const int err = errno;
    ::close(fd);
    return fail(error, std::string("mmap: ") + std::strerror(err));
  }

  auto* header = static_cast<Header*>(base);
  std::memset(header, 0, sizeof(Header));
  header->magic = kWorkspaceMagic;
  header->version = kWorkspaceVersion;
  header->data_footprint = data_footprint;
  header->used = 0;
  header->object_count = 0;
  std::memcpy(header->name, name.data(), name.size());

  out->reset();
  out->base_ = base;
  out->map_size_ = total;
  out->fd_ = fd;
  return true;
}

bool Workspace::attach(int fd, Workspace* out, std::string* error) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) return fail(error, std::string("fstat: ") + std::strerror(errno));
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (size < kDataOffset) {
    return fail(error, "segment of " + std::to_string(size) +
                           " bytes is too small to hold a workspace header");
  }
  const int own_fd = ::fcntl(fd, F_DUPFD_CLOEXEC, 0);
  if (own_fd < 0) return fail(error, std::string("dup: ") + std::strerror(errno));
  void* base = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, own_fd, 0);
  if (base == MAP_FAILED) {
    const int err = errno;
    ::close(own_fd);
    return fail(error, std::string("mmap: ") + std::strerror(err));
  }
  const auto* header = static_cast<const Header*>(base);
  std::string why;
  if (header->magic != kWorkspaceMagic) {
    why = "bad magic (not a cnet workspace)";
  } else if (header->version != kWorkspaceVersion) {
    why = "version " + std::to_string(header->version) + " (this build speaks " +
          std::to_string(kWorkspaceVersion) + ")";
  } else if (kDataOffset + header->data_footprint > size) {
    why = "truncated: header claims " + std::to_string(header->data_footprint) +
          " data bytes but the segment holds " + std::to_string(size - kDataOffset);
  } else if (header->used > header->data_footprint) {
    // A crash mid-alloc (or a scribbled header) can leave the bump cursor
    // past the region it allocates from; every later alloc/find would then
    // hand out memory outside the mapping.
    why = "corrupt: bump cursor (used=" + std::to_string(header->used) +
          ") exceeds data_footprint=" + std::to_string(header->data_footprint);
  } else if (header->object_count > kMaxObjects) {
    why = "corrupt: object_count=" + std::to_string(header->object_count) +
          " exceeds the layout table capacity " + std::to_string(kMaxObjects);
  }
  if (!why.empty()) {
    ::munmap(base, size);
    ::close(own_fd);
    return fail(error, why);
  }

  out->reset();
  out->base_ = base;
  out->map_size_ = size;
  out->fd_ = own_fd;
  return true;
}

const char* Workspace::name() const { return valid() ? header()->name : ""; }
std::uint64_t Workspace::data_footprint() const { return valid() ? header()->data_footprint : 0; }
std::uint64_t Workspace::used() const { return valid() ? header()->used : 0; }
std::uint32_t Workspace::object_count() const { return valid() ? header()->object_count : 0; }

const LayoutEntry* Workspace::entry(std::uint32_t index) const {
  if (!valid() || index >= header()->object_count) return nullptr;
  return &header()->table[index];
}

void* Workspace::alloc(std::string_view obj_name, std::uint64_t align, std::uint64_t footprint,
                       std::string* error) {
  if (!valid()) {
    fail(error, "alloc on an invalid workspace");
    return nullptr;
  }
  if (!valid_name(obj_name)) {
    fail(error, "object name '" + std::string(obj_name) + "' must be 1-" +
                    std::to_string(kMaxNameLen) + " chars of [A-Za-z0-9_.-]");
    return nullptr;
  }
  if (align == 0 || (align & (align - 1)) != 0 || align > kMaxObjectAlign) {
    fail(error, "object '" + std::string(obj_name) + "' align " + std::to_string(align) +
                    " must be a power of two <= " + std::to_string(kMaxObjectAlign));
    return nullptr;
  }
  if (footprint == 0) {
    fail(error, "object '" + std::string(obj_name) + "' footprint must be > 0");
    return nullptr;
  }
  Header* h = header();
  if (h->object_count >= kMaxObjects) {
    fail(error, "layout table full (" + std::to_string(kMaxObjects) + " objects)");
    return nullptr;
  }
  if (find(obj_name) != nullptr) {
    fail(error, "object '" + std::string(obj_name) + "' already placed");
    return nullptr;
  }
  const std::uint64_t offset = align_up(h->used, align);
  if (offset > h->data_footprint || footprint > h->data_footprint - offset) {
    fail(error, "workspace '" + std::string(h->name) + "' exhausted placing '" +
                    std::string(obj_name) + "': need " + std::to_string(footprint) + " @align " +
                    std::to_string(align) + ", have " +
                    std::to_string(h->data_footprint - std::min(h->used, h->data_footprint)) +
                    " of " + std::to_string(h->data_footprint) + " free");
    return nullptr;
  }

  LayoutEntry& e = h->table[h->object_count];
  std::memset(&e, 0, sizeof(e));
  std::memcpy(e.name, obj_name.data(), obj_name.size());
  e.offset = offset;
  e.footprint = footprint;
  e.align = align;
  h->used = offset + footprint;
  ++h->object_count;
  return data() + offset;
}

void* Workspace::find(std::string_view obj_name, std::uint64_t* footprint) const {
  if (!valid()) return nullptr;
  const Header* h = header();
  for (std::uint32_t i = 0; i < h->object_count; ++i) {
    const LayoutEntry& e = h->table[i];
    if (obj_name == e.name) {
      if (footprint != nullptr) *footprint = e.footprint;
      return data() + e.offset;
    }
  }
  return nullptr;
}

}  // namespace cnet::shm
