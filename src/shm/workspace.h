// Named shared-memory workspaces: the relocatable home for counter state.
//
// A Workspace is one file-backed (memfd by default, tmpfs/hugetlbfs path
// optional) shared mapping with a self-describing header at offset 0:
//
//   [ magic | version | name | data footprint | bump cursor | layout table ]
//   [ ......................... data region ........................... ]
//
// Objects are carved out of the data region by a bump allocator that
// enforces align/footprint discipline (power-of-two alignment, bounded
// table, no duplicate names) and records every placement in the layout
// table. Handles are *offsets*, never pointers: a process that crashed and
// restarted re-attaches the same fd (or path), validates magic/version, and
// resolves each object by name to wherever its own mmap landed — the state
// itself never moves, only the view of it. This is the firedancer workspace
// idiom (fd_wksp) scaled down to what the counter deployment needs.
//
// Concurrency contract: alloc() is single-builder — exactly one process
// (the deploy supervisor, deploy/deploy_internal.h) lays out the workspace
// before any other process attaches; attached processes only find(). The
// data region's contents are whatever the objects make of them (the rt
// plan state is std::atomic, which is address-free and lock-free on every
// target we build for).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace cnet::shm {

/// First 8 bytes of every workspace ("CNETWS01", little-endian).
inline constexpr std::uint64_t kWorkspaceMagic = 0x3130535754454e43ull;
inline constexpr std::uint32_t kWorkspaceVersion = 1;

/// Layout-table capacity; sized for deployments (a few plan/control/history
/// objects per tile), not for general allocation.
inline constexpr std::uint32_t kMaxObjects = 64;

/// Names (workspace and object) are NUL-terminated within 48 bytes.
inline constexpr std::size_t kMaxNameLen = 47;

/// Largest accepted object alignment; also the data region's base alignment
/// (one page), so align_up(offset, align) yields an aligned address in every
/// process regardless of where mmap placed the segment.
inline constexpr std::uint64_t kMaxObjectAlign = 4096;

/// The bump allocator's placement rule: an object aligned to `align` (a
/// power of two) lands at the first multiple of `align` at or past the
/// cursor. alloc() places with it, so a caller that sums
/// `align_up(size, align) + footprint` over its objects, in alloc order,
/// gets the exact data footprint create() needs.
constexpr std::uint64_t align_up(std::uint64_t cursor, std::uint64_t align) {
  return (cursor + align - 1) & ~(align - 1);
}

/// How Workspace::create backs the segment.
struct CreateOptions {
  /// Non-empty: create (O_EXCL) a regular file at this path — put it on a
  /// tmpfs/hugetlbfs mount for page-size control. Empty: anonymous memfd,
  /// which lives exactly as long as processes hold the fd (no cleanup cruft
  /// after a crash) and is inherited across fork().
  std::string backing_path;
  /// Ask the kernel for hugepage backing (MFD_HUGETLB); falls back to
  /// normal pages when the pool is empty. memfd backing only.
  bool try_hugepages = false;
};

/// One entry in the header's layout table.
struct LayoutEntry {
  char name[48];            ///< NUL-terminated object name
  std::uint64_t offset;     ///< bytes from the data region base
  std::uint64_t footprint;  ///< bytes reserved
  std::uint64_t align;      ///< alignment the object was placed with
};

/// A named shared segment plus its layout table. Move-only; the destructor
/// unmaps and closes (the segment itself persists for as long as any
/// process holds an fd or mapping).
class Workspace {
 public:
  Workspace() = default;
  ~Workspace();
  Workspace(Workspace&& other) noexcept;
  Workspace& operator=(Workspace&& other) noexcept;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Creates a fresh workspace with `data_footprint` bytes of object space.
  /// On failure returns false and stores a diagnostic in `*error`.
  static bool create(std::string_view name, std::uint64_t data_footprint, Workspace* out,
                     std::string* error, const CreateOptions& options = {});

  /// Maps an existing workspace from its fd (dup'd; the caller keeps
  /// ownership of `fd`). Validates magic, version, and size before
  /// accepting — a truncated or foreign file is rejected, not mapped.
  static bool attach(int fd, Workspace* out, std::string* error);

  /// Opens and attaches a file-backed workspace by path.
  static bool attach_path(const std::string& path, Workspace* out, std::string* error);

  bool valid() const { return base_ != nullptr; }
  /// The workspace's fd — pass across fork() (or SCM_RIGHTS) so a restarted
  /// tile can attach() the same segment.
  int fd() const { return fd_; }
  const char* name() const;
  std::uint64_t data_footprint() const;
  std::uint64_t used() const;
  std::uint64_t remaining() const { return data_footprint() - used(); }
  std::uint32_t object_count() const;
  const LayoutEntry* entry(std::uint32_t index) const;

  /// Reserves `footprint` bytes at the next `align`-aligned offset and
  /// records the object in the layout table. Single-builder only (see the
  /// file comment). Returns the object's address in this mapping, or null
  /// with a diagnostic (bad name, bad align, duplicate, table full, or
  /// exhaustion — the error spells out what was left).
  void* alloc(std::string_view obj_name, std::uint64_t align, std::uint64_t footprint,
              std::string* error);

  /// Resolves an object placed by any process. Returns its address in this
  /// mapping (and its footprint through `footprint` when non-null), or null
  /// if no such name.
  void* find(std::string_view obj_name, std::uint64_t* footprint = nullptr) const;

  /// Offset of `p` from the data region base (for storing cross-process
  /// references inside workspace objects).
  std::uint64_t offset_of(const void* p) const;
  /// Inverse of offset_of in this process's mapping.
  void* at(std::uint64_t offset) const;

 private:
  struct Header;
  Header* header() const;
  std::byte* data() const;
  void reset() noexcept;

  void* base_ = nullptr;
  std::size_t map_size_ = 0;
  int fd_ = -1;
};

}  // namespace cnet::shm
