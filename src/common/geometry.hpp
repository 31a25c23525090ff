// Mesh geometry: coordinates, port directions and id <-> coordinate maps.
//
// Coordinate convention (fixed by the paper's Fig. 5 worked examples):
// router ids are row-major with row 0 at the TOP of the floorplan, so for a
// k-wide mesh   North = id - k, South = id + k, West = id - 1, East = id + 1.
// A Coord holds (x = column, y = row-from-top).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace flov {

/// Physical port direction on a mesh router. `Local` is the
/// injection/ejection port attached to the core/NI.
enum class Direction : std::uint8_t {
  North = 0,
  East = 1,
  South = 2,
  West = 3,
  Local = 4,
};

/// Number of ports on a mesh router (4 mesh directions + local).
inline constexpr int kNumPorts = 5;
/// Number of mesh (non-local) directions.
inline constexpr int kNumMeshDirs = 4;

/// All mesh directions in a fixed iteration order.
inline constexpr std::array<Direction, 4> kMeshDirections = {
    Direction::North, Direction::East, Direction::South, Direction::West};

/// Opposite mesh direction (North<->South, East<->West).
constexpr Direction opposite(Direction d) {
  switch (d) {
    case Direction::North: return Direction::South;
    case Direction::East: return Direction::West;
    case Direction::South: return Direction::North;
    case Direction::West: return Direction::East;
    case Direction::Local: return Direction::Local;
  }
  return Direction::Local;
}

/// True for North/South.
constexpr bool is_vertical(Direction d) {
  return d == Direction::North || d == Direction::South;
}

/// True for East/West.
constexpr bool is_horizontal(Direction d) {
  return d == Direction::East || d == Direction::West;
}

/// Human-readable direction name ("N", "E", "S", "W", "L").
const char* to_string(Direction d);

/// Integer index of a direction, usable as an array subscript.
constexpr int dir_index(Direction d) { return static_cast<int>(d); }

/// Direction from an array subscript.
constexpr Direction dir_from_index(int i) { return static_cast<Direction>(i); }

/// A 2-D mesh coordinate: x = column (0 at the West edge), y = row counted
/// from the North (top) edge.
struct Coord {
  int x = 0;
  int y = 0;

  friend bool operator==(const Coord&, const Coord&) = default;
};

/// Geometry of a width x height mesh. Stateless utility: maps ids to
/// coordinates and neighbors, and answers edge/corner queries used by the
/// FLOV link-activation rules.
class MeshGeometry {
 public:
  MeshGeometry(int width, int height);

  int width() const { return width_; }
  int height() const { return height_; }
  int num_nodes() const { return width_ * height_; }

  bool valid(NodeId id) const { return id >= 0 && id < num_nodes(); }

  Coord coord(NodeId id) const {
    return Coord{static_cast<int>(id % width_), static_cast<int>(id / width_)};
  }

  NodeId id(Coord c) const { return c.y * width_ + c.x; }
  NodeId id(int x, int y) const { return y * width_ + x; }

  /// Neighbor of `id` in direction `d`, or kInvalidNode off the mesh edge.
  /// Inline: routing, handshake and verifier walks call it once per hop.
  NodeId neighbor(NodeId id, Direction d) const {
    if (!valid(id)) invalid_node(id);
    const Coord c = coord(id);
    switch (d) {
      case Direction::North:
        return c.y > 0 ? id - width_ : kInvalidNode;
      case Direction::South:
        return c.y < height_ - 1 ? id + width_ : kInvalidNode;
      case Direction::West:
        return c.x > 0 ? id - 1 : kInvalidNode;
      case Direction::East:
        return c.x < width_ - 1 ? id + 1 : kInvalidNode;
      case Direction::Local:
        return id;
    }
    return kInvalidNode;
  }

  /// True if `id` has neighbors on BOTH sides of the given axis; this is the
  /// paper's condition for activating FLOV links in that dimension.
  bool has_both_horizontal_neighbors(NodeId id) const;
  bool has_both_vertical_neighbors(NodeId id) const;

  /// Corner routers have no FLOV links at all.
  bool is_corner(NodeId id) const;

  /// True if the router is in the always-on (AON) column: the LAST column
  /// (largest x), per Section V of the paper.
  bool is_aon_column(NodeId id) const { return coord(id).x == width_ - 1; }

  /// Manhattan hop distance.
  int hops(NodeId a, NodeId b) const;

 private:
  /// neighbor()'s id check failure, kept out of line so the inline fast
  /// path stays small at every call site.
  [[noreturn]] [[gnu::cold]] [[gnu::noinline]] static void invalid_node(
      NodeId id);

  int width_;
  int height_;
};

/// Formats "(x,y)" for diagnostics.
std::string to_string(Coord c);

}  // namespace flov
