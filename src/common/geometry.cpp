#include "common/geometry.hpp"

#include <cstdlib>

#include "common/log.hpp"

namespace flov {

const char* to_string(Direction d) {
  switch (d) {
    case Direction::North: return "N";
    case Direction::East: return "E";
    case Direction::South: return "S";
    case Direction::West: return "W";
    case Direction::Local: return "L";
  }
  return "?";
}

MeshGeometry::MeshGeometry(int width, int height)
    : width_(width), height_(height) {
  FLOV_CHECK(width >= 2 && height >= 2, "mesh must be at least 2x2");
}

void MeshGeometry::invalid_node(NodeId id) {
  fatal(__FILE__, __LINE__,
        "check failed: valid(id) — invalid node id " + std::to_string(id));
}

bool MeshGeometry::has_both_horizontal_neighbors(NodeId id) const {
  const Coord c = coord(id);
  return c.x > 0 && c.x < width_ - 1;
}

bool MeshGeometry::has_both_vertical_neighbors(NodeId id) const {
  const Coord c = coord(id);
  return c.y > 0 && c.y < height_ - 1;
}

bool MeshGeometry::is_corner(NodeId id) const {
  return !has_both_horizontal_neighbors(id) && !has_both_vertical_neighbors(id);
}

int MeshGeometry::hops(NodeId a, NodeId b) const {
  const Coord ca = coord(a);
  const Coord cb = coord(b);
  return std::abs(ca.x - cb.x) + std::abs(ca.y - cb.y);
}

std::string to_string(Coord c) {
  return "(" + std::to_string(c.x) + "," + std::to_string(c.y) + ")";
}

}  // namespace flov
