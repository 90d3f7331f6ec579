#include "mem/lru.hpp"

#include <cassert>

namespace smartmem::mem {

LruLists::LruLists(std::uint32_t inactive_ratio)
    : inactive_ratio_(inactive_ratio == 0 ? 1 : inactive_ratio) {}

void LruLists::push_front(Which which, Link n) {
  List& list = list_of(which);
  Node& node = nodes_[n];
  node.list = which;
  node.prev = kNil;
  node.next = list.head;
  if (list.head != kNil) {
    nodes_[list.head].prev = n;
  } else {
    list.tail = n;
  }
  list.head = n;
  ++list.size;
}

void LruLists::unlink(Link n) {
  Node& node = nodes_[n];
  List& list = list_of(node.list);
  if (node.prev != kNil) {
    nodes_[node.prev].next = node.next;
  } else {
    list.head = node.next;
  }
  if (node.next != kNil) {
    nodes_[node.next].prev = node.prev;
  } else {
    list.tail = node.prev;
  }
  --list.size;
  node.list = Which::kNone;
}

void LruLists::insert(Pfn frame, std::uint64_t key) {
  assert(frame < kNil);
  if (frame >= nodes_.size()) nodes_.resize(frame + 1);
  assert(!tracked(frame) && "frame already on the LRU");
  nodes_[frame].key = key;
  push_front(Which::kInactive, static_cast<Link>(frame));
}

void LruLists::touch(Pfn frame) {
  if (!tracked(frame)) return;
  const auto n = static_cast<Link>(frame);
  if (nodes_[n].list == Which::kActive) return;  // accessed bit only
  // Second touch while inactive: promote.
  unlink(n);
  push_front(Which::kActive, n);
}

void LruLists::remove(Pfn frame) {
  if (tracked(frame)) unlink(static_cast<Link>(frame));
}

void LruLists::rebalance() {
  // Keep inactive at least 1/ratio of the total, demoting cold active pages.
  const std::size_t want_inactive = size() / inactive_ratio_;
  while (inactive_.size < want_inactive && active_.size > 0) {
    const Link n = active_.tail;
    unlink(n);
    push_front(Which::kInactive, n);
  }
}

std::optional<LruLists::Victim> LruLists::pop_victim() {
  if (size() == 0) return std::nullopt;
  if (inactive_.size == 0) rebalance();
  // Everything active: the coldest active page is the victim directly.
  const Link n = inactive_.size > 0 ? inactive_.tail : active_.tail;
  unlink(n);
  return Victim{n, nodes_[n].key};
}

}  // namespace smartmem::mem
