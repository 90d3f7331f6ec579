// Borrower-side interface to cluster remote-tmem lending.
//
// When a node's quota exceeds its physical capacity (the global policy
// granted it more than it owns), Algorithm 1 may place a put into a donor
// node's pool across the rack fabric. The hypervisor only sees this
// interface; the cluster's LendingBroker implements it, keeping the
// per-borrower owner index, picking donors deterministically and settling
// donor frames at window barriers. A null RemoteTmem (the single-node
// default) disables lending entirely — no code path changes, no extra
// state.
//
// Key space: a borrowed page is identified by the borrower's own
// (vm, pool type, object, index) tuple. The broker maps that tuple to the
// donor whose leased frame backs it; the donor holds only opaque leased
// frames, so borrowed keys can never collide with the donor's own guests.
//
// remote_put and remote_get return the same TmemOp the hypercall hands the
// guest: tier kRemote, and `fabric` set to the modeled round trip (or the
// accumulated timeouts of a give-up), which the guest charges on top of
// the local hypercall cost.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "hyper/vm_data.hpp"
#include "tmem/key.hpp"

namespace smartmem::hyper {

class RemoteTmem {
 public:
  virtual ~RemoteTmem() = default;

  /// Tries to place the page with a donor. Fails with kNoCapacity when no
  /// donor has placement credit left (the put then fails exactly as a full
  /// node would) or when the fabric gave up on the exchange.
  /// Re-putting a key the broker already holds replaces it in place on the
  /// same donor.
  virtual TmemOp remote_put(VmId vm, tmem::PoolType type, std::uint64_t object,
                            std::uint32_t index, tmem::PagePayload payload) = 0;

  /// Fetches a borrowed page (kNotFound when the broker holds no such key).
  /// Ephemeral-typed pages keep their victim-cache semantics: a hit
  /// consumes the page and frees its donor frame.
  virtual TmemOp remote_get(VmId vm, tmem::PoolType type, std::uint64_t object,
                            std::uint32_t index) = 0;

  /// Drops one borrowed page / every borrowed page of an object.
  virtual bool remote_flush(VmId vm, tmem::PoolType type, std::uint64_t object,
                            std::uint32_t index) = 0;
  virtual PageCount remote_flush_object(VmId vm, tmem::PoolType type,
                                        std::uint64_t object) = 0;

  /// Whether the broker currently holds this exact key for this borrower.
  /// The hypervisor routes replacement puts through this check so a
  /// borrowed key is never duplicated locally.
  virtual bool owns(VmId vm, tmem::PoolType type, std::uint64_t object,
                    std::uint32_t index) const = 0;

  /// Pages currently borrowed on behalf of one VM / of the whole node.
  virtual PageCount borrowed_pages(VmId vm) const = 0;
  virtual PageCount borrowed_total() const = 0;

  /// Releases up to `max_pages` ephemeral-typed borrowed pages (quota
  /// shrink and slow reclaim; persistent pages hold the only copy of guest
  /// data and are only moved by the broker's recall path). Returns the
  /// number of pages actually released.
  virtual PageCount release_borrowed(PageCount max_pages) = 0;
};

}  // namespace smartmem::hyper
