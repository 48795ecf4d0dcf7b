// ToR-level routing matrix and SNMP-style link-load synthesis (§5).
//
// Tomography sees only what SNMP byte counters on switch interfaces expose:
// one load value per inter-switch link.  The unknowns are the
// origin-destination volumes between ToR switches — n(n-1) of them against
// roughly 2n + 2a link measurements, the under-constrained regime the paper
// emphasizes ("the typical datacenter topology represents a worst-case
// scenario for tomography").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "topology/topology.h"

namespace dct {

class SparseTm;

/// A dense ToR-to-ToR traffic matrix (diagonal unused/zero).
class DenseTorTm {
 public:
  explicit DenseTorTm(std::int32_t n = 0) : n_(n), v_(static_cast<std::size_t>(n) * n, 0.0) {}

  [[nodiscard]] std::int32_t size() const noexcept { return n_; }
  [[nodiscard]] double at(std::int32_t i, std::int32_t j) const {
    return v_[static_cast<std::size_t>(i) * n_ + j];
  }
  void set(std::int32_t i, std::int32_t j, double x) {
    v_[static_cast<std::size_t>(i) * n_ + j] = x;
  }
  void add(std::int32_t i, std::int32_t j, double x) {
    v_[static_cast<std::size_t>(i) * n_ + j] += x;
  }
  [[nodiscard]] double total() const;
  /// Count of strictly positive off-diagonal entries.
  [[nodiscard]] std::size_t nonzero_count() const;
  /// Off-diagonal pair count, the sparsity denominator.
  [[nodiscard]] std::size_t pair_count() const noexcept {
    return static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_ - 1);
  }
  /// Number of largest entries needed to cover `volume_fraction` of total.
  [[nodiscard]] std::size_t entries_for_volume(double volume_fraction) const;

  [[nodiscard]] const std::vector<double>& raw() const noexcept { return v_; }

  /// Conversion from the analysis layer's sparse ToR TM.
  static DenseTorTm from_sparse(const SparseTm& tm);

 private:
  std::int32_t n_;
  std::vector<double> v_;
};

/// The routing matrix at ToR granularity: which inter-switch links each
/// ToR-to-ToR OD pair crosses.  Rows are OD pairs in (src*n + dst) order;
/// columns are *measured links* indexed densely.
///
/// All n^2 paths live in one flat table, row k = src*n + dst, each row
/// padded to kPathWidth hops (the longest path: ToR up, agg up, agg down,
/// ToR down) with the sentinel index link_count().  A diagonal row is all
/// sentinel.  Kernels that scan the table size their link vectors
/// link_count() + 1: the sentinel's input is +0 (+inf for a minimum) and
/// its output is thrown away, so a padded row costs no branch and no bit.
class RoutingMatrix {
 public:
  explicit RoutingMatrix(const Topology& topo);

  [[nodiscard]] std::int32_t tor_count() const noexcept { return n_; }
  [[nodiscard]] std::int32_t link_count() const noexcept {
    return static_cast<std::int32_t>(link_ids_.size());
  }

  /// Dense measured-link index of a topology link; -1 if not measured.
  [[nodiscard]] std::int32_t measured_index(LinkId l) const;
  /// Topology link behind a measured index.
  [[nodiscard]] LinkId link_at(std::int32_t measured) const;

  /// Measured-link indices crossed by OD pair (i -> j), in path order:
  /// the row's real hops, without its padding.
  [[nodiscard]] std::span<const std::int32_t> path(std::int32_t i, std::int32_t j) const;

  /// Hops per row of the padded path table.
  static constexpr std::size_t kPathWidth = 4;
  /// The padded path table: n^2 rows of kPathWidth measured indices.
  [[nodiscard]] std::span<const std::int32_t> path_table() const noexcept { return table_; }

  /// b = A x : link loads induced by a ToR TM.
  [[nodiscard]] std::vector<double> link_loads(const DenseTorTm& tm) const;

  /// y = A^T lambda : adjoint application (for least-squares solvers).
  [[nodiscard]] std::vector<double> adjoint(const std::vector<double>& lambda) const;

 private:
  std::int32_t n_;
  std::vector<LinkId> link_ids_;
  std::vector<std::int32_t> measured_of_link_;  // LinkId value -> dense idx
  std::vector<std::int32_t> table_;             // od index * kPathWidth + hop
};

}  // namespace dct
