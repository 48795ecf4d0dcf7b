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
/// The matrix is kept in its factored form, not as a list of paths.  Pair
/// (i -> j) crosses tor_up(i), then agg_up(agg_of(i)) and
/// agg_down(agg_of(j)) when the two ToRs hang off different aggregation
/// switches, then tor_down(j).  Consecutive ToRs under one aggregation
/// switch form a block; the scatter kernels walk each row block by block,
/// so every link's running sum stays in a register.
///
/// Every kernel keeps, for each output, the term order of the
/// straightforward per-pair loops, so results are bit for bit theirs:
///  * a pair's path sum (adjoint, normal operator) is
///    (((0 + u[tor_up(i)]) + u[agg_up]) + u[agg_down]) + u[tor_down(j)],
///    the agg hops only across switches;
///  * each link receives its pairs' terms in (i, j) order: tor_up(i) row i
///    in j order, tor_down(j) column j in i order, agg_up(a) and
///    agg_down(b) their cross-switch pairs in (i, j) order.
/// A term of +-0 is added rather than skipped: a sum that starts at +0 is
/// never -0, so +-0 leaves every partial sum unchanged.
///
/// A single ToR has no OD pair, so every estimator returns the all-zero
/// matrix for it.
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

  /// The factored paths, as measured-link indices.  Arguments are not
  /// range-checked.
  [[nodiscard]] std::int32_t tor_up(std::int32_t i) const { return tor_up_[ux(i)]; }
  [[nodiscard]] std::int32_t tor_down(std::int32_t j) const { return tor_down_[ux(j)]; }
  [[nodiscard]] std::int32_t agg_of(std::int32_t i) const { return agg_[ux(i)]; }
  [[nodiscard]] std::int32_t agg_up(std::int32_t a) const { return agg_up_[ux(a)]; }
  [[nodiscard]] std::int32_t agg_down(std::int32_t a) const { return agg_down_[ux(a)]; }

  /// b = A x : link loads induced by a ToR TM.  Entries <= 0 and the
  /// diagonal carry no load.
  [[nodiscard]] std::vector<double> link_loads(const DenseTorTm& tm) const;

  /// y = A^T lambda : adjoint application (for least-squares solvers).
  /// The diagonal is +0.
  [[nodiscard]] std::vector<double> adjoint(const std::vector<double>& lambda) const;

  /// v = A diag(w) A^T u over the n^2 OD-pair weights w (the diagonal's is
  /// ignored), without allocating.  A nonempty `mask` pins v[l] to +0
  /// where mask[l] == 0.  u and v must not overlap.
  void normal_matvec(std::span<const double> w, std::span<const double> u,
                     std::span<double> v, std::span<const std::uint8_t> mask = {}) const;

  /// Calls visit(i, j, f) for every OD pair i != j in (i, j) order, where f
  /// folds `op` over u's entries along the pair's path in hop order,
  /// starting from `init`: op(op(op(op(init, tor_up), agg_up), agg_down),
  /// tor_down), the agg hops only across switches.
  template <class Op, class Visit>
  void fold_paths(std::span<const double> u, double init, Op op, Visit visit) const {
    for (std::int32_t i = 0; i < n_; ++i) {
      for (const Block& blk : blocks_) {
        const double prefix = path_prefix(u, i, blk.agg, init, op);
        for (std::int32_t j = blk.begin; j < blk.end; ++j) {
          if (j != i) visit(i, j, op(prefix, u[ux(tor_down(j))]));
        }
      }
    }
  }

 private:
  /// A run of consecutive ToRs [begin, end) under aggregation switch `agg`.
  struct Block {
    std::int32_t begin;
    std::int32_t end;
    std::int32_t agg;
  };

  static std::size_t ux(std::int32_t i) { return static_cast<std::size_t>(i); }

  /// The fold of every hop but the last of a path from ToR i to a ToR
  /// under aggregation switch b.
  template <class Op>
  double path_prefix(std::span<const double> u, std::int32_t i, std::int32_t b,
                     double init, Op op) const {
    const std::int32_t a = agg_of(i);
    const double up = op(init, u[ux(tor_up(i))]);
    return b == a ? up : op(op(up, u[ux(agg_up(a))]), u[ux(agg_down(b))]);
  }

  /// Adds each pair's value into v over the pair's path, in the per-link
  /// orders above.  value(i, b) returns the value of pair (i, j) for the
  /// ToRs j under aggregation switch b, as a function of j and tor_down(j).
  template <class Value>
  void scatter(std::span<double> v, Value value) const;

  std::int32_t n_;
  std::vector<LinkId> link_ids_;
  std::vector<std::int32_t> measured_of_link_;  // LinkId value -> dense idx
  std::vector<std::int32_t> tor_up_;            // per ToR
  std::vector<std::int32_t> tor_down_;          // per ToR
  std::vector<std::int32_t> agg_;               // per ToR: its aggregation switch
  std::vector<std::int32_t> agg_up_;            // per aggregation switch
  std::vector<std::int32_t> agg_down_;          // per aggregation switch
  std::vector<Block> blocks_;                   // in ToR order
};

}  // namespace dct
