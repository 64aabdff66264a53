// Member definitions of FvDriver (fv_driver.hpp). Included only by the
// solver translation units: each explicitly instantiates its own
// FvDriver<Solver> after defining its physics, so the per-object flux is
// a direct, inlinable call in the serial loop.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "obs/metrics.hpp"
#include "solver/fv_driver.hpp"
#include "taskgraph/scheme.hpp"
#include "verify/access.hpp"

namespace tamp::solver {

template <class Physics>
FvDriver<Physics>::FvDriver(mesh::Mesh& mesh, level_t max_levels,
                            std::optional<simd::Level> simd)
    : mesh_(mesh), u_(mesh.num_cells(), Physics::kVars),
      acc_(mesh.num_faces(), 2 * Physics::kVars), max_levels_(max_levels),
      layout_(identity_permutation(mesh)),
      simd_level_(simd::resolve(simd)),
      kernels_(simdk::kernel_table(simd_level_).*Physics::kKernels) {
  static_assert(Physics::kVars >= 1 && Physics::kVars <= simdk::kMaxVars,
                "kernel context columns cannot hold this physics");
  TAMP_EXPECTS(max_levels >= 1, "need at least one temporal level");
  fill_kernel_geometry(mesh_, layout_,
                       static_cast<eindex_t>(Physics::kVars) *
                           static_cast<eindex_t>(acc_.stride()),
                       geom_);
  point_kernel_ctx();
}

template <class Physics>
void FvDriver<Physics>::point_kernel_ctx() {
  for (int v = 0; v < Physics::kVars; ++v) {
    ctx_.u[v] = u_.var(v);
    ctx_.acc0[v] = acc_.var(acc_col(0, v));
    ctx_.acc1[v] = acc_.var(acc_col(1, v));
  }
  ctx_.face_a = geom_.face_a.data();
  ctx_.face_b = geom_.face_b.data();
  ctx_.nx = geom_.nx.data();
  ctx_.ny = geom_.ny.data();
  ctx_.nz = geom_.nz.data();
  ctx_.area = geom_.area.data();
  ctx_.dist = geom_.dist.data();
  ctx_.inv_vol = geom_.inv_vol.data();
  ctx_.xadj = geom_.gather_xadj.data();
  ctx_.slot = geom_.gather_slot.data();
  ctx_.sign = geom_.gather_sign.data();
}

template <class Physics>
std::vector<level_t> FvDriver<Physics>::assign_temporal_levels() {
  const index_t n = mesh_.num_cells();
  std::vector<double> dt_cell(static_cast<std::size_t>(n));
  double dt_min = std::numeric_limits<double>::max();
  for (index_t c = 0; c < n; ++c) {
    const auto sc = static_cast<std::size_t>(c);
    dt_cell[sc] = physics().stable_step(c);
    dt_min = std::min(dt_min, dt_cell[sc]);
  }
  TAMP_ENSURE(dt_min > 0 && std::isfinite(dt_min), "invalid CFL time step");
  dt0_ = dt_min;
  std::vector<level_t> levels(static_cast<std::size_t>(n));
  for (index_t c = 0; c < n; ++c) {
    const auto raw = static_cast<int>(
        std::floor(std::log2(dt_cell[static_cast<std::size_t>(c)] / dt_min)));
    levels[static_cast<std::size_t>(c)] = static_cast<level_t>(
        std::clamp(raw, 0, static_cast<int>(max_levels_) - 1));
  }
  mesh_.set_cell_levels(levels);
  return levels;
}

template <class Physics>
void FvDriver<Physics>::update_cell(index_t c) {
  const auto k = static_cast<std::size_t>(kernel_cell(c));
  const double inv_v = geom_.inv_vol[k];
  for (const index_t f : mesh_.cell_faces(c)) {
    const auto kf = static_cast<std::size_t>(kernel_face(f));
    const int side = mesh_.face_cell(f, 0) == c ? 0 : 1;
    const double sign = side == 0 ? -1.0 : 1.0;
    for (int v = 0; v < Physics::kVars; ++v) {
      double* accv = acc_.var(acc_col(side, v));
      u_.var(v)[k] += sign * accv[kf] * inv_v;
      accv[kf] = 0.0;
    }
  }
}

template <class Physics>
void FvDriver<Physics>::run_iteration() {
  TAMP_EXPECTS(dt0_ > 0, "call assign_temporal_levels() first");
  const taskgraph::TemporalScheme scheme(
      static_cast<level_t>(mesh_.max_level() + 1));
  for (index_t s = 0; s < scheme.num_subiterations(); ++s) {
    for (level_t tau = scheme.top_level(s);; --tau) {
      const double dt_tau = dt0_ * std::exp2(static_cast<double>(tau));
      for (index_t f = 0; f < mesh_.num_faces(); ++f)
        if (mesh_.face_level(f) == tau) physics().flux_face(f, dt_tau);
      for (index_t c = 0; c < mesh_.num_cells(); ++c)
        if (mesh_.cell_level(c) == tau) update_cell(c);
      if (tau == 0) break;
    }
    time_ += dt0_;
  }
}

template <class Physics>
typename FvDriver<Physics>::IterationTasks
FvDriver<Physics>::make_iteration_tasks(
    const std::vector<part_t>& domain_of_cell, part_t ndomains) {
  auto classes = std::make_shared<taskgraph::ClassMap>();
  taskgraph::TaskGraph graph = taskgraph::generate_task_graph(
      mesh_, domain_of_cell, ndomains, {}, classes.get());
  runtime::TaskBody body = make_iteration_body(graph, std::move(classes));
  return {std::move(graph), std::move(body)};
}

template <class Physics>
ClassRuns FvDriver<Physics>::relayout(const taskgraph::ClassMap& classes) {
  ClassRuns runs;
  MeshPermutation next = class_layout(mesh_, classes, &runs);
  // State and accumulators carry values the mesh does not (a finer face
  // fluxes after a coarser cell's last update, so accumulators are not
  // all zero between iterations): move them, one column at a time. The
  // geometry is the mesh's, refilled in place in the new order.
  std::vector<double> scratch;
  permute_vars(u_, layout_.cell_old_to_new, next.cell_new_to_old, scratch);
  permute_vars(acc_, layout_.face_old_to_new, next.face_new_to_old, scratch);
  layout_ = std::move(next);
  fill_kernel_geometry(mesh_, layout_, geom_.side_offset, geom_);
  point_kernel_ctx();
  ++layout_epoch_;
  ++stats_.relayouts;
  obs::counter("solver.layout.relayouts").add();
  return runs;
}

template <class Physics>
void FvDriver<Physics>::bind_layout(
    std::shared_ptr<const taskgraph::ClassMap> classes,
    const taskgraph::ClassDelta* delta) {
  if (classes != bound_classes_) {
    const bool derive = delta != nullptr && runs_ != nullptr &&
                        delta->applies_to(bound_classes_);
    auto runs = std::make_shared<ClassRuns>(
        derive ? update_class_runs(mesh_, *runs_, delta->moves, layout_)
               : build_class_runs(mesh_, *classes, layout_));
    if (derive) ++stats_.derived_binds;
    const index_t objects = mesh_.num_cells() + mesh_.num_faces();
    const auto extra = static_cast<std::int64_t>(runs->runs.size()) -
                       static_cast<std::int64_t>(runs->fresh_runs());
    if (extra * kObjectsPerExtraRun > static_cast<std::int64_t>(objects))
      *runs = relayout(*classes);
    stats_.runs = runs->runs.size();
    stats_.fresh_runs = runs->fresh_runs();
    stats_.objects = objects;
    runs_ = std::move(runs);
  }
  bound_classes_ = std::move(classes);
  obs::gauge("solver.layout.objects_per_run").set(stats_.objects_per_run());
}

template <class Physics>
runtime::TaskBody FvDriver<Physics>::make_iteration_body(
    const taskgraph::TaskGraph& graph,
    std::shared_ptr<const taskgraph::ClassMap> classes,
    const taskgraph::ClassDelta* delta) {
  TAMP_EXPECTS(dt0_ > 0, "call assign_temporal_levels() first");
  TAMP_EXPECTS(classes != nullptr, "iteration body needs a class map");
  TAMP_EXPECTS(classes->task_class.size() ==
                   static_cast<std::size_t>(graph.num_tasks()),
               "class map does not match the graph");
  bind_layout(classes, delta);

  // Per-task execution plan, self-contained so the body outlives both the
  // caller's structs and the graph: the task's slice of the run list.
  struct Plan {
    double dt;
    bool face;
    std::size_t begin, mid, end;  ///< faces: [begin,mid) interior runs,
                                  ///< [mid,end) boundary runs
  };
  auto plans = std::make_shared<std::vector<Plan>>();
  plans->reserve(static_cast<std::size_t>(graph.num_tasks()));
  const std::vector<std::size_t>& offset = runs_->offset;
  for (index_t t = 0; t < graph.num_tasks(); ++t) {
    const taskgraph::Task& task = graph.task(t);
    const auto cls = static_cast<std::size_t>(
        classes->task_class[static_cast<std::size_t>(t)]);
    TAMP_EXPECTS(3 * cls + 3 < offset.size(), "task class out of range");
    const double dt = dt0_ * std::exp2(static_cast<double>(task.level));
    if (task.type == taskgraph::ObjectType::face)
      plans->push_back(
          {dt, true, offset[3 * cls + 1], offset[3 * cls + 2],
           offset[3 * cls + 3]});
    else
      plans->push_back(
          {dt, false, offset[3 * cls], offset[3 * cls + 1],
           offset[3 * cls + 1]});
  }
  return [this, plans, runs = runs_, epoch = layout_epoch_](index_t t) {
    TAMP_EXPECTS(epoch == layout_epoch_,
                 "task body bound before a relayout; bind a new one");
    const Plan& plan = (*plans)[static_cast<std::size_t>(t)];
    const IdRange* r = runs->runs.data();
    if (plan.face) {
      if (verify::recording_active())
        record_face_runs(geom_, {r + plan.begin, r + plan.mid},
                         {r + plan.mid, r + plan.end});
      for (std::size_t i = plan.begin; i < plan.mid; ++i)
        kernels_.interior(ctx_, r[i].begin, r[i].end, plan.dt);
      double tally = 0.0;
      for (std::size_t i = plan.mid; i < plan.end; ++i)
        tally += kernels_.boundary(ctx_, r[i].begin, r[i].end, plan.dt);
      physics().add_boundary_tally(tally);
    } else {
      if (verify::recording_active())
        record_cell_runs(geom_, {r + plan.begin, r + plan.end});
      for (std::size_t i = plan.begin; i < plan.end; ++i)
        kernels_.update(ctx_, r[i].begin, r[i].end);
    }
  };
}

template <class Physics>
void FvDriver<Physics>::note_tasks_complete() {
  const taskgraph::TemporalScheme scheme(
      static_cast<level_t>(mesh_.max_level() + 1));
  time_ += dt0_ * static_cast<double>(scheme.num_subiterations());
}

template <class Physics>
runtime::ExecutionReport FvDriver<Physics>::run_iteration_tasks(
    const std::vector<part_t>& domain_of_cell, part_t ndomains,
    const std::vector<part_t>& domain_to_process,
    const runtime::RuntimeConfig& runtime_config) {
  const IterationTasks iter = make_iteration_tasks(domain_of_cell, ndomains);
  runtime::ExecutionReport report =
      runtime::execute(iter.graph, domain_to_process, runtime_config,
                       iter.body);
  note_tasks_complete();
  return report;
}

}  // namespace tamp::solver
