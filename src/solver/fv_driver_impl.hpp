// Member definitions of FvDriver (fv_driver.hpp). Included only by the
// solver translation units: each explicitly instantiates its own
// FvDriver<Solver> after defining its physics, so the per-object flux is
// a direct, inlinable call in the serial loop and the scattered task
// loop.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "solver/fv_driver.hpp"
#include "taskgraph/scheme.hpp"
#include "verify/access.hpp"

namespace tamp::solver {

template <class Physics>
FvDriver<Physics>::FvDriver(mesh::Mesh& mesh, level_t max_levels,
                            simd::Request simd)
    : mesh_(mesh), u_(mesh.num_cells(), Physics::kVars),
      acc_(mesh.num_faces(), 2 * Physics::kVars), max_levels_(max_levels),
      geom_(build_kernel_geometry(mesh)),
      gather_slot_(build_gather_slots(
          geom_, static_cast<eindex_t>(Physics::kVars) *
                     static_cast<eindex_t>(acc_.stride()))),
      gather_sign_(build_gather_signs(geom_)),
      simd_level_(simd::resolve(simd)),
      kernels_(simdk::kernel_table(simd_level_).*Physics::kKernels) {
  static_assert(Physics::kVars >= 1 && Physics::kVars <= simdk::kMaxVars,
                "kernel context columns cannot hold this physics");
  TAMP_EXPECTS(max_levels >= 1, "need at least one temporal level");
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
  ctx_.slot = gather_slot_.data();
  ctx_.sign = gather_sign_.data();
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
  const auto sc = static_cast<std::size_t>(c);
  const double inv_v = geom_.inv_vol[sc];
  // A cell update reads+writes its own state and gathers-and-resets its
  // side of every adjacent face accumulator (writes subsume the reads).
  verify::record_write(verify::ObjectKind::cell_state, c);
  for (const index_t f : mesh_.cell_faces(c)) {
    const auto sf = static_cast<std::size_t>(f);
    const int side = mesh_.face_cell(f, 0) == c ? 0 : 1;
    verify::record_write(side == 0 ? verify::ObjectKind::face_acc_side0
                                   : verify::ObjectKind::face_acc_side1,
                         f);
    const double sign = side == 0 ? -1.0 : 1.0;
    for (int v = 0; v < Physics::kVars; ++v) {
      double* accv = acc_.var(acc_col(side, v));
      u_.var(v)[sc] += sign * accv[sf] * inv_v;
      accv[sf] = 0.0;
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
runtime::TaskBody FvDriver<Physics>::make_iteration_body(
    const taskgraph::TaskGraph& graph,
    std::shared_ptr<const taskgraph::ClassMap> classes) {
  TAMP_EXPECTS(dt0_ > 0, "call assign_temporal_levels() first");
  TAMP_EXPECTS(classes != nullptr, "iteration body needs a class map");
  auto access = std::make_shared<ClassAccessTable>(
      build_class_access_ranges(mesh_, *classes));

  // Per-task execution plan, self-contained so the body outlives both the
  // caller's structs and the graph. A task whose class list is one
  // contiguous id run carries the run and streams it; scattered classes
  // keep the per-object list walk.
  struct Plan {
    double dt;
    index_t cls;
    bool face;
    bool ranged;
    index_t begin, mid, end;  ///< faces: [begin,mid) interior, [mid,end) boundary
  };
  auto plans = std::make_shared<std::vector<Plan>>();
  plans->reserve(static_cast<std::size_t>(graph.num_tasks()));
  for (index_t t = 0; t < graph.num_tasks(); ++t) {
    const taskgraph::Task& task = graph.task(t);
    const index_t cls = classes->task_class[static_cast<std::size_t>(t)];
    Plan plan{dt0_ * std::exp2(static_cast<double>(task.level)), cls,
              task.type == taskgraph::ObjectType::face, false, 0, 0, 0};
    if (plan.face) {
      const auto& r = classes->face_range[static_cast<std::size_t>(cls)];
      if (r.valid())
        plan = {plan.dt, cls, true, true, r.begin, r.boundary_begin, r.end};
    } else {
      const auto& r = classes->cell_range[static_cast<std::size_t>(cls)];
      if (r.valid()) plan = {plan.dt, cls, false, true, r.begin, r.end, r.end};
    }
    plans->push_back(plan);
  }
  return [this, classes, plans, access](index_t t) {
    const Plan& plan = (*plans)[static_cast<std::size_t>(t)];
    const auto scls = static_cast<std::size_t>(plan.cls);
    if (plan.face) {
      if (plan.ranged) {
        if (verify::recording_active())
          record_class_ranges(access->face[scls], /*face_task=*/true);
        kernels_.interior(ctx_, plan.begin, plan.mid, plan.dt);
        physics().add_boundary_tally(
            kernels_.boundary(ctx_, plan.mid, plan.end, plan.dt));
      } else {
        for (const index_t f : classes->class_faces[scls])
          physics().flux_face(f, plan.dt);
      }
    } else {
      if (plan.ranged) {
        if (verify::recording_active())
          record_class_ranges(access->cell[scls], /*face_task=*/false);
        kernels_.update(ctx_, plan.begin, plan.end);
      } else {
        for (const index_t c : classes->class_cells[scls]) update_cell(c);
      }
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
